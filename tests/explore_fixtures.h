// Explore fixtures shared by the model-checking test suites.
#pragma once

#include <optional>
#include <string>

#include "signaling/checker.h"
#include "verify/explorer.h"

namespace rmrsim {

/// Checks the polling form of Specification 4.1 at every explored node; a
/// violation's description becomes the explorer's verdict message.
inline ExploreChecker polling_checker() {
  return [](const History& h) -> std::optional<std::string> {
    if (const auto v = check_polling_spec(h); v.has_value()) return v->what;
    return std::nullopt;
  };
}

}  // namespace rmrsim
