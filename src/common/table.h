// Plain-text table rendering for the CLI.
//
// `rmrsim_cli sweep` regenerates each of the paper's complexity claims as a
// table (DESIGN.md Section 3). This helper renders aligned ASCII tables so
// EXPERIMENTS.md rows can be pasted directly from its output.
#pragma once

#include <string>
#include <vector>

namespace rmrsim {

/// Accumulates rows of string cells and renders them with aligned columns.
class TextTable {
 public:
  /// Sets the header row. Must be called before add_row.
  void set_header(std::vector<std::string> header);

  /// Appends one data row; its size must match the header's.
  void add_row(std::vector<std::string> row);

  /// Renders the table, one line per row, columns padded with two spaces and
  /// a dashed rule under the header.
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` digits after the decimal point.
std::string fixed(double value, int digits = 2);

}  // namespace rmrsim
