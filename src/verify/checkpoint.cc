#include "verify/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "common/check.h"
#include "common/codec.h"
#include "common/crc32.h"
#include "common/fsio.h"

namespace rmrsim {

namespace {

namespace fs = std::filesystem;

// Format constants. Bump kVersion on any layout change; old files are then
// rejected as corrupt (with the version named in the reason), never
// misparsed. Version history:
//   v2  added a subtree footprint summary to ItemOutcome.
//   v3  dropped that summary again (it only fed the removed state dedup).
//   v4  dropped ItemOutcome's per-item node count (nothing read it; the
//       budget is charged through `charged`).
constexpr char kMagic[8] = {'R', 'M', 'R', 'C', 'K', 'P', 'T', '1'};
constexpr std::uint32_t kVersion = 4;

std::string epoch_filename(std::uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "epoch-%06llu.ckpt",
                static_cast<unsigned long long>(epoch));
  return buf;
}

/// Parses "epoch-N.ckpt" -> N, or 0 if the name does not match.
std::uint64_t epoch_of_filename(const std::string& name) {
  if (name.rfind("epoch-", 0) != 0) return 0;
  const std::size_t dot = name.find(".ckpt");
  if (dot == std::string::npos || dot + 5 != name.size()) return 0;
  const std::string digits = name.substr(6, dot - 6);
  if (digits.empty()) return 0;
  std::uint64_t n = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return 0;
    n = n * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return n;
}

}  // namespace

std::string encode_item_outcome(const ItemOutcome& out) {
  std::string b;
  put_schedule(b, out.schedule);
  put_u64(b, out.charged);
  put_u64(b, out.complete);
  put_u64(b, out.truncated);
  put_u64(b, out.sleep_prunes);
  put_u64(b, out.sleep_blocked);
  put_u64(b, out.backtracks);
  put_u64(b, out.replay.replayed_steps);
  put_u64(b, out.replay.snapshot_hits);
  put_u64(b, out.replay.snapshot_misses);
  put_u64(b, out.replay.snapshots_taken);
  put_u64(b, out.replay.snapshot_evictions);
  put_u64(b, out.replay.snapshot_delta_steps);
  put_u64(b, out.replay.snapshot_peak_bytes);
  put_double(b, out.estimate_sum);
  put_u64(b, out.leaves);
  put_u32(b, static_cast<std::uint32_t>(out.violations.size()));
  for (const ExploreViolation& v : out.violations) {
    put_schedule(b, v.schedule);
    put_string(b, v.message);
  }
  put_u32(b, static_cast<std::uint32_t>(out.completes.size()));
  for (const auto& s : out.completes) put_schedule(b, s);
  put_u32(b, static_cast<std::uint32_t>(out.externals.size()));
  for (const ExternalAdd& e : out.externals) {
    put_schedule(b, e.node_path);
    put_u32(b, static_cast<std::uint32_t>(e.proc));
  }
  return b;
}

ItemOutcome decode_item_outcome(std::string_view bytes) {
  ByteReader r(bytes);
  ItemOutcome out;
  out.schedule = r.schedule();
  out.charged = r.u64();
  out.complete = r.u64();
  out.truncated = r.u64();
  out.sleep_prunes = r.u64();
  out.sleep_blocked = r.u64();
  out.backtracks = r.u64();
  out.replay.replayed_steps = r.u64();
  out.replay.snapshot_hits = r.u64();
  out.replay.snapshot_misses = r.u64();
  out.replay.snapshots_taken = r.u64();
  out.replay.snapshot_evictions = r.u64();
  out.replay.snapshot_delta_steps = r.u64();
  out.replay.snapshot_peak_bytes = r.u64();
  out.estimate_sum = r.dbl();
  out.leaves = r.u64();
  const std::uint32_t nviol = r.u32();
  for (std::uint32_t i = 0; i < nviol; ++i) {
    ExploreViolation v;
    v.schedule = r.schedule();
    v.message = r.str();
    out.violations.push_back(std::move(v));
  }
  const std::uint32_t ncomp = r.u32();
  for (std::uint32_t i = 0; i < ncomp; ++i) {
    out.completes.push_back(r.schedule());
  }
  const std::uint32_t next = r.u32();
  for (std::uint32_t i = 0; i < next; ++i) {
    ExternalAdd e;
    e.node_path = r.schedule();
    e.proc = static_cast<ProcId>(r.u32());
    out.externals.push_back(std::move(e));
  }
  if (!r.done()) throw std::runtime_error("trailing bytes in outcome record");
  return out;
}

ExploreCheckpoint::ExploreCheckpoint(Config config)
    : config_(std::move(config)) {
  ensure(!config_.dir.empty(), "checkpoint directory must be non-empty");
  ensure(config_.keep_epochs >= 2,
         "checkpoint keep_epochs must be >= 2 (torn-epoch fallback)");
  ensure_dir(config_.dir);
}

void ExploreCheckpoint::reset() {
  std::lock_guard<std::mutex> g(mu_);
  for (const auto& entry : fs::directory_iterator(config_.dir)) {
    const std::string name = entry.path().filename().string();
    const bool stale_tmp =
        name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
    if (epoch_of_filename(name) != 0 || stale_tmp) {
      std::error_code ec;
      fs::remove(entry.path(), ec);
    }
  }
  outcomes_.clear();
  quarantined_.clear();
  epoch_ = 0;
  dirty_ = 0;
}

ExploreCheckpoint::LoadReport ExploreCheckpoint::load_latest() {
  std::lock_guard<std::mutex> g(mu_);
  LoadReport report;

  std::vector<std::pair<std::uint64_t, std::string>> epochs;
  for (const auto& entry : fs::directory_iterator(config_.dir)) {
    const std::string name = entry.path().filename().string();
    const std::uint64_t n = epoch_of_filename(name);
    if (n != 0) epochs.emplace_back(n, entry.path().string());
  }
  std::sort(epochs.rbegin(), epochs.rend());  // newest first

  for (const auto& [n, path] : epochs) {
    const std::optional<std::string> bytes = read_file(path);
    if (!bytes.has_value()) {
      report.discarded.push_back(path + ": unreadable");
      continue;
    }
    std::map<std::vector<ProcId>, ItemOutcome> outcomes;
    std::map<std::vector<ProcId>, std::string> quarantined;
    try {
      ByteReader r(*bytes);
      r.need(sizeof kMagic);
      if (std::memcmp(r.p, kMagic, sizeof kMagic) != 0) {
        throw std::runtime_error("bad magic");
      }
      r.p += sizeof kMagic;
      const std::uint32_t version = r.u32();
      if (version != kVersion) {
        throw std::runtime_error("unsupported version " +
                                 std::to_string(version));
      }
      const std::uint64_t fingerprint = r.u64();
      const std::uint64_t epoch = r.u64();
      const std::uint64_t n_outcomes = r.u64();
      const std::uint64_t n_quar = r.u64();
      const std::size_t header_len =
          static_cast<std::size_t>(r.p - bytes->data());
      const std::uint32_t header_crc = r.u32();
      if (crc32(std::string_view(bytes->data(), header_len)) != header_crc) {
        throw std::runtime_error("header CRC mismatch");
      }
      // Only after the header proves structurally sound is a fingerprint
      // mismatch meaningful — and then it is a config error, not corruption.
      ensure(fingerprint == config_.fingerprint,
             "checkpoint '" + path + "' was written by a different search "
             "configuration (fingerprint mismatch) — pass the same options "
             "as the original run, or start fresh with --checkpoint-dir");
      if (epoch != n) throw std::runtime_error("epoch/header disagree");
      for (std::uint64_t i = 0; i < n_outcomes; ++i) {
        ItemOutcome out = decode_item_outcome(take_record(r));
        std::vector<ProcId> key = out.schedule;
        outcomes.emplace(std::move(key), std::move(out));
      }
      for (std::uint64_t i = 0; i < n_quar; ++i) {
        const std::string payload = take_record(r);
        ByteReader q(payload);
        std::vector<ProcId> sched = q.schedule();
        std::string reason = q.str();
        if (!q.done()) {
          throw std::runtime_error("trailing bytes in quarantine record");
        }
        quarantined.emplace(std::move(sched), std::move(reason));
      }
      if (!r.done()) throw std::runtime_error("trailing bytes after records");
    } catch (const std::runtime_error& e) {
      report.discarded.push_back(path + ": " + e.what());
      continue;
    }
    outcomes_ = std::move(outcomes);
    quarantined_ = std::move(quarantined);
    epoch_ = n;
    dirty_ = 0;
    report.epoch = n;
    report.outcomes = outcomes_.size();
    report.quarantined = quarantined_.size();
    return report;
  }
  return report;  // nothing valid on disk; start empty
}

bool ExploreCheckpoint::lookup(const std::vector<ProcId>& schedule,
                               ItemOutcome* out) const {
  std::lock_guard<std::mutex> g(mu_);
  const auto it = outcomes_.find(schedule);
  if (it == outcomes_.end()) return false;
  if (out != nullptr) *out = it->second;
  return true;
}

bool ExploreCheckpoint::is_quarantined(const std::vector<ProcId>& schedule,
                                       std::string* reason) const {
  std::lock_guard<std::mutex> g(mu_);
  const auto it = quarantined_.find(schedule);
  if (it == quarantined_.end()) return false;
  if (reason != nullptr) *reason = it->second;
  return true;
}

void ExploreCheckpoint::record_outcome(const ItemOutcome& outcome) {
  ensure(!outcome.budget_hit,
         "refusing to checkpoint a budget-truncated (partial) item outcome");
  std::lock_guard<std::mutex> g(mu_);
  const auto [it, inserted] = outcomes_.emplace(outcome.schedule, outcome);
  if (!inserted) return;  // already recorded (resumed item); nothing new
  ++dirty_;
  if (config_.flush_interval > 0 && dirty_ >= config_.flush_interval) {
    write_epoch_locked();
  }
}

void ExploreCheckpoint::record_quarantine(const std::vector<ProcId>& schedule,
                                          const std::string& reason) {
  std::lock_guard<std::mutex> g(mu_);
  const auto [it, inserted] = quarantined_.emplace(schedule, reason);
  if (!inserted) return;
  ++dirty_;
  if (config_.flush_interval > 0 && dirty_ >= config_.flush_interval) {
    write_epoch_locked();
  }
}

void ExploreCheckpoint::flush() {
  std::lock_guard<std::mutex> g(mu_);
  if (dirty_ > 0) write_epoch_locked();
}

void ExploreCheckpoint::write_epoch_locked() {
  const std::uint64_t epoch = epoch_ + 1;
  std::string bytes;
  bytes.append(kMagic, sizeof kMagic);
  put_u32(bytes, kVersion);
  put_u64(bytes, config_.fingerprint);
  put_u64(bytes, epoch);
  put_u64(bytes, outcomes_.size());
  put_u64(bytes, quarantined_.size());
  put_u32(bytes, crc32(bytes));
  for (const auto& [sched, out] : outcomes_) {
    put_record(bytes, encode_item_outcome(out));
  }
  for (const auto& [sched, reason] : quarantined_) {
    std::string payload;
    put_schedule(payload, sched);
    put_string(payload, reason);
    put_record(bytes, payload);
  }
  const std::string path = config_.dir + "/" + epoch_filename(epoch);
  write_file_atomic(path, bytes);
  epoch_ = epoch;
  ++epochs_written_;
  dirty_ = 0;
  // Prune epochs older than the retention window. Failures are ignored:
  // stale epochs waste disk, not correctness.
  if (epoch > static_cast<std::uint64_t>(config_.keep_epochs)) {
    const std::uint64_t cutoff =
        epoch - static_cast<std::uint64_t>(config_.keep_epochs);
    for (const auto& entry : fs::directory_iterator(config_.dir)) {
      const std::uint64_t n = epoch_of_filename(
          entry.path().filename().string());
      if (n != 0 && n <= cutoff) {
        std::error_code ec;
        fs::remove(entry.path(), ec);
      }
    }
  }
  if (config_.on_epoch_written) config_.on_epoch_written(epoch);
}

std::uint64_t ExploreCheckpoint::epochs_written() const {
  std::lock_guard<std::mutex> g(mu_);
  return epochs_written_;
}

std::uint64_t ExploreCheckpoint::last_epoch() const {
  std::lock_guard<std::mutex> g(mu_);
  return epoch_;
}

std::size_t ExploreCheckpoint::outcome_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return outcomes_.size();
}

}  // namespace rmrsim
