// Access-trace infrastructure: synthetic workload generators, a compact
// text serialization, and a replay engine that measures *application-
// level fault exposure* on an undervolted PC.
//
// Algorithm 1 answers "which cells are stuck?"; an application cares
// about "how often do MY reads hit a stuck cell?".  The two differ by
// the workload's footprint and skew: a streaming scan touches every
// stuck cell once per pass, a hot-set workload may never touch one.
// Replay counts corrupted reads and distinct stuck cells touched, which
// feeds directly into the paper's tolerable-fault-rate axis (Fig 6).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "hbm/stack.hpp"

namespace hbmvolt::workload {

struct TraceRecord {
  bool write = false;
  std::uint32_t beat = 0;
};

class AccessTrace {
 public:
  void append(bool write, std::uint64_t beat);
  /// Capacity for `records` records, so a generator that knows its length
  /// appends without regrowing.
  void reserve(std::size_t records) { records_.reserve(records); }

  /// Takes each beat at or past `capacity` (> 0) modulo `capacity`;
  /// records already inside are left as they are.
  void wrap_beats(std::uint64_t capacity);

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }
  [[nodiscard]] const TraceRecord& operator[](std::size_t i) const {
    return records_[i];
  }
  [[nodiscard]] std::vector<TraceRecord>::const_iterator begin() const {
    return records_.begin();
  }
  [[nodiscard]] std::vector<TraceRecord>::const_iterator end() const {
    return records_.end();
  }

  /// One record per line: "R <beat>" / "W <beat>"; '#' comments allowed.
  [[nodiscard]] std::string to_text() const;
  /// Strict parser: rejects overlong lines (> kMaxLineLength chars),
  /// duplicate direction tokens or any trailing garbage after the beat,
  /// and beats that do not fit in 32 bits -- each with a Status naming
  /// the offending line, never by silently truncating the record.
  static Result<AccessTrace> from_text(std::string_view text);

  /// Longest line from_text accepts (a well-formed record needs at most
  /// 12 characters; anything longer is a malformed or binary input).
  static constexpr std::size_t kMaxLineLength = 256;

 private:
  std::vector<TraceRecord> records_;
};

// ---- Synthetic workload generators (deterministic per seed) ----

/// Sequential scan: `passes` sweeps over [0, beats), the first writing
/// every beat and the rest reading them back -- DemandStream::sweep
/// (workload/demand.hpp) materialised record by record.
[[nodiscard]] AccessTrace make_streaming(std::uint64_t beats,
                                         unsigned passes = 1);

/// Uniform random reads/writes over [0, beats).
[[nodiscard]] AccessTrace make_uniform_random(std::uint64_t beats,
                                              std::uint64_t accesses,
                                              double write_fraction,
                                              std::uint64_t seed);

/// Skewed workload: `hot_fraction` of the beats receive
/// `hot_access_fraction` of the accesses (e.g. 0.1 / 0.9 = 90% of traffic
/// on 10% of the footprint).
[[nodiscard]] AccessTrace make_hot_set(std::uint64_t beats,
                                       std::uint64_t accesses,
                                       double hot_fraction,
                                       double hot_access_fraction,
                                       std::uint64_t seed);

/// Fixed-stride reads (e.g. column walks); stride in beats.
[[nodiscard]] AccessTrace make_strided(std::uint64_t beats,
                                       std::uint64_t accesses,
                                       std::uint64_t stride);

/// Zipfian-skewed accesses over [0, beats): beat ranks are drawn with
/// probability proportional to 1 / rank^theta (theta ~0.99 is the classic
/// YCSB skew), then mapped through a seeded rank->beat shuffle so the hot
/// beats are scattered across the footprint.  First touch of a beat
/// writes; revisits follow `write_fraction`.
[[nodiscard]] AccessTrace make_zipfian(std::uint64_t beats,
                                       std::uint64_t accesses, double theta,
                                       double write_fraction,
                                       std::uint64_t seed);

/// Pointer-chase workload: a seeded random permutation cycle over the
/// footprint is written once (the "pointers"), then walked read-by-read
/// -- every access depends on the previous one, the shape that defeats
/// both caching and range coalescing.
[[nodiscard]] AccessTrace make_pointer_chase(std::uint64_t beats,
                                             std::uint64_t accesses,
                                             std::uint64_t seed);

// ---- Replay ----

struct ExposureResult {
  std::uint64_t accesses = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Reads that returned at least one flipped bit.
  std::uint64_t corrupted_reads = 0;
  /// Total flipped bits observed across all reads.
  std::uint64_t flipped_bits = 0;
  /// Distinct stuck cells the workload actually touched.
  std::uint64_t distinct_stuck_cells_touched = 0;
  /// Distinct beats touched (the footprint).
  std::uint64_t footprint_beats = 0;

  [[nodiscard]] double corrupted_read_fraction() const noexcept {
    return reads == 0 ? 0.0
                      : static_cast<double>(corrupted_reads) /
                            static_cast<double>(reads);
  }
};

/// Replays `trace` against one PC of `stack` at its current voltage.
/// Writes store deterministic per-beat data (seeded); reads verify
/// against the last written data for that beat (beats read before any
/// write are skipped for corruption accounting but still counted).
Result<ExposureResult> replay_exposure(hbm::HbmStack& stack,
                                       unsigned pc_local,
                                       const AccessTrace& trace,
                                       std::uint64_t data_seed = 1);

}  // namespace hbmvolt::workload
