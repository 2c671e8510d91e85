// Campaign checkpoint: everything a killed-and-restarted campaign needs
// to resume and still produce byte-identical artifacts.
//
// The checkpoint is written to <output_dir>/checkpoint.json after every
// completed sweep step (atomically: tmp file + rename, so a kill mid-write
// leaves the previous checkpoint intact).  It records
//
//  * a config fingerprint -- resume silently starts fresh when the
//    campaign's physics-relevant configuration changed;
//  * the merged FaultMap of the completed reliability steps and the power
//    series measured so far -- the campaign's own result types;
//  * the board's power-snapshot sequence number, so resumed measurements
//    draw the exact noise streams the original run would have.
//
// Serialization detail that byte-identity depends on: Watts values are
// stored as 16-digit hex bit patterns of the IEEE-754 double, never as
// decimal text -- a decimal round-trip is one ulp away from a diff in
// fig2.csv.  Counters are exact JSON integers.  The encoder writes
// straight into one string (std::to_chars, no stream or locale), so the
// bytes do not depend on the process's locale either.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "core/power_characterizer.hpp"
#include "faults/fault_map.hpp"

namespace hbmvolt::core {

struct CampaignCheckpoint {
  static constexpr int kVersion = 1;

  explicit CampaignCheckpoint(const hbm::HbmGeometry& geometry)
      : fault_map(geometry) {}

  /// Fingerprint of the physics-relevant campaign config (see
  /// campaign.cpp); a mismatch means the checkpoint belongs to a
  /// different experiment and resume must start fresh.
  std::uint64_t fingerprint = 0;
  bool reliability_done = false;
  /// One observation per completed reliability step (crash steps too).
  faults::FaultMap fault_map;
  /// One (possibly partial) series per port count, in measurement order.
  std::vector<PowerSeries> power;
  /// Board power-snapshot sequence number at checkpoint time.
  std::uint64_t power_snapshot_seq = 0;
};

/// Encodes and saves the successive checkpoints of one campaign.  Once
/// `reliability_done` is set the fault map is final, so the writer encodes
/// the reliability section once and reuses that text for every later save;
/// the header and the power section are encoded on every save.  Every
/// checkpoint passed to one writer must therefore come from the same
/// campaign (a resumed campaign starts with a new writer).
class CheckpointWriter {
 public:
  /// The checkpoint.json text of `ckpt` (stable field order), valid until
  /// the next call.  The reliability section is reused when `ckpt` has
  /// `reliability_done` set and an earlier call encoded it with the flag
  /// set; otherwise it is encoded from `ckpt.fault_map`.
  [[nodiscard]] const std::string& encode(const CampaignCheckpoint& ckpt);

  /// Atomically writes the encoded checkpoint to `path` (tmp file +
  /// rename).
  [[nodiscard]] Status save(const CampaignCheckpoint& ckpt,
                            const std::string& path);

 private:
  /// The reliability section, once `reliability_done` is set; empty
  /// before.
  std::string reliability_;
  /// The whole text, rebuilt in place by each encode.
  std::string text_;
};

/// Serializes to the checkpoint.json text (a fresh writer's encode).
[[nodiscard]] std::string checkpoint_to_json(const CampaignCheckpoint& ckpt);

/// Parses checkpoint.json text for a board of `geometry`; kDataLoss on
/// malformed or version-mismatched input, and on parseable input the
/// campaign cannot resume from: a reliability row with a PC count other
/// than the geometry's, a negative or non-integer counter or voltage, or
/// a voltage repeated in the reliability rows or within one power series.
[[nodiscard]] Result<CampaignCheckpoint> checkpoint_from_json(
    std::string_view text, const hbm::HbmGeometry& geometry);

/// Atomically writes the checkpoint to `path` (a fresh writer's save).
[[nodiscard]] Status save_checkpoint(const CampaignCheckpoint& ckpt,
                                     const std::string& path);

/// Loads a checkpoint; kNotFound when the file does not exist, kDataLoss
/// when it exists but cannot be parsed (see checkpoint_from_json).
[[nodiscard]] Result<CampaignCheckpoint> load_checkpoint(
    const std::string& path, const hbm::HbmGeometry& geometry);

}  // namespace hbmvolt::core
