// One HBM stack: 16 pseudo-channel arrays behind an operating-state
// machine driven by the supply voltage.
//
// State behavior (paper §III-B):
//  * Operational while VCC_HBM >= V_critical (0.81 V).
//  * Crashed when the voltage drops below V_critical but stays above 0:
//    the stack stops responding to all traffic, and *restoring the supply
//    voltage does not recover it* -- only a power-down/restart does.
//  * PoweredOff at 0 V; raising the voltage from 0 performs the restart
//    (contents are lost: the arrays re-scramble).

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "faults/fault_overlay.hpp"
#include "hbm/geometry.hpp"
#include "hbm/memory_array.hpp"

namespace hbmvolt::hbm {

class HbmStack {
 public:
  enum class State { kOperational, kCrashed, kPoweredOff };

  /// `injector` spans all PCs of the device and is shared between stacks;
  /// it must outlive the stack.
  HbmStack(const HbmGeometry& geometry, unsigned stack_index,
           faults::FaultInjector& injector, std::uint64_t seed);

  [[nodiscard]] unsigned index() const noexcept { return index_; }
  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] Millivolts voltage() const noexcept { return voltage_; }
  [[nodiscard]] const HbmGeometry& geometry() const noexcept {
    return geometry_;
  }

  /// Supply-voltage notification (wired to the regulator's output).  Note
  /// this only moves *this stack's* state machine; the caller is
  /// responsible for FaultInjector::set_voltage (the injector is shared).
  void on_voltage_change(Millivolts v);

  /// True when the stack responds to traffic.
  [[nodiscard]] bool responding() const noexcept {
    return state_ == State::kOperational;
  }

  /// Chaos-injection seam: drops an operational stack into the crashed
  /// state as if a marginal cell upset the control logic at a voltage the
  /// deterministic model calls safe.  Recovery semantics are identical to
  /// a real crash (only a power cycle restarts it).  No-op unless
  /// operational.  See src/chaos/.
  void force_crash() noexcept {
    if (state_ == State::kOperational) state_ = State::kCrashed;
  }

  /// Chaos-injection seam for whole-pseudo-channel death: the paper's
  /// per-PC variation data makes the weakest PC of a stack the first
  /// casualty of undervolting, and when its access circuitry lets go the
  /// PC is gone for good.  All traffic to a killed PC returns UNAVAILABLE
  /// while its siblings keep serving, and -- unlike a crash -- a power
  /// cycle does NOT bring it back: surviving this is the cross-PC
  /// erasure stripe's job, not the ladder's.
  void kill_pc(unsigned pc_local) noexcept {
    if (pc_local < killed_.size()) killed_[pc_local] = 1;
  }

  [[nodiscard]] bool pc_killed(unsigned pc_local) const noexcept {
    return pc_local < killed_.size() && killed_[pc_local] != 0;
  }

  /// Writes one 256-bit beat.  UNAVAILABLE when crashed or powered off.
  Status write_beat(unsigned pc_local, std::uint64_t beat, const Beat& data);

  /// Reads one 256-bit beat with the stuck-at overlay of the current
  /// voltage applied.  UNAVAILABLE when crashed or powered off.  Like
  /// read_word and read_range_words, a view of the one overlaid read
  /// (read_words below).
  Result<Beat> read_beat(unsigned pc_local, std::uint64_t beat);

  // ---- Batched beat-range engine ----
  // Word-granularity bulk operations with the state/bounds check hoisted
  // out of the loop; byte-identical results to the per-beat path (see
  // docs/performance.md).

  /// OK iff traffic to [start_beat, start_beat + beats) would be accepted
  /// (operating state plus range bounds).
  Status check_range(unsigned pc_local, std::uint64_t start_beat,
                     std::uint64_t beats) const;

  /// Bulk-writes `pattern` over the beat range.
  Status write_range(unsigned pc_local, std::uint64_t start_beat,
                     std::uint64_t beats, const WordPattern& pattern);

  /// Bulk read-verify of the beat range against `pattern` with the current
  /// voltage's overlay applied.  With `after_matching_write` the stored
  /// data is known to equal the pattern (the range was just written with
  /// it), so only stuck cells can differ and the verify touches no
  /// memory-array words: O(stuck cells) sparse, a single pattern-vs-pattern
  /// O(1) comparison when the overlay is empty (the whole guardband).
  /// Otherwise the range is read like read_range_words into a per-call
  /// buffer and compared with hbm::compare_range.  `diff_out`, when
  /// non-null, receives OR-ed per-word diffs (diff_out[0] = first word of
  /// `start_beat`).
  Result<RangeFlips> read_verify_range(unsigned pc_local,
                                       std::uint64_t start_beat,
                                       std::uint64_t beats,
                                       const WordPattern& pattern,
                                       bool after_matching_write,
                                       std::uint64_t* diff_out = nullptr);

  /// Bulk read of a beat range into `out` (beats * 4 words) with the
  /// current voltage's overlay applied, for engines that carry their own
  /// buffers (ECC decode_range).
  Status read_range_words(unsigned pc_local, std::uint64_t start_beat,
                          std::uint64_t beats, std::uint64_t* out);

  /// Raw bulk write of a beat range from `data` (beats * 4 words).
  Status write_range_words(unsigned pc_local, std::uint64_t start_beat,
                           std::uint64_t beats, const std::uint64_t* data);

  /// Reads one 64-bit word (index counted from the start of the PC) with
  /// the overlay applied, for readers that only need one word of a beat
  /// (e.g. its ECC check bytes).
  Result<std::uint64_t> read_word(unsigned pc_local, std::uint64_t word_index);

  /// Direct array access for tests and white-box analyses.
  [[nodiscard]] MemoryArray& array(unsigned pc_local);

  /// Global PC index of a local one.
  [[nodiscard]] unsigned global_pc(unsigned pc_local) const noexcept {
    return index_ * geometry_.pcs_per_stack() + pc_local;
  }

 private:
  Status check_access(unsigned pc_local, std::uint64_t beat) const;

  /// The one overlaid read behind read_beat, read_word and
  /// read_range_words: checks state and bounds, copies `out.size()` words
  /// starting at word `word_in_beat` of `beat` from the array, and patches
  /// them with the current voltage's overlay (FaultOverlay::apply).  The
  /// address comes as a beat so it is checked before any word arithmetic
  /// could wrap.
  Status read_words(unsigned pc_local, std::uint64_t beat,
                    std::uint64_t word_in_beat, std::span<std::uint64_t> out);

  HbmGeometry geometry_;
  unsigned index_;
  faults::FaultInjector& injector_;
  std::uint64_t seed_;
  State state_ = State::kOperational;
  Millivolts voltage_{1200};
  std::vector<std::unique_ptr<MemoryArray>> arrays_;
  // Per-PC death flags; power cycles don't clear them.  One byte per PC
  // (not vector<bool>): a fleet worker killing its own PC must not share
  // a memory location with siblings reading theirs.
  std::vector<std::uint8_t> killed_;
};

}  // namespace hbmvolt::hbm
