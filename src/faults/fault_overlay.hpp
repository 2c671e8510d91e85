// Stuck-at fault overlay applied to reads of an undervolted PC, and the
// FaultInjector that keeps one overlay per PC at the current supply
// voltage.
//
// An overlay is the materialized set of stuck cells at one voltage: the
// first count_sa0/count_sa1 cells of each polarity's weak-cell order.  Two
// representations:
//   * sparse -- two sorted cell-index vectors (one per polarity); a read
//     patches only the stuck cells inside its words, found by one binary
//     search per polarity whose span the words overlap.  Used when few
//     cells are stuck.
//   * dense  -- a stuck-at-0 and a stuck-at-1 bitmap; a read patches
//     each word with one clear and one set.  Used deep in the unsafe
//     region.
//
// apply() is the only routine that patches stored words: every overlaid
// read (beat, word or range; see HbmStack) goes through it.
// verify_after_fill() is the write-then-verify shortcut that needs no
// stored words at all.
//
// Stuck sets only grow as voltage falls (or a weak-cell burst lands), so an
// overlay grows in place: extend() adds the cells of ranks [k, k') of each
// polarity, and converts a sparse overlay to dense once it crosses the
// switch.  The injector rebuilds an overlay only when a count shrinks,
// after a voltage raise.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "faults/fault_model.hpp"
#include "faults/weak_cells.hpp"
#include "hbm/memory_array.hpp"

namespace hbmvolt::faults {

class FaultOverlay {
 public:
  /// An overlay with no stuck cells.
  FaultOverlay() = default;

  /// Materializes the first `count_sa0`/`count_sa1` cells of each polarity
  /// order (counts are clamped to the order sizes).  The clamped counts
  /// must lie within the order's reach().
  static FaultOverlay build(const WeakCellOrder& order,
                            std::uint64_t count_sa0, std::uint64_t count_sa1);

  /// Grows the overlay to the first `count_sa0`/`count_sa1` cells of each
  /// polarity order (clamped to the order sizes), adding only the cells it
  /// lacks.  The result equals build(order, count_sa0, count_sa1),
  /// representation included.  `order` must be the one the overlay was
  /// built from, and neither clamped count may be below count() or past
  /// the order's reach().
  void extend(const WeakCellOrder& order, std::uint64_t count_sa0,
              std::uint64_t count_sa1);

  /// Patches stored words in place with the stuck cells they hold: the
  /// one read-path transform, for a single word, a beat or a beat range
  /// alike.  `words[0]` is word `first_word` of the PC (a beat's words
  /// start at beat * 4).  Dense overlays mask each word; sparse ones
  /// visit only the stuck cells inside the words.
  void apply(std::uint64_t first_word,
             std::span<std::uint64_t> words) const noexcept;

  /// Bulk verify assuming the stored data equals `pattern` over the range
  /// (it was just bulk-filled with it): only stuck cells can differ, so
  /// this touches no memory-array words at all -- O(stuck cells in range)
  /// with the sparse form, O(overlay words in range) dense, O(1) when the
  /// overlay is empty (the guardband's pattern-vs-pattern comparison).
  /// `diff_out`, when non-null, receives OR-ed per-word diffs
  /// (diff_out[0] = first word of `start_beat`).
  [[nodiscard]] hbm::RangeFlips verify_after_fill(
      std::uint64_t start_beat, std::uint64_t beats,
      const hbm::WordPattern& pattern,
      std::uint64_t* diff_out = nullptr) const noexcept;

  [[nodiscard]] bool is_stuck(std::uint64_t bit) const noexcept;
  /// Value a stuck bit reads as; only meaningful when is_stuck(bit).
  [[nodiscard]] bool stuck_value(std::uint64_t bit) const noexcept;

  [[nodiscard]] std::uint64_t count(StuckPolarity polarity) const noexcept {
    return polarity == StuckPolarity::kStuckAt1 ? count_sa1_ : count_sa0_;
  }
  [[nodiscard]] std::uint64_t total_count() const noexcept {
    return count_sa0_ + count_sa1_;
  }
  [[nodiscard]] bool empty() const noexcept { return total_count() == 0; }
  [[nodiscard]] bool dense() const noexcept { return !stuck0_.empty(); }

  /// Invokes fn(bit_index, polarity) for every stuck cell, in ascending
  /// bit order within each polarity.
  void for_each(
      const std::function<void(std::uint64_t, StuckPolarity)>& fn) const;

 private:
  /// Moves the sparse cells into freshly allocated bitmaps of `bits` bits.
  void make_dense(std::uint64_t bits);

  // Sparse form: sorted stuck-cell indices per polarity.
  std::vector<std::uint32_t> sparse_sa0_;
  std::vector<std::uint32_t> sparse_sa1_;
  // Dense form: one bitmap per polarity; bit i of stuck1_ (stuck0_) is
  // set iff cell i is stuck-at-1 (stuck-at-0), so growing it sets one bit
  // per cell and a read patches a word with one clear and one set.
  std::vector<std::uint64_t> stuck0_;
  std::vector<std::uint64_t> stuck1_;

  std::uint64_t count_sa0_ = 0;
  std::uint64_t count_sa1_ = 0;
};

/// Owns the per-PC weak-cell orders and the per-PC overlays at the current
/// voltage.  Shared by both HBM stacks (it spans all 32 PCs).
///
/// set_voltage() and add_burst() only mark overlays stale.  The next
/// overlay(pc) recomputes that PC's clamped stuck counts: equal counts
/// reuse the overlay, grown counts extend it in place, and a shrunk count
/// (after a raise) rebuilds it.  Each stuck cell is therefore placed once
/// per descent.  An overlay's address never changes.  The refresh that
/// first needs ranks past a PC's weakest order bucket grows that PC's
/// order (WeakCellOrder::grow); like the overlay, it is per-PC state that
/// only the PC's one reader touches, so concurrent workers on other PCs
/// are unaffected.
class FaultInjector {
 public:
  explicit FaultInjector(FaultModel model, WeakCellConfig weak_config = {});

  [[nodiscard]] const FaultModel& model() const noexcept { return model_; }

  /// Current supply voltage; changing it marks every overlay stale.
  void set_voltage(Millivolts v);
  [[nodiscard]] Millivolts voltage() const noexcept { return voltage_; }

  /// Overlay for a PC at the current voltage (brought up to date on
  /// demand; a fresh one costs a single flag test).
  const FaultOverlay& overlay(unsigned pc_global);

  /// Weak-cell order for a PC (built lazily; the cells it selects are
  /// stable across voltages).  It holds only its weakest bucket until a
  /// stuck count outgrows it; the overlay refresh that first needs more
  /// grows it, once.
  const WeakCellOrder& order(unsigned pc_global);

  /// Permanently weakens a PC: the next `extra_sa0`/`extra_sa1` cells of
  /// its weak-cell order become stuck *in addition to* the voltage-derived
  /// prefix, at every voltage from now on -- the model of a sudden aging /
  /// VT-shift burst (see chaos fault storms).  Raising the supply voltage
  /// still shrinks the total stuck set (the burst extends the prefix, it
  /// does not pin specific cells), and row retirement can remove burst
  /// rows.  Only this PC's overlay is marked stale, so concurrent workers
  /// touching *other* PCs are unaffected.
  void add_burst(unsigned pc_global, std::uint64_t extra_sa0,
                 std::uint64_t extra_sa1);

  /// Accumulated burst extras for a PC.
  [[nodiscard]] std::uint64_t burst_extra(unsigned pc_global,
                                          StuckPolarity polarity) const;

 private:
  struct OverlaySlot {
    FaultOverlay overlay;
    /// The voltage or burst extras changed since the overlay was sized.
    bool stale = true;
  };

  /// Brings a stale overlay to the PC's current stuck counts, growing the
  /// PC's weak-cell order first if a count lies past its reach.
  void refresh(unsigned pc_global);

  /// The PC's weak-cell order, built on first use.
  WeakCellOrder& built_order(unsigned pc_global);

  FaultModel model_;
  WeakCellConfig weak_config_;
  Millivolts voltage_{1200};
  std::vector<std::unique_ptr<WeakCellOrder>> orders_;
  std::vector<OverlaySlot> overlays_;
  /// Per-PC burst extras appended to the voltage-derived stuck prefix
  /// (index = pc_global * 2 + polarity).
  std::vector<std::uint64_t> burst_extras_;
};

}  // namespace hbmvolt::faults
