#include "faults/fault_overlay.hpp"

#include <algorithm>
#include <bit>

#include "common/status.hpp"
#include "telemetry/telemetry.hpp"

namespace hbmvolt::faults {
namespace {

/// Dense representation pays off once the stuck set is larger than ~1.5%
/// of cells (one stuck cell per 64-bit word on average).
bool should_use_dense(std::uint64_t stuck, std::uint64_t bits) {
  return stuck > bits / 64;
}

/// The first cell of a sorted list at or above `lo`, or the list's end
/// when no cell lies in [lo, hi).  A range outside the list's span (or an
/// empty list) costs two compares instead of a search.
std::vector<std::uint32_t>::const_iterator first_in(
    const std::vector<std::uint32_t>& cells, std::uint64_t lo,
    std::uint64_t hi) {
  if (cells.empty() || cells.front() >= hi || cells.back() < lo) {
    return cells.end();
  }
  return std::lower_bound(cells.begin(), cells.end(), lo);
}

}  // namespace

FaultOverlay FaultOverlay::build(const WeakCellOrder& order,
                                 std::uint64_t count_sa0,
                                 std::uint64_t count_sa1) {
  FaultOverlay overlay;
  overlay.extend(order, count_sa0, count_sa1);
  return overlay;
}

void FaultOverlay::extend(const WeakCellOrder& order, std::uint64_t count_sa0,
                          std::uint64_t count_sa1) {
  count_sa0 = std::min(count_sa0, order.size(StuckPolarity::kStuckAt0));
  count_sa1 = std::min(count_sa1, order.size(StuckPolarity::kStuckAt1));
  HBMVOLT_REQUIRE(count_sa0 >= count_sa0_ && count_sa1 >= count_sa1_,
                  "an overlay only grows; rebuild it to shrink");
  if (!dense() && should_use_dense(count_sa0 + count_sa1, order.bits())) {
    make_dense(order.bits());
  }
  for (const auto polarity :
       {StuckPolarity::kStuckAt0, StuckPolarity::kStuckAt1}) {
    const bool one = polarity == StuckPolarity::kStuckAt1;
    const std::uint64_t from = count(polarity);
    const std::uint64_t to = one ? count_sa1 : count_sa0;
    if (dense()) {
      std::vector<std::uint64_t>& stuck = one ? stuck1_ : stuck0_;
      order.visit_ranks(polarity, from, to,
                        [&stuck](std::span<const std::uint32_t> run) {
                          for (const std::uint32_t cell : run) {
                            stuck[cell / 64] |= 1ull << (cell % 64);
                          }
                        });
    } else {
      // Sort the new cells and merge them behind the sorted old ones.
      std::vector<std::uint32_t>& list = one ? sparse_sa1_ : sparse_sa0_;
      const auto old_size = static_cast<std::ptrdiff_t>(list.size());
      order.ranks(polarity, from, to, list);
      std::sort(list.begin() + old_size, list.end());
      std::inplace_merge(list.begin(), list.begin() + old_size, list.end());
    }
  }
  count_sa0_ = count_sa0;
  count_sa1_ = count_sa1;
}

void FaultOverlay::make_dense(std::uint64_t bits) {
  stuck0_.assign(bits / 64, 0);
  stuck1_.assign(bits / 64, 0);
  for (const std::uint32_t cell : sparse_sa0_) {
    stuck0_[cell / 64] |= 1ull << (cell % 64);
  }
  for (const std::uint32_t cell : sparse_sa1_) {
    stuck1_[cell / 64] |= 1ull << (cell % 64);
  }
  sparse_sa0_ = {};
  sparse_sa1_ = {};
}

void FaultOverlay::apply(std::uint64_t first_word,
                         std::span<std::uint64_t> words) const noexcept {
  if (empty()) return;
  if (dense()) {
    for (std::uint64_t i = 0; i < words.size(); ++i) {
      const std::uint64_t w = first_word + i;
      words[i] = (words[i] & ~stuck0_[w]) | stuck1_[w];
    }
    return;
  }
  const std::uint64_t lo = first_word * 64;
  const std::uint64_t hi = lo + words.size() * 64;
  auto patch = [&](const std::vector<std::uint32_t>& cells, bool stuck_one) {
    for (auto it = first_in(cells, lo, hi); it != cells.end() && *it < hi;
         ++it) {
      const std::uint64_t offset = *it - lo;
      const std::uint64_t bit = 1ull << (offset % 64);
      if (stuck_one) {
        words[offset / 64] |= bit;
      } else {
        words[offset / 64] &= ~bit;
      }
    }
  };
  patch(sparse_sa0_, false);
  patch(sparse_sa1_, true);
}

hbm::RangeFlips FaultOverlay::verify_after_fill(
    std::uint64_t start_beat, std::uint64_t beats,
    const hbm::WordPattern& pattern, std::uint64_t* diff_out) const noexcept {
  hbm::RangeFlips out;
  if (empty()) return out;  // stored == pattern: nothing can differ
  const std::uint64_t w0 = start_beat * 4;
  if (dense()) {
    for (std::uint64_t b = 0; b < beats; ++b) {
      std::uint64_t any = 0;
      for (unsigned w = 0; w < 4; ++w) {
        const std::uint64_t i = b * 4 + w;
        const std::uint64_t m0 = stuck0_[w0 + i];
        const std::uint64_t m1 = stuck1_[w0 + i];
        if ((m0 | m1) == 0) continue;
        const std::uint64_t expected = pattern.word(w0 + i);
        const std::uint64_t diff = (m0 & expected) | (m1 & ~expected);
        out.flips_1to0 +=
            static_cast<unsigned>(std::popcount(diff & expected));
        out.flips_0to1 +=
            static_cast<unsigned>(std::popcount(diff & ~expected));
        any |= diff;
        if (diff_out != nullptr) diff_out[i] |= diff;
      }
      if (any != 0) ++out.mismatched_beats;
    }
    return out;
  }
  // Sparse: merge the two sorted polarity lists so cells (and therefore
  // beats) are visited in ascending order -- O(stuck cells in range).
  const std::uint64_t lo = start_beat * 256;
  const std::uint64_t hi = lo + beats * 256;
  auto it0 = first_in(sparse_sa0_, lo, hi);
  auto it1 = first_in(sparse_sa1_, lo, hi);
  std::uint64_t last_beat = ~0ull;
  while (true) {
    const bool has0 = it0 != sparse_sa0_.end() && *it0 < hi;
    const bool has1 = it1 != sparse_sa1_.end() && *it1 < hi;
    if (!has0 && !has1) break;
    const bool stuck_one = !has0 || (has1 && *it1 < *it0);
    const std::uint64_t cell = stuck_one ? *it1++ : *it0++;
    const bool expected = pattern.bit(cell);
    if (stuck_one == expected) continue;
    (expected ? out.flips_1to0 : out.flips_0to1) += 1;
    if (diff_out != nullptr) {
      diff_out[(cell - lo) / 64] |= 1ull << (cell % 64);
    }
    const std::uint64_t beat = cell / 256;
    if (beat != last_beat) {
      ++out.mismatched_beats;
      last_beat = beat;
    }
  }
  return out;
}

bool FaultOverlay::is_stuck(std::uint64_t bit) const noexcept {
  if (dense()) {
    return ((stuck0_[bit / 64] | stuck1_[bit / 64]) >> (bit % 64)) & 1ull;
  }
  const auto cell = static_cast<std::uint32_t>(bit);
  return std::binary_search(sparse_sa0_.begin(), sparse_sa0_.end(), cell) ||
         std::binary_search(sparse_sa1_.begin(), sparse_sa1_.end(), cell);
}

bool FaultOverlay::stuck_value(std::uint64_t bit) const noexcept {
  if (dense()) {
    return (stuck1_[bit / 64] >> (bit % 64)) & 1ull;
  }
  return std::binary_search(sparse_sa1_.begin(), sparse_sa1_.end(),
                            static_cast<std::uint32_t>(bit));
}

void FaultOverlay::for_each(
    const std::function<void(std::uint64_t, StuckPolarity)>& fn) const {
  if (dense()) {
    for (std::uint64_t w = 0; w < stuck0_.size(); ++w) {
      std::uint64_t bits = stuck0_[w] | stuck1_[w];
      while (bits != 0) {
        const int offset = __builtin_ctzll(bits);
        bits &= bits - 1;
        const std::uint64_t cell = w * 64 + static_cast<unsigned>(offset);
        const bool one = (stuck1_[w] >> offset) & 1ull;
        fn(cell, one ? StuckPolarity::kStuckAt1 : StuckPolarity::kStuckAt0);
      }
    }
    return;
  }
  for (const auto cell : sparse_sa0_) fn(cell, StuckPolarity::kStuckAt0);
  for (const auto cell : sparse_sa1_) fn(cell, StuckPolarity::kStuckAt1);
}

// ------------------------------ FaultInjector ------------------------------

FaultInjector::FaultInjector(FaultModel model, WeakCellConfig weak_config)
    : model_(std::move(model)), weak_config_(weak_config) {
  weak_config_.stuck_at_one_share = model_.config().stuck_at_one_share;
  const unsigned total = model_.geometry().total_pcs();
  orders_.resize(total);
  overlays_.resize(total);
  burst_extras_.assign(static_cast<std::size_t>(total) * 2, 0);
}

void FaultInjector::add_burst(unsigned pc_global, std::uint64_t extra_sa0,
                              std::uint64_t extra_sa1) {
  HBMVOLT_REQUIRE(pc_global < overlays_.size(), "PC index out of range");
  burst_extras_[pc_global * 2 + 0] += extra_sa0;
  burst_extras_[pc_global * 2 + 1] += extra_sa1;
  overlays_[pc_global].stale = true;
}

std::uint64_t FaultInjector::burst_extra(unsigned pc_global,
                                         StuckPolarity polarity) const {
  HBMVOLT_REQUIRE(pc_global < overlays_.size(), "PC index out of range");
  return burst_extras_[pc_global * 2 +
                       (polarity == StuckPolarity::kStuckAt1 ? 1 : 0)];
}

void FaultInjector::set_voltage(Millivolts v) {
  if (v == voltage_) return;
  voltage_ = v;
  for (auto& slot : overlays_) slot.stale = true;
}

const WeakCellOrder& FaultInjector::order(unsigned pc_global) {
  HBMVOLT_REQUIRE(pc_global < orders_.size(), "PC index out of range");
  return built_order(pc_global);
}

WeakCellOrder& FaultInjector::built_order(unsigned pc_global) {
  auto& slot = orders_[pc_global];
  if (!slot) {
    telemetry::Span span("faults.order_build", pc_global);
    slot = std::make_unique<WeakCellOrder>(
        model_.geometry(), model_.pc_seed(pc_global), weak_config_);
  }
  return *slot;
}

const FaultOverlay& FaultInjector::overlay(unsigned pc_global) {
  HBMVOLT_REQUIRE(pc_global < overlays_.size(), "PC index out of range");
  OverlaySlot& slot = overlays_[pc_global];
  if (slot.stale) refresh(pc_global);
  return slot.overlay;
}

void FaultInjector::refresh(unsigned pc_global) {
  OverlaySlot& slot = overlays_[pc_global];
  slot.stale = false;
  const std::uint64_t k0 =
      model_.stuck_count(pc_global, StuckPolarity::kStuckAt0, voltage_) +
      burst_extras_[pc_global * 2 + 0];
  const std::uint64_t k1 =
      model_.stuck_count(pc_global, StuckPolarity::kStuckAt1, voltage_) +
      burst_extras_[pc_global * 2 + 1];
  if (k0 + k1 == 0) {
    // Guardband fast path: no stuck cells, so the weak-cell order is never
    // materialized.
    if (!slot.overlay.empty()) slot.overlay = FaultOverlay();
    return;
  }
  WeakCellOrder& cells = built_order(pc_global);
  const std::uint64_t c0 =
      std::min(k0, cells.size(StuckPolarity::kStuckAt0));
  const std::uint64_t c1 =
      std::min(k1, cells.size(StuckPolarity::kStuckAt1));
  FaultOverlay& overlay = slot.overlay;
  const std::uint64_t have0 = overlay.count(StuckPolarity::kStuckAt0);
  const std::uint64_t have1 = overlay.count(StuckPolarity::kStuckAt1);
  if (c0 == have0 && c1 == have1) return;
  // The first count past the order's weakest bucket grows the whole order.
  if (c0 > cells.reach(StuckPolarity::kStuckAt0) ||
      c1 > cells.reach(StuckPolarity::kStuckAt1)) {
    telemetry::Span span("faults.order_scatter", pc_global);
    cells.grow();
  }
  telemetry::Span span("faults.overlay_build", pc_global);
  // A raise shrinks the stuck set: start over from an empty overlay.
  if (c0 < have0 || c1 < have1) overlay = FaultOverlay();
  overlay.extend(cells, c0, c1);
}

}  // namespace hbmvolt::faults
