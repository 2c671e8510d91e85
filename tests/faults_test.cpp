// Unit tests for src/faults: the calibrated fault model, weak-cell
// ordering, overlays, the injector, and the fault map.

#include <algorithm>
#include <bit>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "board/vcu128.hpp"
#include "common/rng.hpp"
#include "core/fault_characterizer.hpp"
#include "faults/fault_map.hpp"
#include "faults/fault_model.hpp"
#include "faults/fault_overlay.hpp"
#include "faults/weak_cells.hpp"
#include "hbm/geometry.hpp"
#include "hbm/stack.hpp"

namespace hbmvolt {
namespace {

using faults::FaultInjector;
using faults::FaultMap;
using faults::FaultModel;
using faults::FaultModelConfig;
using faults::FaultOverlay;
using faults::PcFaultRecord;
using faults::StuckPolarity;
using faults::WeakCellConfig;
using faults::WeakCellOrder;
using hbm::HbmGeometry;

FaultModel make_model(HbmGeometry geometry = HbmGeometry::test_tiny()) {
  return FaultModel(geometry, FaultModelConfig{});
}

// ------------------------------------------------------------ FaultModel

TEST(FaultModelTest, GuardbandIsFaultFree) {
  const auto model = make_model();
  for (int mv = 1200; mv >= 980; mv -= 10) {
    for (unsigned pc = 0; pc < model.geometry().total_pcs(); ++pc) {
      EXPECT_EQ(model.stuck_count(pc, StuckPolarity::kStuckAt0,
                                  Millivolts{mv}),
                0u)
          << "pc " << pc << " at " << mv;
      EXPECT_EQ(model.stuck_count(pc, StuckPolarity::kStuckAt1,
                                  Millivolts{mv}),
                0u);
    }
  }
}

TEST(FaultModelTest, FirstFlipVoltagesMatchPaper) {
  const auto model = make_model();
  // Device-level onset: some PC faults (stuck-at-0) exactly at 0.97 V...
  std::uint64_t sa0_at_970 = 0;
  std::uint64_t sa1_at_970 = 0;
  std::uint64_t sa1_at_960 = 0;
  for (unsigned pc = 0; pc < model.geometry().total_pcs(); ++pc) {
    sa0_at_970 +=
        model.stuck_count(pc, StuckPolarity::kStuckAt0, Millivolts{970});
    sa1_at_970 +=
        model.stuck_count(pc, StuckPolarity::kStuckAt1, Millivolts{970});
    sa1_at_960 +=
        model.stuck_count(pc, StuckPolarity::kStuckAt1, Millivolts{960});
  }
  EXPECT_GT(sa0_at_970, 0u);   // first 1->0 flips at 0.97 V
  EXPECT_EQ(sa1_at_970, 0u);   // no 0->1 flips yet
  EXPECT_GT(sa1_at_960, 0u);   // first 0->1 flips at 0.96 V
}

TEST(FaultModelTest, OnsetAtExactlyOneCell) {
  const auto model = make_model();
  // At its onset voltage each PC has exactly one stuck-at-0 cell
  // (kappa(V_onset) = 1), independent of simulated capacity.
  const unsigned pc = 18;  // pinned weakest PC
  EXPECT_EQ(model.onset_voltage(pc).value, 970);
  EXPECT_EQ(model.stuck_count(pc, StuckPolarity::kStuckAt0, Millivolts{970}),
            1u);
}

TEST(FaultModelTest, CountsGrowExponentially) {
  const auto model = make_model();
  const unsigned pc = 18;
  // In the tail regime, each 10 mV step multiplies counts by roughly
  // exp(k * 0.01); check the growth is at least 1.5x per step.
  std::uint64_t prev =
      model.stuck_count(pc, StuckPolarity::kStuckAt0, Millivolts{950});
  for (int mv = 940; mv >= 900; mv -= 10) {
    const std::uint64_t next =
        model.stuck_count(pc, StuckPolarity::kStuckAt0, Millivolts{mv});
    EXPECT_GT(static_cast<double>(next), 1.5 * static_cast<double>(prev))
        << "at " << mv;
    prev = next;
  }
}

class FaultMonotonicity : public ::testing::TestWithParam<unsigned> {};

TEST_P(FaultMonotonicity, CountsNeverDecreaseAsVoltageDrops) {
  const auto model = make_model();
  const unsigned pc = GetParam();
  for (const auto polarity :
       {StuckPolarity::kStuckAt0, StuckPolarity::kStuckAt1}) {
    std::uint64_t prev = 0;
    for (int mv = 1200; mv >= 811; mv -= 1) {
      const std::uint64_t count =
          model.stuck_count(pc, polarity, Millivolts{mv});
      EXPECT_GE(count, prev) << "pc " << pc << " at " << mv;
      prev = count;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPcs, FaultMonotonicity,
                         ::testing::Range(0u, 32u));

TEST(FaultModelTest, AllCellsFaultyAtAndBelow841) {
  const auto model = make_model();
  const std::uint64_t n = model.geometry().bits_per_pc;
  for (const int mv : {841, 830, 820, 811}) {
    for (unsigned pc = 0; pc < model.geometry().total_pcs(); ++pc) {
      EXPECT_DOUBLE_EQ(model.stuck_fraction(pc, Millivolts{mv}), 1.0)
          << "pc " << pc << " at " << mv;
      EXPECT_EQ(model.stuck_count(pc, StuckPolarity::kStuckAt0,
                                  Millivolts{mv}),
                n);
    }
  }
}

TEST(FaultModelTest, CrashPredicate) {
  const auto model = make_model();
  EXPECT_FALSE(model.is_crash_voltage(Millivolts{810}));  // V_critical works
  EXPECT_TRUE(model.is_crash_voltage(Millivolts{809}));
  EXPECT_TRUE(model.is_crash_voltage(Millivolts{500}));
  EXPECT_FALSE(model.is_crash_voltage(Millivolts{0}));    // powered off
  EXPECT_FALSE(model.is_crash_voltage(Millivolts{1200}));
}

TEST(FaultModelTest, WeakPcsHaveHighestOnsets) {
  const auto model = make_model();
  int min_weak_onset = 2000;
  int max_other_onset = 0;
  const auto weak = faults::paper_weak_pcs();
  for (unsigned pc = 0; pc < 32; ++pc) {
    const int onset = model.onset_voltage(pc).value;
    const bool is_weak =
        std::find(weak.begin(), weak.end(), pc) != weak.end();
    if (is_weak) {
      min_weak_onset = std::min(min_weak_onset, onset);
    } else {
      max_other_onset = std::max(max_other_onset, onset);
    }
  }
  EXPECT_GT(min_weak_onset, max_other_onset);
}

TEST(FaultModelTest, StrongPcsAreFaultFreeAt950) {
  const auto model = make_model();
  // Fig 6 anchor: the 7 strong PCs still have zero faults at 0.95 V.
  for (const unsigned pc : faults::paper_strong_pcs()) {
    EXPECT_DOUBLE_EQ(model.stuck_fraction(pc, Millivolts{950}), 0.0)
        << "pc " << pc;
  }
  // And they are exactly the fault-free set at 0.95 V.
  unsigned fault_free = 0;
  for (unsigned pc = 0; pc < 32; ++pc) {
    if (model.stuck_fraction(pc, Millivolts{950}) == 0.0) ++fault_free;
  }
  EXPECT_EQ(fault_free, 7u);
}

TEST(FaultModelTest, Hbm1IsWorseOnAverage) {
  const auto model = make_model();
  double gap_sum = 0.0;
  int samples = 0;
  for (int mv = 960; mv >= 845; mv -= 5) {
    const double r0 = model.stack_stuck_fraction(0, Millivolts{mv});
    const double r1 = model.stack_stuck_fraction(1, Millivolts{mv});
    if (r1 <= 0.0 || r1 >= 0.999) continue;
    gap_sum += (r1 - r0) / r1;
    ++samples;
  }
  ASSERT_GT(samples, 5);
  const double average_gap = gap_sum / samples;
  // Paper anchor: ~13% average gap; allow a generous band.
  EXPECT_GT(average_gap, 0.05);
  EXPECT_LT(average_gap, 0.35);
}

TEST(FaultModelTest, StuckAt1ShareYields21PercentExcess) {
  const FaultModelConfig config;
  EXPECT_NEAR(config.stuck_at_one_share / (1.0 - config.stuck_at_one_share),
              1.21, 0.01);
}

TEST(FaultModelTest, AlphaMultiplierMatchesPaperAt850) {
  const auto model = make_model();
  // Guardband: no degradation.
  EXPECT_DOUBLE_EQ(model.alpha_multiplier(Millivolts{1200}), 1.0);
  EXPECT_DOUBLE_EQ(model.alpha_multiplier(Millivolts{980}), 1.0);
  // Paper: alpha*C_L*f is ~14% below nominal at 0.85 V.
  EXPECT_NEAR(model.alpha_multiplier(Millivolts{850}), 0.86, 0.03);
}

TEST(FaultModelTest, DeviceFractionAveragesStacks) {
  const auto model = make_model();
  const Millivolts v{870};
  const double expected = (model.stack_stuck_fraction(0, v) +
                           model.stack_stuck_fraction(1, v)) /
                          2.0;
  EXPECT_DOUBLE_EQ(model.device_stuck_fraction(v), expected);
}

TEST(FaultModelTest, DeterministicAcrossInstances) {
  const auto a = make_model();
  const auto b = make_model();
  for (unsigned pc = 0; pc < 32; ++pc) {
    EXPECT_EQ(a.onset_voltage(pc).value, b.onset_voltage(pc).value);
    EXPECT_EQ(a.stuck_count(pc, StuckPolarity::kStuckAt0, Millivolts{900}),
              b.stuck_count(pc, StuckPolarity::kStuckAt0, Millivolts{900}));
  }
}

TEST(FaultModelTest, SeedChangesJitterButNotAnchors) {
  FaultModelConfig other;
  other.seed = 0x12345;
  const FaultModel a(HbmGeometry::test_tiny(), FaultModelConfig{});
  const FaultModel b(HbmGeometry::test_tiny(), other);
  // The pinned weakest PC onset is an anchor, not jitter.
  EXPECT_EQ(a.onset_voltage(18).value, 970);
  EXPECT_EQ(b.onset_voltage(18).value, 970);
  // But some other PC's onset differs between lots.
  int differing = 0;
  for (unsigned pc = 0; pc < 32; ++pc) {
    differing += a.onset_voltage(pc).value != b.onset_voltage(pc).value;
  }
  EXPECT_GT(differing, 4);
}

TEST(FaultModelTest, NonStandardGeometryStillWorks) {
  HbmGeometry g = HbmGeometry::test_tiny();
  g.channels_per_stack = 2;  // 8 PCs total
  ASSERT_TRUE(g.validate().is_ok());
  const FaultModel model(g, FaultModelConfig{});
  std::uint64_t at_first_flip = 0;
  for (unsigned pc = 0; pc < g.total_pcs(); ++pc) {
    EXPECT_EQ(model.stuck_fraction(pc, Millivolts{1000}), 0.0);
    at_first_flip +=
        model.stuck_count(pc, StuckPolarity::kStuckAt0, Millivolts{970});
  }
  EXPECT_GT(at_first_flip, 0u);  // the pinned first-flip PC exists
}

// --------------------------------------------------------- WeakCellOrder

/// Sorted set of the `k` weakest cells of one polarity.
std::vector<std::uint32_t> weakest_set(const WeakCellOrder& order,
                                       StuckPolarity polarity,
                                       std::uint64_t k) {
  std::vector<std::uint32_t> cells;
  order.weakest(polarity, k, cells);
  std::sort(cells.begin(), cells.end());
  return cells;
}

TEST(WeakCellOrderTest, OrdersPartitionAllCells) {
  const auto g = HbmGeometry::test_tiny();
  WeakCellOrder order(g, 42, WeakCellConfig{});
  order.grow();
  const auto sa0 = order.size(StuckPolarity::kStuckAt0);
  const auto sa1 = order.size(StuckPolarity::kStuckAt1);
  EXPECT_EQ(sa0 + sa1, g.bits_per_pc);
  std::vector<std::uint32_t> cells;
  order.weakest(StuckPolarity::kStuckAt0, sa0, cells);
  order.weakest(StuckPolarity::kStuckAt1, sa1, cells);
  EXPECT_EQ(cells.size(), g.bits_per_pc);
  const std::set<std::uint32_t> seen(cells.begin(), cells.end());
  EXPECT_EQ(seen.size(), g.bits_per_pc);  // no duplicates, full coverage
}

TEST(WeakCellOrderTest, PolaritySharesMatchConfig) {
  const auto g = HbmGeometry::test_tiny();
  WeakCellConfig config;
  config.stuck_at_one_share = 0.5475;
  const WeakCellOrder order(g, 42, config);
  const double share1 =
      static_cast<double>(order.size(StuckPolarity::kStuckAt1)) /
      static_cast<double>(g.bits_per_pc);
  EXPECT_NEAR(share1, 0.5475, 0.02);
}

TEST(WeakCellOrderTest, EarlyRanksAreClustered) {
  const auto g = HbmGeometry::test_tiny();
  WeakCellOrder order(g, 42, WeakCellConfig{});
  order.grow();
  // Most of the first 100 cells in each order lie inside cluster windows.
  unsigned in_cluster = 0;
  for (const auto polarity :
       {StuckPolarity::kStuckAt0, StuckPolarity::kStuckAt1}) {
    std::vector<std::uint32_t> cells;
    order.weakest(polarity, 100, cells);
    ASSERT_EQ(cells.size(), 100u);
    for (const std::uint32_t cell : cells) {
      in_cluster += order.in_cluster(cell) ? 1 : 0;
    }
  }
  EXPECT_GT(in_cluster, 120u);  // >60% of 200
}

TEST(WeakCellOrderTest, ClusteringDisabledGivesUniformEarlyRanks) {
  const auto g = HbmGeometry::test_tiny();
  WeakCellConfig config;
  config.cluster_count = 0;
  const WeakCellOrder order(g, 42, config);
  EXPECT_TRUE(order.clusters().empty());
  EXPECT_FALSE(order.in_cluster(0));
}

TEST(WeakCellOrderDeathTest, RejectsCapacityBeyond32BitCellIndices) {
  // Cell ranks are stored as uint32; a PC larger than 2^32 bits would
  // silently truncate them, so construction must abort instead.
  HbmGeometry g = HbmGeometry::test_tiny();
  g.bits_per_pc = 1ull << 33;
  EXPECT_DEATH(WeakCellOrder(g, 42, WeakCellConfig{}), "2\\^32");
}

TEST(WeakCellOrderTest, DeterministicPerSeed) {
  const auto g = HbmGeometry::test_tiny();
  WeakCellOrder a(g, 42, WeakCellConfig{});
  WeakCellOrder b(g, 42, WeakCellConfig{});
  WeakCellOrder c(g, 43, WeakCellConfig{});
  for (WeakCellOrder* order : {&a, &b, &c}) order->grow();
  const auto polarity = StuckPolarity::kStuckAt0;
  for (const std::uint64_t k :
       {std::uint64_t{1}, std::uint64_t{10}, std::uint64_t{100},
        std::uint64_t{1000}, a.size(polarity)}) {
    EXPECT_EQ(weakest_set(a, polarity, k), weakest_set(b, polarity, k))
        << "k " << k;
    EXPECT_NE(weakest_set(a, polarity, k), weakest_set(c, polarity, k))
        << "k " << k;
  }
}

/// The weak-cell order written out in full, independently of the bucketed
/// implementation: hash every cell, shift the keys of cells inside a
/// cluster window, split by polarity, and sort each side by (key, cell).
/// `rank[cell]` is the cell's position in its polarity's order.
struct ReferenceOrder {
  std::vector<std::uint32_t> order[2];  // [stuck-at-0, stuck-at-1]
  std::vector<std::uint64_t> keys[2];   // keys, in order
  std::vector<std::uint64_t> rank;
  std::vector<std::uint8_t> stuck1;

  ReferenceOrder(const HbmGeometry& g, std::uint64_t pc_seed,
                 const WeakCellConfig& config,
                 const std::vector<faults::ClusterWindow>& clusters) {
    const std::uint64_t key_seed = mix_seed(pc_seed, 0x57E26);
    const std::uint64_t polarity_seed = mix_seed(pc_seed, 0x9012A);
    const auto threshold = static_cast<std::uint64_t>(
        config.stuck_at_one_share * 18446744073709551615.0);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed[2];
    stuck1.resize(g.bits_per_pc);
    for (std::uint64_t cell = 0; cell < g.bits_per_pc; ++cell) {
      std::uint64_t key = splitmix64(key_seed ^ cell);
      const auto loc = hbm::decompose_beat(g, cell / g.bits_per_beat);
      for (const auto& window : clusters) {
        if (loc.bank == window.bank && loc.row >= window.row_lo &&
            loc.row < window.row_lo + window.row_count) {
          key >>= config.cluster_key_shift;
          break;
        }
      }
      stuck1[cell] = splitmix64(polarity_seed ^ cell) < threshold ? 1 : 0;
      keyed[stuck1[cell]].emplace_back(key, static_cast<std::uint32_t>(cell));
    }
    rank.resize(g.bits_per_pc);
    for (int p = 0; p < 2; ++p) {
      std::sort(keyed[p].begin(), keyed[p].end());
      for (const auto& [key, cell] : keyed[p]) {
        rank[cell] = order[p].size();
        order[p].push_back(cell);
        keys[p].push_back(key);
      }
    }
  }

  /// Whether `cells` is exactly the set of the first min(k, size) cells
  /// of polarity `p`.
  [[nodiscard]] bool is_prefix_set(
      int p, std::uint64_t k, const std::vector<std::uint32_t>& cells) const {
    k = std::min<std::uint64_t>(k, order[p].size());
    if (cells.size() != k) return false;
    std::vector<std::uint8_t> seen(rank.size(), 0);
    for (const std::uint32_t cell : cells) {
      if (cell >= rank.size() || stuck1[cell] != p || rank[cell] >= k ||
          seen[cell]) {
        return false;
      }
      seen[cell] = 1;
    }
    return true;
  }
};

/// Runs `fn(order, ref, label)` over the grid the order tests walk: two
/// geometries, clustering on and off, key shifts 5 and 40, and a balanced
/// and a lopsided polarity share.  `order` is fresh: not yet grown.
template <typename Fn>
void for_each_order_case(Fn&& fn) {
  HbmGeometry mid = HbmGeometry::test_tiny();
  mid.bits_per_pc = 1ull << 17;
  for (const HbmGeometry& g : {HbmGeometry::test_tiny(), mid}) {
    for (const unsigned clusters : {6u, 0u}) {
      // Shift 40 drives every cluster cell into the first bucket, so the
      // straddled bucket is large.
      for (const unsigned shift : {5u, 40u}) {
        for (const double share : {0.5475, 0.02}) {
          WeakCellConfig config;
          config.cluster_count = clusters;
          config.cluster_key_shift = shift;
          config.stuck_at_one_share = share;
          WeakCellOrder order(g, 42, config);
          const ReferenceOrder ref(g, 42, config, order.clusters());
          fn(order, ref,
             "bits " + std::to_string(g.bits_per_pc) + " clusters " +
                 std::to_string(clusters) + " shift " +
                 std::to_string(shift) + " share " + std::to_string(share));
        }
      }
    }
  }
}

/// A key's bucket within its polarity.
std::uint64_t bucket_of(std::uint64_t key) {
  return key >> (64 - WeakCellOrder::kBucketBits);
}

TEST(WeakCellOrderTest, WeakestMatchesSortedReference) {
  Xoshiro256 rng(7);
  for_each_order_case([&](WeakCellOrder& order, const ReferenceOrder& ref,
                          const std::string& label) {
    order.grow();
    const std::uint64_t bits = order.bits();
    for (int p = 0; p < 2; ++p) {
      const auto polarity =
          p == 1 ? StuckPolarity::kStuckAt1 : StuckPolarity::kStuckAt0;
      const std::uint64_t size = ref.order[p].size();
      ASSERT_EQ(order.size(polarity), size);
      std::vector<std::uint64_t> ks = {0, 1, size, size + 7};
      // Ranks where the bucket changes, +-1, for the first buckets.
      unsigned boundaries = 0;
      for (std::uint64_t i = 1; i < size && boundaries < 24; ++i) {
        if (bucket_of(ref.keys[p][i]) != bucket_of(ref.keys[p][i - 1])) {
          ks.insert(ks.end(), {i - 1, i, i + 1});
          ++boundaries;
        }
      }
      for (int r = 0; r < 32; ++r) ks.push_back(rng.bounded(size + 1));
      for (const std::uint64_t k : ks) {
        std::vector<std::uint32_t> cells;
        order.weakest(polarity, k, cells);
        ASSERT_TRUE(ref.is_prefix_set(p, k, cells))
            << label << " polarity " << p << " k " << k;
      }
    }

    // Overlays on both sides of the sparse/dense switch (a stuck set
    // larger than 1/64 of the cells goes dense).
    const std::uint64_t switch_at = bits / 64;
    for (const std::uint64_t total : {switch_at, switch_at + 1}) {
      const std::uint64_t k1 =
          std::min<std::uint64_t>(total / 3, ref.order[1].size());
      const std::uint64_t k0 = total - k1;
      const auto overlay = FaultOverlay::build(order, k0, k1);
      ASSERT_EQ(overlay.dense(), total > switch_at);
      std::vector<std::uint32_t> seen[2];
      overlay.for_each([&](std::uint64_t bit, StuckPolarity polarity) {
        seen[polarity == StuckPolarity::kStuckAt1 ? 1 : 0].push_back(
            static_cast<std::uint32_t>(bit));
      });
      EXPECT_TRUE(ref.is_prefix_set(0, k0, seen[0]))
          << label << " total " << total;
      EXPECT_TRUE(ref.is_prefix_set(1, k1, seen[1]))
          << label << " total " << total;
    }
  });
}

TEST(WeakCellOrderTest, RanksSplitThePrefix) {
  Xoshiro256 rng(11);
  unsigned empty_bucket_cases = 0;
  unsigned one_bucket_cases = 0;
  for_each_order_case([&](WeakCellOrder& order, const ReferenceOrder& ref,
                          const std::string& label) {
    order.grow();
    for (int p = 0; p < 2; ++p) {
      const auto polarity =
          p == 1 ? StuckPolarity::kStuckAt1 : StuckPolarity::kStuckAt0;
      const std::uint64_t size = ref.order[p].size();
      std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {
          {0, 0},        {size / 2, size / 2}, {size, size},
          {0, size + 7}, {size, size + 7},     {size + 3, size + 9}};
      // The first rank of each non-empty bucket, in order.
      std::vector<std::uint64_t> starts = {0};
      for (std::uint64_t i = 1; i < size; ++i) {
        if (bucket_of(ref.keys[p][i]) != bucket_of(ref.keys[p][i - 1])) {
          starts.push_back(i);
        }
      }
      starts.push_back(size);
      unsigned boundaries = 0;
      unsigned empties = 0;
      for (std::size_t j = 1; j + 1 < starts.size(); ++j) {
        const std::uint64_t b = starts[j];
        // Whether an empty bucket lies between rank b-1 and rank b.
        const bool gap = bucket_of(ref.keys[p][b]) >
                         bucket_of(ref.keys[p][b - 1]) + 1;
        if (gap ? empties >= 8 : boundaries >= 24) continue;
        ++(gap ? empties : boundaries);
        empty_bucket_cases += gap ? 1 : 0;
        ranges.insert(ranges.end(), {{b - 1, b + 1},
                                     {b, b + 1},
                                     {b - 1, b},
                                     {b + 1, b + 1},
                                     {starts[j - 1], b},
                                     {b, size + 7}});
        // Both ends inside one bucket, off its edges.
        if (starts[j + 1] - b >= 3) {
          ranges.emplace_back(b + 1, starts[j + 1] - 1);
          ++one_bucket_cases;
        }
      }
      for (int r = 0; r < 32; ++r) {
        const std::uint64_t x = rng.bounded(size + 1);
        const std::uint64_t y = rng.bounded(size + 1);
        ranges.emplace_back(std::min(x, y), std::max(x, y));
      }

      // 1 = in weakest(lo), 2 = in ranks(lo, hi); cleared after each range.
      std::vector<std::uint8_t> mark(order.bits(), 0);
      for (const auto& [lo, hi] : ranges) {
        const auto where = [&, lo = lo, hi = hi] {
          return label + " polarity " + std::to_string(p) + " lo " +
                 std::to_string(lo) + " hi " + std::to_string(hi);
        };
        std::vector<std::uint32_t> head;
        std::vector<std::uint32_t> middle;
        std::vector<std::uint32_t> whole;
        order.weakest(polarity, lo, head);
        order.ranks(polarity, lo, hi, middle);
        order.weakest(polarity, hi, whole);
        ASSERT_EQ(middle.size(), std::min(hi, size) - std::min(lo, size))
            << where();
        for (const std::uint32_t cell : head) mark[cell] = 1;
        for (const std::uint32_t cell : middle) {
          ASSERT_EQ(mark[cell], 0) << "repeated or not disjoint: " << where();
          mark[cell] = 2;
          ASSERT_EQ(int{ref.stuck1[cell]}, p) << where();
          ASSERT_GE(ref.rank[cell], lo) << where();
          ASSERT_LT(ref.rank[cell], hi) << where();
        }
        // Disjoint, so the union is exactly weakest(hi) iff the sizes
        // match and every cell of weakest(hi) is marked.
        ASSERT_EQ(head.size() + middle.size(), whole.size()) << where();
        for (const std::uint32_t cell : whole) {
          ASSERT_NE(mark[cell], 0) << where();
        }
        for (const std::uint32_t cell : head) mark[cell] = 0;
        for (const std::uint32_t cell : middle) mark[cell] = 0;
      }
    }
  });
  EXPECT_GT(empty_bucket_cases, 0u);
  EXPECT_GT(one_bucket_cases, 0u);
}

TEST(WeakCellOrderTest, PrefixAnswersBucketZeroBeforeAndAfterGrowth) {
  // A fresh order holds only bucket 0 of each polarity.  Every k up to
  // that bucket's count + 2 must select the reference's weakest k cells,
  // from the prefix while k fits it and from the grown order after.
  // Buckets of more than kEveryK cells (shift 40 on clustered PCs, up to
  // about 24,000 cells) are covered at both edges and at random ranks in
  // between: every k there would cost a quadratic number of key hashes.
  constexpr std::uint64_t kEveryK = 4096;
  constexpr std::uint64_t kEdge = 48;
  Xoshiro256 rng(13);
  unsigned tiny_prefixes = 0;
  unsigned large_prefixes = 0;
  for_each_order_case([&](WeakCellOrder& order, const ReferenceOrder& ref,
                          const std::string& label) {
    ASSERT_FALSE(order.grown()) << label;
    std::vector<std::uint64_t> ks[2];
    for (int p = 0; p < 2; ++p) {
      const auto polarity =
          p == 1 ? StuckPolarity::kStuckAt1 : StuckPolarity::kStuckAt0;
      std::uint64_t bucket0 = 0;
      while (bucket0 < ref.keys[p].size() &&
             bucket_of(ref.keys[p][bucket0]) == 0) {
        ++bucket0;
      }
      ASSERT_EQ(order.reach(polarity), bucket0) << label << " polarity " << p;
      ASSERT_EQ(order.size(polarity), ref.order[p].size()) << label;
      tiny_prefixes += bucket0 <= 2 ? 1 : 0;
      large_prefixes += bucket0 > kEveryK ? 1 : 0;
      for (std::uint64_t k = 0; k <= bucket0 + 2; ++k) {
        if (bucket0 <= kEveryK || k <= kEdge || k + kEdge >= bucket0) {
          ks[p].push_back(k);
        }
      }
      if (bucket0 > kEveryK) {
        for (int r = 0; r < 16; ++r) ks[p].push_back(rng.bounded(bucket0));
      }
    }

    // weakest(k) is the reference's first k cells, and ranks(k / 2, k) is
    // its cells of ranks [k / 2, k).  `stamp` marks the cells seen in one
    // answer without clearing between answers.
    std::vector<std::uint64_t> stamp(order.bits(), 0);
    std::uint64_t answer = 0;
    const auto check = [&](const std::string& state) {
      for (int p = 0; p < 2; ++p) {
        const auto polarity =
            p == 1 ? StuckPolarity::kStuckAt1 : StuckPolarity::kStuckAt0;
        for (const std::uint64_t k : ks[p]) {
          if (k > order.reach(polarity)) continue;
          const auto where = [&] {
            return label + " " + state + " polarity " + std::to_string(p) +
                   " k " + std::to_string(k);
          };
          for (const std::uint64_t lo : {std::uint64_t{0}, k / 2}) {
            std::vector<std::uint32_t> cells;
            order.ranks(polarity, lo, k, cells);
            ASSERT_EQ(cells.size(), k - lo) << where() << " lo " << lo;
            ++answer;
            for (const std::uint32_t cell : cells) {
              ASSERT_NE(stamp[cell], answer) << "repeated: " << where();
              stamp[cell] = answer;
              ASSERT_EQ(int{ref.stuck1[cell]}, p) << where();
              ASSERT_GE(ref.rank[cell], lo) << where();
              ASSERT_LT(ref.rank[cell], k) << where();
            }
          }
        }
      }
    };
    check("prefix");
    order.grow();
    ASSERT_TRUE(order.grown());
    for (int p = 0; p < 2; ++p) {
      const auto polarity =
          p == 1 ? StuckPolarity::kStuckAt1 : StuckPolarity::kStuckAt0;
      ASSERT_EQ(order.reach(polarity), ref.order[p].size()) << label;
      ASSERT_TRUE(ks[p].back() <= order.reach(polarity) ||
                  ks[p].back() > ref.order[p].size())
          << label;
    }
    check("grown");
  });
  // Share 0.02 leaves stuck-at-1 a bucket 0 of at most two cells on some
  // cases, and shift 40 a bucket 0 of thousands.
  EXPECT_GT(tiny_prefixes, 0u);
  EXPECT_GT(large_prefixes, 0u);
}

TEST(WeakCellOrderDeathTest, RanksPastThePrefixNeedGrowth) {
  const WeakCellOrder order(HbmGeometry::test_tiny(), 42, WeakCellConfig{});
  const auto polarity = StuckPolarity::kStuckAt0;
  ASSERT_LT(order.reach(polarity), order.size(polarity));
  std::vector<std::uint32_t> cells;
  EXPECT_DEATH(order.weakest(polarity, order.reach(polarity) + 1, cells),
               "grown weak-cell order");
}

// ---------------------------------------------------------- FaultOverlay

class OverlayTest : public ::testing::Test {
 protected:
  OverlayTest()
      : geometry_(HbmGeometry::test_tiny()),
        order_(geometry_, 42, WeakCellConfig{}) {
    order_.grow();
  }

  HbmGeometry geometry_;
  WeakCellOrder order_;
};

TEST_F(OverlayTest, EmptyOverlayIsIdentity) {
  const FaultOverlay overlay;
  EXPECT_TRUE(overlay.empty());
  hbm::Beat data = {1, 2, 3, 4};
  overlay.apply(0, data);
  EXPECT_EQ(data, (hbm::Beat{1, 2, 3, 4}));
}

TEST_F(OverlayTest, CountsAreClampedToOrderSizes) {
  const auto overlay = FaultOverlay::build(order_, ~0ull, ~0ull);
  EXPECT_EQ(overlay.total_count(), geometry_.bits_per_pc);
}

TEST_F(OverlayTest, SparseAndDenseAgree) {
  // Same stuck set, forced into both representations by building with
  // counts around the switch threshold and comparing per-bit behavior.
  const std::uint64_t k = geometry_.bits_per_pc / 64;  // sparse boundary
  const auto sparse = FaultOverlay::build(order_, k / 2, k / 2 - 1);
  const auto dense = FaultOverlay::build(order_, k / 2, k / 2 - 1 + 64);
  ASSERT_FALSE(sparse.dense());
  ASSERT_TRUE(dense.dense());
  // Every cell stuck in `sparse` must be stuck with the same value in
  // `dense` (dense is a superset by monotonicity).
  sparse.for_each([&](std::uint64_t bit, StuckPolarity polarity) {
    EXPECT_TRUE(dense.is_stuck(bit));
    EXPECT_EQ(dense.stuck_value(bit),
              polarity == StuckPolarity::kStuckAt1);
  });
}

TEST_F(OverlayTest, ApplyMatchesIsStuck) {
  const auto overlay = FaultOverlay::build(order_, 200, 300);
  for (std::uint64_t beat = 0; beat < geometry_.beats_per_pc(); ++beat) {
    hbm::Beat ones = hbm::kBeatAllOnes;
    hbm::Beat zeros = hbm::kBeatAllZeros;
    overlay.apply(beat * 4, ones);
    overlay.apply(beat * 4, zeros);
    for (unsigned bit = 0; bit < 256; ++bit) {
      const std::uint64_t cell = beat * 256 + bit;
      const bool one_read = (ones[bit / 64] >> (bit % 64)) & 1;
      const bool zero_read = (zeros[bit / 64] >> (bit % 64)) & 1;
      if (overlay.is_stuck(cell)) {
        EXPECT_EQ(one_read, overlay.stuck_value(cell));
        EXPECT_EQ(zero_read, overlay.stuck_value(cell));
      } else {
        EXPECT_TRUE(one_read);
        EXPECT_FALSE(zero_read);
      }
    }
  }
}

TEST_F(OverlayTest, ForEachVisitsExactlyTheStuckSet) {
  const auto overlay = FaultOverlay::build(order_, 150, 250);
  std::uint64_t visited = 0;
  std::uint64_t sa0 = 0;
  overlay.for_each([&](std::uint64_t bit, StuckPolarity polarity) {
    ++visited;
    sa0 += polarity == StuckPolarity::kStuckAt0 ? 1 : 0;
    EXPECT_TRUE(overlay.is_stuck(bit));
  });
  EXPECT_EQ(visited, 400u);
  EXPECT_EQ(sa0, 150u);
  EXPECT_EQ(overlay.count(StuckPolarity::kStuckAt0), 150u);
  EXPECT_EQ(overlay.count(StuckPolarity::kStuckAt1), 250u);
}

TEST_F(OverlayTest, LowerVoltageSetContainsHigherVoltageSet) {
  const auto small = FaultOverlay::build(order_, 50, 60);
  const auto large = FaultOverlay::build(order_, 500, 600);
  small.for_each([&](std::uint64_t bit, StuckPolarity) {
    EXPECT_TRUE(large.is_stuck(bit));
  });
}

// ----------------------------------------------- FaultOverlay range ops

/// Per-cell reference read of one stored word: a stuck cell reads its
/// stuck value, any other cell its stored bit.  Built on is_stuck and
/// stuck_value alone, so it shares no code with FaultOverlay::apply.
std::uint64_t reference_word(const FaultOverlay& overlay,
                             std::uint64_t word_index, std::uint64_t stored) {
  for (unsigned bit = 0; bit < 64; ++bit) {
    const std::uint64_t cell = word_index * 64 + bit;
    if (!overlay.is_stuck(cell)) continue;
    const std::uint64_t mask = 1ull << bit;
    stored = overlay.stuck_value(cell) ? stored | mask : stored & ~mask;
  }
  return stored;
}

/// Reference flip count: per-cell reads + per-word popcount over whole
/// beats; `stored` spans the range.
hbm::RangeFlips reference_verify(const FaultOverlay& overlay,
                                 std::uint64_t start_beat,
                                 std::uint64_t beats,
                                 const hbm::WordPattern& pattern,
                                 std::span<const std::uint64_t> stored) {
  hbm::RangeFlips flips;
  for (std::uint64_t b = 0; b < beats; ++b) {
    bool any = false;
    for (unsigned w = 0; w < 4; ++w) {
      const std::uint64_t word = (start_beat + b) * 4 + w;
      const std::uint64_t expected = pattern.word(word);
      const std::uint64_t diff =
          reference_word(overlay, word, stored[b * 4 + w]) ^ expected;
      any = any || diff != 0;
      flips.flips_1to0 += static_cast<unsigned>(std::popcount(diff & expected));
      flips.flips_0to1 +=
          static_cast<unsigned>(std::popcount(diff & ~expected));
    }
    if (any) ++flips.mismatched_beats;
  }
  return flips;
}

class RangeOpsTest : public OverlayTest,
                     public ::testing::WithParamInterface<bool> {
 protected:
  /// Sparse (220 stuck <= 256 words) or dense (500 stuck) per the param.
  static constexpr std::uint64_t kSa0[2] = {100, 200};
  static constexpr std::uint64_t kSa1[2] = {120, 300};
  FaultOverlay make_overlay() const {
    return FaultOverlay::build(order_, kSa0[GetParam()], kSa1[GetParam()]);
  }
};

TEST_P(RangeOpsTest, ApplyMatchesPerCellReference) {
  const auto overlay = make_overlay();
  ASSERT_EQ(overlay.dense(), GetParam());
  const auto pattern = hbm::WordPattern::hashed(13);
  const std::uint64_t words = geometry_.bits_per_pc / 64;
  std::uint64_t first_stuck = ~0ull;
  std::uint64_t last_stuck = 0;
  overlay.for_each([&](std::uint64_t bit, StuckPolarity) {
    first_stuck = std::min(first_stuck, bit / 64);
    last_stuck = std::max(last_stuck, bit / 64);
  });
  // (first word, word count): beat-aligned ranges, unaligned word ranges,
  // and single words at the PC edges, at the edges of the ranges above
  // and at the overlay's first and last stuck words.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {
      {0, words}, {28, 48}, {words - 4, 4},                   // aligned
      {5, 17}, {1, words - 2}, {words - 7, 7},                // unaligned
      {0, 1}, {3, 1}, {4, 1}, {words - 1, 1},                 // PC edges
      {27, 1}, {28, 1}, {75, 1}, {76, 1},                     // range edges
      {first_stuck, 1}, {last_stuck, 1}};
  std::uint64_t patched = 0;
  for (const auto& [first, count] : ranges) {
    std::vector<std::uint64_t> got(count);
    for (std::uint64_t i = 0; i < count; ++i) got[i] = pattern.word(first + i);
    overlay.apply(first, got);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t stored = pattern.word(first + i);
      ASSERT_EQ(got[i], reference_word(overlay, first + i, stored))
          << "range [" << first << ", +" << count << ") word " << i;
      patched += got[i] != stored ? 1 : 0;
    }
  }
  EXPECT_GT(patched, 0u);
}

TEST_P(RangeOpsTest, VerifyAfterFillMatchesReference) {
  const auto overlay = make_overlay();
  const std::uint64_t beats = geometry_.beats_per_pc();
  for (const auto& pattern :
       {hbm::WordPattern::repeat(hbm::kBeatAllOnes),
        hbm::WordPattern::repeat(hbm::kBeatAllZeros),
        hbm::WordPattern::address(), hbm::WordPattern::hashed(5)}) {
    for (const auto& [start, count] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {0, beats}, {9, 20}, {beats - 1, 1}}) {
      // After a matching fill, stored == pattern over the range.
      std::vector<std::uint64_t> stored(count * 4);
      for (std::uint64_t i = 0; i < stored.size(); ++i) {
        stored[i] = pattern.word(start * 4 + i);
      }
      const auto expected =
          reference_verify(overlay, start, count, pattern, stored);
      std::vector<std::uint64_t> diff(count * 4, 0);
      const auto got = overlay.verify_after_fill(start, count, pattern,
                                                 diff.data());
      EXPECT_EQ(got.flips_1to0, expected.flips_1to0);
      EXPECT_EQ(got.flips_0to1, expected.flips_0to1);
      EXPECT_EQ(got.mismatched_beats, expected.mismatched_beats);
      // diff_out: OR of observed^expected per word.
      std::uint64_t diff_bits = 0;
      for (const auto word : diff) {
        diff_bits += static_cast<unsigned>(std::popcount(word));
      }
      EXPECT_EQ(diff_bits, got.flips_1to0 + got.flips_0to1);
    }
  }
}

TEST_P(RangeOpsTest, ReadVerifyOfStoredWordsMatchesReference) {
  // The stack's read-then-compare verify (after_matching_write=false) over
  // stored contents deliberately different from the expected pattern: it
  // must count pattern mismatches and stuck cells alike.  At the guardband
  // only the burst is stuck, so the PC's overlay is sized like
  // make_overlay()'s.
  FaultInjector injector(make_model(geometry_));
  injector.set_voltage(Millivolts{1200});
  hbm::HbmStack stack(geometry_, 0, injector, 7);
  constexpr unsigned kPc = 3;
  injector.add_burst(kPc, kSa0[GetParam()], kSa1[GetParam()]);
  const FaultOverlay& overlay = injector.overlay(kPc);
  ASSERT_EQ(overlay.dense(), GetParam());
  const std::uint64_t beats = geometry_.beats_per_pc();
  ASSERT_TRUE(
      stack.write_range(kPc, 0, beats, hbm::WordPattern::hashed(21)).is_ok());
  const auto stored = stack.array(kPc).words();
  const auto expected_pattern = hbm::WordPattern::repeat(hbm::kBeatAllOnes);
  for (const auto& [start, count] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {0, beats}, {11, 30}, {beats - 2, 2}}) {
    const auto range = stored.subspan(start * 4, count * 4);
    const auto expected =
        reference_verify(overlay, start, count, expected_pattern, range);
    std::vector<std::uint64_t> diff(count * 4, 0);
    const auto got = stack.read_verify_range(kPc, start, count,
                                             expected_pattern,
                                             /*after_matching_write=*/false,
                                             diff.data());
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value().flips_1to0, expected.flips_1to0);
    EXPECT_EQ(got.value().flips_0to1, expected.flips_0to1);
    EXPECT_EQ(got.value().mismatched_beats, expected.mismatched_beats);
    for (std::uint64_t i = 0; i < diff.size(); ++i) {
      const std::uint64_t word = start * 4 + i;
      ASSERT_EQ(diff[i], reference_word(overlay, word, range[i]) ^
                             expected_pattern.word(word))
          << "word " << word;
    }
  }
}

TEST_F(OverlayTest, EmptyOverlayBulkVerifyIsClean) {
  const FaultOverlay overlay;
  const auto flips =
      overlay.verify_after_fill(0, 8, hbm::WordPattern::hashed(3));
  EXPECT_EQ(flips.flips_1to0 + flips.flips_0to1, 0u);
  EXPECT_EQ(flips.mismatched_beats, 0u);
}

INSTANTIATE_TEST_SUITE_P(SparseAndDense, RangeOpsTest, ::testing::Bool());

// --------------------------------------------------------- FaultInjector

TEST(FaultInjectorTest, OverlayTracksVoltage) {
  FaultInjector injector(make_model());
  injector.set_voltage(Millivolts{1200});
  EXPECT_TRUE(injector.overlay(18).empty());
  injector.set_voltage(Millivolts{900});
  const auto count_900 = injector.overlay(18).total_count();
  EXPECT_GT(count_900, 0u);
  injector.set_voltage(Millivolts{870});
  EXPECT_GT(injector.overlay(18).total_count(), count_900);
  injector.set_voltage(Millivolts{1200});
  EXPECT_TRUE(injector.overlay(18).empty());
}

TEST(FaultInjectorTest, OverlayMatchesModelCounts) {
  FaultInjector injector(make_model());
  for (const int mv : {965, 940, 910, 880, 850}) {
    injector.set_voltage(Millivolts{mv});
    for (const unsigned pc : {4u, 18u, 0u}) {
      const auto& overlay = injector.overlay(pc);
      EXPECT_EQ(overlay.count(StuckPolarity::kStuckAt0),
                std::min(injector.model().stuck_count(
                             pc, StuckPolarity::kStuckAt0, Millivolts{mv}),
                         injector.order(pc).size(StuckPolarity::kStuckAt0)))
          << "pc " << pc << " at " << mv;
    }
  }
}

/// Expects `got` and `want` to hold the same cells in the same
/// representation, visited in the same order.
void expect_same_overlay(const FaultOverlay& got, const FaultOverlay& want,
                         const std::string& where) {
  EXPECT_EQ(got.dense(), want.dense()) << where;
  EXPECT_EQ(got.count(StuckPolarity::kStuckAt0),
            want.count(StuckPolarity::kStuckAt0)) << where;
  EXPECT_EQ(got.count(StuckPolarity::kStuckAt1),
            want.count(StuckPolarity::kStuckAt1)) << where;
  const auto cells = [](const FaultOverlay& overlay) {
    std::vector<std::pair<std::uint64_t, StuckPolarity>> out;
    overlay.for_each([&](std::uint64_t bit, StuckPolarity polarity) {
      out.emplace_back(bit, polarity);
    });
    return out;
  };
  EXPECT_TRUE(cells(got) == cells(want)) << where;
}

TEST(FaultInjectorTest, ExtendedOverlayEqualsFreshBuild) {
  // Every PC of a tiny board, and the weak PC 18 of a default one.
  struct Case {
    HbmGeometry geometry;
    std::vector<unsigned> pcs;
  };
  std::vector<unsigned> all_pcs(HbmGeometry::test_tiny().total_pcs());
  for (unsigned pc = 0; pc < all_pcs.size(); ++pc) all_pcs[pc] = pc;
  for (const Case& c : {Case{HbmGeometry::test_tiny(), all_pcs},
                        Case{HbmGeometry::simulation_default(), {18u}}}) {
    board::BoardConfig config;
    config.geometry = c.geometry;
    board::Vcu128Board board(config);
    FaultInjector& injector = board.injector();
    core::FaultCharacterizer characterizer(board);
    const auto check = [&](const std::string& step) {
      for (const unsigned pc : c.pcs) {
        const std::uint64_t k0 =
            injector.model().stuck_count(pc, StuckPolarity::kStuckAt0,
                                         injector.voltage()) +
            injector.burst_extra(pc, StuckPolarity::kStuckAt0);
        const std::uint64_t k1 =
            injector.model().stuck_count(pc, StuckPolarity::kStuckAt1,
                                         injector.voltage()) +
            injector.burst_extra(pc, StuckPolarity::kStuckAt1);
        const FaultOverlay& got = injector.overlay(pc);
        expect_same_overlay(got,
                            FaultOverlay::build(injector.order(pc), k0, k1),
                            "bits " + std::to_string(c.geometry.bits_per_pc) +
                                " pc " + std::to_string(pc) + " " + step);
      }
    };
    for (int mv = 1200; mv >= 800; mv -= 10) {
      injector.set_voltage(Millivolts{mv});
      check("descend " + std::to_string(mv));
    }
    injector.set_voltage(Millivolts{900});
    check("raise to 900");
    for (const unsigned pc : c.pcs) injector.add_burst(pc, 40, 60);
    check("burst");
    for (const unsigned pc : c.pcs) {
      characterizer.clustering(pc, Millivolts{850});
    }
    check("clustering round trip");
    // Descend again, reading every other step, so one refresh spans two
    // voltage steps.
    for (int mv = 890; mv >= 800; mv -= 10) {
      injector.set_voltage(Millivolts{mv});
      if (mv % 20 == 0) check("second descent " + std::to_string(mv));
    }
  }
}

TEST(FaultInjectorTest, PrefixOrdersServeLikeFullyGrownOnes) {
  // The injector's orders start as bucket-0 prefixes and grow on the first
  // refresh that needs more.  Through a 10 mV descent to 810 mV, a burst
  // and a raise to 950 mV, every overlay must equal a fresh build from an
  // order grown up front, and an order must grow exactly when a count
  // first outgrows its prefix.
  for (const HbmGeometry& g :
       {HbmGeometry::test_tiny(), HbmGeometry::simulation_default()}) {
    const FaultModel model(g, FaultModelConfig{});
    WeakCellConfig config;
    config.stuck_at_one_share = model.config().stuck_at_one_share;
    // Every PC of the tiny board; on the default one the PCs whose
    // prefixes last longest and shortest (890 and 880 mV).
    std::vector<unsigned> pcs = {0u, 4u, 18u, 27u};
    if (g.bits_per_pc == HbmGeometry::test_tiny().bits_per_pc) {
      pcs.resize(g.total_pcs());
      for (unsigned pc = 0; pc < pcs.size(); ++pc) pcs[pc] = pc;
    }
    std::vector<std::unique_ptr<WeakCellOrder>> full(g.total_pcs());
    std::vector<std::uint64_t> prefix[2];
    for (const unsigned pc : pcs) {
      full[pc] = std::make_unique<WeakCellOrder>(g, model.pc_seed(pc), config);
      prefix[0].push_back(full[pc]->reach(StuckPolarity::kStuckAt0));
      prefix[1].push_back(full[pc]->reach(StuckPolarity::kStuckAt1));
      full[pc]->grow();
    }
    FaultInjector injector(model);
    std::vector<bool> outgrown(g.total_pcs(), false);
    const auto check = [&](const std::string& step) {
      for (std::size_t i = 0; i < pcs.size(); ++i) {
        const unsigned pc = pcs[i];
        const std::uint64_t k0 =
            model.stuck_count(pc, StuckPolarity::kStuckAt0,
                              injector.voltage()) +
            injector.burst_extra(pc, StuckPolarity::kStuckAt0);
        const std::uint64_t k1 =
            model.stuck_count(pc, StuckPolarity::kStuckAt1,
                              injector.voltage()) +
            injector.burst_extra(pc, StuckPolarity::kStuckAt1);
        const std::string where = "bits " + std::to_string(g.bits_per_pc) +
                                  " pc " + std::to_string(pc) + " " + step;
        const FaultOverlay& got = injector.overlay(pc);
        expect_same_overlay(got, FaultOverlay::build(*full[pc], k0, k1),
                            where);
        if (k0 + k1 == 0) continue;  // the order is not even built
        outgrown[pc] = outgrown[pc] ||
                       std::min(k0, full[pc]->size(StuckPolarity::kStuckAt0)) >
                           prefix[0][i] ||
                       std::min(k1, full[pc]->size(StuckPolarity::kStuckAt1)) >
                           prefix[1][i];
        EXPECT_EQ(injector.order(pc).grown(), outgrown[pc]) << where;
      }
    };
    for (int mv = 1200; mv >= 810; mv -= 10) {
      injector.set_voltage(Millivolts{mv});
      check("descend " + std::to_string(mv));
    }
    for (const unsigned pc : pcs) injector.add_burst(pc, 40, 60);
    check("burst");
    injector.set_voltage(Millivolts{950});
    check("raise to 950");
    for (const unsigned pc : pcs) EXPECT_TRUE(outgrown[pc]) << pc;

    // A burst alone also grows an order: at 950 mV every count fits the
    // prefix until a burst of prefix + 1 cells lands.
    FaultInjector fresh(model);
    fresh.set_voltage(Millivolts{950});
    for (std::size_t i = 0; i < pcs.size(); ++i) {
      const unsigned pc = pcs[i];
      const FaultOverlay& before = fresh.overlay(pc);
      if (!before.empty()) {
        EXPECT_FALSE(fresh.order(pc).grown()) << pc;
      }
      fresh.add_burst(pc, 0, prefix[1][i] + 1);
      const FaultOverlay& after = fresh.overlay(pc);
      EXPECT_TRUE(fresh.order(pc).grown()) << pc;
      expect_same_overlay(
          after,
          FaultOverlay::build(
              *full[pc],
              model.stuck_count(pc, StuckPolarity::kStuckAt0,
                                Millivolts{950}),
              model.stuck_count(pc, StuckPolarity::kStuckAt1,
                                Millivolts{950}) +
                  prefix[1][i] + 1),
          "burst at 950 pc " + std::to_string(pc));
    }
  }
}

// -------------------------------------------------------------- FaultMap

TEST(FaultMapTest, RecordAndQuery) {
  FaultMap map(HbmGeometry::test_tiny());
  map.record(Millivolts{950}, 3, {1000, 5, 7});
  map.record(Millivolts{950}, 3, {1000, 1, 0});  // accumulates
  const auto record = map.pc_record(Millivolts{950}, 3);
  EXPECT_EQ(record.bits_tested, 2000u);
  EXPECT_EQ(record.flips_1to0, 6u);
  EXPECT_EQ(record.flips_0to1, 7u);
  EXPECT_DOUBLE_EQ(record.rate(), 13.0 / 2000.0);
}

TEST(FaultMapTest, AggregationAcrossStacksAndDevice) {
  const auto g = HbmGeometry::test_tiny();
  FaultMap map(g);
  map.record(Millivolts{900}, 0, {100, 1, 0});                    // stack 0
  map.record(Millivolts{900}, g.pcs_per_stack(), {100, 0, 3});    // stack 1
  EXPECT_EQ(map.stack_record(Millivolts{900}, 0).total_flips(), 1u);
  EXPECT_EQ(map.stack_record(Millivolts{900}, 1).total_flips(), 3u);
  EXPECT_EQ(map.device_record(Millivolts{900}).total_flips(), 4u);
  EXPECT_EQ(map.device_record(Millivolts{900}).bits_tested, 200u);
}

TEST(FaultMapTest, VoltagesSortedDescending) {
  FaultMap map(HbmGeometry::test_tiny());
  map.record(Millivolts{900}, 0, {1, 0, 0});
  map.record(Millivolts{1100}, 0, {1, 0, 0});
  map.record(Millivolts{1000}, 0, {1, 0, 0});
  const auto voltages = map.voltages();
  ASSERT_EQ(voltages.size(), 3u);
  EXPECT_EQ(voltages[0].value, 1100);
  EXPECT_EQ(voltages[1].value, 1000);
  EXPECT_EQ(voltages[2].value, 900);
}

TEST(FaultMapTest, ObservedOnsetAndHighestFaulty) {
  FaultMap map(HbmGeometry::test_tiny());
  map.record(Millivolts{1000}, 5, {100, 0, 0});
  map.record(Millivolts{970}, 5, {100, 2, 0});
  map.record(Millivolts{960}, 5, {100, 9, 1});
  map.record(Millivolts{970}, 6, {100, 0, 0});
  ASSERT_TRUE(map.observed_onset(5).has_value());
  EXPECT_EQ(map.observed_onset(5)->value, 970);
  EXPECT_FALSE(map.observed_onset(6).has_value());
  ASSERT_TRUE(map.highest_faulty_voltage().has_value());
  EXPECT_EQ(map.highest_faulty_voltage()->value, 970);
}

TEST(FaultMapTest, UsablePcsThreshold) {
  const auto g = HbmGeometry::test_tiny();
  FaultMap map(g);
  for (unsigned pc = 0; pc < g.total_pcs(); ++pc) {
    // PC i has i flips out of 1000 bits.
    map.record(Millivolts{900}, pc, {1000, pc, 0});
  }
  EXPECT_EQ(map.usable_pcs(Millivolts{900}, 0.0), 1u);       // only PC0
  EXPECT_EQ(map.usable_pcs(Millivolts{900}, 0.005), 6u);     // PCs 0..5
  EXPECT_EQ(map.usable_pcs(Millivolts{900}, 1.0), g.total_pcs());
}

TEST(FaultMapTest, CrashRecording) {
  FaultMap map(HbmGeometry::test_tiny());
  map.record_crash(Millivolts{800});
  const auto* observation = map.at(Millivolts{800});
  ASSERT_NE(observation, nullptr);
  EXPECT_TRUE(observation->crashed);
  EXPECT_EQ(map.usable_pcs(Millivolts{800}, 1.0), 0u);
}

TEST(FaultMapTest, MissingVoltageGivesEmptyRecord) {
  FaultMap map(HbmGeometry::test_tiny());
  EXPECT_EQ(map.at(Millivolts{999}), nullptr);
  EXPECT_EQ(map.pc_record(Millivolts{999}, 0).bits_tested, 0u);
}

// ---------------------------------------------------- Clustering analysis

TEST(ClusteringTest, ClusteredFaultsConcentrateInFewRows) {
  const auto g = HbmGeometry::test_tiny();
  WeakCellOrder clustered(g, 42, WeakCellConfig{});
  clustered.grow();
  const auto overlay = FaultOverlay::build(clustered, 100, 120);
  const auto stats = analyze_clustering(g, overlay);
  EXPECT_EQ(stats.faults, 220u);
  // With 6 windows x 2 rows out of 16 total rows, the densest 5% of rows
  // can't hold everything, but clustering must far exceed uniform.
  EXPECT_GT(stats.fraction_in_densest_5pct_rows, 0.15);
  EXPECT_LT(stats.mean_gap, stats.uniform_expected_gap);
}

TEST(ClusteringTest, UniformFaultsSpreadAcrossRows) {
  const auto g = HbmGeometry::test_tiny();
  WeakCellConfig config;
  config.cluster_count = 0;
  WeakCellOrder uniform(g, 42, config);
  uniform.grow();
  const auto overlay = FaultOverlay::build(uniform, 100, 120);
  const auto stats = analyze_clustering(g, overlay);
  // ~5% of mass in the densest 5% of rows (with slack for small samples).
  EXPECT_LT(stats.fraction_in_densest_5pct_rows, 0.25);
  EXPECT_NEAR(stats.mean_gap, stats.uniform_expected_gap,
              stats.uniform_expected_gap * 0.5);
}

TEST(ClusteringTest, EmptyOverlayGivesZeroStats) {
  const auto stats =
      analyze_clustering(HbmGeometry::test_tiny(), FaultOverlay{});
  EXPECT_EQ(stats.faults, 0u);
  EXPECT_EQ(stats.rows_with_faults, 0u);
}

}  // namespace
}  // namespace hbmvolt
