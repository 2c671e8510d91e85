// Tests for the parallel sweep engine (core/parallel.hpp) and its
// determinism contract: the same campaign seed must produce byte-identical
// fault maps, power series, and headline numbers at every thread count.
// Also covers ThreadPool semantics (exception propagation, empty range,
// reuse) and FaultMap::merge commutativity -- the property the parallel
// aggregation path relies on.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"

namespace hbmvolt {
namespace {

// ------------------------------------------------------------ ThreadPool

TEST(ParallelForEachTest, EmptyRangeIsNoOp) {
  core::ThreadPool pool(2);
  bool called = false;
  core::parallel_for_each(&pool, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
  core::parallel_for_each(nullptr, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForEachTest, NullPoolRunsInlineInAscendingOrder) {
  std::vector<std::size_t> order;
  core::parallel_for_each(nullptr, 5,
                          [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForEachTest, RunsEveryIndexExactlyOnce) {
  core::ThreadPool pool(4);
  constexpr std::size_t kCount = 100;
  std::vector<std::atomic<int>> hits(kCount);
  core::parallel_for_each(&pool, kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForEachTest, CountSmallerThanPoolWorks) {
  core::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  core::parallel_for_each(&pool, 3, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForEachTest, PoolIsReusableAcrossFanOuts) {
  core::ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> sum{0};
    core::parallel_for_each(&pool, 17, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 17 * 16 / 2);
  }
}

// Owner-computes scheduling: index i of a fan-out always runs on the
// same pool worker, so per-index state stays on one core across fan-outs
// (a fleet slot's channel between epochs), and every worker takes part.
TEST(ParallelForEachTest, IndexOwnershipIsStableAcrossFanOuts) {
  core::ThreadPool pool(4);
  constexpr std::size_t kCount = 32;
  std::vector<std::thread::id> owner(kCount);
  core::parallel_for_each(&pool, kCount, [&](std::size_t i) {
    owner[i] = std::this_thread::get_id();
  });
  std::vector<std::thread::id> workers(owner.begin(), owner.end());
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());
  EXPECT_EQ(workers.size(), pool.size()) << "a pool worker sat idle";
  EXPECT_EQ(std::count(workers.begin(), workers.end(),
                       std::this_thread::get_id()),
            0)
      << "the calling thread ran an index";

  for (int round = 0; round < 50; ++round) {
    std::vector<std::thread::id> ran(kCount);
    core::parallel_for_each(&pool, kCount, [&](std::size_t i) {
      ran[i] = std::this_thread::get_id();
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(ran[i], owner[i]) << "index " << i << " round " << round;
    }
  }
}

// A fan-out from inside a pool task runs inline on that worker instead of
// queueing behind the task that issued it.
TEST(ParallelForEachTest, NestedFanOutRunsInlineOnTheWorker) {
  core::ThreadPool pool(2);
  std::vector<int> inner_hits(8 * 4, 0);
  core::parallel_for_each(&pool, 8, [&](std::size_t i) {
    const std::thread::id outer = std::this_thread::get_id();
    core::parallel_for_each(&pool, 4, [&](std::size_t j) {
      EXPECT_EQ(std::this_thread::get_id(), outer);
      ++inner_hits[i * 4 + j];
    });
  });
  for (const int hits : inner_hits) EXPECT_EQ(hits, 1);
}

// All indices run even when some throw, and the lowest failing index's
// exception is the one rethrown -- at every thread count, including the
// inline path, so error behavior cannot depend on scheduling.
void check_lowest_index_throw(core::ThreadPool* pool) {
  constexpr std::size_t kCount = 20;
  std::vector<std::atomic<int>> hits(kCount);
  try {
    core::parallel_for_each(pool, kCount, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      if (i == 7 || i == 3 || i == 15) {
        throw std::runtime_error("index " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i << " skipped after throw";
  }
}

TEST(ParallelForEachTest, ExceptionFromLowestIndexPropagatesInline) {
  check_lowest_index_throw(nullptr);
}

TEST(ParallelForEachTest, ExceptionFromLowestIndexPropagatesPooled) {
  core::ThreadPool pool(4);
  check_lowest_index_throw(&pool);
}

TEST(ThreadPoolTest, ZeroRequestsHardwareConcurrency) {
  core::ThreadPool pool(0);
  unsigned expected = std::thread::hardware_concurrency();
  if (expected == 0) expected = 1;
  EXPECT_EQ(pool.size(), expected);
}

// ------------------------------------------------- FaultMap::merge

faults::PcFaultRecord make_record(std::uint64_t tested, std::uint64_t f10,
                                  std::uint64_t f01) {
  faults::PcFaultRecord record;
  record.bits_tested = tested;
  record.flips_1to0 = f10;
  record.flips_0to1 = f01;
  record.bits_tested_ones = tested / 2;
  record.bits_tested_zeros = tested / 2;
  return record;
}

TEST(FaultMapMergeTest, MergeIsCommutative) {
  const auto geometry = hbm::HbmGeometry::test_tiny();

  // Two partial maps with overlapping and disjoint (voltage, PC) entries
  // plus crash flags -- the shape per-worker partials have.
  faults::FaultMap a(geometry);
  a.record(Millivolts{1000}, 0, make_record(1000, 3, 1));
  a.record(Millivolts{950}, 1, make_record(1000, 7, 2));
  a.record_crash(Millivolts{900});

  faults::FaultMap b(geometry);
  b.record(Millivolts{1000}, 0, make_record(500, 2, 2));   // overlaps a
  b.record(Millivolts{1000}, 2, make_record(800, 0, 5));   // disjoint PC
  b.record(Millivolts{920}, 1, make_record(600, 1, 1));    // disjoint V
  b.record_crash(Millivolts{880});

  faults::FaultMap ab(geometry);
  ab.merge(a).merge(b);
  faults::FaultMap ba(geometry);
  ba.merge(b).merge(a);

  // Byte-identical serialized views in both orders.
  EXPECT_EQ(core::to_csv_fig4(ab), core::to_csv_fig4(ba));
  EXPECT_EQ(core::to_csv_fig5(ab), core::to_csv_fig5(ba));

  // Spot-check the summed overlap and OR'd crash flags.
  const auto overlap = ab.pc_record(Millivolts{1000}, 0);
  EXPECT_EQ(overlap.bits_tested, 1500u);
  EXPECT_EQ(overlap.flips_1to0, 5u);
  EXPECT_EQ(overlap.flips_0to1, 3u);
  ASSERT_NE(ab.at(Millivolts{900}), nullptr);
  EXPECT_TRUE(ab.at(Millivolts{900})->crashed);
  ASSERT_NE(ba.at(Millivolts{880}), nullptr);
  EXPECT_TRUE(ba.at(Millivolts{880})->crashed);
}

// --------------------------------------------- campaign determinism

board::BoardConfig tiny_board() {
  board::BoardConfig config;
  config.geometry = hbm::HbmGeometry::test_tiny();
  config.monitor_config.noise_sigma_amps = 0.0;
  return config;
}

core::CampaignConfig fast_campaign(unsigned threads) {
  core::CampaignConfig config;
  config.reliability.sweep = {Millivolts{1200}, Millivolts{800}, 20};
  config.reliability.batch_size = 1;
  config.power.sweep = {Millivolts{1200}, Millivolts{850}, 50};
  config.power.samples = 2;
  config.power.traffic_beats = 4;
  config.dry_run = true;
  config.threads = threads;
  return config;
}

/// Canonical full-precision serialization of every campaign output that
/// feeds the figures, so "identical" means bit-identical doubles.
std::string fingerprint(const core::CampaignResult& r) {
  char buffer[256];
  std::string out;
  out += core::to_csv_fig2(r.power);
  out += core::to_csv_fig4(r.fault_map);
  out += core::to_csv_fig5(r.fault_map);
  const auto& h = r.headline;
  std::snprintf(buffer, sizeof(buffer),
                "vmin=%d vff=%d vcrit=%d crash=%d gb=%.17g\n",
                h.guardband.v_min.value, h.guardband.v_first_fault.value,
                h.guardband.v_critical.value, h.guardband.crash_observed,
                h.guardband.guardband_fraction);
  out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "savings=%.17g savings850=%.17g idle=%.17g alpha850=%.17g\n",
                h.savings_at_vmin, h.savings_at_850mv, h.idle_fraction,
                h.alpha_drop_at_850mv);
  out += buffer;
  std::snprintf(buffer, sizeof(buffer), "stackgap=%.17g excess01=%.17g\n",
                h.stack_variation.average_gap,
                h.pattern_variation.average_0to1_excess);
  out += buffer;
  return out;
}

std::string run_campaign(unsigned threads) {
  board::Vcu128Board board(tiny_board());
  core::Campaign campaign(board, fast_campaign(threads));
  auto result = campaign.run();
  EXPECT_TRUE(result.is_ok());
  if (!result.is_ok()) return {};
  return fingerprint(result.value());
}

TEST(ParallelDeterminismTest, SameSeedSameResultAtEveryThreadCount) {
  // The container running CI may have any core count; explicit 2 and 4
  // exercise real concurrency even on a single-core runner, and 0
  // (hardware_concurrency) covers whatever the host offers.
  const std::string serial = run_campaign(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(run_campaign(2), serial) << "threads=2 diverged from serial";
  EXPECT_EQ(run_campaign(4), serial) << "threads=4 diverged from serial";
  EXPECT_EQ(run_campaign(0), serial)
      << "threads=hardware_concurrency diverged from serial";
}

TEST(ParallelDeterminismTest, RepeatedParallelRunsAgree) {
  const std::string first = run_campaign(4);
  const std::string second = run_campaign(4);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace hbmvolt
