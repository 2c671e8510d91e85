// Unit tests for the workload-trace infrastructure.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_overlay.hpp"
#include "workload/demand.hpp"
#include "workload/trace.hpp"

namespace hbmvolt {
namespace {

using workload::AccessTrace;
using workload::DemandRun;
using workload::DemandStream;
using workload::ExposureResult;

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest()
      : geometry_(hbm::HbmGeometry::test_tiny()),
        injector_(faults::FaultModel(geometry_, faults::FaultModelConfig{})),
        stack_(geometry_, 0, injector_, 31) {}

  void set_voltage(Millivolts v) {
    injector_.set_voltage(v);
    stack_.on_voltage_change(v);
  }

  hbm::HbmGeometry geometry_;
  faults::FaultInjector injector_;
  hbm::HbmStack stack_;
};

// ----------------------------------------------------------- Trace basics

TEST(TraceTest, TextRoundTrip) {
  AccessTrace trace;
  trace.append(true, 0);
  trace.append(false, 42);
  trace.append(false, 4294967295ull);
  const std::string text = trace.to_text();
  EXPECT_EQ(text, "W 0\nR 42\nR 4294967295\n");
  auto parsed = AccessTrace::from_text(text);
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_EQ(parsed.value().size(), 3u);
  EXPECT_TRUE(parsed.value()[0].write);
  EXPECT_EQ(parsed.value()[1].beat, 42u);
  EXPECT_EQ(parsed.value()[2].beat, 4294967295u);
}

TEST(TraceTest, ParserSkipsCommentsAndBlanks) {
  auto parsed = AccessTrace::from_text(
      "# header comment\n\n  R 7\n\t W 9\n");
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[0].beat, 7u);
  EXPECT_TRUE(parsed.value()[1].write);
}

TEST(TraceTest, ParserRejectsGarbage) {
  EXPECT_FALSE(AccessTrace::from_text("X 3\n").is_ok());
  EXPECT_FALSE(AccessTrace::from_text("R\n").is_ok());
  EXPECT_FALSE(AccessTrace::from_text("R abc\n").is_ok());
  EXPECT_FALSE(AccessTrace::from_text("R 99999999999999\n").is_ok());
}

TEST(TraceTest, ParserRejectsOverlongLinesWithLineNumber) {
  std::string text = "R 1\nR ";
  text.append(AccessTrace::kMaxLineLength, '0');  // numeric but absurd
  text += "\n";
  const auto parsed = AccessTrace::from_text(text);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos)
      << parsed.status().to_string();

  // A line of exactly the limit (record + trailing blanks) still parses:
  // the bound is on raw line length, not on trimmed content.
  std::string ok = "R 7";
  ok.append(AccessTrace::kMaxLineLength - ok.size(), ' ');
  const auto at_limit = AccessTrace::from_text(ok + "\n");
  ASSERT_TRUE(at_limit.is_ok()) << at_limit.status().to_string();
  EXPECT_EQ(at_limit.value()[0].beat, 7u);
}

TEST(TraceTest, ParserRejectsDuplicateDirectionTokens) {
  // The old parser silently truncated "R 5 W 6" to "R 5" -- half a record
  // lost.  Now it is a named error on the offending line.
  const auto parsed = AccessTrace::from_text("W 1\nR 5 W 6\n");
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos)
      << parsed.status().to_string();
  EXPECT_NE(parsed.status().message().find("duplicate direction"),
            std::string::npos)
      << parsed.status().to_string();
  EXPECT_FALSE(AccessTrace::from_text("W W 0\n").is_ok());
  EXPECT_FALSE(AccessTrace::from_text("R R 2\n").is_ok());
}

TEST(TraceTest, ParserRejectsTrailingGarbageAfterBeat) {
  EXPECT_FALSE(AccessTrace::from_text("R 3 extra\n").is_ok());
  EXPECT_FALSE(AccessTrace::from_text("R 3x\n").is_ok());
  // Even a trailing comment is garbage after a record: comments are
  // whole-line only, and anything after the beat risks hiding a typo.
  const auto commented = AccessTrace::from_text("R 3 # hot beat\n");
  ASSERT_FALSE(commented.is_ok());
  EXPECT_NE(commented.status().message().find("trailing garbage"),
            std::string::npos)
      << commented.status().to_string();
}

TEST(TraceTest, ParserRejectsBeatsBeyond32BitsWithoutTruncating) {
  // 2^32 exactly: one past the largest representable beat.
  auto parsed = AccessTrace::from_text("R 4294967296\n");
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().message().find("line 1"), std::string::npos)
      << parsed.status().to_string();
  // A value that overflows 64-bit accumulation must also be caught, not
  // wrapped into a small in-range beat.
  EXPECT_FALSE(
      AccessTrace::from_text("R 118446744073709551616\n").is_ok());
  // The boundary value itself still round-trips.
  const auto max = AccessTrace::from_text("R 4294967295\n");
  ASSERT_TRUE(max.is_ok());
  EXPECT_EQ(max.value()[0].beat, 4294967295u);
}

// --------------------------------------------------------- Demand streams

constexpr std::uint64_t kUnlimited = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kLimits[] = {1, 7, 512, kUnlimited};

/// The coalescing loop the request plane used to inline over a stored
/// trace, less its chunk split (which the plane still applies to each
/// run): from record i, extend while the next record continues the beats
/// in the same direction, at most `limit` records.
DemandRun inline_run(const AccessTrace& trace, std::uint64_t i,
                     std::uint64_t limit) {
  const workload::TraceRecord& first = trace[i];
  std::uint64_t run = 1;
  while (run < limit && i + run < trace.size()) {
    const workload::TraceRecord& next = trace[i + run];
    if (next.write != first.write || next.beat != first.beat + run) break;
    ++run;
  }
  return {first.beat, run, first.write};
}

TEST(DemandStreamTest, SweepRunsExpandToStreamingRecords) {
  for (const std::uint64_t footprint : {1u, 63u, 64u, 1726u}) {
    for (const unsigned passes : {1u, 2u, 5u}) {
      const AccessTrace trace = workload::make_streaming(footprint, passes);
      const DemandStream sweep = DemandStream::sweep(footprint, passes);
      ASSERT_EQ(trace.size(), footprint * passes);
      ASSERT_EQ(sweep.size(), trace.size());
      // make_streaming is the sweep materialised; both must keep the
      // definition: record k touches beat k mod F and writes iff k < F.
      for (std::uint64_t k = 0; k < trace.size(); ++k) {
        ASSERT_EQ(trace[k].beat, k % footprint);
        ASSERT_EQ(trace[k].write, k < footprint);
      }
      for (const std::uint64_t limit : kLimits) {
        const std::string where = "F=" + std::to_string(footprint) +
                                  " passes=" + std::to_string(passes) +
                                  " limit=" + std::to_string(limit);
        std::uint64_t k = 0;
        while (k < sweep.size()) {
          const DemandRun run = sweep.run(k, limit);
          ASSERT_GE(run.count, 1u) << where;
          ASSERT_LE(run.count, limit) << where;
          ASSERT_LE(run.count, trace.size() - k) << where;
          for (std::uint64_t i = 0; i < run.count; ++i) {
            ASSERT_EQ(trace[k + i].beat, run.beat + i) << where;
            ASSERT_EQ(trace[k + i].write, run.write) << where;
          }
          // Maximal unless the limit ended it: the next record breaks
          // the beat sequence or the direction.
          const std::uint64_t end = k + run.count;
          if (run.count < limit && end < trace.size()) {
            EXPECT_TRUE(trace[end].write != run.write ||
                        trace[end].beat != run.beat + run.count)
                << where << " run at " << k << " stops early";
          }
          k = end;
        }
        EXPECT_EQ(k, trace.size()) << where;
      }
    }
  }
}

TEST(DemandStreamTest, ReplayCoalescesLikeTheInlineLoops) {
  // Tiny footprints make consecutive-beat runs common; the pointer chase
  // adds one long write run.
  const std::vector<AccessTrace> traces = {
      workload::make_uniform_random(4, 3000, 0.5, 5),
      workload::make_uniform_random(2048, 3000, 0.25, 6),
      workload::make_zipfian(8, 3000, 0.99, 0.5, 7),
      workload::make_zipfian(128, 3000, 0.5, 0.25, 8),
      workload::make_pointer_chase(700, 1500, 9),
  };
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const AccessTrace& trace = traces[t];
    const DemandStream stream = DemandStream::replay(trace);
    ASSERT_EQ(stream.size(), trace.size());
    for (const std::uint64_t limit : kLimits) {
      // Every start, not only run starts: a consumer resumes anywhere.
      for (std::uint64_t i = 0; i < trace.size(); ++i) {
        const DemandRun got = stream.run(i, limit);
        const DemandRun want = inline_run(trace, i, limit);
        ASSERT_EQ(got.beat, want.beat) << "trace " << t << " record " << i;
        ASSERT_EQ(got.count, want.count) << "trace " << t << " record " << i;
        ASSERT_EQ(got.write, want.write) << "trace " << t << " record " << i;
      }
    }
  }
}

TEST(DemandStreamTest, SweepStoresNoRecords) {
  // 2^32 passes of 2^20 beats: O(1) to build and to query anywhere.
  const DemandStream huge = DemandStream::sweep(1u << 20, 1ull << 32);
  EXPECT_EQ(huge.size(), 1ull << 52);
  const DemandRun last = huge.run(huge.size() - 5, kUnlimited);
  EXPECT_EQ(last.beat, (1u << 20) - 5);
  EXPECT_EQ(last.count, 5u);
  EXPECT_FALSE(last.write);
  EXPECT_EQ(DemandStream::sweep(0, 7).size(), 0u);
}

TEST(DemandStreamDeathTest, SweepRefusesOverflow) {
  EXPECT_DEATH((void)DemandStream::sweep(1ull << 33, 1ull << 31),
               "sweep length overflows");
}

// ------------------------------------------------------------ Generators

TEST(TraceTest, StreamingWritesThenReads) {
  const auto trace = workload::make_streaming(16, 3);
  ASSERT_EQ(trace.size(), 48u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_TRUE(trace[i].write);
  for (std::size_t i = 16; i < 48; ++i) EXPECT_FALSE(trace[i].write);
  EXPECT_EQ(trace[17].beat, 1u);
}

TEST(TraceTest, UniformRandomStaysInRangeAndMixes) {
  const auto trace = workload::make_uniform_random(64, 2000, 0.25, 5);
  ASSERT_EQ(trace.size(), 2000u);
  std::size_t writes = 0;
  for (const auto& record : trace) {
    EXPECT_LT(record.beat, 64u);
    writes += record.write ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(writes) / 2000.0, 0.25, 0.05);
}

TEST(TraceTest, HotSetConcentratesTraffic) {
  const auto trace = workload::make_hot_set(256, 5000, 0.1, 0.9, 7);
  std::map<std::uint32_t, unsigned> histogram;
  for (const auto& record : trace) ++histogram[record.beat];
  // The busiest 10% of beats should hold well over half the accesses.
  std::vector<unsigned> counts;
  counts.reserve(histogram.size());
  for (const auto& [beat, count] : histogram) counts.push_back(count);
  std::sort(counts.rbegin(), counts.rend());
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < 26 && i < counts.size(); ++i) top += counts[i];
  EXPECT_GT(static_cast<double>(top) / 5000.0, 0.6);
}

TEST(TraceTest, StridedWrapsAroundAndWritesFirstTouch) {
  const auto trace = workload::make_strided(32, 10, 12);
  EXPECT_EQ(trace[0].beat, 0u);
  EXPECT_EQ(trace[1].beat, 12u);
  EXPECT_EQ(trace[2].beat, 24u);
  EXPECT_EQ(trace[3].beat, 4u);  // wrapped
  // First touches write; revisits read.
  EXPECT_TRUE(trace[0].write);
  const auto long_trace = workload::make_strided(8, 16, 3);  // revisits all
  std::size_t writes = 0;
  for (const auto& record : long_trace) writes += record.write ? 1 : 0;
  EXPECT_EQ(writes, 8u);
}

TEST(TraceTest, ZipfianSkewsTrafficAndWritesFirstTouch) {
  const auto trace = workload::make_zipfian(128, 4096, 0.99, 0.25, 7);
  ASSERT_EQ(trace.size(), 4096u);
  std::vector<std::uint64_t> hits(128, 0);
  std::vector<bool> seen(128, false);
  for (const auto& record : trace) {
    ASSERT_LT(record.beat, 128u);
    ++hits[record.beat];
    // First touch of every beat must write (reads of unwritten beats
    // would be undefined data downstream).
    if (!seen[record.beat]) {
      EXPECT_TRUE(record.write);
    }
    seen[record.beat] = true;
  }
  // Zipf theta ~1 over 128 ranks puts roughly half the traffic on the
  // top ten beats; well above a uniform spread (10/128 ~ 8%).
  std::sort(hits.begin(), hits.end(), std::greater<>());
  std::uint64_t top10 = 0;
  for (std::size_t i = 0; i < 10; ++i) top10 += hits[i];
  EXPECT_GT(top10, 4096u * 35 / 100) << "zipfian skew missing";
  // Determinism per seed, divergence across seeds.
  const auto again = workload::make_zipfian(128, 4096, 0.99, 0.25, 7);
  ASSERT_EQ(again.size(), trace.size());
  EXPECT_EQ(again[100].beat, trace[100].beat);
  const auto other = workload::make_zipfian(128, 4096, 0.99, 0.25, 8);
  bool differs = false;
  for (std::size_t i = 0; i < trace.size() && !differs; ++i) {
    differs = other[i].beat != trace[i].beat;
  }
  EXPECT_TRUE(differs);
}

TEST(TraceTest, PointerChaseWritesCycleThenWalksIt) {
  const auto trace = workload::make_pointer_chase(64, 192, 3);
  ASSERT_EQ(trace.size(), 192u);
  // Write pass first: the pointers are stored before any chase read.
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(trace[i].write);
    EXPECT_EQ(trace[i].beat, i);
  }
  // The chase is one full cycle: every window of 64 reads visits every
  // beat exactly once (Sattolo's algorithm yields a single cycle).
  for (std::size_t window = 64; window + 64 <= trace.size(); window += 64) {
    std::set<std::uint32_t> visited;
    for (std::size_t i = window; i < window + 64; ++i) {
      EXPECT_FALSE(trace[i].write);
      visited.insert(trace[i].beat);
    }
    EXPECT_EQ(visited.size(), 64u) << "window at " << window;
  }
}

TEST(TraceTest, GeneratorsAreDeterministic) {
  const auto a = workload::make_uniform_random(64, 100, 0.5, 9);
  const auto b = workload::make_uniform_random(64, 100, 0.5, 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].beat, b[i].beat);
    EXPECT_EQ(a[i].write, b[i].write);
  }
}

// --------------------------------------------------------------- Replay

TEST_F(WorkloadTest, CleanReplayAtNominal) {
  const auto trace =
      workload::make_streaming(geometry_.beats_per_pc(), 2);
  auto result = workload::replay_exposure(stack_, 0, trace);
  ASSERT_TRUE(result.is_ok());
  const ExposureResult& r = result.value();
  EXPECT_EQ(r.accesses, trace.size());
  EXPECT_EQ(r.corrupted_reads, 0u);
  EXPECT_EQ(r.distinct_stuck_cells_touched, 0u);
  EXPECT_EQ(r.footprint_beats, geometry_.beats_per_pc());
}

TEST_F(WorkloadTest, StreamingTouchesEveryStuckCell) {
  set_voltage(Millivolts{880});
  const unsigned pc = 4;
  const auto trace =
      workload::make_streaming(geometry_.beats_per_pc(), 2);
  auto result = workload::replay_exposure(stack_, pc, trace);
  ASSERT_TRUE(result.is_ok());
  // A full write+read sweep observes every cell stuck at the opposite of
  // the written bit; with random data, every stuck cell disagrees with
  // the written value with probability 1/2 -- over two read passes of
  // the same data it's still 1/2.  So the sweep sees a large fraction,
  // and never more than the overlay's total.
  const std::uint64_t truth = injector_.overlay(pc).total_count();
  EXPECT_GT(result.value().distinct_stuck_cells_touched, truth / 3);
  EXPECT_LE(result.value().distinct_stuck_cells_touched, truth);
}

TEST_F(WorkloadTest, HotSetExposureDependsOnPlacement) {
  set_voltage(Millivolts{900});
  const unsigned pc = 18 % geometry_.pcs_per_stack();  // any PC on stack 0
  // Small hot set: exposure varies with where the hot set lands, and is
  // bounded above by the streaming exposure.
  const auto hot = workload::make_hot_set(geometry_.beats_per_pc(), 4000,
                                          0.05, 0.95, 11);
  const auto streaming =
      workload::make_streaming(geometry_.beats_per_pc(), 2);
  auto hot_result = workload::replay_exposure(stack_, pc, hot);
  auto streaming_result = workload::replay_exposure(stack_, pc, streaming);
  ASSERT_TRUE(hot_result.is_ok());
  ASSERT_TRUE(streaming_result.is_ok());
  EXPECT_LE(hot_result.value().distinct_stuck_cells_touched,
            streaming_result.value().distinct_stuck_cells_touched);
  EXPECT_LT(hot_result.value().footprint_beats,
            streaming_result.value().footprint_beats);
}

TEST_F(WorkloadTest, ReplayRejectsOutOfRangeBeat) {
  AccessTrace trace;
  trace.append(false, geometry_.beats_per_pc());
  auto result = workload::replay_exposure(stack_, 0, trace);
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST_F(WorkloadTest, ReplayPropagatesCrash) {
  set_voltage(Millivolts{800});
  const auto trace = workload::make_streaming(4, 1);
  auto result = workload::replay_exposure(stack_, 0, trace);
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(WorkloadTest, RewritesRefreshExpectations) {
  // Writing a beat twice updates the expected data: the second write's
  // generation is what reads verify against.
  AccessTrace trace;
  trace.append(true, 3);
  trace.append(true, 3);
  trace.append(false, 3);
  auto result = workload::replay_exposure(stack_, 0, trace);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().corrupted_reads, 0u);
}

}  // namespace
}  // namespace hbmvolt
