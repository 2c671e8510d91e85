// Range-path equivalence suite: the table-driven SECDED/DECTED codecs,
// EccChannel's bulk encode/decode/scrub, and ReliableChannel's range
// calls.
//
// The discipline is the repo's usual twin-universe one: the fast path
// (read_range / write_range -- bulk decodes, flat exception sets,
// clean-block marks) and the reference (the channel's own per-op read()
// and write(), one beat at a time in ascending order, on a second board)
// execute the same POLICY and must produce byte-identical results:
// delivered data, status codes, journals, ChannelStats, budget history,
// ladder traces, parked sets.  Anything the fast path gets to skip, it
// must account exactly as if it had not.  The patrol walk is pinned the
// same way against back-to-back scrub_slices(1) calls.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "board/vcu128.hpp"
#include "common/rng.hpp"
#include "ecc/dected.hpp"
#include "ecc/ecc_channel.hpp"
#include "ecc/secded.hpp"
#include "ecc/secded_gfni.hpp"
#include "faults/fault_overlay.hpp"
#include "hbm/stack.hpp"
#include "runtime/flat_index.hpp"
#include "runtime/fleet.hpp"
#include "runtime/reliable_channel.hpp"
#include "workload/trace.hpp"

namespace hbmvolt {
namespace {

using ecc::DecodeStatus;
using ecc::EccChannel;
using ecc::WordCodec;
using runtime::ChannelStats;
using runtime::FleetConfig;
using runtime::ReliableChannel;
using runtime::ReliableChannelConfig;
using runtime::ServingFleet;

constexpr unsigned kWeakPc = 4;  // deepest fault population on test_tiny

board::BoardConfig tiny_board() {
  board::BoardConfig config;
  config.geometry = hbm::HbmGeometry::test_tiny();
  config.monitor_config.noise_sigma_amps = 0.0;
  return config;
}

// ---------------------------------------------------------------------------
// Table-driven codecs vs the per-set-bit reference codecs
// ---------------------------------------------------------------------------

// Every entry of both byte-sliced encode tables: each single-byte word in
// each of the 8 byte lanes encodes exactly like the reference walk.  By
// linearity this pins every table the fast encoders read.
TEST(CodecTableTest, EveryByteLaneEntryMatchesReference) {
  for (unsigned lane = 0; lane < 8; ++lane) {
    for (std::uint64_t v = 0; v < 256; ++v) {
      const std::uint64_t data = v << (8 * lane);
      ASSERT_EQ(ecc::secded_encode(data), ecc::secded_encode_reference(data))
          << "lane " << lane << " byte " << v;
      ASSERT_EQ(ecc::dected_encode(data), ecc::dected_encode_reference(data))
          << "lane " << lane << " byte " << v;
    }
  }
}

TEST(CodecTableTest, EncodeIsLinear) {
  Xoshiro256 rng(0x11AEA2);
  for (int trial = 0; trial < 4096; ++trial) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    ASSERT_EQ(ecc::secded_encode(a ^ b),
              ecc::secded_encode(a) ^ ecc::secded_encode(b))
        << std::hex << a << " " << b;
    ASSERT_EQ(ecc::dected_encode(a ^ b),
              ecc::dected_encode(a) ^ ecc::dected_encode(b))
        << std::hex << a << " " << b;
  }
}

TEST(SecdedTableTest, EncodeMatchesReference) {
  Xoshiro256 rng(0xEC0DE);
  for (int trial = 0; trial < 4096; ++trial) {
    const std::uint64_t data = rng();
    EXPECT_EQ(ecc::secded_encode(data), ecc::secded_encode_reference(data))
        << std::hex << data;
  }
  for (const std::uint64_t data : {0ull, ~0ull, 1ull, 0x8000000000000000ull}) {
    EXPECT_EQ(ecc::secded_encode(data), ecc::secded_encode_reference(data));
  }
}

TEST(SecdedTableTest, DecodeMatchesReferenceOnEveryInjectedPattern) {
  Xoshiro256 rng(0xDEC0DE);
  for (int trial = 0; trial < 256; ++trial) {
    const std::uint64_t data = rng();
    const std::uint8_t check = ecc::secded_encode(data);
    // Every 0-, 1-, and 2-bit corruption of the 72-bit codeword, plus a
    // random multi-bit smear: identical data AND status from both codecs.
    for (unsigned a = 0; a <= 72; ++a) {
      for (unsigned b = a; b <= 72; b += (trial % 7) + 1) {
        std::uint64_t bad_data = data;
        std::uint8_t bad_check = check;
        for (const unsigned position : {a, b}) {
          if (position >= 72) continue;  // 72 = "no flip" sentinel
          if (position < 64) {
            bad_data ^= 1ull << position;
          } else {
            bad_check ^= static_cast<std::uint8_t>(1u << (position - 64));
          }
        }
        const auto fast = ecc::secded_decode(bad_data, bad_check);
        const auto ref = ecc::secded_decode_reference(bad_data, bad_check);
        ASSERT_EQ(fast.status, ref.status)
            << "flips " << a << "," << b << " data " << std::hex << data;
        ASSERT_EQ(fast.data, ref.data)
            << "flips " << a << "," << b << " data " << std::hex << data;
      }
    }
  }
  // Random garbage (data, check) pairs: both codecs agree everywhere.
  for (int trial = 0; trial < 4096; ++trial) {
    const std::uint64_t data = rng();
    const std::uint8_t check = static_cast<std::uint8_t>(rng());
    const auto fast = ecc::secded_decode(data, check);
    const auto ref = ecc::secded_decode_reference(data, check);
    ASSERT_EQ(fast.status, ref.status);
    ASSERT_EQ(fast.data, ref.data);
  }
}

// ---------------------------------------------------------------------------
// GFNI pair kernel vs the encode tables
// ---------------------------------------------------------------------------

// The host features the GFNI kernel needs, probed here rather than through
// the library so the dispatcher test does not grade itself.
const char* host_missing_gfni_feature() {
#if HBMVOLT_SECDED_GFNI
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx512f")) return "avx512f";
  if (!__builtin_cpu_supports("avx512bw")) return "avx512bw";
  if (!__builtin_cpu_supports("avx512vbmi")) return "avx512vbmi";
  if (!__builtin_cpu_supports("gfni")) return "gfni";
  return nullptr;
#else
  return "x86-64";
#endif
}

TEST(SecdedGfniTest, DispatcherSelectsGfniWhenAllFeaturesPresent) {
  if (const char* missing = host_missing_gfni_feature()) {
    EXPECT_EQ(ecc::secded_kernel(), ecc::SecdedKernel::kTable);
    GTEST_SKIP() << "host lacks " << missing << "; table kernel in use";
  }
  EXPECT_EQ(ecc::secded_gfni_missing_feature(), nullptr);
  EXPECT_EQ(ecc::secded_kernel(), ecc::SecdedKernel::kGfni);
}

#if HBMVOLT_SECDED_GFNI
// Check bytes of a beat pair: byte k of the kernel's result against
// secded_encode(words[k]).
void expect_pair_matches_table(const std::uint64_t (&words)[8]) {
  const std::uint64_t pair = ecc::secded_encode_pair_gfni(words);
  for (unsigned k = 0; k < 8; ++k) {
    ASSERT_EQ(static_cast<std::uint8_t>(pair >> (8 * k)),
              ecc::secded_encode(words[k]))
        << "word slot " << k << " data " << std::hex << words[k];
  }
}

// Every lane-basis word (8 byte lanes x 256 values) in each of the 8 word
// slots of a pair, the other slots random: pins every matrix row and the
// transpose by linearity.
TEST(SecdedGfniTest, PairKernelMatchesTableOnEveryLaneBasisWord) {
  if (const char* missing = host_missing_gfni_feature()) {
    GTEST_SKIP() << "host lacks " << missing;
  }
  Xoshiro256 rng(0x6F41);
  for (unsigned slot = 0; slot < 8; ++slot) {
    for (unsigned lane = 0; lane < 8; ++lane) {
      for (std::uint64_t v = 0; v < 256; ++v) {
        std::uint64_t words[8];
        for (auto& word : words) word = rng();
        words[slot] = v << (8 * lane);
        expect_pair_matches_table(words);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(SecdedGfniTest, PairKernelMatchesTableOnRandomPairs) {
  if (const char* missing = host_missing_gfni_feature()) {
    GTEST_SKIP() << "host lacks " << missing;
  }
  Xoshiro256 rng(0x6F42);
  for (int trial = 0; trial < (1 << 20); ++trial) {
    std::uint64_t words[8];
    for (auto& word : words) word = rng();
    expect_pair_matches_table(words);
    if (HasFatalFailure()) return;
  }
}
#endif

// ---------------------------------------------------------------------------
// Flat index structures
// ---------------------------------------------------------------------------

TEST(FlatIndexTest, SortedKeySetIntervalProbes) {
  runtime::SortedKeySet set;
  EXPECT_EQ(set.first_in_range(0, ~0ull), runtime::SortedKeySet::kNone);
  EXPECT_TRUE(set.insert(10));
  EXPECT_TRUE(set.insert(3));
  EXPECT_FALSE(set.insert(10));
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(4));
  EXPECT_EQ(set.first_in_range(4, 11), 10u);
  EXPECT_EQ(set.first_in_range(4, 10), runtime::SortedKeySet::kNone);
  EXPECT_EQ(set.first_in_range(0, 100), 3u);
  EXPECT_EQ(set.first_in_range(4, 100), 10u);
  EXPECT_EQ(set.first_in_range(11, 100), runtime::SortedKeySet::kNone);
  EXPECT_TRUE(set.erase(3));
  EXPECT_FALSE(set.erase(3));
  EXPECT_EQ(set.keys(), (std::vector<std::uint64_t>{10}));
}

TEST(FlatIndexTest, BitVecRunScans) {
  runtime::BitVec bits;
  // run(): the same-valued stretch from a start, capped by its limit,
  // across word boundaries and up to the last bit.
  bits.assign(130, false);
  EXPECT_EQ(bits.run(0, false, 130), 130u);
  EXPECT_EQ(bits.run(0, true, 130), 0u);
  bits.set(0);
  bits.set(64);
  bits.set(129);
  EXPECT_EQ(bits.run(1, false, 129), 63u);
  EXPECT_EQ(bits.run(65, false, 65), 64u);
  EXPECT_EQ(bits.run(0, true, 130), 1u);
  bits.assign(130, true);
  EXPECT_EQ(bits.run(0, true, 130), 130u);
  bits.clear(127);
  EXPECT_EQ(bits.run(100, true, 30), 27u);
  EXPECT_EQ(bits.run(100, true, 20), 20u);
  EXPECT_EQ(bits.run(127, false, 3), 1u);
  EXPECT_EQ(bits.run(128, true, 2), 2u);
  EXPECT_EQ(bits.run(0, true, 127), 127u);
  EXPECT_EQ(bits.run(5, true, 0), 0u);
  bits.assign(130, false);
  bits.set(70);
  EXPECT_EQ(bits.run(3, false, 127), 67u);
  EXPECT_EQ(bits.run(70, true, 60), 1u);
  EXPECT_EQ(bits.run(71, false, 59), 59u);
}

TEST(FlatIndexTest, BitVecSetRangeMatchesPerBitSets) {
  // Ranges of 0, 63, 64 and 65 bits, from word-aligned and unaligned
  // starts, over a vector whose tail word is partial: set_range must
  // touch exactly the bits a per-bit set loop does.
  constexpr std::uint64_t kBits = 260;
  for (const std::uint64_t n : {0u, 63u, 64u, 65u}) {
    for (const std::uint64_t lo : {0u, 1u, 63u, 64u, 128u, 130u}) {
      if (lo + n > kBits) continue;
      runtime::BitVec ranged;
      runtime::BitVec reference;
      ranged.assign(kBits, false);
      reference.assign(kBits, false);
      // A set bit just outside the range on each side must survive.
      for (runtime::BitVec* bits : {&ranged, &reference}) {
        if (lo > 0) bits->set(lo - 1);
        if (lo + n + 1 < kBits) bits->set(lo + n + 1);
      }
      ranged.set_range(lo, n);
      for (std::uint64_t i = lo; i < lo + n; ++i) reference.set(i);
      for (std::uint64_t i = 0; i < kBits; ++i) {
        ASSERT_EQ(ranged.get(i), reference.get(i))
            << "bit " << i << " of set_range(" << lo << ", " << n << ")";
      }
      EXPECT_EQ(ranged.run(lo, true, kBits - lo),
                reference.run(lo, true, kBits - lo));
    }
  }
  // The full vector, partial tail word included, leaves no bit clear.
  runtime::BitVec all;
  all.assign(kBits, false);
  all.set_range(0, kBits);
  EXPECT_EQ(all.run(0, true, kBits), kBits);
}

// ---------------------------------------------------------------------------
// EccChannel bulk ops vs per-beat calls
// ---------------------------------------------------------------------------

// Parameterized over the word codec: both codecs' range loops are checked
// against their own per-beat path.
class EccRangeTest : public ::testing::TestWithParam<WordCodec> {
 protected:
  EccRangeTest()
      : geometry_(hbm::HbmGeometry::test_tiny()),
        injector_a_(faults::FaultModel(geometry_, faults::FaultModelConfig{})),
        injector_b_(faults::FaultModel(geometry_, faults::FaultModelConfig{})),
        stack_a_(geometry_, 0, injector_a_, 11),
        stack_b_(geometry_, 0, injector_b_, 11) {}

  void set_voltage(Millivolts v) {
    injector_a_.set_voltage(v);
    injector_b_.set_voltage(v);
  }

  static hbm::Beat payload(std::uint64_t beat) {
    hbm::Beat data;
    for (unsigned w = 0; w < 4; ++w) {
      data[w] = splitmix64(beat * 4 + w + 0xBEA7);
    }
    return data;
  }

  hbm::HbmGeometry geometry_;
  faults::FaultInjector injector_a_;
  faults::FaultInjector injector_b_;
  hbm::HbmStack stack_a_;
  hbm::HbmStack stack_b_;
};

TEST_P(EccRangeTest, EncodeDecodeRangeMatchPerBeatTwin) {
  std::uint64_t events_seen = 0;
  for (const int mv : {1200, 950, 930, 910}) {
    set_voltage(Millivolts{mv});
    EccChannel a(stack_a_, kWeakPc, GetParam());  // per-beat universe
    EccChannel b(stack_b_, kWeakPc, GetParam());  // range universe
    const std::uint64_t beats = a.data_beats();
    ASSERT_EQ(beats, b.data_beats());

    std::vector<hbm::Beat> data(beats);
    for (std::uint64_t i = 0; i < beats; ++i) data[i] = payload(i);
    for (std::uint64_t i = 0; i < beats; ++i) {
      ASSERT_TRUE(a.write_beat(i, data[i]).is_ok());
    }
    ASSERT_TRUE(b.encode_range(0, beats, data.data()).is_ok());

    // Identical final memory state: both universes read back the same
    // bytes per beat, and bulk decode agrees with per-beat reads.
    std::vector<hbm::Beat> bulk(beats);
    std::vector<EccChannel::RangeBeatEvent> events;
    ASSERT_TRUE(b.decode_range(0, beats, bulk.data(), events).is_ok());
    std::size_t next_event = 0;
    for (std::uint64_t i = 0; i < beats; ++i) {
      auto got = a.read_beat(i);
      ASSERT_TRUE(got.is_ok());
      EXPECT_EQ(got.value().data, bulk[i]) << "beat " << i << " at " << mv;
      unsigned corrected = 0, corrected_check = 0, uncorrectable = 0;
      if (next_event < events.size() && events[next_event].beat == i) {
        corrected = events[next_event].corrected;
        corrected_check = events[next_event].corrected_check;
        uncorrectable = events[next_event].uncorrectable;
        ++next_event;
        ++events_seen;
      }
      EXPECT_EQ(got.value().corrected, corrected) << "beat " << i;
      EXPECT_EQ(got.value().corrected_check, corrected_check) << "beat " << i;
      EXPECT_EQ(got.value().uncorrectable, uncorrectable) << "beat " << i;
    }
    EXPECT_EQ(next_event, events.size());

    // Sub-range decodes at awkward offsets agree with the full decode.
    for (std::uint64_t lo = 0; lo < beats; lo += 17) {
      const std::uint64_t n = std::min<std::uint64_t>(23, beats - lo);
      std::vector<hbm::Beat> part(n);
      std::vector<EccChannel::RangeBeatEvent> part_events;
      ASSERT_TRUE(b.decode_range(lo, n, part.data(), part_events).is_ok());
      for (std::uint64_t i = 0; i < n; ++i) {
        EXPECT_EQ(part[i], bulk[lo + i]) << "beat " << lo + i;
      }
    }
  }
  // The sweep must actually exercise the non-clean paths.
  EXPECT_GT(events_seen, 0u);
}

TEST_P(EccRangeTest, ScrubRangeMatchesPerBeatTwin) {
  std::uint64_t writebacks_seen = 0;
  for (const int mv : {950, 930}) {
    set_voltage(Millivolts{mv});
    EccChannel a(stack_a_, kWeakPc, GetParam());
    EccChannel b(stack_b_, kWeakPc, GetParam());
    const std::uint64_t beats = a.data_beats();
    for (std::uint64_t i = 0; i < beats; ++i) {
      ASSERT_TRUE(a.write_beat(i, payload(i)).is_ok());
      ASSERT_TRUE(b.write_beat(i, payload(i)).is_ok());
    }
    // Soft-rot a couple of stored bits so the scrub has transient damage
    // to repair (and a parity-group refresh to propagate).
    for (const std::uint64_t beat : {std::uint64_t{5}, std::uint64_t{6}}) {
      for (hbm::HbmStack* stack : {&stack_a_, &stack_b_}) {
        auto got = stack->read_beat(kWeakPc, beat);
        ASSERT_TRUE(got.is_ok());
        hbm::Beat rotted = got.value();
        rotted[1] ^= 1ull << 17;
        ASSERT_TRUE(stack->write_beat(kWeakPc, beat, rotted).is_ok());
      }
    }

    // Twin scrub: per-beat universe A vs one bulk call in universe B.
    std::vector<EccChannel::RangeBeatEvent> events;
    ASSERT_TRUE(b.scrub_range(0, beats, events).is_ok());
    std::size_t next_event = 0;
    for (std::uint64_t i = 0; i < beats; ++i) {
      auto got = a.scrub_beat(i);
      ASSERT_TRUE(got.is_ok());
      const auto& out = got.value();
      unsigned corrected = 0, corrected_check = 0, uncorrectable = 0;
      bool wrote_back = false;
      if (next_event < events.size() && events[next_event].beat == i) {
        corrected = events[next_event].corrected;
        corrected_check = events[next_event].corrected_check;
        uncorrectable = events[next_event].uncorrectable;
        wrote_back = events[next_event].wrote_back;
        ++next_event;
      }
      EXPECT_EQ(out.corrected_data, corrected) << "beat " << i << " " << mv;
      EXPECT_EQ(out.corrected_check, corrected_check) << "beat " << i;
      EXPECT_EQ(out.uncorrectable, uncorrectable) << "beat " << i;
      EXPECT_EQ(out.wrote_back, wrote_back) << "beat " << i;
      if (wrote_back) ++writebacks_seen;
    }
    EXPECT_EQ(next_event, events.size());

    // Post-scrub state identical: every beat decodes to the same bytes.
    for (std::uint64_t i = 0; i < beats; ++i) {
      auto ra = a.read_beat(i);
      auto rb = b.read_beat(i);
      ASSERT_TRUE(ra.is_ok());
      ASSERT_TRUE(rb.is_ok());
      EXPECT_EQ(ra.value().data, rb.value().data) << "beat " << i;
    }
  }
  EXPECT_GT(writebacks_seen, 0u);  // the rot must have been repaired
}

// Dirty beats where a two-beat clean scan can go wrong: (a) the odd tail
// of an odd-length range, (b) both beats of one pair, and (c) the first
// beat of a range that starts at an odd index.  Each scenario rots stored
// bits at nominal voltage (no stuck cells), then runs the per-beat calls
// in universe A against one bulk call in universe B, for decode_range and
// scrub_range.  Check-byte rot on both beats of a pair pins the scrub's
// parity-group refresh: the per-beat scrub repairs the second beat's check
// bytes while scrubbing the first, so the second must not report.
TEST_P(EccRangeTest, DirtyBeatsAtPairEdgesMatchPerBeatTwin) {
  struct Rot {
    std::uint64_t beat;
    unsigned word;
    unsigned bit;     // data bit, or check bit when `check` is set
    bool check;
  };
  struct Scenario {
    const char* name;
    std::uint64_t start;
    std::uint64_t count;
    std::vector<Rot> rots;
  };
  const std::vector<Scenario> scenarios = {
      {"odd tail", 8, 7, {{14, 2, 5, false}, {15, 0, 0, false}}},
      {"odd tail, uncorrectable", 8, 7, {{14, 1, 2, false}, {14, 1, 9, false}}},
      {"pair data", 16, 8, {{18, 1, 9, false}, {19, 3, 60, false}}},
      {"pair checks", 16, 8, {{18, 0, 3, true}, {19, 2, 1, true}}},
      {"odd start", 33, 6, {{33, 0, 40, false}, {33, 3, 7, true}}},
      {"odd start, refresh", 41, 5, {{41, 3, 0, true}, {42, 0, 0, true}}},
  };
  set_voltage(Millivolts{1200});
  std::uint64_t events_seen = 0;
  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    EccChannel a(stack_a_, kWeakPc, GetParam());
    EccChannel b(stack_b_, kWeakPc, GetParam());
    const std::uint64_t beats = a.data_beats();
    ASSERT_LT(scenario.start + scenario.count, beats);
    for (std::uint64_t i = 0; i < beats; ++i) {
      ASSERT_TRUE(a.write_beat(i, payload(i)).is_ok());
      ASSERT_TRUE(b.write_beat(i, payload(i)).is_ok());
    }
    for (const Rot& rot : scenario.rots) {
      for (hbm::HbmStack* stack : {&stack_a_, &stack_b_}) {
        std::uint64_t target = rot.beat;
        unsigned word = rot.word;
        unsigned bit = rot.bit;
        if (rot.check) {
          // The rotted word's first check byte inside its parity beat.
          const unsigned cbw = a.check_bytes_per_word();
          const std::uint64_t byte =
              (rot.beat % a.beats_per_parity_beat()) * 4 * cbw +
              rot.word * cbw;
          target = a.parity_beat_of(rot.beat);
          word = static_cast<unsigned>(byte / 8);
          bit = static_cast<unsigned>(byte % 8) * 8 + rot.bit;
        }
        auto got = stack->read_beat(kWeakPc, target);
        ASSERT_TRUE(got.is_ok());
        hbm::Beat rotted = got.value();
        rotted[word] ^= 1ull << bit;
        ASSERT_TRUE(stack->write_beat(kWeakPc, target, rotted).is_ok());
      }
    }

    // Decode twin: per-beat reads vs one decode_range.
    std::vector<hbm::Beat> bulk(scenario.count);
    std::vector<EccChannel::RangeBeatEvent> events;
    ASSERT_TRUE(
        b.decode_range(scenario.start, scenario.count, bulk.data(), events)
            .is_ok());
    std::size_t next_event = 0;
    for (std::uint64_t i = 0; i < scenario.count; ++i) {
      const std::uint64_t beat = scenario.start + i;
      auto got = a.read_beat(beat);
      ASSERT_TRUE(got.is_ok());
      EccChannel::RangeBeatEvent expected;
      expected.beat = beat;
      expected.corrected = static_cast<std::uint8_t>(got.value().corrected);
      expected.corrected_check =
          static_cast<std::uint8_t>(got.value().corrected_check);
      expected.uncorrectable =
          static_cast<std::uint8_t>(got.value().uncorrectable);
      EXPECT_EQ(bulk[i], got.value().data) << "beat " << beat;
      if (expected.corrected + expected.corrected_check +
              expected.uncorrectable ==
          0) {
        continue;
      }
      ASSERT_LT(next_event, events.size()) << "beat " << beat;
      const auto& event = events[next_event++];
      EXPECT_EQ(event.beat, beat);
      EXPECT_EQ(event.corrected, expected.corrected) << "beat " << beat;
      EXPECT_EQ(event.corrected_check, expected.corrected_check)
          << "beat " << beat;
      EXPECT_EQ(event.uncorrectable, expected.uncorrectable)
          << "beat " << beat;
      ++events_seen;
    }
    EXPECT_EQ(next_event, events.size());

    // Scrub twin: per-beat scrubs vs one scrub_range.
    events.clear();
    ASSERT_TRUE(b.scrub_range(scenario.start, scenario.count, events).is_ok());
    next_event = 0;
    for (std::uint64_t i = 0; i < scenario.count; ++i) {
      const std::uint64_t beat = scenario.start + i;
      auto got = a.scrub_beat(beat);
      ASSERT_TRUE(got.is_ok());
      const ecc::ScrubOutcome& out = got.value();
      if (out.corrected_data + out.corrected_check + out.uncorrectable == 0) {
        continue;
      }
      ASSERT_LT(next_event, events.size()) << "beat " << beat;
      const auto& event = events[next_event++];
      EXPECT_EQ(event.beat, beat);
      EXPECT_EQ(event.corrected, out.corrected_data) << "beat " << beat;
      EXPECT_EQ(event.corrected_check, out.corrected_check)
          << "beat " << beat;
      EXPECT_EQ(event.uncorrectable, out.uncorrectable) << "beat " << beat;
      EXPECT_EQ(event.wrote_back, out.wrote_back) << "beat " << beat;
    }
    EXPECT_EQ(next_event, events.size());

    // Post-scrub state identical around the range.
    for (std::uint64_t beat = scenario.start - 1;
         beat <= scenario.start + scenario.count; ++beat) {
      auto ra = a.read_beat(beat);
      auto rb = b.read_beat(beat);
      ASSERT_TRUE(ra.is_ok());
      ASSERT_TRUE(rb.is_ok());
      EXPECT_EQ(ra.value().data, rb.value().data) << "beat " << beat;
      EXPECT_EQ(ra.value().corrected, rb.value().corrected) << "beat " << beat;
      EXPECT_EQ(ra.value().corrected_check, rb.value().corrected_check)
          << "beat " << beat;
      EXPECT_EQ(ra.value().uncorrectable, rb.value().uncorrectable)
          << "beat " << beat;
    }
  }
  EXPECT_GT(events_seen, 0u);
}

INSTANTIATE_TEST_SUITE_P(Codecs, EccRangeTest,
                         ::testing::Values(WordCodec::kSecded,
                                           WordCodec::kDected),
                         [](const auto& info) {
                           return std::string(ecc::to_string(info.param));
                         });

// DECTED stores each word's check bits in a 16-bit field whose bit 15 is
// a pad that decode ignores; the packed per-beat compare must ignore it
// too.  Setting every pad of a parity beat leaves its beats clean, while
// flipping a live check bit (the overall parity, bit 14) does not.
TEST(EccRangePadTest, DectedPadBitsDecodeCleanOnPackedPath) {
  const hbm::HbmGeometry geometry = hbm::HbmGeometry::test_tiny();
  faults::FaultInjector injector(
      faults::FaultModel(geometry, faults::FaultModelConfig{}));
  hbm::HbmStack stack(geometry, 0, injector, 11);
  injector.set_voltage(Millivolts{1200});
  EccChannel channel(stack, kWeakPc, WordCodec::kDected);
  constexpr std::uint64_t kBeats = 16;  // four whole parity groups
  std::vector<hbm::Beat> data(kBeats);
  for (std::uint64_t i = 0; i < kBeats; ++i) {
    for (unsigned w = 0; w < 4; ++w) data[i][w] = splitmix64(i * 4 + w);
  }
  ASSERT_TRUE(channel.encode_range(0, kBeats, data.data()).is_ok());

  // Premise: the untouched range decodes clean at nominal voltage.
  std::vector<hbm::Beat> out(kBeats);
  std::vector<EccChannel::RangeBeatEvent> events;
  ASSERT_TRUE(channel.decode_range(0, kBeats, out.data(), events).is_ok());
  ASSERT_TRUE(events.empty());

  // XOR `masks` into the parity beat holding beats 4..7's check bytes:
  // masks[k] lands on beat 4 + k's four 16-bit check fields.
  const std::uint64_t parity_beat = channel.parity_beat_of(4);
  auto smear_parity = [&](const hbm::Beat& masks) {
    auto got = stack.read_beat(kWeakPc, parity_beat);
    ASSERT_TRUE(got.is_ok());
    hbm::Beat parity = got.value();
    for (unsigned k = 0; k < 4; ++k) parity[k] ^= masks[k];
    ASSERT_TRUE(stack.write_beat(kWeakPc, parity_beat, parity).is_ok());
  };

  constexpr std::uint64_t kPads = 0x8000800080008000ull;
  smear_parity({kPads, kPads, kPads, kPads});  // every pad bit set
  events.clear();
  channel.reset_stats();
  ASSERT_TRUE(channel.decode_range(0, kBeats, out.data(), events).is_ok());
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(out, data);
  EXPECT_EQ(channel.stats().words_clean, kBeats * 4);
  ASSERT_TRUE(channel.scrub_range(0, kBeats, events).is_ok());
  EXPECT_TRUE(events.empty());
  for (std::uint64_t i = 4; i < 8; ++i) {
    auto got = channel.read_beat(i);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value().data, data[i]);
    EXPECT_EQ(got.value().corrected_check, 0u);
  }

  // Beat 7's word-3 overall parity bit: one live check-bit error.
  smear_parity({0, 0, 0, 0x4000000000000000ull});
  events.clear();
  ASSERT_TRUE(channel.decode_range(0, kBeats, out.data(), events).is_ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].beat, 7u);
  EXPECT_EQ(events[0].corrected_check, 1u);
  EXPECT_EQ(out, data);
}

// ---------------------------------------------------------------------------
// ReliableChannel: range calls vs the per-op API (twin universes)
// ---------------------------------------------------------------------------

/// Per-op reference for write_range: write() each beat in ascending order.
Status write_each(ReliableChannel& channel, std::uint64_t logical,
                  std::uint64_t count, const hbm::Beat* data) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const Status wrote = channel.write(logical + i, data[i]);
    if (!wrote.is_ok()) return wrote;
  }
  return Status::ok();
}

/// Per-op reference for read_range: read() each beat in ascending order,
/// stopping at the first failure, as read_range stops accounting there.
Status read_each(ReliableChannel& channel, std::uint64_t logical,
                 std::uint64_t count, hbm::Beat* out) {
  for (std::uint64_t i = 0; i < count; ++i) {
    auto got = channel.read(logical + i);
    if (!got.is_ok()) return got.status();
    out[i] = got.value();
  }
  return Status::ok();
}

/// Two channels on two boards: `range` is driven with write_range /
/// read_range, `perop` with write() / read() one beat at a time.  The
/// patrol is off in both, because its cadence (settled at the end of a
/// range call, between beats per op) is the one difference the range
/// contract allows.
struct ChannelTwin {
  board::Vcu128Board board_range;
  board::Vcu128Board board_perop;
  ReliableChannel range;
  ReliableChannel perop;

  ChannelTwin(unsigned pc, ReliableChannelConfig config,
              int start_mv = 1200)
      : board_range(tiny_board()),
        board_perop(tiny_board()),
        range(board_range, pc, without_patrol(config)),
        perop(board_perop, pc, without_patrol(config)) {
    EXPECT_TRUE(board_range.set_hbm_voltage(Millivolts{start_mv}).is_ok());
    EXPECT_TRUE(board_perop.set_hbm_voltage(Millivolts{start_mv}).is_ok());
  }

  static ReliableChannelConfig without_patrol(ReliableChannelConfig config) {
    config.scrub_interval_ops = 0;
    return config;
  }

  /// Full-state comparison: everything the twin-universe contract pins.
  void expect_equal(const char* where) const {
    const ChannelStats& a = range.stats();
    const ChannelStats& b = perop.stats();
    EXPECT_EQ(a.reads, b.reads) << where;
    EXPECT_EQ(a.writes, b.writes) << where;
    EXPECT_EQ(a.corrected_words, b.corrected_words) << where;
    EXPECT_EQ(a.corrected_check_words, b.corrected_check_words) << where;
    EXPECT_EQ(a.uncorrectable_blocked, b.uncorrectable_blocked) << where;
    EXPECT_EQ(a.scrub_beats, b.scrub_beats) << where;
    EXPECT_EQ(a.scrub_corrected, b.scrub_corrected) << where;
    EXPECT_EQ(a.scrub_uncorrectable, b.scrub_uncorrectable) << where;
    EXPECT_EQ(a.scrub_writebacks, b.scrub_writebacks) << where;
    EXPECT_EQ(a.scrub_blocks_skipped, b.scrub_blocks_skipped) << where;
    EXPECT_EQ(a.rows_retired, b.rows_retired) << where;
    EXPECT_EQ(a.beats_migrated, b.beats_migrated) << where;
    EXPECT_EQ(a.journal_migrations, b.journal_migrations) << where;
    EXPECT_EQ(a.beats_parked, b.beats_parked) << where;
    EXPECT_EQ(a.journal_served_reads, b.journal_served_reads) << where;
    EXPECT_EQ(a.verify_caught, b.verify_caught) << where;
    EXPECT_EQ(a.journal_refreshes, b.journal_refreshes) << where;
    EXPECT_EQ(a.retires, b.retires) << where;
    EXPECT_EQ(a.raises, b.raises) << where;
    EXPECT_EQ(a.power_cycles, b.power_cycles) << where;
    EXPECT_EQ(range.budget().windows_completed(),
              perop.budget().windows_completed())
        << where;
    EXPECT_EQ(range.budget().window_words(), perop.budget().window_words())
        << where;
    EXPECT_EQ(range.budget().window_corrected(),
              perop.budget().window_corrected())
        << where;
    EXPECT_EQ(range.budget().burns(), perop.budget().burns()) << where;
    EXPECT_EQ(range.escalation_pending(), perop.escalation_pending())
        << where;
    EXPECT_EQ(range.parked_count(), perop.parked_count()) << where;
    EXPECT_EQ(range.spares_free(), perop.spares_free()) << where;
    EXPECT_EQ(range.ladder_trace().size(), perop.ladder_trace().size())
        << where;
    for (std::size_t i = 0; i < range.ladder_trace().size() &&
                            i < perop.ladder_trace().size();
         ++i) {
      EXPECT_EQ(range.ladder_trace()[i].rung, perop.ladder_trace()[i].rung);
      EXPECT_EQ(range.ladder_trace()[i].voltage.value,
                perop.ladder_trace()[i].voltage.value);
      EXPECT_EQ(range.ladder_trace()[i].op, perop.ladder_trace()[i].op);
    }
    ASSERT_EQ(range.capacity(), perop.capacity());
    for (std::uint64_t l = 0; l < range.capacity(); ++l) {
      ASSERT_EQ(range.journal_live(l), perop.journal_live(l)) << where;
      ASSERT_EQ(range.parked(l), perop.parked(l)) << where;
      if (range.journal_live(l)) {
        ASSERT_EQ(range.journal_beat(l), perop.journal_beat(l))
            << where << " beat " << l;
      }
    }
    EXPECT_EQ(board_range.hbm_voltage().value,
              board_perop.hbm_voltage().value)
        << where;
  }

  /// Reads every `width`-beat window at every offset: read_range on
  /// `range`, per-op reads on `perop`.  Same status per window, and on
  /// success the same beats, each equal to its journal copy.  Returns the
  /// number of failed windows.
  std::uint64_t sweep_windows(std::uint64_t width) {
    const std::uint64_t cap = range.capacity();
    std::vector<hbm::Beat> out_a(width), out_b(width);
    std::uint64_t failed = 0;
    for (std::uint64_t lo = 0; lo < cap; ++lo) {
      const std::uint64_t n = std::min(width, cap - lo);
      const Status sa = range.read_range(lo, n, out_a.data());
      const Status sb = read_each(perop, lo, n, out_b.data());
      EXPECT_EQ(sa.code(), sb.code()) << "offset " << lo;
      if (!sa.is_ok() || !sb.is_ok()) {
        ++failed;
        continue;
      }
      for (std::uint64_t i = 0; i < n; ++i) {
        EXPECT_EQ(out_a[i], out_b[i]) << "beat " << lo + i;
        if (range.journal_live(lo + i)) {
          EXPECT_EQ(out_a[i], range.journal_beat(lo + i)) << "beat " << lo + i;
        }
      }
    }
    return failed;
  }
};

hbm::Beat test_payload(std::uint64_t l) {
  hbm::Beat data;
  for (unsigned w = 0; w < 4; ++w) data[w] = splitmix64(l * 4 + w + 0xFEED);
  return data;
}

TEST(ReliableRangeTest, EmptyRemapFastPathMatchesPerBeat) {
  // Nominal voltage, no faults, no specials: the whole capacity is one
  // plain run and the all-clean exit marks blocks for the patrol.
  ChannelTwin twin(0, ReliableChannelConfig{});
  const std::uint64_t cap = twin.range.capacity();

  std::vector<hbm::Beat> data(cap);
  for (std::uint64_t l = 0; l < cap; ++l) data[l] = test_payload(l);
  ASSERT_TRUE(twin.range.write_range(0, cap, data.data()).is_ok());
  ASSERT_TRUE(write_each(twin.perop, 0, cap, data.data()).is_ok());
  twin.expect_equal("after write_range");

  std::vector<hbm::Beat> out_a(cap), out_b(cap);
  ASSERT_TRUE(twin.range.read_range(0, cap, out_a.data()).is_ok());
  ASSERT_TRUE(read_each(twin.perop, 0, cap, out_b.data()).is_ok());
  for (std::uint64_t l = 0; l < cap; ++l) {
    ASSERT_EQ(out_a[l], data[l]) << "beat " << l;
    ASSERT_EQ(out_b[l], data[l]) << "beat " << l;
  }
  twin.expect_equal("after read_range");
}

TEST(ReliableRangeTest, UndervoltedRangesMatchPerBeatAtEveryOffset) {
  // Down to 910 mV on the weak PC, where some windows hit an
  // uncorrectable word: read_range must fail on exactly the windows the
  // per-op reads fail on, having accounted exactly the same beats.
  ReliableChannelConfig config;
  config.spare_fraction = 0.25;
  for (const int mv : {950, 930, 910}) {
    SCOPED_TRACE(std::to_string(mv) + " mV");
    ChannelTwin twin(kWeakPc, config, mv);
    const std::uint64_t cap = twin.range.capacity();

    std::vector<hbm::Beat> data(cap);
    for (std::uint64_t l = 0; l < cap; ++l) data[l] = test_payload(l);
    const Status wa = twin.range.write_range(0, cap, data.data());
    const Status wb = write_each(twin.perop, 0, cap, data.data());
    ASSERT_EQ(wa.code(), wb.code()) << wa.to_string();
    twin.expect_equal("after write_range");

    // A prime-ish length so windows start and end on every beat
    // (including any corrected one).
    const std::uint64_t failed = twin.sweep_windows(13);
    twin.expect_equal("after offset sweep");
    if (mv == 910) {
      EXPECT_GT(failed, 0u) << "test premise: 910 mV must fail some windows";
    }
  }
}

TEST(ReliableRangeTest, RemappedBeatsAtRangeBoundaries) {
  // 930 mV on the weak PC arms uncorrectable words; serving a trace
  // drives the ladder through retirement, leaving remapped beats behind.
  ReliableChannelConfig config;
  config.spare_fraction = 0.25;
  ChannelTwin twin(kWeakPc, config, 930);
  const std::uint64_t cap = twin.range.capacity();

  const workload::AccessTrace trace =
      workload::make_uniform_random(cap, 2048, 0.25, 0x5EED);
  auto ra = twin.range.serve_trace(trace, 7);
  auto rb = twin.perop.serve_trace(trace, 7);
  ASSERT_TRUE(ra.is_ok());
  ASSERT_TRUE(rb.is_ok());
  EXPECT_EQ(ra.value().corrupt_reads, 0u);
  EXPECT_EQ(rb.value().corrupt_reads, 0u);
  EXPECT_EQ(ra.value().escalated_reads, rb.value().escalated_reads);
  twin.expect_equal("after undervolted serve");
  ASSERT_GT(twin.range.stats().beats_migrated, 0u)
      << "test premise: retirement must have remapped something";

  // Every offset x length-4 window: remapped beats land on the first
  // beat, an interior beat, and the last beat of some range.
  twin.sweep_windows(4);
  twin.expect_equal("after boundary sweep");
}

TEST(ReliableRangeTest, ReadRangeSpansParkedBeats) {
  // Park beats for real: a permanent weak-cell burst that persists at
  // nominal voltage, with a zero spare pool, forces the retirement rung
  // into its journal-park fallback.
  ReliableChannelConfig config;
  config.spare_fraction = 0.0;
  ChannelTwin twin(kWeakPc, config, 1200);
  // 64+64 cells over ~220 codewords: dense enough that stuck cells pair
  // up into uncorrectable (parkable) words, sparse enough that no word
  // collects the 3 mismatches SECDED would silently miscorrect.
  twin.board_range.injector().add_burst(kWeakPc, 64, 64);
  twin.board_perop.injector().add_burst(kWeakPc, 64, 64);

  const std::uint64_t cap = twin.range.capacity();
  const workload::AccessTrace trace =
      workload::make_uniform_random(cap, 2048, 0.25, 0xAB5EED);
  auto ra = twin.range.serve_trace(trace, 9);
  auto rb = twin.perop.serve_trace(trace, 9);
  ASSERT_TRUE(ra.is_ok());
  ASSERT_TRUE(rb.is_ok());
  EXPECT_EQ(ra.value().corrupt_reads, 0u);
  EXPECT_EQ(rb.value().corrupt_reads, 0u);
  twin.expect_equal("after burst serve");
  ASSERT_GT(twin.range.parked_count(), 0u)
      << "test premise: the burst must park at least one beat";

  // A bulk read spanning parked beats serves them from the journal (and
  // counts them), exactly as per-op reads do.
  const std::uint64_t served_before = twin.range.stats().journal_served_reads;
  std::vector<hbm::Beat> out_a(cap), out_b(cap);
  const Status sa = twin.range.read_range(0, cap, out_a.data());
  const Status sb = read_each(twin.perop, 0, cap, out_b.data());
  ASSERT_EQ(sa.code(), sb.code());
  if (sa.is_ok()) {
    for (std::uint64_t l = 0; l < cap; ++l) {
      if (!twin.range.journal_live(l)) continue;
      ASSERT_EQ(out_a[l], twin.range.journal_beat(l)) << "beat " << l;
      ASSERT_EQ(out_b[l], out_a[l]) << "beat " << l;
    }
    EXPECT_GT(twin.range.stats().journal_served_reads, served_before);
  }
  twin.expect_equal("after spanning read_range");
}

TEST(ReliableRangeTest, DeviceLostRangesMatchPerBeat) {
  // A lost device keeps serving from the journal: range writes land in
  // the journal alone and range reads come from it, accounted exactly as
  // the per-op calls account them.  The fleet never takes this bulk read
  // path (it reads a lost device per op), so only this case reaches it.
  ReliableChannelConfig config;
  config.spare_fraction = 0.25;
  ChannelTwin twin(kWeakPc, config, 950);
  const std::uint64_t cap = twin.range.capacity();
  const std::uint64_t half = cap / 2;

  std::vector<hbm::Beat> data(cap);
  for (std::uint64_t l = 0; l < cap; ++l) data[l] = test_payload(l);
  const Status wa = twin.range.write_range(0, half, data.data());
  const Status wb = write_each(twin.perop, 0, half, data.data());
  ASSERT_EQ(wa.code(), wb.code()) << wa.to_string();
  twin.expect_equal("after write_range on the live device");

  twin.range.set_device_lost();
  twin.perop.set_device_lost();
  // Overwrite the middle and write the untouched tail: the journal now
  // holds beats written before and after the loss, and the last few beats
  // stay never-written.
  for (std::uint64_t l = 0; l < cap; ++l) data[l] = test_payload(l + cap);
  const std::uint64_t lo = half / 2;
  const std::uint64_t n = cap - lo - 5;
  ASSERT_TRUE(twin.range.write_range(lo, n, data.data() + lo).is_ok());
  ASSERT_TRUE(write_each(twin.perop, lo, n, data.data() + lo).is_ok());
  twin.expect_equal("after write_range on the lost device");

  const std::uint64_t served_before = twin.range.stats().journal_served_reads;
  EXPECT_EQ(twin.sweep_windows(13), 0u);
  EXPECT_GT(twin.range.stats().journal_served_reads, served_before);
  twin.expect_equal("after read_range on the lost device");
}

TEST(ReliableRangeTest, ServeTraceStreamingEquivalence) {
  // Streaming trace = maximal contiguous runs: the bulk path carries
  // nearly every op, with the headline invariant intact.  The state it
  // leaves then reads back the same through read_range and per-op reads.
  ReliableChannelConfig config;
  config.spare_fraction = 0.25;
  ChannelTwin twin(kWeakPc, config, 950);
  const workload::AccessTrace trace =
      workload::make_streaming(twin.range.capacity(), 4);

  auto ra = twin.range.serve_trace(trace, 21);
  auto rb = twin.perop.serve_trace(trace, 21);
  ASSERT_TRUE(ra.is_ok());
  ASSERT_TRUE(rb.is_ok());
  EXPECT_EQ(ra.value().ops, trace.size());
  EXPECT_EQ(ra.value().reads + ra.value().writes, ra.value().ops);
  EXPECT_EQ(ra.value().corrupt_reads, 0u);
  EXPECT_EQ(rb.value().corrupt_reads, 0u);
  twin.expect_equal("after streaming serve_trace");

  EXPECT_EQ(twin.sweep_windows(twin.range.capacity()), 0u);
  twin.expect_equal("after full-capacity reads");
}

TEST(ReliableRangeTest, FleetFingerprintAcrossThreads) {
  const auto run_fleet = [](unsigned threads) {
    board::Vcu128Board board(tiny_board());
    EXPECT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
    FleetConfig config;
    config.pcs = {0, kWeakPc, 5};
    config.ops_per_pc = 4096;
    config.ops_per_epoch = 512;
    config.seed = 77;
    config.threads = threads;
    config.channel.spare_fraction = 0.25;
    ServingFleet fleet(board, config);
    auto report = fleet.run();
    EXPECT_TRUE(report.is_ok());
    EXPECT_EQ(report.value().corrupt_reads, 0u);
    return report.is_ok() ? report.value().fingerprint : 0;
  };

  const std::uint64_t serial = run_fleet(1);
  EXPECT_NE(serial, 0u);
  EXPECT_EQ(serial, run_fleet(4));
}

// ---------------------------------------------------------------------------
// Patrol debt: k back-to-back scrub_slices(1) calls vs one scrub_slices(k) walk
// ---------------------------------------------------------------------------

/// test_tiny with 16 KiB PCs: several patrol blocks per channel.
board::BoardConfig patrol_board() {
  board::BoardConfig config = tiny_board();
  config.geometry.bits_per_pc = 1ull << 17;
  return config;
}

/// Twin channels on twin boards: `slices` settles a patrol debt with k
/// scrub_slices(1) calls, `walk` with one scrub_slices(k).  Every other op
/// runs on both, so any divergence is the walk's.
struct PatrolTwin {
  board::Vcu128Board board_slices;
  board::Vcu128Board board_walk;
  ReliableChannel slices;
  ReliableChannel walk;
  unsigned pc;

  PatrolTwin(unsigned pc_global, const ReliableChannelConfig& config,
             int mv)
      : board_slices(patrol_board()),
        board_walk(patrol_board()),
        slices(board_slices, pc_global, config),
        walk(board_walk, pc_global, config),
        pc(pc_global) {
    EXPECT_TRUE(board_slices.set_hbm_voltage(Millivolts{mv}).is_ok());
    EXPECT_TRUE(board_walk.set_hbm_voltage(Millivolts{mv}).is_ok());
  }

  void settle(std::uint64_t k) {
    for (std::uint64_t i = 0; i < k; ++i) {
      ASSERT_TRUE(slices.scrub_slices(1).is_ok());
    }
    ASSERT_TRUE(walk.scrub_slices(k).is_ok());
  }

  /// Steps both channels one slice at a time until the patrol cursor sits
  /// strictly inside a block, so the next debt starts mid-block.
  void move_cursor_mid_block() {
    const auto at_block_start = [this] {
      return slices.scrub_cursor() % ReliableChannel::kScrubBlockBeats == 0;
    };
    for (int i = 0; i < 64 && at_block_start(); ++i) {
      ASSERT_TRUE(slices.scrub_slices(1).is_ok());
      ASSERT_TRUE(walk.scrub_slices(1).is_ok());
    }
    ASSERT_FALSE(at_block_start());
  }

  std::vector<std::uint64_t> array_words(board::Vcu128Board& board) const {
    const hbm::HbmGeometry& g = board.geometry();
    std::vector<std::uint64_t> words(g.beats_per_pc() * 4);
    EXPECT_TRUE(board.stack(pc / g.pcs_per_stack())
                    .read_range_words(pc % g.pcs_per_stack(), 0,
                                      g.beats_per_pc(), words.data())
                    .is_ok());
    return words;
  }

  /// Stats, ECC stats, budget, patrol cursor, scan state, clean-block map,
  /// shadow checks and every word of the PC's array.
  void expect_equal(const std::string& where) {
    runtime::ChannelCheckpoint a;
    runtime::ChannelCheckpoint b;
    slices.capture(&a);
    walk.capture(&b);
    const ChannelStats& x = a.stats;
    const ChannelStats& y = b.stats;
    EXPECT_EQ(x.reads, y.reads) << where;
    EXPECT_EQ(x.writes, y.writes) << where;
    EXPECT_EQ(x.corrected_words, y.corrected_words) << where;
    EXPECT_EQ(x.corrected_check_words, y.corrected_check_words) << where;
    EXPECT_EQ(x.uncorrectable_blocked, y.uncorrectable_blocked) << where;
    EXPECT_EQ(x.scrub_beats, y.scrub_beats) << where;
    EXPECT_EQ(x.scrub_corrected, y.scrub_corrected) << where;
    EXPECT_EQ(x.scrub_uncorrectable, y.scrub_uncorrectable) << where;
    EXPECT_EQ(x.scrub_writebacks, y.scrub_writebacks) << where;
    EXPECT_EQ(x.scrub_blocks_skipped, y.scrub_blocks_skipped) << where;
    EXPECT_EQ(x.rows_retired, y.rows_retired) << where;
    EXPECT_EQ(x.beats_migrated, y.beats_migrated) << where;
    EXPECT_EQ(x.beats_parked, y.beats_parked) << where;
    EXPECT_EQ(x.journal_served_reads, y.journal_served_reads) << where;
    EXPECT_EQ(x.verify_caught, y.verify_caught) << where;
    EXPECT_EQ(a.ecc_stats.words_read, b.ecc_stats.words_read) << where;
    EXPECT_EQ(a.ecc_stats.words_clean, b.ecc_stats.words_clean) << where;
    EXPECT_EQ(a.ecc_stats.corrected_data, b.ecc_stats.corrected_data)
        << where;
    EXPECT_EQ(a.ecc_stats.corrected_check, b.ecc_stats.corrected_check)
        << where;
    EXPECT_EQ(a.ecc_stats.uncorrectable, b.ecc_stats.uncorrectable) << where;
    EXPECT_EQ(a.budget.words, b.budget.words) << where;
    EXPECT_EQ(a.budget.corrected, b.budget.corrected) << where;
    EXPECT_EQ(a.budget.uncorrectable, b.budget.uncorrectable) << where;
    EXPECT_EQ(a.budget.windows_completed, b.budget.windows_completed)
        << where;
    EXPECT_EQ(a.budget.burns, b.budget.burns) << where;
    EXPECT_EQ(a.scrub_cursor, b.scrub_cursor) << where;
    EXPECT_EQ(a.scan_block, b.scan_block) << where;
    EXPECT_EQ(a.scan_clean, b.scan_clean) << where;
    EXPECT_EQ(a.escalation_pending, b.escalation_pending) << where;
    EXPECT_EQ(a.offender_rows.keys(), b.offender_rows.keys()) << where;
    EXPECT_EQ(a.row_events, b.row_events) << where;
    ASSERT_EQ(a.clean_blocks.size(), b.clean_blocks.size()) << where;
    for (std::uint64_t i = 0; i < a.clean_blocks.size(); ++i) {
      EXPECT_EQ(a.clean_blocks.get(i), b.clean_blocks.get(i))
          << where << " block " << i;
    }
    EXPECT_EQ(a.ecc_shadow, b.ecc_shadow) << where;
    EXPECT_EQ(array_words(board_slices), array_words(board_walk)) << where;
  }
};

class PatrolWalkTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// Settles debts of several lengths, each from mid-block, then checks
  /// that a full patrol scrubs exactly the live, unparked beats: a parked
  /// beat has no device copy and a never-written one no data to vouch for.
  static void expect_walks_match(PatrolTwin& twin) {
    const std::uint64_t writebacks = twin.slices.stats().scrub_writebacks;
    for (const std::uint64_t k : {1u, 3u, 8u, 13u, 64u, 257u}) {
      twin.move_cursor_mid_block();
      const std::uint64_t from = twin.slices.scrub_cursor();
      twin.settle(k);
      twin.expect_equal("debt of " + std::to_string(k) +
                        " slices from beat " + std::to_string(from));
    }
    EXPECT_GT(twin.slices.stats().scrub_writebacks, writebacks)
        << "test premise: stuck cells must force patrol write-backs";

    const std::uint64_t cap = twin.slices.capacity();
    std::uint64_t patrolled = 0;
    for (std::uint64_t l = 0; l < cap; ++l) {
      if (twin.slices.journal_live(l) && !twin.slices.parked(l)) ++patrolled;
    }
    const std::uint64_t scrubbed = twin.slices.stats().scrub_beats;
    ASSERT_TRUE(twin.slices.patrol_all().is_ok());
    ASSERT_TRUE(twin.walk.patrol_all().is_ok());
    EXPECT_EQ(twin.slices.stats().scrub_beats - scrubbed, patrolled);
    twin.expect_equal("after patrol_all");
  }
};

// Undervolted weak PC with a weak-cell burst and a small spare pool:
// serving leaves remapped and parked beats, never-written beats (the
// trace avoids the channel's tail), and stuck cells whose scrub
// write-backs do not stick.  Debts start mid-block, and the long ones
// wrap past a capacity that is not a multiple of the block size.
TEST_P(PatrolWalkTest, MatchesBackToBackSlicesOnAServedChannel) {
  ReliableChannelConfig config;
  config.spare_fraction = 0.02;
  config.scrub_batch_beats = GetParam();
  PatrolTwin twin(kWeakPc, config, 930);
  twin.board_slices.injector().add_burst(kWeakPc, 256, 256);
  twin.board_walk.injector().add_burst(kWeakPc, 256, 256);
  const std::uint64_t cap = twin.slices.capacity();
  ASSERT_NE(cap % ReliableChannel::kScrubBlockBeats, 0u)
      << "test premise: the walk must wrap past a partial last block";

  constexpr std::uint64_t kUntouched = 100;
  const workload::AccessTrace trace = workload::make_uniform_random(
      cap - kUntouched, 8192, 0.25, 0x9A7801);
  ASSERT_TRUE(twin.slices.serve_trace(trace, 5).is_ok());
  ASSERT_TRUE(twin.walk.serve_trace(trace, 5).is_ok());
  twin.expect_equal("after serve");
  ASSERT_GT(twin.slices.stats().beats_migrated, 0u)
      << "test premise: retirement must have remapped beats";
  ASSERT_GT(twin.slices.parked_count(), 0u)
      << "test premise: the burst must park beats";
  ASSERT_FALSE(twin.slices.journal_live(cap - 1))
      << "test premise: the channel's tail is never written";
  expect_walks_match(twin);
}

// The same channel served on even beats only: every retired row also held
// odd, never-written beats, which retirement remaps all the same.  Those
// dead exception beats carry no data, so neither the patrol nor any other
// live walk may touch them.
TEST_P(PatrolWalkTest, MatchesBackToBackSlicesOverDeadRemappedBeats) {
  ReliableChannelConfig config;
  config.spare_fraction = 0.02;
  config.scrub_batch_beats = GetParam();
  PatrolTwin twin(kWeakPc, config, 930);
  twin.board_slices.injector().add_burst(kWeakPc, 256, 256);
  twin.board_walk.injector().add_burst(kWeakPc, 256, 256);
  const std::uint64_t cap = twin.slices.capacity();

  workload::AccessTrace trace;
  for (const workload::TraceRecord& record :
       workload::make_uniform_random(cap / 2, 8192, 0.25, 0x0DD5EED)) {
    trace.append(record.write, 2 * record.beat);
  }
  ASSERT_TRUE(twin.slices.serve_trace(trace, 5).is_ok());
  ASSERT_TRUE(twin.walk.serve_trace(trace, 5).is_ok());
  twin.expect_equal("after serve");

  runtime::ChannelCheckpoint ck;
  twin.slices.capture(&ck);
  std::uint64_t dead_specials = 0;
  for (const std::uint64_t beat : ck.special.keys()) {
    dead_specials += !twin.slices.journal_live(beat);
  }
  ASSERT_GT(dead_specials, 0u)
      << "test premise: a retired row must hold never-written beats";
  expect_walks_match(twin);
}

// A map the patrol itself proved all-clean: the first slice of the debt
// skips every block (one lap of consumed marks) before it scans, and later
// slices keep consuming marks -- identically in the walk.  A bulk read
// that marks blocks clean behind the cursor is settled the same way.
TEST_P(PatrolWalkTest, MatchesBackToBackSlicesOnAnAllCleanMap) {
  ReliableChannelConfig config;
  config.scrub_interval_ops = 0;  // the test drives every slice
  config.scrub_batch_beats = GetParam();
  PatrolTwin twin(0, config, 1200);
  const std::uint64_t cap = twin.slices.capacity();
  const std::uint64_t blocks =
      (cap + ReliableChannel::kScrubBlockBeats - 1) /
      ReliableChannel::kScrubBlockBeats;
  constexpr std::uint64_t kUntouched = 37;
  std::vector<hbm::Beat> data(cap - kUntouched);
  for (std::uint64_t l = 0; l < data.size(); ++l) data[l] = test_payload(l);
  ASSERT_TRUE(twin.slices.write_range(0, data.size(), data.data()).is_ok());
  ASSERT_TRUE(twin.walk.write_range(0, data.size(), data.data()).is_ok());
  ASSERT_TRUE(twin.slices.patrol_all().is_ok());
  ASSERT_TRUE(twin.walk.patrol_all().is_ok());
  ASSERT_EQ(twin.slices.scrub_cursor(), 0u);

  const std::uint64_t skipped = twin.slices.stats().scrub_blocks_skipped;
  twin.settle(1);
  EXPECT_EQ(twin.slices.stats().scrub_blocks_skipped - skipped, blocks)
      << "test premise: one slice skips the whole map";
  twin.expect_equal("one slice over an all-clean map");
  twin.settle(7);
  twin.expect_equal("7 slices");
  twin.settle(150);
  twin.expect_equal("150 slices");

  std::vector<hbm::Beat> out(data.size());
  ASSERT_TRUE(twin.slices.read_range(0, data.size(), out.data()).is_ok());
  ASSERT_TRUE(twin.walk.read_range(0, data.size(), out.data()).is_ok());
  twin.move_cursor_mid_block();
  twin.settle(90);
  twin.expect_equal("90 slices after a clean bulk read");
}

INSTANTIATE_TEST_SUITE_P(BatchBeats, PatrolWalkTest,
                         ::testing::Values(8u, 24u),
                         [](const auto& info) {
                           return "batch" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hbmvolt
