// The outside-in serve layer ladder: the serve_stream trace shape (one
// write sweep, then read sweeps) on the weakest PC, priced cumulatively
// through one more layer per rung, each through its public API:
//
//   hbm      raw HbmStack range ops at 1200 mV (empty overlay)
//   faults   the same ops at 950 mV (stuck-at overlay applied)
//   ecc      EccChannel::encode_range / decode_range
//   channel  ReliableChannel::serve_trace (journal, write-verify, patrol)
//   fleet    a one-PC ServingFleet (epoch barriers, health, alerts)
//   serve    a RequestPlane with one streaming tenant over that fleet
//
// Each rung reports host ns per beat (median over repetitions) and its
// increment over the rung below.  Set-up -- board, overlay build, channel
// and fleet construction -- stays outside the timed region.

#include <memory>

#include "bench.hpp"
#include "ecc/ecc_channel.hpp"
#include "runtime/fleet.hpp"
#include "serve/plane.hpp"

namespace perfbench {
namespace {

using namespace hbmvolt;

constexpr unsigned kLadderPc = 18;
constexpr unsigned kLadderPasses = 256;
constexpr int kReps = 9;

/// Fresh board at `mv` with PC kLadderPc's overlay already built.
std::unique_ptr<board::Vcu128Board> ladder_board(const Inputs& in, int mv) {
  auto board = std::make_unique<board::Vcu128Board>(board_config(in));
  HBMVOLT_REQUIRE(board->set_hbm_voltage(Millivolts{mv}).is_ok(),
                  "ladder voltage");
  const unsigned per_stack = board->geometry().pcs_per_stack();
  (void)board->stack(kLadderPc / per_stack).read_beat(kLadderPc % per_stack,
                                                      0);
  return board;
}

/// Times `body` (which returns the beats it served) over kReps fresh
/// set-ups and returns the median ns per beat.
template <typename Setup, typename Body>
double price(Setup setup, Body body) {
  std::vector<double> ns_per_beat;
  for (int r = 0; r < kReps; ++r) {
    auto state = setup();
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t beats = body(*state);
    const double s = seconds_between(t0, Clock::now());
    HBMVOLT_REQUIRE(beats > 0, "ladder rung served nothing");
    ns_per_beat.push_back(s * 1e9 / static_cast<double>(beats));
  }
  return median(ns_per_beat);
}

/// Raw stack sweeps over the whole PC, in kStreamOpsPerEpoch-beat runs.
std::uint64_t raw_sweeps(board::Vcu128Board& board) {
  const unsigned per_stack = board.geometry().pcs_per_stack();
  hbm::HbmStack& stack = board.stack(kLadderPc / per_stack);
  const unsigned local = kLadderPc % per_stack;
  const std::uint64_t beats = board.geometry().beats_per_pc();
  const std::uint64_t run = kStreamOpsPerEpoch;
  std::vector<std::uint64_t> words(run * 4);
  for (std::uint64_t w = 0; w < words.size(); ++w) words[w] = w * 0x9E37;
  for (unsigned pass = 0; pass < kLadderPasses; ++pass) {
    for (std::uint64_t b = 0; b < beats; b += run) {
      const std::uint64_t n = std::min(run, beats - b);
      const Status s = pass == 0
                           ? stack.write_range_words(local, b, n, words.data())
                           : stack.read_range_words(local, b, n, words.data());
      HBMVOLT_REQUIRE(s.is_ok(), "raw range op");
    }
  }
  return beats * kLadderPasses;
}

struct EccState {
  std::unique_ptr<board::Vcu128Board> board;
  std::unique_ptr<ecc::EccChannel> channel;
};

std::uint64_t ecc_sweeps(EccState& st) {
  ecc::EccChannel& ch = *st.channel;
  const std::uint64_t beats = ch.data_beats();
  const std::uint64_t run = kStreamOpsPerEpoch;
  std::vector<hbm::Beat> data(run);
  for (std::uint64_t b = 0; b < run; ++b) {
    data[b] = runtime::make_payload(1, kLadderPc, b);
  }
  std::vector<ecc::EccChannel::RangeBeatEvent> events;
  for (unsigned pass = 0; pass < kLadderPasses; ++pass) {
    for (std::uint64_t b = 0; b < beats; b += run) {
      const std::uint64_t n = std::min(run, beats - b);
      events.clear();
      const Status s = pass == 0 ? ch.encode_range(b, n, data.data())
                                 : ch.decode_range(b, n, data.data(), events);
      HBMVOLT_REQUIRE(s.is_ok(), "ecc range op");
    }
  }
  return beats * kLadderPasses;
}

struct ChannelState {
  std::unique_ptr<board::Vcu128Board> board;
  std::unique_ptr<runtime::ReliableChannel> channel;
  workload::AccessTrace trace;
};

struct FleetState {
  std::unique_ptr<board::Vcu128Board> board;
  std::unique_ptr<serve::RequestPlane> plane;
  std::unique_ptr<runtime::ServingFleet> fleet;
};

runtime::FleetConfig one_pc_fleet(const Inputs& in) {
  runtime::FleetConfig config;
  config.pcs = {kLadderPc};
  config.threads = 1;
  config.seed = in.fleet_seed;
  config.ops_per_epoch = kStreamOpsPerEpoch;
  return config;
}

std::uint64_t run_fleet(FleetState& st) {
  auto report = st.fleet->run();
  HBMVOLT_REQUIRE(report.is_ok() && report.value().corrupt_reads == 0,
                  "ladder fleet run");
  return report.value().ops;
}

}  // namespace

std::map<std::string, double> run_serve_ladder(const Inputs& in) {
  const int kServeMv = kServeVoltage.value;
  const double hbm = price([&] { return ladder_board(in, 1200); },
                           raw_sweeps);
  const double faults = price([&] { return ladder_board(in, kServeMv); },
                              raw_sweeps);
  const double ecc = price(
      [&] {
        auto st = std::make_unique<EccState>();
        st->board = ladder_board(in, kServeMv);
        const unsigned per_stack = st->board->geometry().pcs_per_stack();
        st->channel = std::make_unique<ecc::EccChannel>(
            st->board->stack(kLadderPc / per_stack), kLadderPc % per_stack);
        return st;
      },
      ecc_sweeps);
  const double channel = price(
      [&] {
        auto st = std::make_unique<ChannelState>();
        st->board = ladder_board(in, kServeMv);
        st->channel = std::make_unique<runtime::ReliableChannel>(
            *st->board, kLadderPc, runtime::FleetConfig{}.channel);
        st->trace =
            workload::make_streaming(st->channel->capacity(), kLadderPasses);
        return st;
      },
      [&](ChannelState& st) {
        auto report = st.channel->serve_trace(st.trace, in.fleet_seed);
        HBMVOLT_REQUIRE(report.is_ok() && report.value().corrupt_reads == 0,
                        "ladder serve_trace");
        return report.value().ops;
      });
  const double fleet = price(
      [&] {
        auto st = std::make_unique<FleetState>();
        st->board = ladder_board(in, kServeMv);
        runtime::FleetConfig config = one_pc_fleet(in);
        config.streaming_passes = kLadderPasses;
        st->fleet =
            std::make_unique<runtime::ServingFleet>(*st->board, config);
        return st;
      },
      run_fleet);
  // Logical capacity depends only on geometry and the spare fraction; a
  // nominal-voltage board never builds an overlay to answer it.
  const std::uint64_t capacity = [&] {
    auto board = std::make_unique<board::Vcu128Board>(board_config(in));
    return runtime::ReliableChannel(*board, kLadderPc,
                                    runtime::FleetConfig{}.channel)
        .capacity();
  }();
  const double serve = price(
      [&] {
        auto st = std::make_unique<FleetState>();
        st->board = ladder_board(in, kServeMv);
        // The tenant sweeps the slot's whole capacity kLadderPasses times
        // (first pass writes, later passes read), placed in runs as long
        // as the fleet's epoch so the range engine coalesces as above.
        serve::PlaneConfig plane_config;
        plane_config.tenants = serve::make_tenant_set(
            1, {serve::WorkloadMix::kStreaming}, capacity * kLadderPasses,
            capacity, /*quota_per_epoch=*/kStreamOpsPerEpoch);
        plane_config.seed = in.plane_seed;
        plane_config.chunk_beats = kStreamOpsPerEpoch;
        st->plane = std::make_unique<serve::RequestPlane>(plane_config);
        runtime::FleetConfig config = one_pc_fleet(in);
        config.source = st->plane.get();
        st->fleet =
            std::make_unique<runtime::ServingFleet>(*st->board, config);
        return st;
      },
      run_fleet);

  const std::pair<const char*, double> rungs[] = {
      {"hbm", hbm},         {"faults", faults}, {"ecc", ecc},
      {"channel", channel}, {"fleet", fleet},   {"serve", serve},
  };
  std::map<std::string, double> out;
  double below = 0.0;
  for (const auto& [name, ns] : rungs) {
    out[std::string("ladder.") + name + "_ns_per_beat"] = ns;
    out[std::string("ladder.") + name + "_step_ns_per_beat"] = ns - below;
    below = ns;
  }
  return out;
}

}  // namespace perfbench
