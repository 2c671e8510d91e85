// Performance microbenchmarks (google-benchmark): the hot paths of the
// simulator itself -- beat reads with sparse/dense overlays, overlay
// construction and growth over a descent, weak-cell order construction,
// the Feistel PRP, and the campaign's checkpoint save.
// These guard the "full sweep in seconds" property the fig benches rely
// on.

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "axi/traffic_gen.hpp"
#include "bench_common.hpp"
#include "common/prp.hpp"
#include "core/checkpoint.hpp"
#include "core/parallel.hpp"
#include "ecc/ecc_channel.hpp"
#include "ecc/secded_gfni.hpp"
#include "faults/fault_overlay.hpp"
#include "hbm/stack.hpp"
#include "runtime/fleet.hpp"
#include "runtime/reliable_channel.hpp"
#include "serve/plane.hpp"
#include "serve/tenant.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace hbmvolt;

hbm::HbmGeometry bench_geometry() {
  return hbm::HbmGeometry::simulation_default();
}

void BM_FeistelForward(benchmark::State& state) {
  FeistelPermutation prp(1ull << 20, 42);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prp.forward(i++ & ((1ull << 20) - 1)));
  }
}
BENCHMARK(BM_FeistelForward);

hbm::HbmGeometry order_geometry(const benchmark::State& state) {
  auto geometry = bench_geometry();
  geometry.bits_per_pc = 1ull << static_cast<unsigned>(state.range(0));
  geometry.banks_per_pc = 2;
  geometry.beats_per_row = 8;
  return geometry;
}

// The full weak-cell order a PC pays for once its stuck counts outgrow
// the weakest bucket: construction, then grow().
void BM_WeakCellOrderBuild(benchmark::State& state) {
  const auto geometry = order_geometry(state);
  for (auto _ : state) {
    faults::WeakCellOrder order(geometry, 42, faults::WeakCellConfig{});
    order.grow();
    benchmark::DoNotOptimize(order.size(faults::StuckPolarity::kStuckAt0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(geometry.bits_per_pc));
}
BENCHMARK(BM_WeakCellOrderBuild)->Arg(14)->Arg(17)->Arg(19);

// Construction alone: the bucket-0 prefix every faulty PC builds, and all
// a PC serving at 950 mV ever builds.
void BM_WeakCellOrderPrefix(benchmark::State& state) {
  const auto geometry = order_geometry(state);
  for (auto _ : state) {
    faults::WeakCellOrder order(geometry, 42, faults::WeakCellConfig{});
    benchmark::DoNotOptimize(order.reach(faults::StuckPolarity::kStuckAt0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(geometry.bits_per_pc));
}
BENCHMARK(BM_WeakCellOrderPrefix)->Arg(19);

void BM_OverlayBuildSparse(benchmark::State& state) {
  const auto geometry = bench_geometry();
  faults::WeakCellOrder order(geometry, 42, faults::WeakCellConfig{});
  order.grow();
  for (auto _ : state) {
    auto overlay = faults::FaultOverlay::build(order, 500, 500);
    benchmark::DoNotOptimize(overlay.total_count());
  }
}
BENCHMARK(BM_OverlayBuildSparse);

void BM_OverlayBuildDense(benchmark::State& state) {
  const auto geometry = bench_geometry();
  faults::WeakCellOrder order(geometry, 42, faults::WeakCellConfig{});
  order.grow();
  const std::uint64_t k = geometry.bits_per_pc / 4;
  for (auto _ : state) {
    auto overlay = faults::FaultOverlay::build(order, k, k);
    benchmark::DoNotOptimize(overlay.total_count());
  }
}
BENCHMARK(BM_OverlayBuildDense);

// A campaign's overlay work on one PC: the weakest default PC through
// FaultInjector from 980 to 810 mV in 10 mV steps, reading the overlay at
// each step.  The weak-cell order is built and grown once, outside the
// timed loop (one read at 810 mV); each iteration starts from the empty
// guardband overlay.
void BM_OverlayDescend(benchmark::State& state) {
  const faults::FaultModel model(bench_geometry(), faults::FaultModelConfig{});
  unsigned pc = 0;
  for (unsigned p = 1; p < model.geometry().total_pcs(); ++p) {
    if (model.onset_voltage(p).value > model.onset_voltage(pc).value) pc = p;
  }
  faults::FaultInjector injector(model);
  injector.set_voltage(Millivolts{810});
  benchmark::DoNotOptimize(injector.overlay(pc).total_count());
  for (auto _ : state) {
    state.PauseTiming();
    injector.set_voltage(Millivolts{1200});
    benchmark::DoNotOptimize(injector.overlay(pc).total_count());
    state.ResumeTiming();
    for (int mv = 980; mv >= 810; mv -= 10) {
      injector.set_voltage(Millivolts{mv});
      benchmark::DoNotOptimize(injector.overlay(pc).total_count());
    }
  }
}
BENCHMARK(BM_OverlayDescend)->Unit(benchmark::kMillisecond);

void BM_ReadBeat(benchmark::State& state) {
  const auto geometry = bench_geometry();
  faults::FaultInjector injector(
      faults::FaultModel(geometry, faults::FaultModelConfig{}));
  hbm::HbmStack stack(geometry, 0, injector, 1);
  const int mv = static_cast<int>(state.range(0));
  injector.set_voltage(Millivolts{mv});
  stack.on_voltage_change(Millivolts{mv});
  // The first read builds the PC's overlay lazily; keep that build out of
  // the timed loop so short min-times measure reads, not one build.
  benchmark::DoNotOptimize(stack.read_beat(4, 0).is_ok());
  std::uint64_t beat = 0;
  const std::uint64_t mask = geometry.beats_per_pc() - 1;
  for (auto _ : state) {
    auto data = stack.read_beat(4, beat++ & mask);
    benchmark::DoNotOptimize(data.is_ok());
  }
  state.SetBytesProcessed(state.iterations() * 32);
}
// Nominal (no overlay), tail faults (sparse), bulk faults (dense).
BENCHMARK(BM_ReadBeat)->Arg(1200)->Arg(920)->Arg(855);

// The bulk SECDED codec on its own (docs/performance.md "SECDED on
// GFNI"): decode_range then scrub_range over one 950 mV PC in 512-beat
// runs, the shape the range engine hands the codec when it serves a
// streaming pass and patrols behind it.  The PC is encoded and its lazy
// overlay built before the timed loop; items are beats, each decoded and
// scrubbed once.  The label names the kernel this process selected.
void BM_EccRange(benchmark::State& state) {
  constexpr std::uint64_t kRun = 512;
  const auto geometry = bench_geometry();
  faults::FaultInjector injector(
      faults::FaultModel(geometry, faults::FaultModelConfig{}));
  hbm::HbmStack stack(geometry, 0, injector, 1);
  injector.set_voltage(Millivolts{950});
  stack.on_voltage_change(Millivolts{950});
  ecc::EccChannel channel(stack, 4, ecc::WordCodec::kSecded);
  const std::uint64_t runs = channel.data_beats() / kRun;
  std::vector<hbm::Beat> data(kRun);
  for (std::uint64_t run = 0; run < runs; ++run) {
    for (std::uint64_t i = 0; i < kRun; ++i) {
      data[i] = runtime::make_payload(1, 4, run * kRun + i);
    }
    if (!channel.encode_range(run * kRun, kRun, data.data()).is_ok()) {
      state.SkipWithError("encode_range failed");
      return;
    }
  }
  std::vector<ecc::EccChannel::RangeBeatEvent> events;
  std::uint64_t run = 0;
  for (auto _ : state) {
    const std::uint64_t start = run * kRun;
    run = run + 1 == runs ? 0 : run + 1;
    events.clear();
    const bool ok =
        channel.decode_range(start, kRun, data.data(), events).is_ok() &&
        channel.scrub_range(start, kRun, events).is_ok();
    if (!ok) {
      state.SkipWithError("range op failed");
      break;
    }
    benchmark::DoNotOptimize(data.data());
  }
  state.SetLabel(ecc::to_string(ecc::secded_kernel()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRun));
}
BENCHMARK(BM_EccRange);

void BM_FullPcPatternTest(benchmark::State& state) {
  const auto geometry = bench_geometry();
  faults::FaultInjector injector(
      faults::FaultModel(geometry, faults::FaultModelConfig{}));
  hbm::HbmStack stack(geometry, 0, injector, 1);
  injector.set_voltage(Millivolts{900});
  stack.on_voltage_change(Millivolts{900});
  axi::TrafficGenerator tg(stack, 4);
  axi::TgCommand command{axi::MacroOp::kWriteRead, 0, 0, hbm::kBeatAllOnes,
                         true};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tg.run(command).is_ok());
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(geometry.bits_per_pc / 8) * 2);
}
BENCHMARK(BM_FullPcPatternTest);

// The batched-engine headline (docs/performance.md, CI perf-smoke):
// solid-pattern full-PC write/read-verify at nominal voltage -- empty
// overlay, so the batched verify is O(1) -- per-beat reference (Arg 0)
// vs batched engine (Arg 1).  CI fails if batched is not faster.
void BM_PatternTest(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  const auto geometry = bench_geometry();
  faults::FaultInjector injector(
      faults::FaultModel(geometry, faults::FaultModelConfig{}));
  hbm::HbmStack stack(geometry, 0, injector, 1);
  axi::TrafficGenerator tg(stack, 4);
  tg.set_engine(batched ? axi::EnginePath::kAuto : axi::EnginePath::kPerBeat);
  axi::TgCommand command{axi::MacroOp::kWriteRead, 0, 0, hbm::kBeatAllOnes,
                         true};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tg.run(command).is_ok());
  }
  state.SetLabel(batched ? "batched" : "per-beat");
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(geometry.bits_per_pc / 8) * 2);
}
BENCHMARK(BM_PatternTest)->Arg(0)->Arg(1);

// Whole-device reliability sweep at different worker counts: the paper's
// Algorithm 1 with all 32 TGs, fanned out by core::ThreadPool.  The
// speedup over Arg(1) is the headline number for the parallel engine
// (expect >= 2x at Arg(4) on a 4-core host; on fewer cores the extra
// workers just measure the pool's overhead).  Results are byte-identical
// across arguments -- tests/parallel_test.cpp enforces that; this bench
// only measures time.
void BM_SweepThroughput(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  board::Vcu128Board board(bench::default_board_config());
  core::ReliabilityTester tester(board, bench::bench_sweep_config());
  // threads == 1 is the serial reference path: no pool at all.
  std::unique_ptr<core::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<core::ThreadPool>(threads);
  std::uint64_t bits = 0;
  for (auto _ : state) {
    auto map = tester.run(pool.get());
    if (!map.is_ok()) {
      state.SkipWithError("sweep failed");
      break;
    }
    bits += map.value().device_record(Millivolts{1200}).bits_tested;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_SweepThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// One campaign checkpoint save (core/checkpoint.hpp): the whole
// default-geometry file a campaign rewrites after each sweep step once its
// power phase is under way -- 41 reliability rows x 32 PCs (flip-free
// above 900 mV, growing below, a crash row at 800 mV) plus 5 power series
// x 40 rows, about 58 KB.  A default campaign saves it 242 times.  `cold`
// is one save_checkpoint, which encodes every row; `warm` is a
// power-phase save through the campaign's CheckpointWriter after it has
// saved the reliability rows once, so only the header and the power
// series are encoded.  Trended only.
void BM_CampaignCheckpoint(benchmark::State& state, bool warm) {
  const hbm::HbmGeometry geometry = bench_geometry();
  core::CampaignCheckpoint ckpt(geometry);
  ckpt.fingerprint = 0xC4A05F1;
  ckpt.reliability_done = true;
  ckpt.power_snapshot_seq = 1600;
  for (const Millivolts v :
       core::sweep_grid({Millivolts{1200}, Millivolts{810}, 10})) {
    const std::uint64_t depth = v.value < 900 ? 900 - v.value : 0;
    for (unsigned pc = 0; pc < geometry.total_pcs(); ++pc) {
      const std::uint64_t flips = depth * depth * (pc + 1);
      ckpt.fault_map.record(v, pc,
                            {2u << 20, flips, flips / 2, 1u << 20, 1u << 20});
    }
  }
  ckpt.fault_map.record_crash(Millivolts{800});
  for (const unsigned ports : {0u, 8u, 16u, 24u, 32u}) {
    core::PowerSeries series;
    series.ports = ports;
    for (const Millivolts v :
         core::sweep_grid({Millivolts{1200}, Millivolts{810}, 10})) {
      series.voltages.push_back(v);
      series.power.push_back(
          Watts{(0.5 + 0.05 * ports) * v.volts() * v.volts()});
    }
    ckpt.power.push_back(std::move(series));
  }
  const std::string path = (std::filesystem::temp_directory_path() /
                            "hbmvolt_bm_checkpoint.json")
                               .string();
  core::CheckpointWriter writer;
  if (warm && !writer.save(ckpt, path).is_ok()) {
    state.SkipWithError("checkpoint save failed");
    return;
  }
  for (auto _ : state) {
    const Status saved =
        warm ? writer.save(ckpt, path) : core::save_checkpoint(ckpt, path);
    if (!saved.is_ok()) {
      state.SkipWithError("checkpoint save failed");
      break;
    }
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  const std::size_t bytes = core::checkpoint_to_json(ckpt).size();
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes));
  state.counters["file_bytes"] = static_cast<double>(bytes);
}
BENCHMARK_CAPTURE(BM_CampaignCheckpoint, cold, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CampaignCheckpoint, warm, true)
    ->Unit(benchmark::kMicrosecond);

// Telemetry overhead on the serial sweep plus a nominal-voltage
// ReliableChannel::serve_trace pass (docs/observability.md, CI telemetry
// gate).  The serve pass exercises the newer instrumentation sites --
// per-PC labeled family counters, HDR latency recording via OpTimer, and
// the one-slot fleet's barrier flush -- so the gate covers them too, not
// just the sweep spans.  Arg(0): no telemetry
// at all -- the baseline.  Arg(1): an instance installed but disabled, so
// every instrumentation site takes the one-branch null path; CI fails if
// this costs more than 3% over the baseline.  Arg(2): fully enabled
// (spans + counters + families + latency recorded), the documented price
// of turning observability on.
void BM_TelemetryOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  board::Vcu128Board board(bench::default_board_config());
  core::ReliabilityTester tester(board, bench::bench_sweep_config());

  // Nominal supply: the ladder never escalates, so the channel can be
  // built once and serve the same trace every iteration.
  runtime::ReliableChannelConfig channel_config;
  channel_config.spare_fraction = 0.25;
  runtime::ReliableChannel channel(board, 18, channel_config);
  (void)channel.write(0, runtime::make_payload(1, 18, 0));  // overlay build
  const workload::AccessTrace trace = workload::make_uniform_random(
      channel.capacity(), 1 << 12, 0.25, 0x5E11E);

  telemetry::Telemetry instance(
      telemetry::TelemetryConfig{.enabled = mode == 2});
  std::optional<telemetry::ScopedTelemetry> scoped;
  if (mode != 0) scoped.emplace(instance);

  std::uint64_t bits = 0;
  for (auto _ : state) {
    auto map = tester.run();
    if (!map.is_ok()) {
      state.SkipWithError("sweep failed");
      break;
    }
    bits += map.value().device_record(Millivolts{1200}).bits_tested;
    auto report = channel.serve_trace(trace, 1);
    if (!report.is_ok()) {
      state.SkipWithError("serve_trace failed");
      break;
    }
    channel.flush_telemetry();  // the epoch-barrier family/HDR merge
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits));
  state.SetLabel(mode == 0 ? "no-telemetry"
                           : mode == 1 ? "installed-disabled" : "enabled");
}
BENCHMARK(BM_TelemetryOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Resilient-runtime serving price (bench/ext_resilient_serving.cpp has
// the full raw-vs-reliable sweep; this tracks the trend).  One iteration
// serves a 16k-op uniform stream through ReliableChannel::serve_trace --
// the fleet worker on a one-slot fleet, whose construction and end-of-run
// folds are part of the timed call -- on the weakest PC.  Arg is the starting supply: nominal (ECC idle), 950 mV (SECDED
// absorbing stuck cells), 920 mV (budget burns, rows retire online).
// The board is rebuilt per iteration -- the ladder mutates voltage and
// array state, so a fresh loop body is the only way iterations measure
// the same thing -- but construction, the lazy fault-overlay build
// (~50 ms for a weak PC at 950 mV, forced by the first access), and
// trace generation happen under PauseTiming: the counter is serving
// throughput, not setup.
void BM_ResilientServe(benchmark::State& state) {
  const int mv = static_cast<int>(state.range(0));
  constexpr std::uint64_t kOps = 1 << 14;
  std::optional<board::Vcu128Board> board;
  std::optional<runtime::ReliableChannel> channel;
  workload::AccessTrace trace;
  for (auto _ : state) {
    state.PauseTiming();
    channel.reset();
    board.emplace(bench::default_board_config());
    (void)board->set_hbm_voltage(Millivolts{mv});
    runtime::ReliableChannelConfig config;
    config.spare_fraction = 0.25;
    channel.emplace(*board, 18, config);
    (void)channel->write(0, runtime::make_payload(1, 18, 0));  // overlay build
    trace =
        workload::make_uniform_random(channel->capacity(), kOps, 0.25,
                                      0x5E11E);
    state.ResumeTiming();
    auto report = channel->serve_trace(trace, 1);
    if (!report.is_ok()) {
      state.SkipWithError("serve_trace failed");
      break;
    }
    benchmark::DoNotOptimize(report.value().ops);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kOps));
}
BENCHMARK(BM_ResilientServe)
    ->Arg(1200)
    ->Arg(950)
    ->Arg(920)
    ->Unit(benchmark::kMillisecond);

// Reliability tax on streaming traffic (docs/performance.md, CI
// perf-smoke): one write sweep plus read sweeps over the weakest PC,
// served raw at the stack (mode 0 -- per-beat loads, no ECC, no
// journal, no scrub: the same unprotected baseline as
// bench/ext_resilient_serving.cpp) or through
// ReliableChannel::serve_trace (mode 1 -- the fleet worker on a
// one-slot fleet coalesces the sweeps into bulk encode/decode runs,
// scrub and budget amortized per run; the fleet's construction and
// end-of-run folds are a fixed cost per call).  CI fails if the reliable path delivers less than 1/3 of
// raw ops/s at 950 mV.  Board rebuilt per iteration (same reason as
// BM_ResilientServe), with setup and the lazy overlay build likewise
// excluded from the timed region.
void BM_ReliableServe(benchmark::State& state) {
  const int mv = static_cast<int>(state.range(0));
  const bool reliable = state.range(1) != 0;
  // One write sweep, seven read sweeps: serving traffic is read-heavy,
  // and the write sweep carries the (documented) write-verify double cost.
  constexpr unsigned kPasses = 8;
  constexpr unsigned kPc = 18;
  std::uint64_t ops = 0;
  std::optional<board::Vcu128Board> board;
  std::optional<runtime::ReliableChannel> channel;
  workload::AccessTrace trace;
  for (auto _ : state) {
    state.PauseTiming();
    channel.reset();
    board.emplace(bench::default_board_config());
    (void)board->set_hbm_voltage(Millivolts{mv});
    const unsigned per_stack = board->geometry().pcs_per_stack();
    auto& stack = board->stack(kPc / per_stack);
    const unsigned local = kPc % per_stack;
    if (reliable) {
      runtime::ReliableChannelConfig config;
      config.spare_fraction = 0.25;
      channel.emplace(*board, kPc, config);
      (void)channel->write(0, runtime::make_payload(1, kPc, 0));
      trace = workload::make_streaming(channel->capacity(), kPasses);
      state.ResumeTiming();
      auto report = channel->serve_trace(trace, 1);
      if (!report.is_ok()) {
        state.SkipWithError("serve_trace failed");
        break;
      }
      ops += report.value().ops;
    } else {
      const std::uint64_t beats = board->geometry().beats_per_pc();
      (void)stack.read_beat(local, 0);  // force the lazy overlay build
      state.ResumeTiming();
      bool ok = true;
      for (std::uint64_t b = 0; b < beats && ok; ++b) {
        ok = stack.write_beat(local, b,
                              runtime::make_payload(1, kPc, b)).is_ok();
      }
      for (unsigned pass = 1; pass < kPasses && ok; ++pass) {
        for (std::uint64_t b = 0; b < beats && ok; ++b) {
          auto data = stack.read_beat(local, b);
          ok = data.is_ok();
          benchmark::DoNotOptimize(data);
        }
      }
      if (!ok) {
        state.SkipWithError("raw access failed");
        break;
      }
      ops += beats * kPasses;
    }
  }
  state.SetLabel(reliable ? "reliable" : "raw");
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ReliableServe)
    ->Args({1200, 0})
    ->Args({1200, 1})
    ->Args({950, 0})
    ->Args({950, 1})
    ->Unit(benchmark::kMillisecond);

// Stripe-mode serving price (docs/resilience.md): a single-threaded
// ServingFleet under the cross-PC erasure stripe, healthy (no PC kill),
// on the same streaming shape as BM_ReliableServe (one write sweep,
// seven read sweeps) so the range engine coalesces for both -- every
// data write also updates the group parity channel, so this is the
// steady-state RAIM write fan-out tax, not the reconstruction path.
// items/s counts foreground fleet ops, directly comparable to
// BM_ReliableServe's per-PC ops/s; CI fails if stripe-mode serve
// delivers less than 1/5 of the raw path at 950 mV.  Board rebuilt per
// iteration with all fault overlays pre-built under PauseTiming (one
// beat read per PC forces each lazy build).
void BM_StripeServe(benchmark::State& state) {
  const int mv = static_cast<int>(state.range(0));
  constexpr unsigned kPasses = 8;
  std::uint64_t ops = 0;
  std::optional<board::Vcu128Board> board;
  std::optional<runtime::ServingFleet> fleet;
  for (auto _ : state) {
    state.PauseTiming();
    fleet.reset();
    board.emplace(bench::default_board_config());
    (void)board->set_hbm_voltage(Millivolts{mv});
    const unsigned per_stack = board->geometry().pcs_per_stack();
    for (unsigned pc = 0; pc < board->geometry().total_pcs(); ++pc) {
      (void)board->stack(pc / per_stack).read_beat(pc % per_stack, 0);
    }
    runtime::FleetConfig config;
    config.scheme = mitigate::MitigationKind::kStripe;
    config.streaming_passes = kPasses;
    config.threads = 1;
    config.seed = 0x5E11E;
    fleet.emplace(*board, std::move(config));
    state.ResumeTiming();
    auto report = fleet->run();
    if (!report.is_ok()) {
      state.SkipWithError("fleet run failed");
      break;
    }
    ops += report.value().ops;
  }
  state.SetLabel("stripe");
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_StripeServe)->Arg(1200)->Arg(950)->Unit(benchmark::kMillisecond);

// The fleet's threading tax (trended in CI, no threshold): the bare
// SECDED streaming fleet over all 32 PCs at 950 mV -- one write sweep,
// seven read sweeps per PC, 512-beat epochs -- on Arg workers.  Like
// perfbench's serve_stream, each iteration is one session on a shared
// board whose overlays are built before timing starts.  Timed in process
// CPU, so items/s is beats per CPU second: with ideal scaling /4 reads
// the same as /1, and the gap between them is what the fan-out, the
// barriers and cross-core data movement cost.
void BM_FleetStream(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  constexpr unsigned kPasses = 8;
  board::Vcu128Board board(bench::default_board_config());
  (void)board.set_hbm_voltage(Millivolts{950});
  const unsigned per_stack = board.geometry().pcs_per_stack();
  for (unsigned pc = 0; pc < board.geometry().total_pcs(); ++pc) {
    (void)board.stack(pc / per_stack).read_beat(pc % per_stack, 0);
  }
  std::uint64_t beats = 0;
  std::uint64_t session = 0;
  std::optional<runtime::ServingFleet> fleet;
  for (auto _ : state) {
    state.PauseTiming();
    fleet.reset();
    runtime::FleetConfig config;
    config.scheme = mitigate::MitigationKind::kSecded;
    config.streaming_passes = kPasses;
    config.ops_per_epoch = 512;
    config.threads = threads;
    config.seed = 0x5E11E + session++;
    fleet.emplace(board, std::move(config));
    state.ResumeTiming();
    auto report = fleet->run();
    if (!report.is_ok()) {
      state.SkipWithError("fleet run failed");
      break;
    }
    beats += report.value().ops;
  }
  state.SetLabel(std::to_string(threads) + " workers");
  state.SetItemsProcessed(static_cast<std::int64_t>(beats));
}
BENCHMARK(BM_FleetStream)
    ->Arg(1)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// Request-plane bookkeeping price (docs/serving.md, CI perf gate): one
// single-threaded SECDED fleet on four PCs serves the same streaming work
// bare (Arg 1 == 0: the fleet's built-in per-PC sweeps) and through the
// multi-tenant RequestPlane (Arg 1 == 1: four streaming tenants, placed,
// admission-controlled, deadline-tracked).  Both arms serve equal work:
// each tenant sweeps one channel's capacity kPasses times (one write
// pass, then reads) as one chunk, and the plane seed places the four
// tenants on four distinct PCs, so both arms serve the same beats, the
// same write/read mix and the same runs onto the same live footprint.
// Queues are deep enough that nothing is shed, and an iteration that
// serves other work fails the benchmark.  items/s counts foreground beats
// either way, so the gap between the two arms is what the plane's
// hashing, queues, and per-tenant accounting cost; CI fails if that
// overhead exceeds 10% at nominal voltage.  Board rebuilt per iteration
// with overlays pre-built and the plane built under PauseTiming.
void BM_TenantServe(benchmark::State& state) {
  const int mv = static_cast<int>(state.range(0));
  const bool plane_on = state.range(1) != 0;
  constexpr unsigned kPasses = 8;
  const std::vector<unsigned> pcs = {0, 1, 2, 3};
  std::uint64_t ops = 0;
  std::optional<board::Vcu128Board> board;
  std::optional<serve::RequestPlane> plane;
  std::optional<runtime::ServingFleet> fleet;
  for (auto _ : state) {
    state.PauseTiming();
    fleet.reset();
    plane.reset();
    board.emplace(bench::default_board_config());
    (void)board->set_hbm_voltage(Millivolts{mv});
    const unsigned per_stack = board->geometry().pcs_per_stack();
    for (const unsigned pc : pcs) {
      (void)board->stack(pc / per_stack).read_beat(pc % per_stack, 0);
    }
    runtime::FleetConfig config;
    config.pcs = pcs;
    config.scheme = mitigate::MitigationKind::kSecded;
    config.threads = 1;
    config.seed = 0x5E11E;
    config.ops_per_epoch = 2048;
    const std::uint64_t capacity =
        runtime::ReliableChannel(*board, pcs[0], config.channel).capacity();
    if (plane_on) {
      // One tenant per PC at the bare fleet's per-epoch rate; a chunk is
      // the whole footprint, and this seed hashes tenant t's chunk onto
      // a PC of its own (the footprint check below fails otherwise).
      serve::PlaneConfig plane_config;
      plane_config.tenants = serve::make_tenant_set(
          static_cast<unsigned>(pcs.size()), {serve::WorkloadMix::kStreaming},
          /*ops=*/capacity * kPasses, /*footprint_beats=*/capacity,
          /*quota_per_epoch=*/config.ops_per_epoch);
      for (serve::TenantSpec& spec : plane_config.tenants) {
        spec.queue_deadline_epochs = 1 << 20;
      }
      plane_config.seed = 0x5E120;
      plane_config.chunk_beats = capacity;
      plane_config.max_queue_per_slot = 1 << 20;
      plane.emplace(std::move(plane_config));
      config.source = &*plane;
    } else {
      config.streaming_passes = kPasses;
    }
    fleet.emplace(*board, std::move(config));
    state.ResumeTiming();
    auto report = fleet->run();
    if (!report.is_ok()) {
      state.SkipWithError("fleet run failed");
      break;
    }
    bool equal = report.value().writes == pcs.size() * capacity &&
                 report.value().reads == pcs.size() * capacity * (kPasses - 1);
    for (std::size_t i = 0; i < fleet->channels(); ++i) {
      equal = equal && fleet->channel(i).live_run(0, true, capacity) == capacity;
    }
    if (!equal) {
      state.SkipWithError("bare and plane arms served unequal work");
      break;
    }
    ops += report.value().ops;
  }
  state.SetLabel(plane_on ? "plane" : "bare");
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_TenantServe)
    ->Args({1200, 0})
    ->Args({1200, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main so the JSON context records whether *this* binary (and the
// hbmvolt library linked into it) was built with optimizations -- the CI
// perf gate refuses numbers from a debug build.  google-benchmark's own
// `library_build_type` field only describes the benchmark library, which
// distro packages sometimes ship as debug.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("hbmvolt_build_type", "release");
#else
  benchmark::AddCustomContext("hbmvolt_build_type", "debug");
#endif
  // Which bulk SECDED kernel this host runs (BM_EccRange and every
  // serving bench on top of the range engine depend on it).
  benchmark::AddCustomContext("hbmvolt_ecc_kernel",
                              hbmvolt::ecc::to_string(
                                  hbmvolt::ecc::secded_kernel()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
