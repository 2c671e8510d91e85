// Extension experiment: serving through the resilient runtime vs a raw
// PC across the Fig-6 voltage range.
//
// The paper's Fig-6 trade-off picks a voltage offline from a lab fault
// map; the ReliableChannel runtime (src/runtime/) makes the call online
// instead.  This bench serves the same deterministic op stream two ways
// at each voltage:
//
//   raw       write/read straight at the stack -- whatever the overlay
//             corrupts is delivered to the caller;
//   reliable  through ReliableChannel -- SECDED + patrol scrub + error
//             budget + the degradation ladder.
//
// Reported per voltage: throughput for both paths (the runtime's ops/s
// price), the raw corrupted-read fraction, the runtime's corrected-word
// overhead, ladder actions, and the voltage the ladder actually ended
// at.  The `reliable corrupt` column is the headline: it must be zero on
// every row.

#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "runtime/reliable_channel.hpp"

using namespace hbmvolt;

namespace {

constexpr std::uint64_t kOps = 1 << 14;
constexpr std::uint64_t kSeed = 0x5E11E;

}  // namespace

int main() {
  bench::print_banner(
      "Extension: resilient runtime vs raw PC across Fig-6 voltages");

  // Pick the PC with the deepest fault exposure so every regime of the
  // ladder gets exercised as the sweep descends.
  unsigned pc = 0;
  {
    board::Vcu128Board probe(bench::default_board_config());
    (void)probe.set_hbm_voltage(Millivolts{870});
    std::uint64_t worst = 0;
    for (unsigned candidate = 0; candidate < probe.geometry().total_pcs();
         ++candidate) {
      const std::uint64_t count =
          probe.injector().overlay(candidate).total_count();
      if (count > worst) {
        worst = count;
        pc = candidate;
      }
    }
  }

  std::printf("PC%u, %llu ops per voltage (75%% reads)\n\n", pc,
              static_cast<unsigned long long>(kOps));
  std::printf("%-8s %10s %10s %12s %12s %10s %8s %9s\n", "voltage",
              "raw Mop/s", "rel Mop/s", "raw corrupt", "rel corrupt",
              "corr/kop", "retired", "final mV");

  for (int mv = 980; mv >= 870; mv -= 10) {
    // --- raw path: unprotected stack access.
    board::Vcu128Board raw_board(bench::default_board_config());
    (void)raw_board.set_hbm_voltage(Millivolts{mv});
    const unsigned per_stack = raw_board.geometry().pcs_per_stack();
    auto& stack = raw_board.stack(pc / per_stack);
    const unsigned local = pc % per_stack;
    const std::uint64_t beats = raw_board.geometry().beats_per_pc();
    const auto trace =
        workload::make_uniform_random(beats, kOps, 0.25, kSeed);

    std::uint64_t raw_corrupt = 0;
    std::vector<bool> written(beats, false);
    const auto raw_start = std::chrono::steady_clock::now();
    for (std::uint64_t op = 0; op < trace.size(); ++op) {
      const std::uint64_t beat = trace[op].beat % beats;
      if (trace[op].write || !written[beat]) {
        (void)stack.write_beat(local, beat,
                               runtime::make_payload(kSeed, pc, op));
        written[beat] = true;
      } else {
        auto data = stack.read_beat(local, beat);
        if (!data.is_ok()) continue;
        // The raw path has no journal; corruption = any flipped bit
        // relative to what this beat last stored (the overlay is the only
        // mutator, so a read-back mismatch is a delivered fault).
        auto stored = stack.array(local).read_beat(beat);
        if (data.value() != stored) ++raw_corrupt;
      }
    }
    const std::chrono::duration<double> raw_elapsed =
        std::chrono::steady_clock::now() - raw_start;

    // --- reliable path: the full runtime ladder, same op stream.
    board::Vcu128Board board(bench::default_board_config());
    (void)board.set_hbm_voltage(Millivolts{mv});
    runtime::ReliableChannelConfig config;
    config.spare_fraction = 0.25;
    runtime::ReliableChannel channel(board, pc, config);
    const auto rel_trace = workload::make_uniform_random(
        channel.capacity(), kOps, 0.25, kSeed);

    const auto rel_start = std::chrono::steady_clock::now();
    auto served = channel.serve_trace(rel_trace, kSeed);
    const std::chrono::duration<double> rel_elapsed =
        std::chrono::steady_clock::now() - rel_start;
    if (!served.is_ok()) {
      std::printf("%.2fV    serve_trace failed: %s\n", mv / 1000.0,
                  served.status().to_string().c_str());
      continue;
    }
    const runtime::ServeReport& r = served.value();
    const runtime::ChannelStats& stats = channel.stats();

    std::printf("%.2fV   %10.2f %10.2f %11.4f%% %11.4f%% %10.2f %8llu %9d\n",
                mv / 1000.0, kOps / raw_elapsed.count() / 1e6,
                kOps / rel_elapsed.count() / 1e6,
                100.0 * static_cast<double>(raw_corrupt) /
                    static_cast<double>(kOps),
                100.0 * static_cast<double>(r.corrupt_reads) /
                    static_cast<double>(r.ops),
                1000.0 * static_cast<double>(stats.corrected_words) /
                    static_cast<double>(r.ops),
                static_cast<unsigned long long>(stats.rows_retired),
                board.hbm_voltage().value);
  }

  std::printf(
      "\nThe raw path delivers corrupt beats as soon as the overlay is\n"
      "populated; the runtime's column stays zero at every voltage -- it\n"
      "spends throughput (scrub + verify + journal), spares (retired\n"
      "rows), and finally supply voltage (the `final mV` column walking\n"
      "back toward nominal) to keep it that way.\n");
  return 0;
}
