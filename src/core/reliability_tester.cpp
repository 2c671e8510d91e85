#include "core/reliability_tester.hpp"

#include "common/log.hpp"
#include "telemetry/telemetry.hpp"

namespace hbmvolt::core {

ReliabilityTester::ReliabilityTester(board::Vcu128Board& board,
                                     ReliabilityConfig config)
    : board_(board), config_(config) {
  HBMVOLT_REQUIRE(config_.batch_size > 0, "batch size must be positive");
  HBMVOLT_REQUIRE(config_.pattern_ones || config_.pattern_zeros,
                  "at least one data pattern required");
}

Result<faults::FaultMap> ReliabilityTester::run(
    ThreadPool* pool, const faults::FaultMap* restored,
    const StepFn& on_step) {
  // Detail -1 marks a whole-device run in traces.
  telemetry::Span run_span("reliability.run", -1);
  faults::FaultMap map(board_.geometry());
  if (restored != nullptr) map.merge(*restored);
  std::vector<SweepSkip> skip;
  for (const Millivolts v : map.voltages()) {
    skip.push_back({v, map.at(v)->crashed});
  }
  const unsigned per_stack = board_.geometry().pcs_per_stack();

  const auto record_telemetry = [](const faults::PcFaultRecord& record) {
    if (auto* tel = telemetry::Telemetry::active()) {
      tel->count("faults.recorded");
      tel->count("faults.stuck_bits_hit",
                 record.flips_1to0 + record.flips_0to1);
    }
  };

  std::vector<axi::TgCommand> commands;
  if (config_.pattern_ones) {
    commands.push_back({axi::MacroOp::kWriteRead, 0, config_.mem_beats,
                        hbm::kBeatAllOnes, true});
  }
  if (config_.pattern_zeros) {
    commands.push_back({axi::MacroOp::kWriteRead, 0, config_.mem_beats,
                        hbm::kBeatAllZeros, true});
  }

  // Drive every AXI port of both stacks.
  board_.set_active_ports(board_.total_ports());

  VoltageSweep sweep(board_, config_.sweep, config_.crash_policy);
  sweep.set_crash_retries(config_.crash_retries);
  VoltageSweep::StepFn step_hook;
  if (on_step) {
    step_hook = [&](Millivolts v) { return on_step(v, map); };
  }
  const Status status = sweep.run(
      [&](Millivolts v) {
        for (unsigned b = 0; b < config_.batch_size; ++b) {
          if (auto* tel = telemetry::Telemetry::active()) {
            tel->count("reliability.batches");
          }
          // Algorithm 1: reset_axi_ports() before each batch.
          for (unsigned s = 0; s < board_.geometry().stacks; ++s) {
            board_.controller(s).reset_ports();
          }
          for (const auto& command : commands) {
            const bool ones_pattern = command.pattern == hbm::kBeatAllOnes;
            const auto make_record = [ones_pattern](
                                         const axi::TgStats& stats) {
              faults::PcFaultRecord record;
              record.bits_tested = stats.bits_checked;
              record.flips_1to0 = stats.flips_1to0;
              record.flips_0to1 = stats.flips_0to1;
              (ones_pattern ? record.bits_tested_ones
                            : record.bits_tested_zeros) = stats.bits_checked;
              return record;
            };
            const auto results = board_.run_traffic(command, pool);
            for (unsigned s = 0; s < results.size(); ++s) {
              for (unsigned p = 0; p < results[s].per_port.size(); ++p) {
                const axi::TgStats& stats = results[s].per_port[p];
                if (stats.bits_checked == 0) continue;
                const auto record = make_record(stats);
                record_telemetry(record);
                map.record(v, s * per_stack + p, record);
              }
            }
          }
        }
      },
      [&](Millivolts v) { map.record_crash(v); }, skip, step_hook);
  if (!status.is_ok()) return status;
  return map;
}

}  // namespace hbmvolt::core
