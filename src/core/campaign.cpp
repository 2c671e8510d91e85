#include "core/campaign.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/parallel.hpp"

#ifndef HBMVOLT_GIT_DESCRIBE
#define HBMVOLT_GIT_DESCRIBE "unknown"
#endif

namespace hbmvolt::core {
namespace {

/// Run manifest: everything needed to identify and compare runs -- the
/// knobs, the build, the phase timing, and the metric totals.
std::string manifest_json(const CampaignConfig& config,
                          const CampaignResult& result,
                          const telemetry::Telemetry& telemetry) {
  using telemetry::json_quoted;
  const auto sweep = [](const SweepConfig& s) {
    return "{\"start_mv\":" + std::to_string(s.start.value) +
           ",\"stop_mv\":" + std::to_string(s.stop.value) +
           ",\"step_mv\":" + std::to_string(s.step_mv) + "}";
  };

  std::string out = "{\n";
  out += "  \"tool\": \"hbmvolt\",\n";
  out += "  \"git\": " + json_quoted(HBMVOLT_GIT_DESCRIBE) + ",\n";
  out += "  \"config\": {\n";
  out += "    \"output_dir\": " + json_quoted(config.output_dir) + ",\n";
  out += "    \"threads\": " + std::to_string(config.threads) + ",\n";
  out += "    \"telemetry\": " +
         std::string(config.telemetry.enabled ? "true" : "false") + ",\n";
  out += "    \"reliability_sweep\": " + sweep(config.reliability.sweep) +
         ",\n";
  out += "    \"reliability_batch_size\": " +
         std::to_string(config.reliability.batch_size) + ",\n";
  out += "    \"power_sweep\": " + sweep(config.power.sweep) + ",\n";
  out += "    \"power_samples\": " + std::to_string(config.power.samples) +
         "\n";
  out += "  },\n";

  out += "  \"timing\": [";
  bool first = true;
  for (const telemetry::SpanStat& stat : telemetry.span_stats()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"span\": " + json_quoted(stat.name) +
           ", \"count\": " + std::to_string(stat.count) +
           ", \"total_ns\": " + std::to_string(stat.total_ns) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"metrics\": {";
  first = true;
  for (const auto& [name, value] : telemetry.metrics().counter_values()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_quoted(name) + ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"errors\": [";
  first = true;
  for (const std::string& error : result.errors) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_quoted(error);
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"files\": [";
  first = true;
  for (const std::string& file : result.files_written) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_quoted(file);
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace

HeadlineNumbers collect_headline_numbers(const faults::FaultMap& map,
                                         const PowerCharacterization& power,
                                         Millivolts v_nom) {
  HeadlineNumbers numbers;
  numbers.guardband = analyze_guardband(map, v_nom);
  numbers.stack_variation = analyze_stack_variation(map);
  numbers.pattern_variation = analyze_pattern_variation(map);

  if (!power.series.empty()) {
    const auto& full = power.series.back();
    // Snap landmark voltages to the nearest measured grid point so coarse
    // power sweeps still yield headline numbers.
    const auto nearest = [&full](Millivolts target) -> Millivolts {
      Millivolts best{0};
      int distance = INT_MAX;
      for (const Millivolts v : full.voltages) {
        const int d = std::abs(v.value - target.value);
        if (d < distance) {
          distance = d;
          best = v;
        }
      }
      return best;
    };
    numbers.savings_at_vmin =
        power.savings_factor(full, nearest(numbers.guardband.v_min))
            .value_or(0.0);
    const Millivolts near_850 = nearest(Millivolts{850});
    numbers.savings_at_850mv =
        power.savings_factor(full, near_850).value_or(0.0);
    const auto idle_nominal = power.series.front().power_at(v_nom);
    if (idle_nominal.has_value() && power.reference.value > 0) {
      numbers.idle_fraction = idle_nominal->value / power.reference.value;
    }
    for (std::size_t i = 0; i < full.voltages.size(); ++i) {
      if (full.voltages[i] == near_850) {
        numbers.alpha_drop_at_850mv =
            1.0 - power.alpha_clf_normalized(full, i);
      }
    }
  }
  return numbers;
}

Campaign::Campaign(board::Vcu128Board& board, CampaignConfig config)
    : board_(board), config_(std::move(config)) {}

std::uint64_t Campaign::config_fingerprint() const {
  const auto& board = board_.config();
  std::uint64_t fp = 0xC4A05F1;
  const auto fold = [&fp](std::uint64_t value) { fp = mix_seed(fp, value); };
  const auto fold_double = [&fold](double value) {
    fold(std::bit_cast<std::uint64_t>(value));
  };
  const auto fold_sweep = [&fold](const SweepConfig& sweep) {
    fold(static_cast<std::uint64_t>(sweep.start.value));
    fold(static_cast<std::uint64_t>(sweep.stop.value));
    fold(static_cast<std::uint64_t>(sweep.step_mv));
  };
  // Board physics.
  fold(board.seed);
  fold(board.geometry.stacks);
  fold(board.geometry.channels_per_stack);
  fold(board.geometry.pcs_per_channel);
  fold(board.geometry.bits_per_pc);
  fold(board.monitor_config.seed);
  fold_double(board.monitor_config.noise_sigma_amps);
  fold(static_cast<std::uint64_t>(board.regulator_config.vout_default.value));
  // Reliability sweep.
  fold_sweep(config_.reliability.sweep);
  fold(config_.reliability.batch_size);
  fold(config_.reliability.mem_beats);
  fold(config_.reliability.pattern_ones ? 1 : 0);
  fold(config_.reliability.pattern_zeros ? 1 : 0);
  fold(static_cast<std::uint64_t>(config_.reliability.crash_policy));
  fold(config_.reliability.crash_retries);
  // Power sweep.
  fold_sweep(config_.power.sweep);
  for (const unsigned ports : config_.power.port_counts) fold(ports);
  fold(config_.power.samples);
  fold(config_.power.traffic_beats);
  // Chaos schedule: a different schedule is a different run -- resuming
  // across one would splice fault histories.
  fold(config_.chaos.seed);
  fold_double(config_.chaos.pmbus_nack_rate);
  fold_double(config_.chaos.wire_corrupt_rate);
  fold_double(config_.chaos.ina_dropout_rate);
  fold_double(config_.chaos.axi_fail_rate);
  fold_double(config_.chaos.spurious_crash_rate);
  fold(config_.chaos.cooldown);
  fold(static_cast<std::uint64_t>(config_.chaos.regulator_dies_after));
  fold(static_cast<std::uint64_t>(config_.chaos.monitor_dies_after));
  return fp;
}

Result<CampaignResult> Campaign::run() {
  namespace fs = std::filesystem;
  // The telemetry scope covers the whole run.  A disabled config installs
  // nothing, so every instrumentation site below costs one branch.
  telemetry::Telemetry telemetry(config_.telemetry);
  telemetry::ScopedTelemetry scoped(telemetry);

  // Chaos goes in after board bring-up (the constructor's REQUIRE-guarded
  // setup must never see injected faults) and uninstalls on scope exit.
  std::optional<chaos::ChaosInjector> injector;
  if (config_.chaos.any()) {
    injector.emplace(board_, config_.chaos);
  }

  // threads == 1 keeps the serial reference path (no pool at all); any
  // other value fans the per-PC work out, with byte-identical results.
  std::unique_ptr<ThreadPool> pool;
  if (config_.threads != 1) {
    pool = std::make_unique<ThreadPool>(config_.threads);
  }

  // ---- Checkpoint load / resume ----
  const std::uint64_t fingerprint = config_fingerprint();
  const bool checkpointing = !config_.dry_run && config_.checkpoint;
  const std::string ckpt_path =
      (fs::path(config_.output_dir) / "checkpoint.json").string();
  CampaignCheckpoint ckpt(board_.geometry());
  ckpt.fingerprint = fingerprint;
  bool resumed = false;
  if (checkpointing) {
    std::error_code ec;
    fs::create_directories(config_.output_dir, ec);
    auto loaded = load_checkpoint(ckpt_path, board_.geometry());
    if (loaded.is_ok()) {
      if (loaded.value().fingerprint == fingerprint) {
        ckpt = std::move(loaded).value();
        resumed = true;
        HBMVOLT_LOG_INFO("campaign: resuming from %s (%zu reliability "
                         "steps, %zu power series)",
                         ckpt_path.c_str(),
                         ckpt.fault_map.voltages().size(), ckpt.power.size());
        telemetry.count("checkpoint.loads");
      } else {
        HBMVOLT_LOG_WARN("campaign: checkpoint at %s belongs to a different "
                         "configuration; starting fresh",
                         ckpt_path.c_str());
      }
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      HBMVOLT_LOG_WARN("campaign: unreadable checkpoint (%s); starting "
                       "fresh",
                       loaded.status().to_string().c_str());
    }
  }

  // Every save goes through one writer, which encodes the reliability
  // rows once the fault map is final, and through one accounting path.
  CheckpointWriter writer;
  bool save_warned = false;
  const auto save_ckpt = [&]() {
    if (!checkpointing) return;
    const Status saved = writer.save(ckpt, ckpt_path);
    if (saved.is_ok()) {
      telemetry.count("checkpoint.writes");
    } else {
      // A broken checkpoint disk must not kill the measurement run; the
      // campaign just loses resumability.
      telemetry.count("checkpoint.write_failures");
      if (!save_warned) {
        save_warned = true;
        HBMVOLT_LOG_WARN("campaign: checkpoint save failed (%s); "
                         "continuing without resumability",
                         saved.to_string().c_str());
      }
    }
  };

  // Shared step bookkeeping: every completed sweep step saves the
  // checkpoint, and halt_after_steps simulates dying after step N.
  unsigned steps_completed = 0;
  bool halted = false;
  const auto write_ckpt = [&]() -> bool {
    save_ckpt();
    ++steps_completed;
    if (config_.halt_after_steps > 0 &&
        steps_completed >= config_.halt_after_steps) {
      halted = true;
      return false;
    }
    return true;
  };

  std::vector<std::string> errors;
  std::optional<CampaignResult> result;
  {
    telemetry::Span campaign_span("campaign");
    const Millivolts v_nom = board_.config().regulator_config.vout_default;

    // ---- Reliability phase ----
    std::optional<faults::FaultMap> map;
    if (resumed && ckpt.reliability_done) {
      map.emplace(ckpt.fault_map);
    } else {
      telemetry::Span span("campaign.reliability");
      HBMVOLT_LOG_INFO("campaign: reliability sweep (Algorithm 1)");
      ReliabilityTester tester(board_, config_.reliability);
      ReliabilityTester::StepFn on_step;
      if (checkpointing || config_.halt_after_steps > 0) {
        on_step = [&](Millivolts v, const faults::FaultMap& m) {
          if (const faults::VoltageObservation* obs = m.at(v)) {
            if (obs->crashed) ckpt.fault_map.record_crash(v);
            for (unsigned pc = 0; pc < obs->pcs.size(); ++pc) {
              ckpt.fault_map.record(v, pc, obs->pcs[pc]);
            }
          }
          return write_ckpt();
        };
      }
      auto measured = tester.run(pool.get(), &ckpt.fault_map, on_step);
      if (measured.is_ok()) {
        map.emplace(std::move(measured).value());
        ckpt.reliability_done = true;
        save_ckpt();
      } else if (!halted) {
        // Persistent fault mid-sweep: keep what was measured, report a
        // structured error, and continue with partial data.
        telemetry.count("campaign.phase_errors");
        errors.push_back("reliability: " + measured.status().to_string());
        HBMVOLT_LOG_WARN("campaign: reliability phase failed (%s); "
                         "degrading to partial results",
                         measured.status().to_string().c_str());
        map.emplace(ckpt.fault_map);
      }
    }

    // ---- Power phase ----
    std::optional<PowerCharacterization> power;
    if (!halted && errors.empty()) {
      telemetry::Span span("campaign.power");
      HBMVOLT_LOG_INFO("campaign: power sweep");
      PowerCharacterizer characterizer(board_, config_.power);
      if (resumed) {
        // Replay the snapshot sequence so resumed measurements draw the
        // original per-sample noise streams.
        board_.set_power_snapshot_seq(ckpt.power_snapshot_seq);
      }
      PowerCharacterizer::StepFn on_step;
      if (checkpointing || config_.halt_after_steps > 0) {
        on_step = [&](const PowerSeries& s) {
          const auto slot = std::find_if(
              ckpt.power.begin(), ckpt.power.end(),
              [&](const PowerSeries& p) { return p.ports == s.ports; });
          if (slot == ckpt.power.end()) {
            ckpt.power.push_back(s);
          } else {
            *slot = s;
          }
          ckpt.power_snapshot_seq = board_.power_snapshot_seq();
          return write_ckpt();
        };
      }
      auto measured = characterizer.run(pool.get(), ckpt.power, on_step);
      if (measured.is_ok()) {
        power.emplace(std::move(measured).value());
      } else if (!halted) {
        telemetry.count("campaign.phase_errors");
        errors.push_back("power: " + measured.status().to_string());
        HBMVOLT_LOG_WARN("campaign: power phase failed (%s); degrading to "
                         "partial results",
                         measured.status().to_string().c_str());
      }
    }

    if (halted) {
      // Simulated kill: the checkpoint is on disk, nothing else is
      // written.  A re-run against the same output_dir resumes.
      HBMVOLT_LOG_INFO("campaign: halted after %u step(s); checkpoint "
                       "retained",
                       steps_completed);
      CampaignResult out{/*guardband=*/{},
                         /*headline=*/{},
                         /*fault_map=*/std::move(ckpt.fault_map),
                         /*power=*/PowerCharacterization::from_series(
                             std::move(ckpt.power), v_nom),
                         /*tradeoff_points=*/{},
                         /*files_written=*/{},
                         /*telemetry_summary=*/{},
                         /*errors=*/std::move(errors),
                         /*halted=*/true};
      pool.reset();
      if (config_.telemetry.enabled) {
        out.telemetry_summary = telemetry.summary();
      }
      return out;
    }
    if (!power.has_value()) {
      power.emplace(PowerCharacterization::from_series(ckpt.power, v_nom));
    }

    telemetry::Span analyze_span("campaign.analyze");
    result.emplace(CampaignResult{
        /*guardband=*/analyze_guardband(*map, v_nom),
        /*headline=*/collect_headline_numbers(*map, *power, v_nom),
        /*fault_map=*/std::move(*map),
        /*power=*/std::move(*power),
        /*tradeoff_points=*/{},
        /*files_written=*/{},
        /*telemetry_summary=*/{},
        /*errors=*/std::move(errors),
        /*halted=*/false});
    // The analyzer must reference the map's final home (result->fault_map),
    // not the moved-from local.
    TradeoffAnalyzer analyzer(result->fault_map, v_nom,
                              &board_.power_model());
    result->tradeoff_points = analyzer.analyze(config_.tradeoff);
  }

  // Join the workers before export so every span track is final.
  pool.reset();

  if (!config_.dry_run) {
    HBMVOLT_RETURN_IF_ERROR(write_artifacts(*result, telemetry));
  }
  if (checkpointing) {
    if (result->errors.empty()) {
      // Clean finish: the artifacts are complete, the checkpoint has
      // served its purpose.
      std::error_code ec;
      fs::remove(ckpt_path, ec);
    } else {
      HBMVOLT_LOG_WARN("campaign: finished with %zu error(s); checkpoint "
                       "kept for retry",
                       result->errors.size());
    }
  }
  if (config_.telemetry.enabled) {
    result->telemetry_summary = telemetry.summary();
  }
  return std::move(*result);
}

Status Campaign::write_artifacts(CampaignResult& result,
                                 telemetry::Telemetry& telemetry) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(config_.output_dir, ec);
  if (ec) {
    return unavailable("cannot create output directory: " + ec.message());
  }

  const auto write_file = [&](const std::string& name,
                              const std::string& content) -> Status {
    const fs::path path = fs::path(config_.output_dir) / name;
    std::ofstream out(path);
    if (!out) return unavailable("cannot open " + path.string());
    out << content;
    if (!out.good()) return unavailable("write failed: " + path.string());
    result.files_written.push_back(path.string());
    return Status::ok();
  };

  {
    // Scoped so the span lands in the exports below.
    telemetry::Span span("campaign.artifacts");
    HBMVOLT_RETURN_IF_ERROR(
        write_file("fig2.csv", to_csv_fig2(result.power)));
    HBMVOLT_RETURN_IF_ERROR(
        write_file("fig4.csv", to_csv_fig4(result.fault_map)));
    HBMVOLT_RETURN_IF_ERROR(
        write_file("fig5.csv", to_csv_fig5(result.fault_map)));
    HBMVOLT_RETURN_IF_ERROR(write_file(
        "fig6.csv", to_csv_fig6(result.tradeoff_points, config_.tradeoff)));

    std::string summary;
    summary += render_headline(result.headline);
    summary += "\n";
    summary += render_fig2(result.power);
    summary += "\n";
    summary += render_fig3(result.power);
    summary += "\n";
    summary += render_fig4(result.fault_map);
    summary += "\n";
    summary += render_fig5(result.fault_map, 20);
    summary += "\n";
    summary += render_fig6(result.tradeoff_points, config_.tradeoff);
    if (!result.errors.empty()) {
      // Only degraded runs grow this section, so a clean run under
      // transient chaos stays byte-identical to the fault-free summary.
      summary += "\nerrors\n------\n";
      for (const std::string& error : result.errors) {
        summary += error;
        summary += "\n";
      }
    }
    HBMVOLT_RETURN_IF_ERROR(write_file("summary.txt", summary));
  }

  // Observability artifacts: the raw event stream and the Chrome trace
  // when enabled, and the run manifest always (it lists the files above,
  // so it goes last and is not in its own list).
  if (config_.telemetry.enabled) {
    HBMVOLT_RETURN_IF_ERROR(
        write_file("telemetry.jsonl", telemetry.to_jsonl()));
    HBMVOLT_RETURN_IF_ERROR(
        write_file("trace.json", telemetry.to_chrome_trace()));
  }
  return write_file("manifest.json",
                    manifest_json(config_, result, telemetry));
}

}  // namespace hbmvolt::core
