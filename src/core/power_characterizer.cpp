#include "core/power_characterizer.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "telemetry/telemetry.hpp"

namespace hbmvolt::core {

std::optional<Watts> PowerSeries::power_at(Millivolts v) const {
  for (std::size_t i = 0; i < voltages.size(); ++i) {
    if (voltages[i] == v) return power[i];
  }
  return std::nullopt;
}

double PowerCharacterization::normalized(const PowerSeries& s,
                                         std::size_t i) const {
  return reference.value > 0.0 ? s.power[i].value / reference.value : 0.0;
}

double PowerCharacterization::alpha_clf_normalized(const PowerSeries& s,
                                                   std::size_t i) const {
  const auto at_nom = s.power_at(v_nom);
  if (!at_nom.has_value() || at_nom->value <= 0.0) return 0.0;
  const double clf = s.power[i].value /
                     (s.voltages[i].volts() * s.voltages[i].volts());
  const double clf_nom = at_nom->value / (v_nom.volts() * v_nom.volts());
  return clf / clf_nom;
}

std::optional<double> PowerCharacterization::savings_factor(
    const PowerSeries& s, Millivolts v) const {
  const auto at_nom = s.power_at(v_nom);
  const auto at_v = s.power_at(v);
  if (!at_nom.has_value() || !at_v.has_value() || at_v->value <= 0.0) {
    return std::nullopt;
  }
  return at_nom->value / at_v->value;
}

PowerCharacterization PowerCharacterization::from_series(
    std::vector<PowerSeries> series, Millivolts v_nom) {
  PowerCharacterization out;
  out.series = std::move(series);
  out.v_nom = v_nom;
  const auto max_series = std::max_element(
      out.series.begin(), out.series.end(),
      [](const PowerSeries& a, const PowerSeries& b) {
        return a.ports < b.ports;
      });
  if (max_series != out.series.end()) {
    out.reference = max_series->power_at(v_nom).value_or(Watts{0.0});
  }
  return out;
}

PowerCharacterizer::PowerCharacterizer(board::Vcu128Board& board,
                                       PowerSweepConfig config)
    : board_(board), config_(config) {
  HBMVOLT_REQUIRE(!config_.port_counts.empty(), "need at least one series");
  HBMVOLT_REQUIRE(config_.samples > 0, "need at least one sample");
}

Result<PowerCharacterization> PowerCharacterizer::run(
    ThreadPool* pool, std::vector<PowerSeries> restored,
    const StepFn& on_step) {
  std::vector<PowerSeries> measured;
  for (const unsigned ports : config_.port_counts) {
    telemetry::Span series_span("power.series", ports);
    // Resume: adopt the restored rows of this series and skip their grid
    // points.  Power-phase crash points are never checkpointed (no row was
    // measured), so a resumed sweep re-discovers them deterministically.
    PowerSeries series;
    for (PowerSeries& prior : restored) {
      if (prior.ports == ports) {
        series = std::move(prior);
        break;
      }
    }
    series.ports = ports;
    board_.set_active_ports(ports);
    series.utilization = board_.utilization();
    std::vector<SweepSkip> skip;
    skip.reserve(series.voltages.size());
    for (const Millivolts v : series.voltages) {
      skip.push_back({v, /*crashed=*/false});
    }

    VoltageSweep sweep(board_, config_.sweep, CrashPolicy::kStop);
    // Checkpoint only after steps that measured a row; a step whose power
    // read failed (and was skipped with a warning) re-runs on resume.
    bool row_added = false;
    VoltageSweep::StepFn step_hook;
    if (on_step) {
      step_hook = [&](Millivolts) {
        if (!row_added) return true;
        row_added = false;
        return on_step(series);
      };
    }
    Status run_status = sweep.run(
        [&](Millivolts v) {
          if (ports > 0 && config_.traffic_beats > 0) {
            // Keep live transactions flowing during the measurement window.
            axi::TgCommand command{axi::MacroOp::kWriteRead, 0,
                                   config_.traffic_beats, hbm::kBeatAllOnes,
                                   /*check=*/false};
            board_.run_traffic(command, pool);
          }
          auto power = board_.measure_power_snapshot(config_.samples, pool);
          if (!power.is_ok()) {
            HBMVOLT_LOG_WARN("power read failed at %d mV: %s", v.value,
                             power.status().to_string().c_str());
            return;
          }
          series.voltages.push_back(v);
          series.power.push_back(power.value());
          row_added = true;
        },
        nullptr, skip, step_hook);
    if (!run_status.is_ok()) return run_status;
    measured.push_back(std::move(series));
  }

  board_.set_active_ports(0);
  return PowerCharacterization::from_series(
      std::move(measured), board_.config().regulator_config.vout_default);
}

}  // namespace hbmvolt::core
