// Workload `campaign`: Campaign::run with the default CampaignConfig -- the
// full Algorithm-1 reliability sweep (1200 -> 800 mV) plus the
// 5-utilization power sweep, artifacts and checkpoints written to a
// scratch directory.  The board is built fresh for every repetition, so
// fault overlays start cold: a lab pays for them on every voltage step.
//
// The traced repetition enables the campaign's own telemetry and reads the
// per-layer breakdown back from the telemetry.jsonl it writes.

#include <cmath>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "common/json.hpp"
#include "core/campaign.hpp"

namespace perfbench {
namespace {

using namespace hbmvolt;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// FNV-1a over bytes: the artifact fingerprint.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Paper anchors the headline error is measured against.
constexpr double kPaperGuardband = 0.19;
constexpr double kPaperSavingsAtVmin = 1.5;
constexpr double kPaperSavingsAt850 = 2.3;

double headline_err_pct(const core::HeadlineNumbers& h) {
  const auto rel = [](double got, double want) {
    return std::fabs(got - want) / want;
  };
  return 100.0 * std::max({rel(h.guardband.guardband_fraction,
                               kPaperGuardband),
                           rel(h.savings_at_vmin, kPaperSavingsAtVmin),
                           rel(h.savings_at_850mv, kPaperSavingsAt850)});
}

/// Span totals / counts / per-event durations and counter values parsed
/// from the campaign's telemetry.jsonl.
struct Trace {
  std::map<std::string, double> span_ms;
  std::map<std::string, double> span_count;
  std::vector<double> step_ms;
  std::map<std::string, double> counters;
};

Trace parse_telemetry(const std::filesystem::path& path,
                      std::vector<std::string>& violations) {
  Trace trace;
  std::istringstream lines(read_file(path));
  std::string line;
  while (std::getline(lines, line)) {
    auto parsed = json::parse(line);
    if (!parsed.is_ok()) {
      violations.push_back("unparseable telemetry.jsonl line");
      break;
    }
    const json::Value& v = parsed.value();
    const json::Value* type = v.find("type");
    const json::Value* name = v.find("name");
    const json::Value* dur = v.find("dur_ns");
    const json::Value* value = v.find("value");
    if (type == nullptr || name == nullptr) continue;
    if (type->string == "span" && dur != nullptr) {
      const double ms = dur->number / 1e6;
      trace.span_ms[name->string] += ms;
      trace.span_count[name->string] += 1;
      if (name->string == "sweep.step") trace.step_ms.push_back(ms);
    } else if (type->string == "counter" && value != nullptr) {
      trace.counters[name->string] = value->number;
    }
  }
  return trace;
}

std::map<std::string, double> campaign_layers(const Trace& t,
                                              unsigned workers) {
  const auto span = [&t](const char* name) {
    const auto it = t.span_ms.find(name);
    return it == t.span_ms.end() ? 0.0 : it->second;
  };
  const auto count = [&t](const char* name) {
    const auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : it->second;
  };
  const double fanout_ms = span("pool.fanout");
  const auto tests = t.span_count.find("tg.pattern_test");
  return {
      {"core.reliability_ms", span("campaign.reliability")},
      {"core.power_ms", span("campaign.power")},
      {"core.artifacts_ms", span("campaign.artifacts")},
      {"core.checkpoint_writes", count("checkpoint.writes")},
      {"core.sweep_step_ms_p50", median(t.step_ms)},
      {"core.pool_tasks", count("pool.tasks")},
      {"core.pool_busy_frac",
       fanout_ms > 0.0 ? span("tg.pattern_test") / (workers * fanout_ms)
                       : 0.0},
      {"axi.pattern_test_ms", span("tg.pattern_test")},
      {"axi.pattern_tests",
       tests == t.span_count.end() ? 0.0 : tests->second},
      {"axi.beats", count("tg.beats_read") + count("tg.beats_written")},
      {"hbm.words_compared", count("tg.words_compared")},
      {"faults.stuck_bits_hit", count("faults.stuck_bits_hit")},
      {"power.snapshot_ms", span("power.snapshot")},
      {"power.samples", count("power.samples")},
      {"pmbus.transactions", count("pmbus.transactions")},
  };
}

}  // namespace

Rep run_campaign(const Inputs& in, bool traced) {
  Rep rep;
  // Each repetition starts from an empty artifact directory (a leftover
  // checkpoint.json would make the campaign resume) and removes it again
  // after reading it back, so set-up never pays for the deletion.
  const std::filesystem::path dir = in.scratch / "campaign";
  std::filesystem::remove_all(dir);

  board::Vcu128Board board(board_config(in));

  core::CampaignConfig config;
  config.output_dir = dir.string();
  config.threads = in.workers;
  config.telemetry.enabled = traced;
  core::Campaign campaign(board, config);

  const double c0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  auto result = campaign.run();
  const Clock::time_point t1 = Clock::now();
  const double c1 = process_cpu_s();
  rep.setup_s = seconds_between(in.setup_start, t0);
  rep.run_s = seconds_between(t0, t1);
  rep.run_cpu_s = c1 - c0;

  if (!result.is_ok()) {
    rep.violations.push_back("campaign failed: " +
                             result.status().to_string());
    return rep;
  }
  const core::CampaignResult& r = result.value();
  for (const std::string& error : r.errors) {
    rep.violations.push_back("campaign error: " + error);
  }
  if (r.halted) rep.violations.push_back("campaign halted");

  // Work: beats the traffic generators moved -- every verified beat was
  // written and read back by the reliability sweep, plus the power
  // sweep's write + read traffic per enabled port per reading.
  std::uint64_t tested = 0;
  for (const Millivolts v : r.fault_map.voltages()) {
    tested += r.fault_map.device_record(v).bits_tested /
              board.geometry().bits_per_beat;
  }
  std::uint64_t power_beats = 0;
  for (const core::PowerSeries& s : r.power.series) {
    power_beats += 2ULL * s.ports * config.power.traffic_beats *
                   s.voltages.size();
  }
  rep.beats = 2 * tested + power_beats;
  rep.attempted = rep.beats;
  rep.failed = rep.violations.empty() ? 0 : rep.beats;

  const double err = headline_err_pct(r.headline);
  const Millivolts v_min = r.headline.guardband.v_min;
  rep.simulated = {
      {"headline_err_pct", err},
      {"pj_per_beat", model_pj_per_beat(board, v_min)},
      {"v_min_mv", static_cast<double>(v_min.value)},
  };

  // Figures and summary must be byte-identical across repetitions.
  bool saw_summary = false;
  for (const std::string& file : r.files_written) {
    const std::string name = std::filesystem::path(file).filename().string();
    if (name.rfind("fig", 0) != 0 && name != "summary.txt") continue;
    saw_summary = saw_summary || name == "summary.txt";
    rep.fingerprints.emplace_back(name, fnv1a(read_file(file)));
  }
  if (!saw_summary) rep.violations.push_back("summary.txt not written");

  if (traced) {
    const Trace trace = parse_telemetry(dir / "telemetry.jsonl",
                                        rep.violations);
    rep.layers = campaign_layers(trace, in.workers);
    rep.layers["core.headline_err_pct"] = err;
  }
  std::filesystem::remove_all(dir);
  return rep;
}

}  // namespace perfbench
