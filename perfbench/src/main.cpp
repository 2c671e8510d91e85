// hbmvolt end-to-end benchmark: the measuring binary.
//
//   hbmvolt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--scratch DIR]
//
// Repeats one workload (set-up + one timed call) for S seconds, checks the
// correctness gate on every repetition, and prints a human-readable report
// followed, as the last line, by one JSON object:
//
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics from untraced repetitions.
// --trace 1 spends half the budget untraced (the overhead baseline and
// the epoch percentiles) and half traced, and reports the per-layer
// metrics.  Any gate violation prints the reason and exits 1 without a
// result.  See README.md for the metric catalog.

#include <sys/resource.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

namespace {

struct Workload {
  const char* name;
  RepFn run;
};

constexpr Workload kWorkloads[] = {
    {"campaign", run_campaign},
    {"serve_stream", run_serve_stream},
    {"serve_tenants_storm", run_serve_tenants_storm},
};

struct Metric {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace 0), reported by every workload.  All are
// host figures except pj_per_beat, which is simulated.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},           {"run_cpu_s", "s"},
    {"beats_per_cpu_s", "1/s"}, {"peak_rss_mb", "MiB"},
    {"pj_per_beat", "pJ"},
};

// Per-layer metrics (--trace 1).  Every workload prints every name; a
// layer the workload leaves idle reads 0.
constexpr Metric kPerLayer[] = {
    {"core.reliability_ms", "ms"},
    {"core.power_ms", "ms"},
    {"core.artifacts_ms", "ms"},
    {"core.checkpoint_writes", "count"},
    {"core.sweep_step_ms_p50", "ms"},
    {"core.pool_tasks", "count"},
    {"core.pool_busy_frac", "frac"},
    {"core.headline_err_pct", "%"},
    {"axi.pattern_test_ms", "ms"},
    {"axi.pattern_tests", "count"},
    {"axi.beats", "count"},
    {"hbm.words_compared", "count"},
    {"faults.stuck_bits_hit", "count"},
    {"faults.overlay_build_ms", "ms"},
    {"faults.overlay_build_ms_max", "ms"},
    {"power.snapshot_ms", "ms"},
    {"power.samples", "count"},
    {"pmbus.transactions", "count"},
    {"workload.tenant_gen_ms", "ms"},
    {"runtime.fleet_build_ms", "ms"},
    {"runtime.read_ns_p50", "ns"},
    {"runtime.read_ns_p99", "ns"},
    {"runtime.write_ns_p50", "ns"},
    {"runtime.write_ns_p99", "ns"},
    {"runtime.scrub_skip_frac", "frac"},
    {"runtime.fanout_ms_p50", "ms"},
    {"runtime.barrier_ms_p50", "ms"},
    {"runtime.escalated_reads", "count"},
    {"runtime.journal_served_reads", "count"},
    {"runtime.reconstructed_reads", "count"},
    {"runtime.rebuilt_beats", "count"},
    {"runtime.rows_retired", "count"},
    {"runtime.fleet.raise", "count"},
    {"ecc.corrected_words", "count"},
    {"ecc.uncorrectable_blocked", "count"},
    {"serve.begin_epoch_ms_p50", "ms"},
    {"serve.end_epoch_ms_p50", "ms"},
    {"serve.worker_ns_per_request", "ns"},
    {"serve.admitted", "count"},
    {"serve.shed.admission", "count"},
    {"serve.shed.brownout", "count"},
    {"serve.shed.queue", "count"},
    {"serve.shed.hot_shard", "count"},
    {"serve.shed.deadline", "count"},
    {"serve.hedged", "count"},
    {"serve.stale", "count"},
    {"serve.retry_granted", "count"},
    {"serve.retry_denied", "count"},
    {"serve.shed_frac", "frac"},
    {"serve.guaranteed_p99_model_us", "us"},
    {"chaos.storm_tick_ns", "ns"},
    {"chaos.storm_ticks", "count"},
    {"chaos.injected.bit_rot", "count"},
    {"chaos.injected.weak_cell_burst", "count"},
    {"chaos.injected.pc_kill", "count"},
    {"chaos.injected.tenant_surge", "count"},
    {"fleet.epoch_ms_p50", "ms"},
    {"fleet.epoch_ms_p99", "ms"},
    {"fleet.epochs", "count"},
    {"ladder.hbm_ns_per_beat", "ns"},
    {"ladder.hbm_step_ns_per_beat", "ns"},
    {"ladder.faults_ns_per_beat", "ns"},
    {"ladder.faults_step_ns_per_beat", "ns"},
    {"ladder.ecc_ns_per_beat", "ns"},
    {"ladder.ecc_step_ns_per_beat", "ns"},
    {"ladder.channel_ns_per_beat", "ns"},
    {"ladder.channel_step_ns_per_beat", "ns"},
    {"ladder.fleet_ns_per_beat", "ns"},
    {"ladder.fleet_step_ns_per_beat", "ns"},
    {"ladder.serve_ns_per_beat", "ns"},
    {"ladder.serve_step_ns_per_beat", "ns"},
    {"wall.run_s", "s"},
    {"wall.beats_per_s", "1/s"},
    {"telemetry.overhead_pct", "%"},
};

constexpr int kMinReps = 3;
// Library worker threads: fixed, and never more than the host has.
constexpr unsigned kMaxWorkers = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: hbmvolt_perfbench --workload "
               "campaign|serve_stream|serve_tenants_storm --seed N "
               "--seconds S --trace 0|1 [--scratch DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strtoul(value, &end, 10) != 0;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      usage("unknown flag");
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      usage("malformed number");
    }
  }
  if (args.seconds <= 0.0) usage("--seconds must be positive");
  return args;
}

/// Runs repetitions for `budget_s` seconds (at least kMinReps).
/// Runs repetitions for `budget_s` seconds (at least kMinReps).
std::vector<Rep> repeat(const Workload& w, Inputs& in, bool traced,
                        double budget_s) {
  std::vector<Rep> reps;
  const Clock::time_point start = Clock::now();
  while (reps.size() < kMinReps ||
         seconds_between(start, Clock::now()) < budget_s) {
    in.setup_start = Clock::now();
    reps.push_back(w.run(in, traced));
  }
  return reps;
}

/// The correctness gate: no violation in any repetition, and every
/// simulated metric and fingerprint bit-identical to the first
/// repetition's.  Returns the first failure, or "" when the gate holds.
std::string gate(const std::vector<Rep>& reps) {
  const Rep& ref = reps.front();
  for (std::size_t r = 0; r < reps.size(); ++r) {
    const Rep& rep = reps[r];
    if (!rep.violations.empty()) {
      return "repetition " + std::to_string(r) + ": " + rep.violations[0];
    }
    if (rep.fingerprints != ref.fingerprints) {
      return "repetition " + std::to_string(r) + ": fingerprint differs";
    }
    if (rep.simulated.size() != ref.simulated.size()) {
      return "repetition " + std::to_string(r) + ": simulated metrics differ";
    }
    for (std::size_t m = 0; m < rep.simulated.size(); ++m) {
      if (std::bit_cast<std::uint64_t>(rep.simulated[m].second) !=
          std::bit_cast<std::uint64_t>(ref.simulated[m].second)) {
        return "repetition " + std::to_string(r) + ": simulated metric " +
               rep.simulated[m].first + " differs";
      }
    }
    if (rep.beats != ref.beats) {
      return "repetition " + std::to_string(r) + ": beat count differs";
    }
  }
  return "";
}

using Metrics = std::map<std::string, double>;

/// Median over repetitions of one per-repetition figure.
double median_of(const std::vector<Rep>& reps, double (*get)(const Rep&)) {
  std::vector<double> values;
  for (const Rep& rep : reps) values.push_back(get(rep));
  return median(std::move(values));
}

struct EpochStats {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Epoch wall times pooled over the repetitions.
EpochStats epoch_stats(const std::vector<Rep>& reps) {
  std::vector<double> all;
  for (const Rep& rep : reps) {
    all.insert(all.end(), rep.epoch_ms.begin(), rep.epoch_ms.end());
  }
  return {all.size(), quantile(all, 0.50), quantile(all, 0.99)};
}

/// The result line: every catalog metric, in catalog order (absent = 0).
template <std::size_t N>
void print_json(const Metric (&catalog)[N], const Metrics& metrics,
                std::uint64_t attempted, std::uint64_t failed) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = metrics.find(catalog[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", catalog[i].name,
                it == metrics.end() ? 0.0 : it->second, catalog[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& args) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "error: hbmvolt_perfbench was built without NDEBUG; it only "
               "reports from optimized (Release) builds\n");
  (void)args;
  return 3;
#else
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload");

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  Inputs in = Inputs::derive(args.seed);
  in.workers = std::min(kMaxWorkers, nproc);
  in.scratch = args.scratch;
  std::filesystem::create_directories(in.scratch);

  std::printf("hbmvolt_perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("build: compiler=\"%s\" build_type=%s git=%s nproc=%u "
              "workers=%u\n",
              __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_GIT_DESCRIBE, nproc,
              in.workers);

  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Rep> reps =
      repeat(*workload, in, false, untraced_budget);
  std::vector<Rep> traced;
  if (args.trace) {
    traced = repeat(*workload, in, true, args.seconds / 2);
  }

  std::vector<Rep> all = reps;
  all.insert(all.end(), traced.begin(), traced.end());
  if (const std::string failure = gate(all); !failure.empty()) {
    std::printf("correctness gate FAILED: %s\n", failure.c_str());
    std::fprintf(stderr, "correctness gate FAILED: %s\n", failure.c_str());
    return 1;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Rep& rep : all) {
    attempted += rep.attempted;
    failed += rep.failed;
  }

  const Rep& ref = reps.front();
  // Host figures are medians over the untraced repetitions.  CPU time (all
  // threads; the kernel excludes time stolen by the hypervisor) is the
  // gated cost of the timed calls; wall time is reported beside it.
  Metrics host = {
      {"setup_s", median_of(reps, [](const Rep& r) { return r.setup_s; })},
      {"run_cpu_s",
       median_of(reps, [](const Rep& r) { return r.run_cpu_s; })},
      {"beats_per_cpu_s", median_of(reps,
                                    [](const Rep& r) {
                                      return static_cast<double>(r.beats) /
                                             r.run_cpu_s;
                                    })},
      {"peak_rss_mb", peak_rss_mb()},
      {"wall.run_s", median_of(reps, [](const Rep& r) { return r.run_s; })},
      {"wall.beats_per_s", median_of(reps,
                                     [](const Rep& r) {
                                       return static_cast<double>(r.beats) /
                                              r.run_s;
                                     })},
  };
  const EpochStats epochs = epoch_stats(reps);

  std::printf("repetitions: %zu untraced, %zu traced; beats per "
              "repetition %llu\n",
              reps.size(), traced.size(),
              static_cast<unsigned long long>(ref.beats));
  for (const auto& [name, fp] : ref.fingerprints) {
    std::printf("fingerprint %-24s %016llx\n", name.c_str(),
                static_cast<unsigned long long>(fp));
  }
  for (const auto& [name, value] : ref.simulated) {
    std::printf("simulated   %-24s %.17g\n", name.c_str(), value);
  }
  for (const auto& [name, value] : host) {
    std::printf("host        %-24s %.6g\n", name.c_str(), value);
  }
  if (epochs.count > 0) {
    std::printf("host        %-24s %.4f ms (%zu epochs)\n", "epoch_ms_p50",
                epochs.p50, epochs.count);
    std::printf("host        %-24s %.4f ms (%zu epochs, %zu beyond p99)\n",
                "epoch_ms_p99", epochs.p99, epochs.count, epochs.count / 100);
  }

  if (!args.trace) {
    for (const auto& [name, value] : ref.simulated) host[name] = value;
    print_json(kEndToEnd, host, attempted, failed);
    return 0;
  }

  // Per-layer: median over the traced repetitions of each layer value,
  // plus the figures that come from the untraced half of this run.
  Metrics layers;
  for (const Metric& m : kPerLayer) {
    std::vector<double> values;
    for (const Rep& rep : traced) {
      const auto it = rep.layers.find(m.name);
      values.push_back(it == rep.layers.end() ? 0.0 : it->second);
    }
    layers[m.name] = median(std::move(values));
  }
  layers["wall.run_s"] = host["wall.run_s"];
  layers["wall.beats_per_s"] = host["wall.beats_per_s"];
  layers["fleet.epoch_ms_p50"] = epochs.p50;
  layers["fleet.epoch_ms_p99"] = epochs.p99;
  layers["fleet.epochs"] = static_cast<double>(epochs.count);
  const double traced_cpu =
      median_of(traced, [](const Rep& r) { return r.run_cpu_s; });
  layers["telemetry.overhead_pct"] =
      100.0 * (traced_cpu / host["run_cpu_s"] - 1.0);
  if (args.workload == "serve_stream") {
    for (const auto& [name, value] : run_serve_ladder(in)) {
      layers[name] = value;
    }
  }
  for (const Metric& m : kPerLayer) {
    std::printf("layer       %-32s %.6g %s\n", m.name, layers[m.name], m.unit);
  }
  print_json(kPerLayer, layers, attempted, failed);
  return 0;
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
