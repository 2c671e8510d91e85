// Resilient serving soak: run the ReliableChannel fleet through a chaos
// fault storm and prove the headline invariant -- no read ever returns
// data that mismatches the host-side journal.
//
//   ./build/examples/resilient_serving
//
// Every PC on a tiny board serves a deterministic uniform-random op
// stream at an undervolted supply while the chaos injector fires
// weak-cell bursts and bit rot.  The degradation ladder (correct ->
// retire -> raise voltage -> power-cycle) absorbs whatever the storm
// does; the process exits nonzero if a single corrupt beat was delivered
// or the run fails outright.
//
// Knobs (environment variables, all optional; an unparseable value
// fails fast with exit code 2 naming the bad knob and what it accepts):
//   HBMVOLT_SOAK_OPS=N       foreground ops per PC (default 8192)
//   HBMVOLT_SOAK_MV=N        starting supply in mV (default 950)
//   HBMVOLT_SOAK_THREADS=N   worker threads, 1 = serial (default 4)
//   HBMVOLT_SOAK_SEED=N      workload seed (default 101)
//   HBMVOLT_SOAK_VERIFY=1    re-run serially and require an identical
//                            fingerprint (byte-reproducibility check)
//   HBMVOLT_SOAK_SCHEME=S    mitigation scheme: "secded" (default),
//                            "dected", or "stripe" (cross-PC erasure
//                            stripe with online spare rebuild)
//   HBMVOLT_CHAOS_RATE=X     storm intensity multiplier (default 1.0;
//                            0 disables the storm entirely)
//   HBMVOLT_CHAOS_SEED=N     chaos schedule seed (default 404)
//   HBMVOLT_CHAOS_PC_KILL_RATE=X  per-tick whole-PC-kill probability
//                            (default 0; try 1e-5 with the stripe scheme)
//   HBMVOLT_SOAK_DASHBOARD=1 render the fleet health dashboard after
//                            every epoch barrier (per-PC scheme/stripe/
//                            rung/budget/spares/scrub rows, latency
//                            quantiles, alert state)
//   HBMVOLT_SOAK_ARTIFACTS=D write health.json, dashboard.txt, and
//                            alerts.jsonl into directory D after the run
//                            (plus tenants.json when the plane is on)
//   HBMVOLT_SOAK_TENANTS=N   drive the fleet through the multi-tenant
//                            request plane with N tenants instead of the
//                            bare per-PC op stream (default 0 = bare);
//                            each tenant gets HBMVOLT_SOAK_OPS beats of
//                            demand and the run reports per-tenant
//                            admission/shed/SLO outcomes
//   HBMVOLT_SOAK_MIX=S       comma list of tenant workload mixes cycled
//                            across the tenant set: zipfian, streaming,
//                            pointer_chase, uniform (default all four)
//   HBMVOLT_SOAK_QOS=S       "alternate" guaranteed/best-effort across
//                            the tenant set (default), or force every
//                            tenant "guaranteed" / "best_effort"
//   HBMVOLT_CHAOS_SURGE_RATE=X  per-(tenant, epoch) probability of a 4x
//                            admission surge (default 0; tenants only)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "board/vcu128.hpp"
#include "chaos/chaos.hpp"
#include "mitigate/scheme.hpp"
#include "runtime/fleet.hpp"
#include "runtime/health.hpp"
#include "serve/plane.hpp"
#include "serve/tenant.hpp"
#include "telemetry/hdr_histogram.hpp"
#include "telemetry/telemetry.hpp"

using namespace hbmvolt;

namespace {

// Every knob parses strictly: an unrecognized or trailing-garbage value
// aborts the soak (exit 2) naming the knob and what it accepts, instead
// of silently running a different experiment than the one asked for.
[[noreturn]] void bad_knob(const char* name, const char* value,
                           const char* accepted) {
  std::fprintf(stderr, "%s=\"%s\" is invalid; accepted: %s\n", name, value,
               accepted);
  std::exit(2);
}

double env_double(const char* name, double fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr) return fallback;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || value < 0.0) {
    bad_knob(name, text, "a non-negative decimal number");
  }
  return value;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr) return fallback;
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(text, &end, 0);
  // strtoull silently wraps "-5" to a huge value; reject signs outright.
  if (end == text || *end != '\0' || text[0] == '-' || text[0] == '+') {
    bad_knob(name, text, "an unsigned integer (decimal, 0x hex, or octal)");
  }
  return value;
}

mitigate::MitigationKind env_scheme() {
  const char* text = std::getenv("HBMVOLT_SOAK_SCHEME");
  if (text == nullptr) return mitigate::MitigationKind::kSecded;
  mitigate::MitigationKind kind;
  if (!mitigate::parse_mitigation(text, &kind)) {
    bad_knob("HBMVOLT_SOAK_SCHEME", text,
             "\"secded\", \"dected\", or \"stripe\"");
  }
  return kind;
}

std::vector<serve::WorkloadMix> env_mixes() {
  const char* text = std::getenv("HBMVOLT_SOAK_MIX");
  if (text == nullptr) {
    return {serve::WorkloadMix::kZipfian, serve::WorkloadMix::kStreaming,
            serve::WorkloadMix::kPointerChase, serve::WorkloadMix::kUniform};
  }
  std::vector<serve::WorkloadMix> mixes;
  std::string_view rest(text);
  while (true) {
    const std::size_t comma = rest.find(',');
    auto mix = serve::parse_mix(rest.substr(0, comma));
    if (!mix.is_ok()) {
      bad_knob("HBMVOLT_SOAK_MIX", text,
               "a comma list of zipfian, streaming, pointer_chase, uniform");
    }
    mixes.push_back(mix.value());
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return mixes;
}

/// True (and *forced set) when HBMVOLT_SOAK_QOS overrides every tenant's
/// QoS class; false for the default alternating assignment.
bool env_qos(serve::QosClass* forced) {
  const char* text = std::getenv("HBMVOLT_SOAK_QOS");
  if (text == nullptr || std::strcmp(text, "alternate") == 0) return false;
  auto qos = serve::parse_qos(text);
  if (!qos.is_ok()) {
    bad_knob("HBMVOLT_SOAK_QOS", text,
             "\"alternate\", \"guaranteed\", or \"best_effort\"");
  }
  *forced = qos.value();
  return true;
}

runtime::FleetConfig soak_fleet(std::uint64_t ops_per_pc, unsigned threads,
                                std::uint64_t seed) {
  runtime::FleetConfig config;
  config.scheme = env_scheme();
  config.ops_per_pc = ops_per_pc;
  config.ops_per_epoch = 2048;
  config.seed = seed;
  config.threads = threads;
  config.channel.spare_fraction = 0.25;
  return config;
}

/// Fleet-owned observability state, copied out before the fleet (and the
/// board backing it) is destroyed at the end of run_soak.
struct SoakArtifacts {
  std::string health_json;
  std::string dashboard;
  std::string alerts_jsonl;
  std::string tenants_json;
};

Result<runtime::FleetReport> run_soak(const runtime::FleetConfig& base,
                                      int start_mv, double chaos_rate,
                                      std::uint64_t chaos_seed,
                                      double pc_kill_rate, double surge_rate,
                                      const std::vector<serve::TenantSpec>&
                                          tenants,
                                      bool print_storm, bool dashboard,
                                      SoakArtifacts* artifacts) {
  board::BoardConfig board_config;
  board_config.geometry = hbm::HbmGeometry::test_tiny();
  board::Vcu128Board board(board_config);
  HBMVOLT_RETURN_IF_ERROR(board.set_hbm_voltage(Millivolts{start_mv}));

  chaos::ChaosConfig chaos_config;
  chaos_config.seed = chaos_seed;
  chaos_config.weak_burst_rate = 1e-4 * chaos_rate;
  chaos_config.bit_rot_rate = 1e-3 * chaos_rate;
  chaos_config.burst_cells = 4;
  chaos_config.pc_kill_rate = pc_kill_rate;
  chaos_config.tenant_surge_rate = surge_rate;
  chaos::ChaosInjector injector(board, chaos_config);

  // The plane must outlive the fleet run; the fleet only borrows it
  // through FleetConfig::source.
  std::optional<serve::RequestPlane> plane;
  runtime::FleetConfig config = base;
  if (!tenants.empty()) {
    serve::PlaneConfig plane_config;
    plane_config.tenants = tenants;
    plane_config.seed = base.seed;
    if (surge_rate > 0.0) plane_config.chaos = &injector;
    plane.emplace(std::move(plane_config));
    config.source = &*plane;
  }
  if (chaos_rate > 0.0 || pc_kill_rate > 0.0) {
    config.storm_hook = [&injector](unsigned pc, std::uint64_t tick) {
      return injector.storm_tick(pc, tick);
    };
  }
  if (dashboard) {
    config.epoch_hook = [](const runtime::EpochStatus& status) {
      telemetry::Telemetry* tel = telemetry::Telemetry::active();
      std::fputs(runtime::render_dashboard(
                     *status.health, status.alerts,
                     tel != nullptr ? &tel->metrics() : nullptr)
                     .c_str(),
                 stdout);
      std::fputc('\n', stdout);
    };
  }

  runtime::ServingFleet fleet(board, config);
  auto report = fleet.run();
  if (artifacts != nullptr) {
    telemetry::Telemetry* tel = telemetry::Telemetry::active();
    artifacts->health_json = fleet.health().to_json();
    artifacts->dashboard = runtime::render_dashboard(
        fleet.health(), &fleet.alerts(),
        tel != nullptr ? &tel->metrics() : nullptr);
    artifacts->alerts_jsonl = fleet.alerts().to_jsonl();
    if (plane.has_value()) artifacts->tenants_json = plane->to_json();
  }
  if (report.is_ok() && print_storm) {
    std::printf("  storm             %llu weak-cell bursts, %llu bit-rot "
                "flips, %llu PC kills, %llu tenant surges\n",
                static_cast<unsigned long long>(
                    injector.injected(chaos::FaultKind::kWeakCellBurst)),
                static_cast<unsigned long long>(
                    injector.injected(chaos::FaultKind::kBitRot)),
                static_cast<unsigned long long>(
                    injector.injected(chaos::FaultKind::kPcKill)),
                static_cast<unsigned long long>(
                    injector.injected(chaos::FaultKind::kTenantSurge)));
  }
  if (report.is_ok() && print_storm && plane.has_value()) {
    std::printf("  brownout          level %u at the final barrier\n",
                plane->brownout_level());
    for (std::size_t t = 0; t < plane->tenant_count(); ++t) {
      const serve::TenantSpec& spec = plane->spec(t);
      const serve::TenantStats& stats = plane->stats(t);
      const auto q = plane->latency(t).quantiles();
      std::printf("  tenant %-4s %-11s admitted %llu  shed %llu  stale "
                  "%llu  hedged %llu  p99 %s  slo %s\n",
                  spec.name.c_str(), serve::to_string(spec.qos),
                  static_cast<unsigned long long>(stats.admitted),
                  static_cast<unsigned long long>(stats.shed_total()),
                  static_cast<unsigned long long>(stats.stale_served),
                  static_cast<unsigned long long>(stats.hedged),
                  telemetry::format_duration_ns(q.p99).c_str(),
                  plane->slo_met(t) ? "ok" : "MISS");
    }
  }
  return report;
}

/// "latency read   p50 812 ns  p90 ...  (n=...)" from the merged HDR
/// family, or nothing when telemetry recorded no samples.
void print_latency_summary(const telemetry::MetricRegistry& metrics) {
  for (const auto& family : metrics.hdr_family_values()) {
    if (family.name != "latency.read" && family.name != "latency.write") {
      continue;
    }
    const telemetry::HdrSnapshot& m = family.merged;
    if (m.count == 0) continue;
    std::printf("  latency %-9s p50 %s  p90 %s  p99 %s  p999 %s  (n=%llu)\n",
                family.name == "latency.read" ? "read" : "write",
                telemetry::format_duration_ns(m.q.p50).c_str(),
                telemetry::format_duration_ns(m.q.p90).c_str(),
                telemetry::format_duration_ns(m.q.p99).c_str(),
                telemetry::format_duration_ns(m.q.p999).c_str(),
                static_cast<unsigned long long>(m.count));
  }
}

bool write_file(const std::filesystem::path& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
  out.flush();
  return out.good();
}

}  // namespace

int main() {
  const std::uint64_t ops = env_u64("HBMVOLT_SOAK_OPS", 8192);
  const int mv = static_cast<int>(env_u64("HBMVOLT_SOAK_MV", 950));
  const unsigned threads =
      static_cast<unsigned>(env_u64("HBMVOLT_SOAK_THREADS", 4));
  const std::uint64_t seed = env_u64("HBMVOLT_SOAK_SEED", 101);
  const double chaos_rate = env_double("HBMVOLT_CHAOS_RATE", 1.0);
  const std::uint64_t chaos_seed = env_u64("HBMVOLT_CHAOS_SEED", 404);
  const double pc_kill_rate = env_double("HBMVOLT_CHAOS_PC_KILL_RATE", 0.0);
  const double surge_rate = env_double("HBMVOLT_CHAOS_SURGE_RATE", 0.0);
  const std::uint64_t tenant_count = env_u64("HBMVOLT_SOAK_TENANTS", 0);
  const bool verify = env_u64("HBMVOLT_SOAK_VERIFY", 0) != 0;
  const bool dashboard = env_u64("HBMVOLT_SOAK_DASHBOARD", 0) != 0;
  const char* artifacts_dir = std::getenv("HBMVOLT_SOAK_ARTIFACTS");

  std::vector<serve::TenantSpec> tenants;
  if (tenant_count > 0) {
    tenants = serve::make_tenant_set(static_cast<unsigned>(tenant_count),
                                     env_mixes(), /*ops=*/ops,
                                     /*footprint_beats=*/2048,
                                     /*quota_per_epoch=*/512);
    serve::QosClass forced;
    if (env_qos(&forced)) {
      for (auto& spec : tenants) spec.qos = forced;
    }
  }

  telemetry::Telemetry telemetry;
  telemetry::ScopedTelemetry scope(telemetry);

  std::printf("resilient serving soak: %llu ops/PC at %d mV, %u thread(s), "
              "chaos x%.2f, %s scheme, %llu tenant(s)\n",
              static_cast<unsigned long long>(ops), mv, threads, chaos_rate,
              mitigate::to_string(env_scheme()),
              static_cast<unsigned long long>(tenant_count));

  runtime::FleetConfig config = soak_fleet(ops, threads, seed);
  SoakArtifacts artifacts;
  auto result =
      run_soak(config, mv, chaos_rate, chaos_seed, pc_kill_rate, surge_rate,
               tenants, true, dashboard,
               artifacts_dir != nullptr ? &artifacts : nullptr);
  if (!result.is_ok()) {
    std::fprintf(stderr, "soak failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  const runtime::FleetReport& r = result.value();

  std::printf("  ops               %llu (%llu reads, %llu writes)\n",
              static_cast<unsigned long long>(r.ops),
              static_cast<unsigned long long>(r.reads),
              static_cast<unsigned long long>(r.writes));
  std::printf("  corrupt reads     %llu\n",
              static_cast<unsigned long long>(r.corrupt_reads));
  std::printf("  escalated reads   %llu\n",
              static_cast<unsigned long long>(r.escalated_reads));
  std::printf("  reconstructed     %llu reads (stripe), %llu beats rebuilt\n",
              static_cast<unsigned long long>(r.reconstructed_reads),
              static_cast<unsigned long long>(r.rebuilt_beats));
  std::printf("  ladder            %llu raises, %llu power-cycles "
              "(fleet-level)\n",
              static_cast<unsigned long long>(r.raises),
              static_cast<unsigned long long>(r.power_cycles));
  std::printf("  final voltage     %d mV\n", r.final_voltage.value);
  std::printf("  fingerprint       %016llx\n",
              static_cast<unsigned long long>(r.fingerprint));
  if (tenant_count > 0) {
    std::printf("  tenant fp         %016llx\n",
                static_cast<unsigned long long>(r.tenant_fingerprint));
  }
  print_latency_summary(telemetry.metrics());

  if (artifacts_dir != nullptr) {
    std::error_code ec;
    std::filesystem::create_directories(artifacts_dir, ec);
    const std::filesystem::path dir(artifacts_dir);
    if (ec || !write_file(dir / "health.json", artifacts.health_json) ||
        !write_file(dir / "dashboard.txt", artifacts.dashboard) ||
        !write_file(dir / "alerts.jsonl", artifacts.alerts_jsonl) ||
        (!artifacts.tenants_json.empty() &&
         !write_file(dir / "tenants.json", artifacts.tenants_json))) {
      std::fprintf(stderr, "FAIL: could not write soak artifacts to %s\n",
                   artifacts_dir);
      return 1;
    }
    std::printf("  artifacts         %s/{health.json,dashboard.txt,"
                "alerts.jsonl%s}\n",
                artifacts_dir,
                artifacts.tenants_json.empty() ? "" : ",tenants.json");
  }

  if (r.corrupt_reads > 0) {
    std::fprintf(stderr, "FAIL: %llu corrupt reads delivered\n",
                 static_cast<unsigned long long>(r.corrupt_reads));
    return 1;
  }

  if (verify) {
    runtime::FleetConfig serial = soak_fleet(ops, 1, seed);
    auto replay = run_soak(serial, mv, chaos_rate, chaos_seed, pc_kill_rate,
                           surge_rate, tenants, false, false, nullptr);
    if (!replay.is_ok()) {
      std::fprintf(stderr, "serial replay failed: %s\n",
                   replay.status().to_string().c_str());
      return 1;
    }
    if (replay.value().fingerprint != r.fingerprint) {
      std::fprintf(stderr,
                   "FAIL: serial fingerprint %016llx != parallel %016llx\n",
                   static_cast<unsigned long long>(replay.value().fingerprint),
                   static_cast<unsigned long long>(r.fingerprint));
      return 1;
    }
    if (replay.value().tenant_fingerprint != r.tenant_fingerprint) {
      std::fprintf(stderr,
                   "FAIL: serial tenant fingerprint %016llx != parallel "
                   "%016llx\n",
                   static_cast<unsigned long long>(
                       replay.value().tenant_fingerprint),
                   static_cast<unsigned long long>(r.tenant_fingerprint));
      return 1;
    }
    std::printf("  replay            serial fingerprint matches\n");
  }

  std::printf("PASS: zero corrupt reads\n");
  return 0;
}
