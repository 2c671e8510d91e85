// Shared types for the hbmvolt end-to-end benchmark binary.
//
// One repetition of a workload is one set-up followed by its timed calls
// into the library.  Every repetition returns a Rep: host timings, the
// deterministic work count, the simulated metrics and fingerprints the
// correctness gate compares across repetitions, and (traced repetitions
// only) the per-layer breakdown.  Everything is measured from outside the
// library: around public calls, through the fleet's existing seams, and
// from the telemetry the library already records.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "board/vcu128.hpp"
#include "common/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The serving workloads' supply: inside the fault region, above V_crit.
inline constexpr hbmvolt::Millivolts kServeVoltage{950};
/// serve_stream trace shape: sweeps per PC (one write sweep, then read
/// sweeps) and beats per PC between barriers.  The ladder prices the same
/// shape, with fewer sweeps, on one PC.
inline constexpr unsigned kStreamPasses = 128;
inline constexpr std::uint64_t kStreamOpsPerEpoch = 512;

/// Per-workload-seed inputs.  The board, fleet, plane, and chaos seeds are
/// all derived from the one `--seed`; the library only ever sees these.
struct Inputs {
  std::uint64_t board_seed = 0;
  std::uint64_t fleet_seed = 0;
  std::uint64_t plane_seed = 0;
  std::uint64_t chaos_seed = 0;
  /// Worker threads handed to the library (fixed, at most nproc).
  unsigned workers = 1;
  /// Scratch directory inside the checkout for campaign artifacts.
  std::filesystem::path scratch;
  /// Start of the current repetition's set-up.
  Clock::time_point setup_start;

  static Inputs derive(std::uint64_t seed) {
    Inputs in;
    in.board_seed = hbmvolt::mix_seed(seed, 0xB0A2D);
    in.fleet_seed = hbmvolt::mix_seed(seed, 0xF1EE7);
    in.plane_seed = hbmvolt::mix_seed(seed, 0x91A4E);
    in.chaos_seed = hbmvolt::mix_seed(seed, 0xC4A05);
    return in;
  }
};

/// The simulated VCU128 every workload runs on: the scaled simulation
/// geometry and the campaign examples' monitor noise, seeded per workload.
inline hbmvolt::board::BoardConfig board_config(const Inputs& in) {
  hbmvolt::board::BoardConfig config;
  config.geometry = hbmvolt::hbm::HbmGeometry::simulation_default();
  config.monitor_config.noise_sigma_amps = 0.002;
  config.seed = in.board_seed;
  return config;
}

/// Named values in insertion order (so reports and gate messages are
/// stable).
using Values = std::vector<std::pair<std::string, double>>;
using Fingerprints = std::vector<std::pair<std::string, std::uint64_t>>;

struct Rep {
  /// Wall time outside and inside the timed calls.
  double setup_s = 0.0;
  double run_s = 0.0;
  /// Process CPU time (all threads) of the timed calls.
  double run_cpu_s = 0.0;
  /// Deterministic work of the timed calls, in beats.
  std::uint64_t beats = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Simulated (model-time / model-energy) metrics: must be bit-identical
  /// across repetitions and between traced and untraced runs.
  Values simulated;
  /// Fleet / tenant / data / artifact fingerprints: same rule.
  Fingerprints fingerprints;
  /// Correctness violations (corrupt reads, campaign errors, ...); any
  /// entry fails the run.
  std::vector<std::string> violations;
  /// Host wall time between consecutive epoch_hook calls (serving only).
  std::vector<double> epoch_ms;
  /// Per-layer breakdown (traced repetitions only).
  std::map<std::string, double> layers;
};

using RepFn = Rep (*)(const Inputs&, bool traced);

Rep run_campaign(const Inputs& in, bool traced);
Rep run_serve_stream(const Inputs& in, bool traced);
Rep run_serve_tenants_storm(const Inputs& in, bool traced);

/// The outside-in serve layer ladder (ladder.*_ns_per_beat), run once per
/// traced serve_stream invocation.
std::map<std::string, double> run_serve_ladder(const Inputs& in);

// ---- Small statistics helpers ----

/// Linearly interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// User + system CPU time of this process so far, all threads, in seconds.
double process_cpu_s();

/// Modelled rail energy per beat at supply `v` with every port streaming:
/// P(v, utilization 1) from the board's power model over the peak beat
/// rate (ports x AXI clock x port efficiency), in picojoules.
inline double model_pj_per_beat(const hbmvolt::board::Vcu128Board& board,
                                hbmvolt::Millivolts v) {
  const auto& config = board.config();
  const double beats_per_s = static_cast<double>(board.total_ports()) *
                             config.axi_clock.value * config.port_efficiency;
  return board.power_model().power(v, 1.0).value / beats_per_s * 1e12;
}

}  // namespace perfbench
