// Deterministic multi-window burn-rate alerting over per-epoch samples.
//
// SRE-style burn-rate logic: a signal with an SLO (e.g. "at most 1% of
// read words need correction") burns its error budget at rate 1.0 when
// the observed rate exactly equals the SLO.  A rule watches the same
// signal over a FAST window (catches sharp spikes quickly) and a SLOW
// window (filters one-epoch blips) and fires only when BOTH windows
// exceed their thresholds; it resolves as soon as either recovers.  This
// is the standard way to page before a budget is gone without paging on
// noise -- here it fronts the degradation ladder, flagging channels whose
// corrected or journal-served rates are trending toward the budget the
// ladder acts on.
//
// Everything is keyed to epoch ticks, never wall time: samples are
// aggregated at the fleet's serial barrier in PC index order, so the
// event stream is a pure function of the sample sequence and is
// byte-identical at any thread count (tests/observability_test.cpp).
// Alert counters are emitted into the active Telemetry instance when one
// is installed; the engine itself runs either way and never touches the
// memory model, so fingerprints cannot depend on it.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hbmvolt::telemetry {

/// One epoch's worth of fleet-wide deltas, gathered at the barrier.
struct EpochSample {
  std::uint64_t epoch = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t corrected = 0;       // data + check-word corrections
  std::uint64_t uncorrectable = 0;   // reads blocked as kDataLoss
  std::uint64_t journal_served = 0;  // reads served from the host journal
  std::uint64_t reconstructed = 0;   // reads served by stripe reconstruction
  std::uint64_t parked = 0;          // total parked beats at the barrier
  double budget_burn = 0.0;          // max per-PC window burn fraction / SLO
  // Request-plane deltas (zero unless a tenant plane drives the fleet,
  // src/serve/plane.hpp): offered load admitted past the token buckets,
  // and requests shed by admission, brownout, hot-shard throttling,
  // queue aging, or deadline overrun.
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
};

/// Fixed-capacity ring of the most recent samples (the windowed
/// time-series the dashboard and burn-rate windows read from).
class EpochRing {
 public:
  explicit EpochRing(std::size_t capacity);

  void push(const EpochSample& sample);
  /// Samples currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept;
  /// Samples ever pushed.
  [[nodiscard]] std::uint64_t pushed() const noexcept { return pushed_; }
  /// Newest-first access: recent(0) is the latest sample.
  [[nodiscard]] const EpochSample& recent(std::size_t i) const;

 private:
  std::size_t capacity_;
  std::vector<EpochSample> ring_;
  std::size_t next_ = 0;
  std::uint64_t pushed_ = 0;
};

/// What a rule's windows measure.  The device-side signals are fractions
/// of served reads; kShedRate is the fraction of *offered* tenant load
/// (admitted + shed) the request plane refused.
enum class AlertSignal : unsigned {
  kCorrectedRate = 0,      // corrected words / read words
  kJournalServedRate = 1,  // journal-served reads / reads
  kReconstructedRate = 2,  // stripe-reconstructed reads / reads
  kShedRate = 3,           // shed requests / (admitted + shed)
};

struct AlertRule {
  std::string name;
  AlertSignal signal = AlertSignal::kCorrectedRate;
  /// Budgeted fraction: burn rate = observed fraction / slo.
  double slo = 0.01;
  /// Fire when fast-window burn >= fast_burn AND slow-window burn >=
  /// slow_burn.  Windows are epoch counts (clamped to available samples).
  std::size_t fast_epochs = 1;
  double fast_burn = 4.0;
  std::size_t slow_epochs = 4;
  double slow_burn = 1.0;
};

/// Edge-triggered state change (fired or resolved), with the window burns
/// that caused it.
struct AlertEvent {
  std::string rule;
  std::uint64_t epoch = 0;
  bool firing = false;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
};

class AlertEngine {
 public:
  explicit AlertEngine(std::vector<AlertRule> rules,
                       std::size_t ring_capacity = 256);

  /// Feed one barrier sample; evaluates every rule.  Emits
  /// `alert.<rule>.fired` / `alert.<rule>.resolved` counters into the
  /// active Telemetry instance (if any) on edges.
  void tick(const EpochSample& sample);

  [[nodiscard]] const std::vector<AlertRule>& rules() const noexcept {
    return rules_;
  }
  [[nodiscard]] const std::vector<AlertEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool firing(std::string_view rule) const;
  [[nodiscard]] const EpochRing& ring() const noexcept { return ring_; }

  /// Burn rate of a rule's signal over the newest `window_epochs` samples
  /// (public so the dashboard can show live burns between edges).
  [[nodiscard]] double burn_rate(const AlertRule& rule,
                                 std::size_t window_epochs) const;

  /// One JSON object per event, newest last -- the soak's alerts.jsonl.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  std::vector<AlertRule> rules_;
  std::vector<char> firing_;  // parallel to rules_
  EpochRing ring_;
  std::vector<AlertEvent> events_;
};

}  // namespace hbmvolt::telemetry
