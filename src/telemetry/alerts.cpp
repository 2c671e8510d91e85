#include "telemetry/alerts.hpp"

#include <algorithm>

#include "common/status.hpp"
#include "common/table.hpp"
#include "telemetry/telemetry.hpp"

namespace hbmvolt::telemetry {

EpochRing::EpochRing(std::size_t capacity) : capacity_(capacity) {
  HBMVOLT_REQUIRE(capacity_ > 0, "epoch ring needs capacity");
  ring_.reserve(capacity_);
}

void EpochRing::push(const EpochSample& sample) {
  if (ring_.size() < capacity_) {
    ring_.push_back(sample);
  } else {
    ring_[next_] = sample;
  }
  next_ = (next_ + 1) % capacity_;
  ++pushed_;
}

std::size_t EpochRing::size() const noexcept { return ring_.size(); }

const EpochSample& EpochRing::recent(std::size_t i) const {
  HBMVOLT_REQUIRE(i < ring_.size(), "epoch ring index out of range");
  // next_ points at the oldest slot once the ring is full; the newest is
  // one behind it either way.
  const std::size_t newest = (next_ + ring_.size() - 1) % ring_.size();
  return ring_[(newest + ring_.size() - i) % ring_.size()];
}

AlertEngine::AlertEngine(std::vector<AlertRule> rules,
                         std::size_t ring_capacity)
    : rules_(std::move(rules)),
      firing_(rules_.size(), 0),
      ring_(ring_capacity) {
  for (const AlertRule& rule : rules_) {
    HBMVOLT_REQUIRE(rule.slo > 0.0, "alert rule needs a positive SLO");
    HBMVOLT_REQUIRE(rule.fast_epochs > 0 && rule.slow_epochs > 0,
                    "alert rule windows need at least one epoch");
  }
}

double AlertEngine::burn_rate(const AlertRule& rule,
                              std::size_t window_epochs) const {
  std::uint64_t numerator = 0;
  std::uint64_t denominator = 0;
  const std::size_t window = std::min(window_epochs, ring_.size());
  for (std::size_t i = 0; i < window; ++i) {
    const EpochSample& sample = ring_.recent(i);
    switch (rule.signal) {
      case AlertSignal::kCorrectedRate:
        numerator += sample.corrected;
        denominator += sample.reads;
        break;
      case AlertSignal::kJournalServedRate:
        numerator += sample.journal_served;
        denominator += sample.reads;
        break;
      case AlertSignal::kReconstructedRate:
        numerator += sample.reconstructed;
        denominator += sample.reads;
        break;
      case AlertSignal::kShedRate:
        // Shed fraction of the *offered* tenant load, not of served
        // reads: a plane shedding everything would otherwise divide by
        // the very traffic it refused to serve.
        numerator += sample.shed;
        denominator += sample.admitted + sample.shed;
        break;
    }
  }
  if (denominator == 0) return 0.0;
  const double fraction =
      static_cast<double>(numerator) / static_cast<double>(denominator);
  return fraction / rule.slo;
}

void AlertEngine::tick(const EpochSample& sample) {
  ring_.push(sample);
  Telemetry* tel = Telemetry::active();
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const AlertRule& rule = rules_[r];
    const double fast = burn_rate(rule, rule.fast_epochs);
    const double slow = burn_rate(rule, rule.slow_epochs);
    const bool now = fast >= rule.fast_burn && slow >= rule.slow_burn;
    if (now == static_cast<bool>(firing_[r])) continue;
    firing_[r] = now ? 1 : 0;
    events_.push_back({rule.name, sample.epoch, now, fast, slow});
    if (tel != nullptr) {
      tel->count("alert." + rule.name + (now ? ".fired" : ".resolved"));
    }
  }
}

bool AlertEngine::firing(std::string_view rule) const {
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    if (rules_[r].name == rule) return firing_[r] != 0;
  }
  return false;
}

std::string AlertEngine::to_jsonl() const {
  std::string out;
  for (const AlertEvent& event : events_) {
    out += "{\"type\":\"alert\",\"rule\":" + json_quoted(event.rule) +
           ",\"epoch\":" + std::to_string(event.epoch) +
           ",\"firing\":" + (event.firing ? "true" : "false") +
           ",\"fast_burn\":" + format_double(event.fast_burn, 3) +
           ",\"slow_burn\":" + format_double(event.slow_burn, 3) + "}\n";
  }
  return out;
}

}  // namespace hbmvolt::telemetry
