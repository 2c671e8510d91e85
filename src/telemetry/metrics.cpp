#include "telemetry/metrics.hpp"

#include "common/status.hpp"

namespace hbmvolt::telemetry {

CounterFamily::CounterFamily(std::string label_key, std::size_t slots)
    : label_key_(std::move(label_key)),
      size_(slots),
      slots_(new Counter[slots]) {
  HBMVOLT_REQUIRE(slots > 0, "counter family needs at least one slot");
}

Counter& CounterFamily::at(std::size_t label) {
  HBMVOLT_REQUIRE(label < size_, "counter family label out of range");
  return slots_[label];
}

GaugeFamily::GaugeFamily(std::string label_key, std::size_t slots)
    : label_key_(std::move(label_key)),
      size_(slots),
      slots_(new Gauge[slots]) {
  HBMVOLT_REQUIRE(slots > 0, "gauge family needs at least one slot");
}

Gauge& GaugeFamily::at(std::size_t label) {
  HBMVOLT_REQUIRE(label < size_, "gauge family label out of range");
  return slots_[label];
}

HdrFamily::HdrFamily(std::string label_key, std::size_t slots,
                     std::uint64_t max_value)
    : label_key_(std::move(label_key)), max_value_(max_value) {
  HBMVOLT_REQUIRE(slots > 0, "hdr family needs at least one slot");
  slots_.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) slots_.emplace_back(max_value);
}

void HdrFamily::merge_into(std::size_t label, const HdrHistogram& local) {
  HBMVOLT_REQUIRE(label < slots_.size(), "hdr family label out of range");
  std::lock_guard<std::mutex> lock(mutex_);
  slots_[label].merge(local);
}

HdrHistogram HdrFamily::slot(std::size_t label) const {
  HBMVOLT_REQUIRE(label < slots_.size(), "hdr family label out of range");
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_[label];
}

std::string family_slot_name(std::string_view name, std::string_view label_key,
                             std::size_t label) {
  std::string out(name);
  out += '{';
  out += label_key;
  out += '=';
  out += std::to_string(label);
  out += '}';
  return out;
}

Counter& MetricRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

CounterFamily& MetricRegistry::counter_family(std::string_view name,
                                              std::string_view label_key,
                                              std::size_t slots) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counter_families_.find(name);
  if (it != counter_families_.end()) {
    HBMVOLT_REQUIRE(
        it->second->label_key() == label_key && it->second->size() == slots,
        "counter family re-registered with a different label key or slots");
    return *it->second;
  }
  it = counter_families_
           .emplace(std::string(name), std::make_unique<CounterFamily>(
                                           std::string(label_key), slots))
           .first;
  return *it->second;
}

GaugeFamily& MetricRegistry::gauge_family(std::string_view name,
                                          std::string_view label_key,
                                          std::size_t slots) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauge_families_.find(name);
  if (it != gauge_families_.end()) {
    HBMVOLT_REQUIRE(
        it->second->label_key() == label_key && it->second->size() == slots,
        "gauge family re-registered with a different label key or slots");
    return *it->second;
  }
  it = gauge_families_
           .emplace(std::string(name), std::make_unique<GaugeFamily>(
                                           std::string(label_key), slots))
           .first;
  return *it->second;
}

HdrFamily& MetricRegistry::hdr_family(std::string_view name,
                                      std::string_view label_key,
                                      std::size_t slots,
                                      std::uint64_t max_value) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = hdr_families_.find(name);
  if (it != hdr_families_.end()) {
    HBMVOLT_REQUIRE(it->second->label_key() == label_key &&
                        it->second->size() == slots &&
                        it->second->max_value() == max_value,
                    "hdr family re-registered with a different shape");
    return *it->second;
  }
  it = hdr_families_
           .emplace(std::string(name),
                    std::make_unique<HdrFamily>(std::string(label_key), slots,
                                                max_value))
           .first;
  return *it->second;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricRegistry::counter_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<GaugeSnapshot> MetricRegistry::gauge_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<GaugeSnapshot> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.push_back({name, gauge->value(), gauge->max()});
  }
  return out;
}

std::vector<CounterFamilySnapshot> MetricRegistry::counter_family_values()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CounterFamilySnapshot> out;
  out.reserve(counter_families_.size());
  for (const auto& [name, family] : counter_families_) {
    CounterFamilySnapshot snapshot;
    snapshot.name = name;
    snapshot.label_key = family->label_key();
    snapshot.values.resize(family->size());
    for (std::size_t i = 0; i < family->size(); ++i) {
      snapshot.values[i] = family->at(i).value();
      snapshot.total += snapshot.values[i];
    }
    out.push_back(std::move(snapshot));
  }
  return out;
}

std::vector<GaugeFamilySnapshot> MetricRegistry::gauge_family_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<GaugeFamilySnapshot> out;
  out.reserve(gauge_families_.size());
  for (const auto& [name, family] : gauge_families_) {
    GaugeFamilySnapshot snapshot;
    snapshot.name = name;
    snapshot.label_key = family->label_key();
    for (std::size_t i = 0; i < family->size(); ++i) {
      const Gauge& slot = family->at(i);
      if (!slot.touched()) continue;
      snapshot.slots.emplace_back(
          i, GaugeSnapshot{"", slot.value(), slot.max()});
    }
    out.push_back(std::move(snapshot));
  }
  return out;
}

namespace {

HdrSnapshot snapshot_of(const HdrHistogram& h) {
  return {h.count(), h.sum(), h.min(), h.max(), h.overflow(), h.quantiles()};
}

}  // namespace

std::vector<HdrFamilySnapshot> MetricRegistry::hdr_family_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<HdrFamilySnapshot> out;
  out.reserve(hdr_families_.size());
  for (const auto& [name, family] : hdr_families_) {
    HdrFamilySnapshot snapshot;
    snapshot.name = name;
    snapshot.label_key = family->label_key();
    HdrHistogram merged(family->max_value());
    for (std::size_t i = 0; i < family->size(); ++i) {
      const HdrHistogram slot = family->slot(i);
      if (slot.count() > 0) snapshot.slots.emplace_back(i, snapshot_of(slot));
      merged.merge(slot);
    }
    snapshot.merged = snapshot_of(merged);
    out.push_back(std::move(snapshot));
  }
  return out;
}

}  // namespace hbmvolt::telemetry
