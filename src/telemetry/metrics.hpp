// Named metric primitives: atomic counters, gauges, and labeled counter /
// gauge / HDR-histogram families, owned by a MetricRegistry.  Registration
// (name lookup) takes a mutex; updates through the returned handle are
// lock-free atomics, so the sweep hot paths pay one indexed fetch_add per
// *bulk* event (beats are counted per range, never per beat -- see
// docs/observability.md).

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/hdr_histogram.hpp"

namespace hbmvolt::telemetry {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value plus its high-water mark (e.g. pool queue depth).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    touched_.store(true, std::memory_order_relaxed);
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  /// Whether set() ever ran -- how family exports tell an idle slot from
  /// one legitimately sitting at zero.
  [[nodiscard]] bool touched() const noexcept {
    return touched_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
  std::atomic<bool> touched_{false};
};

/// Labeled counter family: one name, one label key, a fixed number of
/// slots (e.g. `runtime.reads{pc=17}` = slot 17 of a 32-slot family).
/// Slots are a flat array fixed at registration, so the hot path is the
/// same single relaxed fetch_add as a plain Counter -- no per-update name
/// lookup, no map, no lock.
class CounterFamily {
 public:
  CounterFamily(std::string label_key, std::size_t slots);

  /// Unchecked in release-style hot paths is tempting, but slots are
  /// caller-controlled indices (PC numbers): keep the bounds REQUIRE.
  [[nodiscard]] Counter& at(std::size_t label);

  [[nodiscard]] const std::string& label_key() const noexcept {
    return label_key_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::string label_key_;
  std::size_t size_;
  std::unique_ptr<Counter[]> slots_;
};

/// Labeled gauge family (e.g. `runtime.spares_free{pc=N}`): without the
/// label, per-PC gauges collapse to last-writer-wins and the export shows
/// whichever channel flushed last.
class GaugeFamily {
 public:
  GaugeFamily(std::string label_key, std::size_t slots);

  [[nodiscard]] Gauge& at(std::size_t label);

  [[nodiscard]] const std::string& label_key() const noexcept {
    return label_key_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::string label_key_;
  std::size_t size_;
  std::unique_ptr<Gauge[]> slots_;
};

/// Labeled HDR-histogram family (e.g. `latency.read{pc=N}`).  Not a hot
/// path: workers record into private HdrHistograms and merge_into() here
/// at sync points (epoch barriers), under one mutex.
class HdrFamily {
 public:
  HdrFamily(std::string label_key, std::size_t slots,
            std::uint64_t max_value);

  void merge_into(std::size_t label, const HdrHistogram& local);

  [[nodiscard]] const std::string& label_key() const noexcept {
    return label_key_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] std::uint64_t max_value() const noexcept {
    return max_value_;
  }
  /// Copy of one slot (lock held).
  [[nodiscard]] HdrHistogram slot(std::size_t label) const;

 private:
  mutable std::mutex mutex_;
  std::string label_key_;
  std::uint64_t max_value_;
  std::vector<HdrHistogram> slots_;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
  std::int64_t max = 0;
};

struct CounterFamilySnapshot {
  std::string name;
  std::string label_key;
  std::vector<std::uint64_t> values;  // slot-indexed
  std::uint64_t total = 0;
};

struct GaugeFamilySnapshot {
  std::string name;
  std::string label_key;
  /// (slot index, snapshot) for every slot set() ever touched; .name is
  /// left empty.
  std::vector<std::pair<std::size_t, GaugeSnapshot>> slots;
};

struct HdrSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t overflow = 0;
  HdrHistogram::Quantiles q;
};

struct HdrFamilySnapshot {
  std::string name;
  std::string label_key;
  /// (slot index, snapshot) for every slot with count > 0.
  std::vector<std::pair<std::size_t, HdrSnapshot>> slots;
  /// Index-order merge across all slots (the fleet-wide distribution).
  HdrSnapshot merged;
};

/// Canonical rendering of one family slot: "name{key=label}".
[[nodiscard]] std::string family_slot_name(std::string_view name,
                                           std::string_view label_key,
                                           std::size_t label);

/// Thread-safe name -> metric registry.  Returned references stay valid
/// for the registry's lifetime (metrics are heap nodes, never rehashed).
/// Snapshots iterate in name order, so exports are deterministic.
class MetricRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Labeled families.  First registration fixes (label_key, slots[,
  /// max_value]); re-registering with a different shape aborts.
  CounterFamily& counter_family(std::string_view name,
                                std::string_view label_key,
                                std::size_t slots);
  GaugeFamily& gauge_family(std::string_view name, std::string_view label_key,
                            std::size_t slots);
  HdrFamily& hdr_family(
      std::string_view name, std::string_view label_key, std::size_t slots,
      std::uint64_t max_value = HdrHistogram::kDefaultMaxValue);

  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counter_values() const;
  [[nodiscard]] std::vector<GaugeSnapshot> gauge_values() const;
  [[nodiscard]] std::vector<CounterFamilySnapshot> counter_family_values()
      const;
  [[nodiscard]] std::vector<GaugeFamilySnapshot> gauge_family_values() const;
  [[nodiscard]] std::vector<HdrFamilySnapshot> hdr_family_values() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<CounterFamily>, std::less<>>
      counter_families_;
  std::map<std::string, std::unique_ptr<GaugeFamily>, std::less<>>
      gauge_families_;
  std::map<std::string, std::unique_ptr<HdrFamily>, std::less<>>
      hdr_families_;
};

}  // namespace hbmvolt::telemetry
