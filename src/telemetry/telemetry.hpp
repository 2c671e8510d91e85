// Telemetry: the instrumentation layer of the sweep pipeline.
//
// A Telemetry instance owns a MetricRegistry plus per-thread span tracks,
// and is made visible to instrumentation sites by installing it as the
// process-wide active instance (ScopedTelemetry).  Design rules:
//
//  * Disabled costs one branch.  Telemetry::active() is a single relaxed
//    atomic load; it returns nullptr unless an instance is installed AND
//    enabled, so every call site reduces to `if (active()) ...`.  The
//    perf CI gate (BM_TelemetryOverhead) enforces that a disabled-registry
//    sweep stays within 3% of the no-telemetry baseline.
//  * Telemetry never alters results.  No RNG, no shared mutable state
//    with the model: golden artifacts are byte-identical with telemetry
//    on or off (tests/telemetry_test.cpp proves it at threads 1 and 4).
//  * Deterministic aggregation.  Spans land in per-thread tracks (only
//    the owning thread appends -- no locks on the recording path); export
//    and summary merge tracks in worker-index order, like PR 1's fault
//    merge, and metrics iterate in name order.
//
// Sinks: summary() (human table via common/table), to_jsonl() (one JSON
// object per span/metric), to_chrome_trace() (chrome://tracing / Perfetto,
// one track per worker thread).  See docs/observability.md.

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "telemetry/clock.hpp"
#include "telemetry/metrics.hpp"

namespace hbmvolt::telemetry {

struct TelemetryConfig {
  /// Master switch: when false the instance can be installed but
  /// Telemetry::active() stays null, so instrumentation costs one branch.
  bool enabled = true;
};

/// JSON string literal (quotes + escapes) -- shared by the sinks here and
/// hand-assembled JSON elsewhere (the campaign's manifest.json).
[[nodiscard]] std::string json_quoted(std::string_view s);

/// One closed span, as recorded on the thread that ran it.
struct SpanEvent {
  std::string name;
  std::uint64_t start_ns = 0;  // relative to the instance's creation
  std::uint64_t dur_ns = 0;
  std::uint32_t depth = 0;  // nesting level within the thread
  std::int64_t detail = 0;  // free-form scalar (e.g. millivolts, port)
};

/// Aggregate over all tracks, for summary() and the run manifest.
struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config = {}, Clock* clock = nullptr);
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// The installed-and-enabled instance, or nullptr.  One relaxed atomic
  /// load: this is the whole disabled-path cost at every call site.
  [[nodiscard]] static Telemetry* active() noexcept;

  /// Labels the calling thread's track (worker index + display name) for
  /// every Telemetry instance it subsequently records into.  ThreadPool
  /// workers call this with index i+1; the installing thread gets (0,
  /// "main") by default.  Tracks merge in index order at export.
  static void set_thread_track(int index, std::string label);

  [[nodiscard]] const TelemetryConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] MetricRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] Clock& clock() noexcept { return *clock_; }

  // Convenience recorders (callers hold the active() pointer).
  void count(std::string_view name, std::uint64_t n = 1) {
    metrics_.counter(name).add(n);
  }
  void gauge_set(std::string_view name, std::int64_t v) {
    metrics_.gauge(name).set(v);
  }

  // ---- Sinks.  Call after all recording threads have joined. ----

  /// Human-readable table: span aggregates + every metric.
  [[nodiscard]] std::string summary() const;
  /// JSONL event stream: one {"type":"span"|"counter"|"gauge"|"hdr"}
  /// object per line; family slots appear as "name{key=label}" entries
  /// next to a bare-name total/merged line.
  [[nodiscard]] std::string to_jsonl() const;
  /// Chrome trace-event JSON ("X" complete events, one tid per worker
  /// track); open in chrome://tracing or https://ui.perfetto.dev.
  [[nodiscard]] std::string to_chrome_trace() const;
  /// Span aggregates merged across tracks in worker-index order.
  [[nodiscard]] std::vector<SpanStat> span_stats() const;

 private:
  friend class Span;
  friend class ScopedTelemetry;

  struct ThreadTrack {
    std::thread::id thread;
    int index = 0;
    std::string label;
    std::uint32_t depth = 0;           // live nesting on the owning thread
    std::vector<SpanEvent> spans;      // appended only by the owning thread
  };

  /// The calling thread's track in this instance (created on first use;
  /// cached in a thread_local so the hot path is pointer-compare cheap).
  ThreadTrack& track();
  /// Tracks sorted by (index, creation order); locks tracks_mutex_.
  [[nodiscard]] std::vector<const ThreadTrack*> sorted_tracks() const;

  TelemetryConfig config_;
  SteadyClock steady_clock_;
  Clock* clock_;  // never null; defaults to &steady_clock_
  std::uint64_t epoch_ns_;
  std::uint64_t id_;  // process-unique; keys the per-thread track cache
  MetricRegistry metrics_;

  mutable std::mutex tracks_mutex_;
  std::deque<ThreadTrack> tracks_;  // deque: stable addresses
};

/// Installs a Telemetry instance as the process-wide active one for the
/// scope (restores the previous instance on destruction).  A disabled
/// instance installs as nullptr, so call sites see no telemetry at all.
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(Telemetry& telemetry);
  ~ScopedTelemetry();

  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  Telemetry* previous_;
};

/// RAII scoped timer.  Construction snapshots the active instance; if
/// telemetry is disabled the whole object is a no-op (one branch).  Spans
/// nest per thread and close correctly during exception unwind.  A Span
/// must not outlive the Telemetry instance it started under.
class Span {
 public:
  explicit Span(const char* name, std::int64_t detail = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Telemetry* telemetry_;  // null when telemetry was inactive at entry
  const char* name_;
  std::int64_t detail_;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
};

}  // namespace hbmvolt::telemetry
