#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>

#include "common/table.hpp"

namespace hbmvolt::telemetry {
namespace {

/// The installed-and-enabled instance.  Relaxed is sufficient: installs
/// happen-before the work they scope (thread-pool task handoff provides
/// the ordering), and a stale null only means an event is dropped at the
/// install boundary, never a torn read.
std::atomic<Telemetry*> g_active{nullptr};

/// Per-thread track hint (worker index + label), independent of any
/// particular Telemetry instance so pool workers label themselves once.
struct TrackHint {
  int index = -1;  // -1 = unassigned
  std::string label;
};
thread_local TrackHint t_hint;

/// Fallback indices for threads that never called set_thread_track; kept
/// far above real worker indices so they sort after them.
std::atomic<int> g_anonymous_index{1000};

/// Cache of the calling thread's track in the most recent instance it
/// recorded into (instances are long-lived, so thrash is not a concern).
/// Keyed on (address, instance id): a destroyed instance's address can be
/// reused by the next one (stack-allocated campaigns back to back), so the
/// address alone would hit on a dangling track pointer.
struct TrackCache {
  const Telemetry* owner = nullptr;
  std::uint64_t owner_id = 0;
  void* track = nullptr;
};
thread_local TrackCache t_track_cache;

/// Monotonic instance ids for the cache key above.
std::atomic<std::uint64_t> g_instance_id{1};

void json_escape(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

std::string format_ms(std::uint64_t ns) {
  return format_double(static_cast<double>(ns) / 1e6, 4);
}

}  // namespace

std::string json_quoted(std::string_view s) {
  std::string out = "\"";
  json_escape(out, s);
  out += '"';
  return out;
}

Telemetry::Telemetry(TelemetryConfig config, Clock* clock)
    : config_(config),
      clock_(clock != nullptr ? clock : &steady_clock_),
      epoch_ns_(clock_->now_ns()),
      id_(g_instance_id.fetch_add(1, std::memory_order_relaxed)) {}

Telemetry::~Telemetry() {
  // Installing scopes must unwind before the instance dies; if one did
  // not (programming error), fail closed rather than dangle.
  Telemetry* self = this;
  g_active.compare_exchange_strong(self, nullptr);
}

Telemetry* Telemetry::active() noexcept {
  return g_active.load(std::memory_order_relaxed);
}

void Telemetry::set_thread_track(int index, std::string label) {
  t_hint.index = index;
  t_hint.label = std::move(label);
  // The hint names the *thread*, not a recorded track: drop any cached
  // track so the next span re-resolves under the new identity.
  t_track_cache = {};
}

Telemetry::ThreadTrack& Telemetry::track() {
  if (t_track_cache.owner == this && t_track_cache.owner_id == id_) {
    return *static_cast<ThreadTrack*>(t_track_cache.track);
  }
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(tracks_mutex_);
  for (auto& existing : tracks_) {
    if (existing.thread == self) {
      t_track_cache = {this, id_, &existing};
      return existing;
    }
  }
  if (t_hint.index < 0) {
    t_hint.index = g_anonymous_index.fetch_add(1, std::memory_order_relaxed);
    t_hint.label = "thread " + std::to_string(t_hint.index);
  }
  tracks_.push_back(ThreadTrack{self, t_hint.index, t_hint.label, 0, {}});
  t_track_cache = {this, id_, &tracks_.back()};
  return tracks_.back();
}

std::vector<const Telemetry::ThreadTrack*> Telemetry::sorted_tracks() const {
  std::lock_guard<std::mutex> lock(tracks_mutex_);
  std::vector<const ThreadTrack*> sorted;
  sorted.reserve(tracks_.size());
  for (const auto& track : tracks_) sorted.push_back(&track);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ThreadTrack* a, const ThreadTrack* b) {
                     return a->index < b->index;
                   });
  return sorted;
}

std::vector<SpanStat> Telemetry::span_stats() const {
  // Merge in worker-index order (sorted_tracks), then emit in name order:
  // both orders are schedule-independent, so the aggregate is
  // deterministic whenever the recorded durations are.
  std::map<std::string, SpanStat> by_name;
  for (const ThreadTrack* track : sorted_tracks()) {
    for (const SpanEvent& span : track->spans) {
      SpanStat& stat = by_name[span.name];
      stat.name = span.name;
      ++stat.count;
      stat.total_ns += span.dur_ns;
    }
  }
  std::vector<SpanStat> out;
  out.reserve(by_name.size());
  for (auto& [name, stat] : by_name) out.push_back(std::move(stat));
  return out;
}

std::string Telemetry::summary() const {
  std::string out = "Telemetry summary\n";

  const auto stats = span_stats();
  if (!stats.empty()) {
    AsciiTable spans;
    spans.set_header({"span", "count", "total ms", "mean ms"});
    for (const SpanStat& stat : stats) {
      spans.add_row({stat.name, std::to_string(stat.count),
                     format_ms(stat.total_ns),
                     format_ms(stat.count > 0 ? stat.total_ns / stat.count
                                              : 0)});
    }
    out += spans.to_string();
  }

  AsciiTable metrics;
  metrics.set_header({"metric", "kind", "value"});
  for (const auto& [name, value] : metrics_.counter_values()) {
    metrics.add_row({name, "counter", std::to_string(value)});
  }
  for (const auto& gauge : metrics_.gauge_values()) {
    metrics.add_row({gauge.name, "gauge",
                     std::to_string(gauge.value) + " (max " +
                         std::to_string(gauge.max) + ")"});
  }
  // Families: one row per live slot plus a bare-name total/merged row, so
  // the un-labeled name keeps meaning what it always did.
  for (const auto& family : metrics_.counter_family_values()) {
    for (std::size_t i = 0; i < family.values.size(); ++i) {
      if (family.values[i] == 0) continue;
      metrics.add_row({family_slot_name(family.name, family.label_key, i),
                       "counter", std::to_string(family.values[i])});
    }
    metrics.add_row({family.name, "counter", std::to_string(family.total)});
  }
  for (const auto& family : metrics_.gauge_family_values()) {
    for (const auto& [label, slot] : family.slots) {
      metrics.add_row({family_slot_name(family.name, family.label_key, label),
                       "gauge",
                       std::to_string(slot.value) + " (max " +
                           std::to_string(slot.max) + ")"});
    }
  }
  const auto hdr_row = [](const HdrSnapshot& snapshot) {
    return "n=" + std::to_string(snapshot.count) +
           " p50=" + std::to_string(snapshot.q.p50) +
           " p90=" + std::to_string(snapshot.q.p90) +
           " p99=" + std::to_string(snapshot.q.p99) +
           " p999=" + std::to_string(snapshot.q.p999) +
           " max=" + std::to_string(snapshot.max);
  };
  for (const auto& family : metrics_.hdr_family_values()) {
    for (const auto& [label, snapshot] : family.slots) {
      metrics.add_row({family_slot_name(family.name, family.label_key, label),
                       "hdr", hdr_row(snapshot)});
    }
    metrics.add_row({family.name, "hdr", hdr_row(family.merged)});
  }
  if (metrics.rows() > 0) out += metrics.to_string();
  return out;
}

std::string Telemetry::to_jsonl() const {
  std::string out;
  for (const ThreadTrack* track : sorted_tracks()) {
    for (const SpanEvent& span : track->spans) {
      out += "{\"type\":\"span\",\"name\":" + json_quoted(span.name) +
             ",\"tid\":" + std::to_string(track->index) +
             ",\"thread\":" + json_quoted(track->label) +
             ",\"start_ns\":" + std::to_string(span.start_ns) +
             ",\"dur_ns\":" + std::to_string(span.dur_ns) +
             ",\"depth\":" + std::to_string(span.depth) +
             ",\"detail\":" + std::to_string(span.detail) + "}\n";
    }
  }
  for (const auto& [name, value] : metrics_.counter_values()) {
    out += "{\"type\":\"counter\",\"name\":" + json_quoted(name) +
           ",\"value\":" + std::to_string(value) + "}\n";
  }
  for (const auto& gauge : metrics_.gauge_values()) {
    out += "{\"type\":\"gauge\",\"name\":" + json_quoted(gauge.name) +
           ",\"value\":" + std::to_string(gauge.value) +
           ",\"max\":" + std::to_string(gauge.max) + "}\n";
  }
  for (const auto& family : metrics_.counter_family_values()) {
    for (std::size_t i = 0; i < family.values.size(); ++i) {
      if (family.values[i] == 0) continue;
      out += "{\"type\":\"counter\",\"name\":" +
             json_quoted(family_slot_name(family.name, family.label_key, i)) +
             ",\"value\":" + std::to_string(family.values[i]) + "}\n";
    }
    out += "{\"type\":\"counter\",\"name\":" + json_quoted(family.name) +
           ",\"value\":" + std::to_string(family.total) + "}\n";
  }
  for (const auto& family : metrics_.gauge_family_values()) {
    for (const auto& [label, slot] : family.slots) {
      out += "{\"type\":\"gauge\",\"name\":" +
             json_quoted(
                 family_slot_name(family.name, family.label_key, label)) +
             ",\"value\":" + std::to_string(slot.value) +
             ",\"max\":" + std::to_string(slot.max) + "}\n";
    }
  }
  const auto hdr_line = [](const std::string& name,
                           const HdrSnapshot& snapshot) {
    return "{\"type\":\"hdr\",\"name\":" + json_quoted(name) +
           ",\"count\":" + std::to_string(snapshot.count) +
           ",\"sum\":" + std::to_string(snapshot.sum) +
           ",\"min\":" + std::to_string(snapshot.min) +
           ",\"max\":" + std::to_string(snapshot.max) +
           ",\"overflow\":" + std::to_string(snapshot.overflow) +
           ",\"p50\":" + std::to_string(snapshot.q.p50) +
           ",\"p90\":" + std::to_string(snapshot.q.p90) +
           ",\"p99\":" + std::to_string(snapshot.q.p99) +
           ",\"p999\":" + std::to_string(snapshot.q.p999) + "}\n";
  };
  for (const auto& family : metrics_.hdr_family_values()) {
    for (const auto& [label, snapshot] : family.slots) {
      out += hdr_line(family_slot_name(family.name, family.label_key, label),
                      snapshot);
    }
    out += hdr_line(family.name, family.merged);
  }
  return out;
}

std::string Telemetry::to_chrome_trace() const {
  // Trace-event format: "M" metadata rows name the process and the
  // per-worker tracks, "X" complete events carry the spans.  Timestamps
  // are microseconds (the format's unit) with nanosecond decimals.
  const auto us = [](std::uint64_t ns) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.3f",
                  static_cast<double>(ns) / 1e3);
    return std::string(buffer);
  };

  std::string out = "{\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"hbmvolt\"}}";
  for (const ThreadTrack* track : sorted_tracks()) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(track->index) +
           ",\"args\":{\"name\":" + json_quoted(track->label) + "}}";
    out += ",\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":" +
           std::to_string(track->index) +
           ",\"args\":{\"sort_index\":" + std::to_string(track->index) +
           "}}";
  }
  for (const ThreadTrack* track : sorted_tracks()) {
    for (const SpanEvent& span : track->spans) {
      out += ",\n{\"name\":" + json_quoted(span.name) +
             ",\"ph\":\"X\",\"pid\":1,\"tid\":" +
             std::to_string(track->index) + ",\"ts\":" + us(span.start_ns) +
             ",\"dur\":" + us(span.dur_ns) +
             ",\"args\":{\"detail\":" + std::to_string(span.detail) + "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

ScopedTelemetry::ScopedTelemetry(Telemetry& telemetry)
    : previous_(g_active.load(std::memory_order_relaxed)) {
  // Default the installing thread to track 0 ("main") unless it already
  // chose an identity.
  if (t_hint.index < 0) Telemetry::set_thread_track(0, "main");
  g_active.store(telemetry.config_.enabled ? &telemetry : nullptr,
                 std::memory_order_relaxed);
}

ScopedTelemetry::~ScopedTelemetry() {
  g_active.store(previous_, std::memory_order_relaxed);
}

Span::Span(const char* name, std::int64_t detail)
    : telemetry_(Telemetry::active()), name_(name), detail_(detail) {
  if (telemetry_ == nullptr) return;
  depth_ = telemetry_->track().depth++;
  start_ns_ = telemetry_->clock().now_ns();
}

Span::~Span() {
  if (telemetry_ == nullptr) return;
  const std::uint64_t end = telemetry_->clock().now_ns();
  Telemetry::ThreadTrack& track = telemetry_->track();
  --track.depth;
  track.spans.push_back(SpanEvent{
      name_, start_ns_ - telemetry_->epoch_ns_,
      end >= start_ns_ ? end - start_ns_ : 0, depth_, detail_});
}

}  // namespace hbmvolt::telemetry
