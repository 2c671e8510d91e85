// Tests for the telemetry subsystem: metric registry semantics and
// concurrency, span nesting (including exception unwind), the JSONL and
// Chrome-trace sinks, the disabled-registry no-op guarantee, and -- the
// load-bearing one -- proof that telemetry never changes campaign results
// (byte-identical figures with telemetry on vs off, serial and pooled).

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "board/vcu128.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "core/voltage_sweep.hpp"
#include "telemetry/telemetry.hpp"

namespace hbmvolt::telemetry {
namespace {

// ------------------------------------------------------------- registry

TEST(MetricRegistryTest, CounterGaugeBasics) {
  MetricRegistry registry;
  registry.counter("a").add();
  registry.counter("a").add(4);
  EXPECT_EQ(registry.counter("a").value(), 5u);

  registry.gauge("depth").set(3);
  registry.gauge("depth").set(7);
  registry.gauge("depth").set(2);
  EXPECT_EQ(registry.gauge("depth").value(), 2);
  EXPECT_EQ(registry.gauge("depth").max(), 7);

  // Snapshots iterate in name order regardless of registration order.
  registry.counter("z").add();
  registry.counter("b").add();
  const auto counters = registry.counter_values();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].first, "a");
  EXPECT_EQ(counters[1].first, "b");
  EXPECT_EQ(counters[2].first, "z");
}

TEST(MetricRegistryTest, ConcurrentUpdatesMatchSerialTotal) {
  MetricRegistry registry;
  constexpr unsigned kThreads = 8;
  constexpr unsigned kIters = 20000;

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Registration races with updates on purpose: every thread looks
      // the metrics up by name on each iteration.
      for (unsigned i = 0; i < kIters; ++i) {
        registry.counter("hits").add(i % 7);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // sum of (i % 7) over one thread's iterations, times the thread count.
  std::uint64_t serial_sum = 0;
  for (unsigned i = 0; i < kIters; ++i) serial_sum += i % 7;
  EXPECT_EQ(registry.counter("hits").value(), serial_sum * kThreads);
}

// ---------------------------------------------------- spans and install

/// Splits a sink string into its non-empty lines.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Minimal flat-JSON-object parser for round-trip tests: returns key ->
/// raw value text (strings without their quotes).  Fails the test on any
/// syntax error, so a malformed sink line cannot slip through.
std::map<std::string, std::string> parse_flat_json(const std::string& line) {
  std::map<std::string, std::string> fields;
  std::size_t i = 0;
  const auto fail = [&](const char* what) {
    ADD_FAILURE() << what << " at byte " << i << " in: " << line;
  };
  const auto skip_string = [&]() -> std::string {
    std::string out;
    ++i;  // opening quote
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') {
        ++i;
        switch (line[i]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: out += line[i];
        }
        ++i;
        continue;
      }
      out += line[i++];
    }
    ++i;  // closing quote
    return out;
  };
  const auto skip_scalar = [&]() -> std::string {
    const std::size_t start = i;
    while (i < line.size() && line[i] != ',' && line[i] != '}' &&
           line[i] != ']') {
      ++i;
    }
    return line.substr(start, i - start);
  };

  if (line.empty() || line[0] != '{') {
    fail("expected '{'");
    return fields;
  }
  i = 1;
  while (i < line.size() && line[i] != '}') {
    if (line[i] != '"') {
      fail("expected key quote");
      return fields;
    }
    const std::string key = skip_string();
    if (i >= line.size() || line[i] != ':') {
      fail("expected ':'");
      return fields;
    }
    ++i;
    std::string value;
    if (line[i] == '"') {
      value = skip_string();
    } else if (line[i] == '[') {
      const std::size_t start = i;
      while (i < line.size() && line[i] != ']') ++i;
      ++i;
      value = line.substr(start, i - start);
    } else {
      value = skip_scalar();
    }
    fields[key] = value;
    if (i < line.size() && line[i] == ',') ++i;
  }
  if (i >= line.size() || line[i] != '}') fail("expected '}'");
  return fields;
}

TEST(SpanTest, NestedSpansRecordDepthAndManualClockDurations) {
  ManualClock clock;
  Telemetry telemetry({.enabled = true}, &clock);
  {
    ScopedTelemetry scoped(telemetry);
    ASSERT_EQ(Telemetry::active(), &telemetry);
    Span outer("outer", 42);
    clock.advance_ns(5000);
    {
      Span inner("inner");
      clock.advance_ns(3000);
    }
    clock.advance_ns(1000);
  }

  const auto stats = telemetry.span_stats();
  ASSERT_EQ(stats.size(), 2u);  // name order: inner, outer
  EXPECT_EQ(stats[0].name, "inner");
  EXPECT_EQ(stats[0].count, 1u);
  EXPECT_EQ(stats[0].total_ns, 3000u);
  EXPECT_EQ(stats[1].name, "outer");
  EXPECT_EQ(stats[1].total_ns, 9000u);

  // The JSONL stream carries nesting depth and the detail scalar.
  for (const std::string& line : lines_of(telemetry.to_jsonl())) {
    const auto fields = parse_flat_json(line);
    if (fields.at("name") == "inner") {
      EXPECT_EQ(fields.at("depth"), "1");
      EXPECT_EQ(fields.at("start_ns"), "5000");
    } else if (fields.at("name") == "outer") {
      EXPECT_EQ(fields.at("depth"), "0");
      EXPECT_EQ(fields.at("detail"), "42");
    }
  }
}

TEST(SpanTest, SpansUnwindOnException) {
  ManualClock clock;
  Telemetry telemetry({.enabled = true}, &clock);
  ScopedTelemetry scoped(telemetry);

  try {
    Span outer("outer");
    clock.advance_ns(100);
    Span inner("inner");
    clock.advance_ns(10);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  // Depth must be back at 0: a span recorded after the unwind is a root.
  { Span after("after"); }

  for (const std::string& line : lines_of(telemetry.to_jsonl())) {
    const auto fields = parse_flat_json(line);
    if (fields.at("type") != "span") continue;
    if (fields.at("name") == "inner") {
      EXPECT_EQ(fields.at("depth"), "1");
    }
    if (fields.at("name") == "outer") {
      EXPECT_EQ(fields.at("depth"), "0");
    }
    if (fields.at("name") == "after") {
      EXPECT_EQ(fields.at("depth"), "0");
    }
  }
  ASSERT_EQ(telemetry.span_stats().size(), 3u);
}

TEST(ScopedTelemetryTest, DisabledInstanceInstallsNothing) {
  Telemetry telemetry({.enabled = false});
  {
    ScopedTelemetry scoped(telemetry);
    EXPECT_EQ(Telemetry::active(), nullptr);
    // All recording paths must be silent no-ops.
    Span span("ignored");
    if (auto* tel = Telemetry::active()) tel->count("never");
  }
  EXPECT_TRUE(telemetry.metrics().counter_values().empty());
  EXPECT_TRUE(telemetry.span_stats().empty());
  EXPECT_EQ(telemetry.summary(), "Telemetry summary\n");
}

TEST(ScopedTelemetryTest, RestoresPreviousInstanceOnExit) {
  Telemetry outer_instance({.enabled = true});
  ScopedTelemetry outer(outer_instance);
  ASSERT_EQ(Telemetry::active(), &outer_instance);
  {
    Telemetry inner_instance({.enabled = true});
    ScopedTelemetry inner(inner_instance);
    EXPECT_EQ(Telemetry::active(), &inner_instance);
  }
  EXPECT_EQ(Telemetry::active(), &outer_instance);
}

// ----------------------------------------------------------------- sinks

TEST(SinkTest, JsonlRoundTripsEveryRecordType) {
  ManualClock clock;
  Telemetry telemetry({.enabled = true}, &clock);
  ScopedTelemetry scoped(telemetry);
  {
    Span span("phase \"one\"\n", -3);  // name needs escaping
    clock.advance_ns(1500);
  }
  telemetry.count("beats", 12345678901234ull);
  telemetry.gauge_set("queue", 4);
  HdrHistogram lat;
  lat.record(15);
  telemetry.metrics().hdr_family("lat", "pc", 1).merge_into(0, lat);

  // The hdr family writes its slot line, then its bare-name merged line.
  const auto lines = lines_of(telemetry.to_jsonl());
  ASSERT_EQ(lines.size(), 5u);
  std::map<std::string, std::map<std::string, std::string>> by_type;
  for (const std::string& line : lines) {
    auto fields = parse_flat_json(line);
    by_type[fields.at("type")] = std::move(fields);
  }

  EXPECT_EQ(by_type.at("span").at("name"), "phase \"one\"\n");
  EXPECT_EQ(by_type.at("span").at("dur_ns"), "1500");
  EXPECT_EQ(by_type.at("span").at("detail"), "-3");
  EXPECT_EQ(by_type.at("counter").at("name"), "beats");
  EXPECT_EQ(by_type.at("counter").at("value"), "12345678901234");
  EXPECT_EQ(by_type.at("gauge").at("value"), "4");
  EXPECT_EQ(by_type.at("gauge").at("max"), "4");
  EXPECT_EQ(by_type.at("hdr").at("name"), "lat");
  EXPECT_EQ(by_type.at("hdr").at("count"), "1");
  EXPECT_EQ(by_type.at("hdr").at("sum"), "15");
}

TEST(SinkTest, SummaryListsSpansAndMetrics) {
  ManualClock clock;
  Telemetry telemetry({.enabled = true}, &clock);
  ScopedTelemetry scoped(telemetry);
  {
    Span span("sweep.step");
    clock.advance_ns(2'000'000);
  }
  telemetry.count("tg.beats_written", 512);

  const std::string summary = telemetry.summary();
  EXPECT_NE(summary.find("sweep.step"), std::string::npos);
  EXPECT_NE(summary.find("tg.beats_written"), std::string::npos);
  EXPECT_NE(summary.find("512"), std::string::npos);
}

// --------------------------------------- the never-alter-results proof

board::BoardConfig tiny_board() {
  board::BoardConfig config;
  config.geometry = hbm::HbmGeometry::test_tiny();
  config.monitor_config.noise_sigma_amps = 0.0;
  return config;
}

core::CampaignConfig fast_campaign(bool telemetry_on, unsigned threads) {
  core::CampaignConfig config;
  config.reliability.sweep = {Millivolts{1200}, Millivolts{800}, 20};
  config.reliability.batch_size = 1;
  config.power.sweep = {Millivolts{1200}, Millivolts{850}, 50};
  config.power.samples = 2;
  config.power.traffic_beats = 4;
  config.dry_run = true;
  config.threads = threads;
  config.telemetry.enabled = telemetry_on;
  return config;
}

/// Every figure CSV of one campaign run, concatenated.
std::string campaign_figures(bool telemetry_on, unsigned threads) {
  board::Vcu128Board board(tiny_board());
  core::Campaign campaign(board, fast_campaign(telemetry_on, threads));
  auto result = campaign.run();
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  if (!result.is_ok()) return {};
  const auto& r = result.value();
  return core::to_csv_fig2(r.power) + core::to_csv_fig4(r.fault_map) +
         core::to_csv_fig5(r.fault_map);
}

// The sweep.step span is the only per-step timing (perfbench reads its
// median as core.sweep_step_ms_p50): every grid point the sweep visits
// opens one, whether its body ran (sweep.steps) or the stack crashed
// (sweep.crashes).
TEST(SweepTelemetryTest, OneStepSpanPerVisitedGridPoint) {
  board::Vcu128Board board(tiny_board());
  Telemetry telemetry({.enabled = true});
  ScopedTelemetry scoped(telemetry);
  core::VoltageSweep sweep(board, {Millivolts{830}, Millivolts{790}, 10},
                           core::CrashPolicy::kPowerCycleAndContinue);
  unsigned bodies = 0;
  ASSERT_TRUE(sweep.run([&](Millivolts) { ++bodies; }).is_ok());

  std::map<std::string, std::uint64_t> counters;
  for (const auto& [name, value] : telemetry.metrics().counter_values()) {
    counters[name] = value;
  }
  std::uint64_t step_spans = 0;
  for (const SpanStat& stat : telemetry.span_stats()) {
    if (stat.name == "sweep.step") step_spans = stat.count;
  }
  EXPECT_EQ(bodies, 3u);  // 830, 820, 810; 800 and 790 crash
  EXPECT_EQ(counters["sweep.steps"], bodies);
  EXPECT_EQ(counters["sweep.crashes"], 2u);
  EXPECT_EQ(step_spans, counters["sweep.steps"] + counters["sweep.crashes"]);
}

TEST(TelemetryNeutralityTest, FiguresByteIdenticalWithTelemetryOnOrOff) {
  for (const unsigned threads : {1u, 4u}) {
    const std::string with = campaign_figures(true, threads);
    const std::string without = campaign_figures(false, threads);
    ASSERT_FALSE(with.empty());
    EXPECT_EQ(with, without) << "telemetry altered figures at threads="
                             << threads;
  }
}

TEST(ChromeTraceTest, CampaignTraceHasOneTrackPerWorker) {
  namespace fs = std::filesystem;
  board::Vcu128Board board(tiny_board());
  auto config = fast_campaign(true, 4);
  config.dry_run = false;
  config.output_dir =
      (fs::temp_directory_path() / "hbmvolt_telemetry_trace_test").string();
  fs::remove_all(config.output_dir);

  core::Campaign campaign(board, config);
  auto result = campaign.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  std::ifstream in(fs::path(config.output_dir) / "trace.json");
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string trace = buffer.str();

  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  // The main thread and each of the 4 pool workers get a named track.
  for (const char* track : {"\"main\"", "\"worker 0\"", "\"worker 1\"",
                            "\"worker 2\"", "\"worker 3\""}) {
    EXPECT_NE(trace.find(track), std::string::npos) << track;
  }
  // Every span event is a complete ("X") event inside the array.
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);

  fs::remove_all(config.output_dir);
}

/// faults.order_scatter spans of one JSONL stream, per PC (span detail).
std::map<std::int64_t, unsigned> order_scatters(const std::string& jsonl) {
  std::map<std::int64_t, unsigned> per_pc;
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"name\":\"faults.order_scatter\"") == std::string::npos) {
      continue;
    }
    const std::size_t at = line.find("\"detail\":");
    if (at == std::string::npos) continue;
    ++per_pc[std::stoll(line.substr(at + 9))];
  }
  return per_pc;
}

// A weak-cell order keeps only its weakest bucket until a stuck count
// outgrows it.  At 950 mV every count of the default board fits, so a
// serving board there grows no order; a default campaign descends to 810
// mV and grows each PC's order once.
TEST(OrderScatterTelemetryTest, NoneAt950mVOnePerPcPerCampaign) {
  namespace fs = std::filesystem;
  {
    board::Vcu128Board board;
    Telemetry telemetry({.enabled = true});
    ScopedTelemetry scoped(telemetry);
    ASSERT_TRUE(board.set_hbm_voltage(Millivolts{950}).is_ok());
    for (unsigned s = 0; s < board.geometry().stacks; ++s) {
      for (unsigned pc = 0; pc < board.geometry().pcs_per_stack(); ++pc) {
        ASSERT_TRUE(board.stack(s).read_beat(pc, 0).is_ok());
      }
    }
    std::uint64_t builds = 0;
    std::uint64_t scatters = 0;
    for (const SpanStat& stat : telemetry.span_stats()) {
      if (stat.name == "faults.order_build") builds = stat.count;
      if (stat.name == "faults.order_scatter") scatters = stat.count;
    }
    EXPECT_GT(builds, 0u);  // the faulty PCs did build their orders
    EXPECT_EQ(scatters, 0u);
  }

  board::Vcu128Board board;
  core::CampaignConfig config;
  config.telemetry.enabled = true;
  config.output_dir =
      (fs::temp_directory_path() / "hbmvolt_order_scatter_test").string();
  fs::remove_all(config.output_dir);
  core::Campaign campaign(board, config);
  auto result = campaign.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  std::ifstream in(fs::path(config.output_dir) / "telemetry.jsonl");
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto per_pc = order_scatters(buffer.str());
  EXPECT_EQ(per_pc.size(), board.geometry().total_pcs());
  for (const auto& [pc, count] : per_pc) {
    EXPECT_EQ(count, 1u) << "pc " << pc;
  }
  fs::remove_all(config.output_dir);
}

}  // namespace
}  // namespace hbmvolt::telemetry
