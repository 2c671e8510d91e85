// Unit tests for src/common: status, units, RNG, PRP, statistics, tables.

#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/log.hpp"
#include "common/plot.hpp"
#include "common/prp.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace hbmvolt {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = unavailable("stack crashed");
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(status.message(), "stack crashed");
  EXPECT_EQ(status.to_string(), "UNAVAILABLE: stack crashed");
}

TEST(StatusTest, FactoryHelpersProduceExpectedCodes) {
  EXPECT_EQ(invalid_argument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out_of_range("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(data_loss("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(failed_precondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(not_found("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(internal_error("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(unavailable("a"), unavailable("b"));
  EXPECT_FALSE(unavailable("a") == not_found("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(result.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(not_found("missing"));
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValueWorks) {
  Result<std::unique_ptr<int>> result(std::make_unique<int>(7));
  ASSERT_TRUE(result.is_ok());
  auto ptr = std::move(result).value();
  EXPECT_EQ(*ptr, 7);
}

// ----------------------------------------------------------------- Units

TEST(UnitsTest, MillivoltsToVolts) {
  EXPECT_DOUBLE_EQ(Millivolts{1200}.volts(), 1.2);
  EXPECT_DOUBLE_EQ(Millivolts{0}.volts(), 0.0);
  EXPECT_DOUBLE_EQ(Millivolts{-50}.volts(), -0.05);
}

TEST(UnitsTest, FromVoltsRounds) {
  EXPECT_EQ(from_volts(0.98).value, 980);
  EXPECT_EQ(from_volts(1.2004).value, 1200);
  EXPECT_EQ(from_volts(1.2006).value, 1201);
}

TEST(UnitsTest, MillivoltArithmeticAndComparison) {
  EXPECT_EQ((Millivolts{1200} - Millivolts{220}).value, 980);
  EXPECT_EQ((Millivolts{900} + Millivolts{50}).value, 950);
  EXPECT_LT(Millivolts{810}, Millivolts{980});
  EXPECT_GE(Millivolts{980}, Millivolts{980});
}

TEST(UnitsTest, QuantityArithmetic) {
  const Watts a{10.0};
  const Watts b{2.5};
  EXPECT_DOUBLE_EQ((a + b).value, 12.5);
  EXPECT_DOUBLE_EQ((a - b).value, 7.5);
  EXPECT_DOUBLE_EQ((a * 2.0).value, 20.0);
  EXPECT_DOUBLE_EQ((2.0 * a).value, 20.0);
  EXPECT_DOUBLE_EQ((a / 4.0).value, 2.5);
  EXPECT_DOUBLE_EQ(a / b, 4.0);  // ratio is dimensionless
}

TEST(UnitsTest, ElectricalHelpers) {
  EXPECT_DOUBLE_EQ(power_from(Millivolts{1000}, Amps{3.0}).value, 3.0);
  EXPECT_DOUBLE_EQ(current_from(Watts{24.0}, Millivolts{1200}).value, 20.0);
  EXPECT_DOUBLE_EQ(energy_from(Watts{5.0}, Seconds{2.0}).value, 10.0);
}

TEST(UnitsTest, SimTimeConversion) {
  EXPECT_DOUBLE_EQ(to_seconds(kPicosPerSecond).value, 1.0);
  EXPECT_DOUBLE_EQ(to_seconds(kPicosPerSecond / 2).value, 0.5);
}

// ------------------------------------------------------------------- RNG

TEST(RngTest, SplitMixIsDeterministic) {
  EXPECT_EQ(splitmix64(1), splitmix64(1));
  EXPECT_NE(splitmix64(1), splitmix64(2));
}

TEST(RngTest, MixSeedSeparatesStreams) {
  EXPECT_NE(mix_seed(7, 0), mix_seed(7, 1));
  EXPECT_NE(mix_seed(7, 0), mix_seed(8, 0));
  EXPECT_EQ(mix_seed(7, 3), mix_seed(7, 3));
}

TEST(RngTest, XoshiroDeterministicPerSeed) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, UniformInUnitInterval) {
  Xoshiro256 rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Xoshiro256 rng(42);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, BoundedIsUnbiasedEnough) {
  Xoshiro256 rng(9);
  std::array<int, 5> counts{};
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) ++counts[rng.bounded(5)];
  for (const int c : counts) {
    EXPECT_NEAR(c, draws / 5, draws / 5 * 0.1);
  }
}

TEST(RngTest, BoundedZeroAndOne) {
  Xoshiro256 rng(9);
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(RngTest, NormalHasStandardMoments) {
  Xoshiro256 rng(7);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Xoshiro256 rng(11);
  int hits = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.01);
}

// ------------------------------------------------------------------- PRP

class PrpBijectionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrpBijectionTest, ForwardIsBijective) {
  const std::uint64_t n = GetParam();
  FeistelPermutation prp(n, 0xABCDEF);
  std::set<std::uint64_t> seen;
  for (std::uint64_t x = 0; x < n; ++x) {
    const std::uint64_t y = prp.forward(x);
    EXPECT_LT(y, n);
    EXPECT_TRUE(seen.insert(y).second) << "duplicate image " << y;
  }
  EXPECT_EQ(seen.size(), n);
}

TEST_P(PrpBijectionTest, InverseUndoesForward) {
  const std::uint64_t n = GetParam();
  FeistelPermutation prp(n, 0x1234);
  for (std::uint64_t x = 0; x < n; ++x) {
    EXPECT_EQ(prp.inverse(prp.forward(x)), x);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrpBijectionTest,
                         ::testing::Values(1, 2, 3, 7, 16, 100, 257, 1024,
                                           4099));

TEST(PrpTest, DifferentSeedsGiveDifferentPermutations) {
  FeistelPermutation a(1000, 1);
  FeistelPermutation b(1000, 2);
  int same = 0;
  for (std::uint64_t x = 0; x < 1000; ++x) {
    same += a.forward(x) == b.forward(x) ? 1 : 0;
  }
  EXPECT_LT(same, 50);  // a random bijection pair agrees ~1/n per point
}

TEST(PrpTest, PermutationActuallyScrambles) {
  FeistelPermutation prp(4096, 99);
  int fixed_points = 0;
  for (std::uint64_t x = 0; x < 4096; ++x) {
    fixed_points += prp.forward(x) == x ? 1 : 0;
  }
  EXPECT_LT(fixed_points, 40);
}

// ----------------------------------------------------------------- Stats

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, MatchesDirectComputation) {
  RunningStats stats;
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0.0;
  for (const double x : xs) {
    stats.add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double ss = 0.0;
  for (const double x : xs) ss += (x - mean) * (x - mean);
  EXPECT_DOUBLE_EQ(stats.mean(), mean);
  EXPECT_NEAR(stats.variance(), ss / (xs.size() - 1), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 16.0);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-10, 10);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.add(3.0);
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(StatsTest, InverseNormalKnownValues) {
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(inverse_normal_cdf(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(inverse_normal_cdf(0.95), 1.644854, 1e-4);
  EXPECT_NEAR(inverse_normal_cdf(0.005), -2.575829, 1e-4);
}

TEST(StatsTest, ZCriticalValues) {
  EXPECT_NEAR(z_critical(0.90), 1.645, 1e-3);
  EXPECT_NEAR(z_critical(0.95), 1.960, 1e-3);
  EXPECT_NEAR(z_critical(0.99), 2.576, 1e-3);
}

TEST(StatsTest, ConfidenceIntervalShrinksWithSamples) {
  RunningStats small;
  RunningStats large;
  Xoshiro256 rng(3);
  for (int i = 0; i < 10; ++i) small.add(rng.normal());
  for (int i = 0; i < 1000; ++i) large.add(rng.normal());
  const auto ci_small = mean_confidence_interval(small, 0.95);
  const auto ci_large = mean_confidence_interval(large, 0.95);
  EXPECT_GT(ci_small.half_width, ci_large.half_width);
  EXPECT_LE(ci_large.lower, ci_large.upper);
}

// The paper's sizing: 130 runs <-> ~7% error at 90% confidence (worst-case
// p = 0.5, effectively infinite population).
TEST(StatsTest, PaperSampleSizeAnchor) {
  const std::size_t runs = required_runs(0.07, 0.90);
  EXPECT_NEAR(static_cast<double>(runs), 139.0, 10.0);
  const double error = achieved_error_margin(130, 0.90);
  EXPECT_NEAR(error, 0.072, 0.005);
}

TEST(StatsTest, FinitePopulationNeedsFewerRuns) {
  const std::size_t infinite = required_runs(0.05, 0.95);
  const std::size_t finite = required_runs(0.05, 0.95, 1000);
  EXPECT_LT(finite, infinite);
  EXPECT_LE(finite, 1000u);
}

TEST(StatsTest, ErrorMarginInvertsRequiredRuns) {
  const double error = 0.05;
  const std::size_t runs = required_runs(error, 0.90, 100000);
  const double back = achieved_error_margin(runs, 0.90, 100000);
  EXPECT_NEAR(back, error, 0.003);
}

TEST(StatsTest, SmallerErrorNeedsMoreRuns) {
  EXPECT_GT(required_runs(0.01, 0.90), required_runs(0.05, 0.90));
  EXPECT_GT(required_runs(0.05, 0.99), required_runs(0.05, 0.90));
}

TEST(HistogramTest, CountsPerBin) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(i / 10.0);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.count(0), 10u);
}

TEST(HistogramTest, ClampsOutOfRange) {
  Histogram h(0.0, 1.0, 4);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 1u);
}

TEST(HistogramTest, BinEdges) {
  Histogram h(0.0, 8.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lower(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lower(3), 6.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(3), 8.0);
}

// ----------------------------------------------------------------- Table

TEST(AsciiTableTest, RendersAlignedGrid) {
  AsciiTable table;
  table.set_header({"a", "long header"});
  table.add_row({"1", "2"});
  table.add_row({"333", "4"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| a   | long header |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4           |"), std::string::npos);
}

TEST(AsciiTableTest, HandlesRaggedRows) {
  AsciiTable table;
  table.set_header({"x"});
  table.add_row({"1", "2", "3"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find('3'), std::string::npos);
}

TEST(CsvTest, EscapesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.write_row({"plain", "with,comma", "with\"quote", "multi\nline"});
  EXPECT_EQ(os.str(),
            "plain,\"with,comma\",\"with\"\"quote\",\"multi\nline\"\n");
}

TEST(FormatTest, FormatDouble) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(0.123456, 3), "0.123");
}

TEST(FormatTest, FormatMillivolts) {
  EXPECT_EQ(format_millivolts(1200), "1.20V");
  EXPECT_EQ(format_millivolts(985), "0.98V");  // two decimals, rounds
}

// ------------------------------------------------------------------ Plot

TEST(AsciiChartTest, EmptyChartRendersPlaceholder) {
  AsciiChart chart(ChartOptions{});
  EXPECT_EQ(chart.render(), "(no data)\n");
}

TEST(AsciiChartTest, ExtremesLandInCorners) {
  ChartOptions options;
  options.width = 20;
  options.height = 5;
  AsciiChart chart(options);
  chart.add_series('*', {{0.0, 0.0}, {1.0, 1.0}});
  const std::string out = chart.render();
  std::vector<std::string> lines;
  std::istringstream is(out);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  // Top row holds the max point at the right edge; bottom plot row holds
  // the min point at the left edge.
  EXPECT_EQ(lines[0].back(), '*');
  EXPECT_EQ(lines[4][lines[4].find('|') + 1], '*');
}

TEST(AsciiChartTest, LogAxisDropsNonPositiveValues) {
  ChartOptions options;
  options.width = 16;
  options.height = 4;
  options.y_log = true;
  AsciiChart chart(options);
  chart.add_series('x', {{0.0, 0.0}, {1.0, 1e-3}, {2.0, 1.0}});
  const std::string out = chart.render();
  // Only the two positive points are drawn.
  EXPECT_EQ(std::count(out.begin(), out.end(), 'x'), 2);
}

TEST(AsciiChartTest, LaterSeriesOverdraw) {
  ChartOptions options;
  options.width = 10;
  options.height = 4;
  AsciiChart chart(options);
  chart.add_series('a', {{0.0, 0.5}, {1.0, 0.5}});
  chart.add_series('b', {{0.0, 0.5}});
  const std::string out = chart.render();
  EXPECT_NE(out.find('b'), std::string::npos);
  EXPECT_NE(out.find('a'), std::string::npos);
}

TEST(AsciiChartTest, AxisLabelsAppear) {
  ChartOptions options;
  options.width = 12;
  options.height = 4;
  options.x_label = "volts";
  options.y_label = "watts";
  AsciiChart chart(options);
  chart.add_series('.', {{0.8, 10.0}, {1.2, 26.0}});
  const std::string out = chart.render();
  EXPECT_NE(out.find("volts"), std::string::npos);
  EXPECT_NE(out.find("watts"), std::string::npos);
  EXPECT_NE(out.find("0.8"), std::string::npos);
  EXPECT_NE(out.find("1.2"), std::string::npos);
}

TEST(AsciiChartTest, FlatSeriesDoesNotDivideByZero) {
  ChartOptions options;
  options.width = 12;
  options.height = 4;
  AsciiChart chart(options);
  chart.add_series('=', {{1.0, 5.0}, {2.0, 5.0}});
  const std::string out = chart.render();
  EXPECT_NE(out.find('='), std::string::npos);
}

// ------------------------------------------------------------------- Log

TEST(LogTest, ParseLogLevelNamesAndNumbers) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("0"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("4"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("loud"), std::nullopt);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
}

TEST(LogTest, EnvironmentOverridesProgrammaticLevel) {
  const LogLevel before = log_level();

  ::setenv("HBMVOLT_LOG_LEVEL", "debug", 1);
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kDebug);

  // An unparsable value falls back to the programmatic setting.
  ::setenv("HBMVOLT_LOG_LEVEL", "shouty", 1);
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);

  ::unsetenv("HBMVOLT_LOG_LEVEL");
  set_log_level(before);
  EXPECT_EQ(log_level(), before);
}

}  // namespace
}  // namespace hbmvolt
