// Unit tests for the util subsystem: RNG determinism and distributional
// sanity, streaming statistics, tables, CLI parsing, logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/cli.h"
#include "util/log.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace mecar::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 5.5);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, UniformRangeRejectsInverted) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformMeanApproximatesMidpoint) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.uniform(10.0, 20.0));
  EXPECT_NEAR(stats.mean(), 15.0, 0.1);
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSinglePoint) {
  Rng rng(13);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(19);
  const std::vector<double> weights{1.0, 3.0};
  int ones = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) ones += (rng.categorical(weights) == 1);
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(Rng, CategoricalRejectsDegenerateWeights) {
  Rng rng(19);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(rng.categorical(zero), std::invalid_argument);
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW(rng.categorical(negative), std::invalid_argument);
}

/// Reference categorical draw: sum the weights in index order, then
/// subtract them from one scaled uniform until it goes negative.
std::size_t reference_categorical(Rng& rng, const std::vector<double>& w) {
  double total = 0.0;
  for (double x : w) total += x;
  double target = rng.uniform() * total;
  for (std::size_t i = 0; i < w.size(); ++i) {
    target -= w[i];
    if (target < 0.0) return i;
  }
  return w.size() - 1;
}

TEST(Categorical, MatchesTheReferenceScanOverManyDraws) {
  std::vector<double> zipf(1000);
  for (std::size_t i = 0; i < zipf.size(); ++i) {
    zipf[i] = 1.0 / std::pow(static_cast<double>(i) + 1.0, 1.0);
  }
  const std::vector<std::vector<double>> cases{zipf,
                                               std::vector<double>(1000, 1.0)};
  for (const std::vector<double>& weights : cases) {
    const Categorical dist(weights);
    Rng reference(31), shared(31), member(31);
    for (int draw = 0; draw < 100000; ++draw) {
      const std::size_t want = reference_categorical(reference, weights);
      ASSERT_EQ(dist.sample(shared), want) << "draw " << draw;
      ASSERT_EQ(member.categorical(weights), want) << "draw " << draw;
    }
    EXPECT_EQ(shared.state(), reference.state());
    EXPECT_EQ(member.state(), reference.state());
  }
}

TEST(Categorical, RejectsZeroSumAndNegativeWeights) {
  const std::vector<double> zero{0.0, 0.0};
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW(Categorical{zero}, std::invalid_argument);
  EXPECT_THROW(Categorical{negative}, std::invalid_argument);
  EXPECT_THROW(Categorical{std::vector<double>{}}, std::invalid_argument);
  const std::vector<double> weights{0.25, 0.0, 0.5};
  EXPECT_EQ(Categorical(weights).total(), 0.75);
}

TEST(Rng, CategoricalOrNoneReturnsSizeForResidual) {
  Rng rng(23);
  const std::vector<double> weights{0.1, 0.1};  // 0.8 residual vs total 1.0
  int none = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    none += (rng.categorical_or_none(weights, 1.0) == weights.size());
  }
  EXPECT_NEAR(static_cast<double>(none) / n, 0.8, 0.02);
}

TEST(Rng, CategoricalOrNoneValidatesMass) {
  Rng rng(23);
  const std::vector<double> weights{0.9, 0.9};
  EXPECT_THROW(rng.categorical_or_none(weights, 1.0), std::invalid_argument);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, ExponentialRejectsNonpositiveRate) {
  Rng rng(29);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  Rng a2(42);
  Rng child2 = a2.split();
  EXPECT_EQ(child(), child2());  // deterministic
  EXPECT_NE(child(), a());       // but distinct from parent stream
}

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  const double mean_before = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean_before);
}

TEST(Quantile, InterpolatesLinearly) {
  const std::vector<double> v{0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.125), 0.5);
}

TEST(Quantile, RejectsBadInput) {
  const std::vector<double> empty;
  EXPECT_THROW(quantile(empty, 0.5), std::invalid_argument);
  const std::vector<double> v{1.0};
  EXPECT_THROW(quantile(v, 1.5), std::invalid_argument);
}

TEST(Quantile, UnsortedHelperSorts) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile_unsorted(v, 0.5), 2.0);
}

TEST(MeanSum, Basics) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.0);
  EXPECT_DOUBLE_EQ(sum(v), 6.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Table, AlignedOutputContainsCells) {
  Table t({"n", "reward"});
  t.add_numeric_row("100", {12.345}, 2);
  const std::string out = t.to_aligned();
  EXPECT_NE(out.find("reward"), std::string::npos);
  EXPECT_NE(out.find("12.35"), std::string::npos);
  EXPECT_NE(out.find("100"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, PrintEmitsCsvBlock) {
  Table t({"k", "v"});
  t.add_row({"a", "1"});
  std::ostringstream os;
  t.print(os, "demo");
  EXPECT_NE(os.str().find("== demo =="), std::string::npos);
  EXPECT_NE(os.str().find("csv:"), std::string::npos);
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(1.0 / 3.0, 3), "0.333");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Cli, ParsesEqualsAndBareFlagForms) {
  const char* argv[] = {"prog", "--n=5", "--rate=2.5", "--verbose", "pos"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int_or("n", 0), 5);
  EXPECT_DOUBLE_EQ(cli.get_double_or("rate", 0.0), 2.5);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_TRUE(cli.get_bool_or("verbose", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int_or("n", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double_or("x", 1.5), 1.5);
  EXPECT_FALSE(cli.has("x"));
  EXPECT_FALSE(cli.get("x").has_value());
  EXPECT_EQ(cli.get_or("name", "dflt"), "dflt");
}

TEST(Parse, DoubleConsumesTheWholeToken) {
  EXPECT_EQ(parse_double("2.5"), 2.5);
  EXPECT_EQ(parse_double("-1e3"), -1000.0);
  EXPECT_TRUE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("3.5x").has_value());  // trailing junk
  EXPECT_FALSE(parse_double("x3.5").has_value());
  EXPECT_FALSE(parse_double("1e999").has_value());  // overflow
}

TEST(Parse, IntRejectsTrailingJunkFractionsAndOverflow) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("12abs").has_value());  // stoll would yield 12
  EXPECT_FALSE(parse_int("3.5").has_value());
  EXPECT_FALSE(parse_int("99999999999999999999").has_value());
}

TEST(Cli, TrailingJunkIsNotSilentlyTruncated) {
  const char* argv[] = {"prog", "--n=12abs", "--rate=3.5x"};
  Cli cli(3, argv);
  EXPECT_THROW(cli.get_int_or("n", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double_or("rate", 0.0), std::invalid_argument);
  try {
    cli.get_int_or("n", 0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The diagnostic names the flag and the offending value.
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("12abs"), std::string::npos);
  }
}

TEST(Cli, IntFlagRejectsValuesOutsideTheIntRange) {
  const char* argv[] = {"prog", "--big=4294967297", "--low=-2147483649",
                        "--ok=-2147483648", "--empty="};
  Cli cli(5, argv);
  EXPECT_EQ(int_flag(cli, "ok"), std::numeric_limits<int>::min());
  EXPECT_EQ(int_flag(cli, "empty", 7), 7);
  EXPECT_EQ(int_flag(cli, "absent", 600), 600);
  EXPECT_EQ(int_flag(cli, "absent"), 0);
  EXPECT_THROW((void)int_flag(cli, "low"), std::invalid_argument);
  try {
    (void)int_flag(cli, "big", 600);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--big is out of range"),
              std::string::npos);
  }
}

TEST(Cli, UnsignedFlagRejectsValuesOutsideTheUnsignedRange) {
  const char* argv[] = {"prog", "--big=4294967338", "--neg=-1",
                        "--ok=4294967295", "--empty="};
  Cli cli(5, argv);
  EXPECT_EQ(unsigned_flag(cli, "ok"), std::numeric_limits<unsigned>::max());
  EXPECT_EQ(unsigned_flag(cli, "empty", 42), 42u);
  EXPECT_EQ(unsigned_flag(cli, "absent", 42), 42u);
  EXPECT_THROW((void)unsigned_flag(cli, "neg"), std::invalid_argument);
  try {
    (void)unsigned_flag(cli, "big", 42);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--big is out of range"),
              std::string::npos);
  }
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n=abc"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.get_int_or("n", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double_or("n", 0.0), std::invalid_argument);
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=false"};
  Cli cli(5, argv);
  EXPECT_TRUE(cli.get_bool_or("a", false));
  EXPECT_FALSE(cli.get_bool_or("b", true));
  EXPECT_TRUE(cli.get_bool_or("c", false));
  EXPECT_FALSE(cli.get_bool_or("d", true));
}

TEST(Log, ThresholdSuppressesBelowLevel) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kOff);
  log_error() << "never shown";  // must not crash
  set_log_level(original);
  SUCCEED();
}

TEST(Timer, MeasuresNonNegativeDurations) {
  Timer t;
  double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink += std::sqrt(static_cast<double>(i));
  (void)sink;
  EXPECT_GE(t.elapsed_seconds(), 0.0);
  EXPECT_GE(t.elapsed_ms(), 0.0);
  t.restart();
  EXPECT_LT(t.elapsed_seconds(), 1.0);
}

TEST(Timer, ElapsedIsMonotonicallyNonDecreasing) {
  Timer t;
  double last = t.elapsed_seconds();
  for (int i = 0; i < 100; ++i) {
    const double now = t.elapsed_seconds();
    EXPECT_GE(now, last);
    last = now;
  }
  // restart() rewinds: the new reading cannot precede zero.
  t.restart();
  EXPECT_GE(t.elapsed_seconds(), 0.0);
}

TEST(Percentile, MatchesQuantileBitForBit) {
  const std::vector<double> sorted{1.0, 2.0, 4.0, 8.0, 16.0};
  for (double pct : {0.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(percentile(sorted, pct), quantile(sorted, pct / 100.0))
        << "pct " << pct;
  }
  const std::vector<double> unsorted{8.0, 1.0, 16.0, 2.0, 4.0};
  EXPECT_EQ(percentile_unsorted(unsorted, 50.0), percentile(sorted, 50.0));
}

TEST(Percentile, RejectsBadInput) {
  const std::vector<double> sorted{1.0, 2.0};
  EXPECT_THROW((void)percentile(sorted, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(sorted, 100.5), std::invalid_argument);
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
}

TEST(PercentileSummary, ComputesAllThreeTails) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(static_cast<double>(i));
  const PercentileSummary s = percentile_summary(samples);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(s.p50, percentile(sorted, 50.0));
  EXPECT_EQ(s.p95, percentile(sorted, 95.0));
  EXPECT_EQ(s.p99, percentile(sorted, 99.0));
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_THROW((void)percentile_summary({}), std::invalid_argument);
}

TEST(HistogramPercentile, InterpolatesInsideBuckets) {
  // Buckets (-inf,10]:0, (10,20]:10, (20,+inf):0 — mass is uniform on
  // (10,20], so p50 lands mid-bucket.
  const std::vector<double> boundaries{10.0, 20.0};
  const std::vector<std::uint64_t> counts{0, 10, 0};
  EXPECT_NEAR(histogram_percentile(boundaries, counts, 50.0), 15.0, 1e-9);
  EXPECT_NEAR(histogram_percentile(boundaries, counts, 0.0), 10.0, 1e-9);
  EXPECT_NEAR(histogram_percentile(boundaries, counts, 100.0), 20.0, 1e-9);
}

TEST(HistogramPercentile, OverflowBucketReturnsLastBoundary) {
  const std::vector<double> boundaries{1.0, 2.0};
  const std::vector<std::uint64_t> counts{0, 0, 5};  // all mass overflows
  EXPECT_EQ(histogram_percentile(boundaries, counts, 99.0), 2.0);
}

TEST(HistogramPercentile, RejectsBadInput) {
  const std::vector<double> boundaries{1.0, 2.0};
  const std::vector<std::uint64_t> counts{1, 1, 1};
  EXPECT_THROW((void)histogram_percentile(boundaries, counts, -5.0),
               std::invalid_argument);
  EXPECT_THROW((void)histogram_percentile(boundaries, counts, 101.0),
               std::invalid_argument);
  // counts must be boundaries.size() + 1.
  const std::vector<std::uint64_t> short_counts{1, 1};
  EXPECT_THROW((void)histogram_percentile(boundaries, short_counts, 50.0),
               std::invalid_argument);
  // No observations: nothing to interpolate.
  const std::vector<std::uint64_t> empty_counts{0, 0, 0};
  EXPECT_THROW((void)histogram_percentile(boundaries, empty_counts, 50.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace mecar::util
