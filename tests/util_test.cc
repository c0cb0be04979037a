#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace birnn {
namespace {

// ------------------------------------------------------------------ Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, FactoryFunctionsSetCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v(std::string("hello"));
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  BIRNN_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseHalf(3, &out).code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NormalHasRoughlyUnitMoments) {
  Rng rng(99);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.08);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(3);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<size_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(sample.size(), 30u);
  EXPECT_EQ(distinct.size(), 30u);
  for (size_t x : sample) EXPECT_LT(x, 100u);
}

TEST(RngTest, SampleAllElements) {
  Rng rng(3);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 10u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

// ------------------------------------------------------------------- Stats

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(StatsTest, SampleStdDev) {
  EXPECT_DOUBLE_EQ(SampleStdDev({}), 0.0);
  EXPECT_DOUBLE_EQ(SampleStdDev({5.0}), 0.0);
  // Known value: sd of {2,4,4,4,5,5,7,9} with n-1 is ~2.138.
  EXPECT_NEAR(SampleStdDev({2, 4, 4, 4, 5, 5, 7, 9}), 2.13809, 1e-4);
}

TEST(StatsTest, ConfidenceInterval) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const double expected = 1.96 * SampleStdDev(xs) / 2.0;
  EXPECT_NEAR(ConfidenceInterval95(xs), expected, 1e-12);
}

TEST(StatsTest, SummarizeAllFields) {
  Summary s = Summarize({1.0, 3.0, 5.0});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_EQ(s.n, 3u);
  EXPECT_GT(s.stddev, 0.0);
}

TEST(StatsTest, EmptyInputIsAllZero) {
  EXPECT_DOUBLE_EQ(Min({}), 0.0);
  EXPECT_DOUBLE_EQ(Max({}), 0.0);
  EXPECT_DOUBLE_EQ(ConfidenceInterval95({}), 0.0);
  const Summary s = Summarize({});
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_EQ(s.n, 0u);
}

TEST(StatsTest, SingleSampleHasNoSpread) {
  // n < 2: spread statistics are defined to be 0, not NaN.
  EXPECT_DOUBLE_EQ(ConfidenceInterval95({7.0}), 0.0);
  const Summary s = Summarize({7.0});
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);
}

TEST(StatsTest, SummarizeMatchesPiecewiseFunctions) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  const Summary s = Summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, Mean(xs));
  EXPECT_DOUBLE_EQ(s.stddev, SampleStdDev(xs));
  EXPECT_DOUBLE_EQ(s.ci95, ConfidenceInterval95(xs));
  EXPECT_DOUBLE_EQ(s.min, Min(xs));
  EXPECT_DOUBLE_EQ(s.max, Max(xs));
  EXPECT_EQ(s.n, xs.size());
}

TEST(StatsTest, MinMaxWithNegatives) {
  const std::vector<double> xs{-3.0, 0.0, 2.5};
  EXPECT_DOUBLE_EQ(Min(xs), -3.0);
  EXPECT_DOUBLE_EQ(Max(xs), 2.5);
}

// ------------------------------------------------------------- StringUtil

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimLeft("  a b "), "a b ");
  // The view shares TrimLeft's set: ' ', '\t', '\r', '\n' and no other.
  EXPECT_EQ(TrimLeftView(" \t\r\n\va "), "\va ");
  EXPECT_EQ(TrimLeftView("\fa"), "\fa");
  EXPECT_EQ(TrimLeftView(" \n"), "");
  EXPECT_EQ(TrimRight("  a b "), "  a b");
  EXPECT_EQ(Trim("\t a b \r\n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("AbC9-x"), "abc9-x");
  EXPECT_EQ(ToUpper("AbC9-x"), "ABC9-X");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("hello", "el"));
  EXPECT_TRUE(EndsWith("hello", "lo"));
  EXPECT_FALSE(EndsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(StringUtilTest, IsAllDigits) {
  EXPECT_TRUE(IsAllDigits("0123"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_FALSE(IsAllDigits("12a"));
  EXPECT_FALSE(IsAllDigits("-12"));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble(" -2 ", &v));
  EXPECT_DOUBLE_EQ(v, -2.0);
  EXPECT_TRUE(ParseDouble("1e3", &v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("12a", &v));
  EXPECT_FALSE(ParseDouble("nan", &v));
  EXPECT_FALSE(ParseDouble("inf", &v));
}

TEST(StringUtilTest, EditDistance) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", "ab"), 2u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("Birmingham", "Birmingxam"), 1u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
}

TEST(StringUtilTest, FormatFixed) {
  EXPECT_EQ(FormatFixed(0.851, 2), "0.85");
  EXPECT_EQ(FormatFixed(1.0, 2), "1.00");
  EXPECT_EQ(FormatFixed(-0.5, 1), "-0.5");
}

// ------------------------------------------------------------------- Flags

TEST(FlagsTest, DefaultsAndParse) {
  FlagSet flags;
  flags.AddInt("reps", 3, "repetitions");
  flags.AddDouble("scale", 1.0, "scale");
  flags.AddString("dataset", "beers", "dataset");
  flags.AddBool("verbose", false, "verbose");

  const char* argv[] = {"prog", "--reps=7", "--scale", "0.5", "--verbose",
                        "--dataset=tax"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetInt("reps"), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale"), 0.5);
  EXPECT_EQ(flags.GetString("dataset"), "tax");
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagsTest, UnknownFlagFails) {
  FlagSet flags;
  flags.AddInt("reps", 3, "repetitions");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, BadIntFails) {
  FlagSet flags;
  flags.AddInt("reps", 3, "repetitions");
  for (const char* bad :
       {"--reps=abc", "--reps=5000000000", "--reps=-5000000000"}) {
    const char* argv[] = {"prog", bad};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok()) << bad;
  }
  EXPECT_EQ(flags.GetInt("reps"), 3);
  const char* argv[] = {"prog", "--reps=2147483647"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetInt("reps"), 2147483647);
}

TEST(FlagsTest, HelpRequested) {
  FlagSet flags;
  flags.AddInt("reps", 3, "repetitions");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(flags.help_requested());
  EXPECT_NE(flags.Usage("prog").find("--reps"), std::string::npos);
}

TEST(FlagsTest, PositionalArguments) {
  FlagSet flags;
  flags.AddInt("reps", 3, "repetitions");
  const char* argv[] = {"prog", "file1.csv", "--reps=2", "file2.csv"};
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"file1.csv", "file2.csv"}));
}

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch sw;
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  sw.Restart();
  EXPECT_GE(sw.ElapsedMillis(), 0.0);
}

TEST(StopwatchTest, ElapsedIsMonotone) {
  Stopwatch sw;
  double prev = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double now = sw.ElapsedSeconds();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(StopwatchTest, MeasuresRealWork) {
  Stopwatch sw;
  // Busy-spin until the clock provably advances.
  while (sw.ElapsedSeconds() <= 0.0) {
  }
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
}

TEST(StopwatchTest, RestartResetsElapsed) {
  Stopwatch sw;
  while (sw.ElapsedSeconds() < 1e-3) {
  }
  const double before = sw.ElapsedSeconds();
  sw.Restart();
  const double after = sw.ElapsedSeconds();
  EXPECT_LT(after, before);
}

TEST(StopwatchTest, MillisTrackSeconds) {
  Stopwatch sw;
  const double seconds = sw.ElapsedSeconds();
  const double millis = sw.ElapsedMillis();
  // Millis read later, so it can only be larger; both measure the same
  // start point at a fixed 1000x scale.
  EXPECT_GE(millis, seconds * 1000.0);
  EXPECT_LE(millis, (seconds + 1.0) * 1000.0);
}

TEST(StopwatchTest, ThreadCpuSecondsAdvancesWithWork) {
  const double before = ThreadCpuSeconds();
  EXPECT_GE(before, 0.0);
  // Burn measurable CPU; volatile keeps the loop from folding away.
  volatile double sink = 0.0;
  while (ThreadCpuSeconds() - before < 1e-3) {
    for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
  }
  EXPECT_GT(ThreadCpuSeconds(), before);
}

}  // namespace
}  // namespace birnn
