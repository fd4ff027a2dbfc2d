// Unit and property tests for evaluation metrics and table formatting.
#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <random>

namespace strings::metrics {
namespace {

TEST(WeightedSpeedup, IdentityWhenEqual) {
  EXPECT_DOUBLE_EQ(weighted_speedup({2.0, 4.0}, {2.0, 4.0}), 1.0);
}

TEST(WeightedSpeedup, AveragesPerAppRatios) {
  // App 1: 2x faster; app 2: 4x faster -> mean 3x.
  EXPECT_DOUBLE_EQ(weighted_speedup({2.0, 4.0}, {1.0, 1.0}), 3.0);
}

TEST(WeightedSpeedup, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(weighted_speedup({}, {}), 0.0);
}

TEST(WeightedSpeedup, SkipsNonPositivePolicyTimes) {
  EXPECT_DOUBLE_EQ(weighted_speedup({2.0, 2.0}, {1.0, 0.0}), 1.0);
}

TEST(JainFairness, PerfectWhenEqual) {
  EXPECT_DOUBLE_EQ(jain_fairness({5.0, 5.0, 5.0}), 1.0);
}

TEST(JainFairness, KnownTwoPartyValue) {
  // x = {1, 3}: (1+3)^2 / (2 * (1+9)) = 16/20 = 0.8.
  EXPECT_DOUBLE_EQ(jain_fairness({1.0, 3.0}), 0.8);
}

TEST(JainFairness, WorstCaseApproaches1OverN) {
  // One party gets everything: J = 1/n.
  EXPECT_DOUBLE_EQ(jain_fairness({10.0, 0.0, 0.0, 0.0}), 0.25);
}

TEST(JainFairness, WeightsNormalizeShares) {
  // Attained proportional to shares is perfectly fair.
  EXPECT_DOUBLE_EQ(jain_fairness({2.0, 6.0}, {1.0, 3.0}), 1.0);
}

TEST(JainFairness, SingleOrEmptyIsFair) {
  EXPECT_DOUBLE_EQ(jain_fairness({7.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
}

TEST(JainFairness, ZeroAttainedIsFairByConvention) {
  EXPECT_DOUBLE_EQ(jain_fairness({0.0, 0.0}), 1.0);
}

// Property: Jain's index is scale invariant and bounded in [1/n, 1].
class JainPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(JainPropertyTest, BoundsAndScaleInvariance) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> dist(0.01, 100.0);
  std::uniform_int_distribution<int> n_dist(2, 12);
  for (int round = 0; round < 50; ++round) {
    const int n = n_dist(rng);
    std::vector<double> x;
    for (int i = 0; i < n; ++i) x.push_back(dist(rng));
    const double j = jain_fairness(x);
    EXPECT_GE(j, 1.0 / n - 1e-12);
    EXPECT_LE(j, 1.0 + 1e-12);
    std::vector<double> scaled;
    for (double v : x) scaled.push_back(v * 42.0);
    EXPECT_NEAR(jain_fairness(scaled), j, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JainPropertyTest,
                         ::testing::Values(1u, 7u, 13u, 99u));

TEST(Stats, Mean) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, GeomeanLessOrEqualMean) {
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> dist(0.1, 10.0);
  std::vector<double> v;
  for (int i = 0; i < 20; ++i) v.push_back(dist(rng));
  EXPECT_LE(geomean(v), mean(v) + 1e-12);
}

TEST(Stats, PercentileNearestRankInterpolated) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 1.75);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 95), 7.0);
}

TEST(Stats, PercentileClampsRange) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, -5), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 200), 2.0);
}

TEST(Stats, PercentileBoundaries) {
  // p0 and p100 land exactly on min and max regardless of the
  // interpolation method in between.
  const std::vector<double> v{9.0, -2.0, 4.5, 4.5, 0.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), -2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 9.0);
  // A single element is every percentile at once.
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 50), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 100), 42.0);
}

TEST(Stats, CoefficientOfVariation) {
  EXPECT_DOUBLE_EQ(coeff_of_variation({5.0, 5.0, 5.0}), 0.0);
  // {0, 10}: mean 5, stddev 5 -> CoV 1.
  EXPECT_DOUBLE_EQ(coeff_of_variation({0.0, 10.0}), 1.0);
  EXPECT_DOUBLE_EQ(coeff_of_variation({}), 0.0);
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"A", "Bee"});
  t.add_row({"xx", "1"});
  t.add_row({"y", "22222"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("A   Bee"), std::string::npos);
  EXPECT_NE(s.find("xx  1"), std::string::npos);
  EXPECT_NE(s.find("y   22222"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCells) {
  Table t({"A", "B"});
  t.add_row({"plain", "has,comma"});
  t.add_row({"has\"quote", "x"});
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv,
            "A,B\n"
            "plain,\"has,comma\"\n"
            "\"has\"\"quote\",x\n");
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(3.14159), "3.14");
  EXPECT_EQ(Table::fmt(3.14159, 1), "3.1");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace strings::metrics
