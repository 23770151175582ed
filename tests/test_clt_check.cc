#include "core/clt_check.h"

#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pr_cs.h"

namespace pdx {
namespace {

TEST(CochranTest, BaselineAtZeroSkew) {
  // n > 28 + 25 * 0 => 29.
  EXPECT_EQ(CochranRequiredSampleSize(0.0), 29u);
}

TEST(CochranTest, GrowsQuadratically) {
  EXPECT_EQ(CochranRequiredSampleSize(1.0), 54u);   // 28 + 25 + 1
  EXPECT_EQ(CochranRequiredSampleSize(2.0), 129u);  // 28 + 100 + 1
  EXPECT_GT(CochranRequiredSampleSize(10.0), 2500u);
}

TEST(CochranTest, SaturatesWhereTheSizeOverflows) {
  // 28 + 25 * g1^2 passes 2^64 near g1 = 8.6e8; the cast would be UB.
  EXPECT_EQ(CochranRequiredSampleSize(1e10), UINT64_MAX);
  EXPECT_EQ(CochranRequiredSampleSize(HUGE_VAL), UINT64_MAX);
  EXPECT_LT(CochranRequiredSampleSize(8e8), UINT64_MAX);
}

TEST(ValidateCltTest, BundleConsistency) {
  Rng rng(501);
  std::vector<CostInterval> bounds(200);
  for (CostInterval& iv : bounds) {
    double lo = rng.NextDouble(0.0, 10.0);
    iv.low = lo;
    iv.high = lo + rng.NextDouble(0.0, 50.0);
  }
  CltValidation v = ValidateClt(bounds, 0.5);
  EXPECT_GT(v.sigma2_max, 0.0);
  EXPECT_GE(v.g1_upper, v.g1_estimate);
  EXPECT_GE(v.n_min_certified, v.n_min_estimate);
  EXPECT_GE(v.n_min_estimate, 29u);
}

TEST(ValidateCltTest, SkewedBoundsRequireLargerSamples) {
  // G1 is scale-free, so what matters is the upper tail relative to the
  // base spread. "Tame": costs known to spread evenly over a wide range
  // (narrow intervals, large cross-query variance). "Skewed": same base
  // plus a few intervals reaching 100x higher.
  Rng rng(510);
  std::vector<CostInterval> tame(100);
  for (size_t i = 0; i < tame.size(); ++i) {
    double base = 10.0 + 990.0 * static_cast<double>(i) / 99.0;
    tame[i] = {base, base * 1.05};
  }
  std::vector<CostInterval> skewed = tame;
  for (int i = 0; i < 4; ++i) skewed[i].high = 100000.0;
  CltValidation v_tame = ValidateClt(tame, 1.0);
  CltValidation v_skewed = ValidateClt(skewed, 1.0);
  EXPECT_GT(v_skewed.n_min_estimate, v_tame.n_min_estimate);
}

TEST(ConservativePrCsTest, NeverExceedsSampleBasedEstimate) {
  // With sigma2_max >= s2, the conservative estimate must be closer to
  // 0.5 (less confident) for a positive gap.
  double gap = 1000.0;
  uint64_t n = 50, N = 10000;
  double s2 = 40000.0;
  double sigma2_max = 90000.0;
  double plain = PairwisePrCs(
      gap, FpcStandardError(s2 * N / (N - 1.0), n, N), 0.0);
  double conservative = ConservativePairwisePrCs(gap, sigma2_max, n, N, 0.0);
  EXPECT_LT(conservative, plain);
  EXPECT_GT(conservative, 0.5);
}

TEST(ConservativePrCsTest, DeltaRelaxes) {
  double tight = ConservativePairwisePrCs(100.0, 1e6, 40, 5000, 0.0);
  double relaxed = ConservativePairwisePrCs(100.0, 1e6, 40, 5000, 5000.0);
  EXPECT_GT(relaxed, tight);
}

TEST(ConservativePrCsTest, FullSampleIsCertain) {
  EXPECT_EQ(ConservativePairwisePrCs(10.0, 100.0, 1000, 1000, 0.0), 1.0);
}

TEST(ConservativePrCsTest, CoverageUnderTrueVarianceBound) {
  // Simulation: when the bound really holds (sigma2_max >= true variance),
  // the conservative Pr(CS) must under-state the empirical probability of
  // correct selection. Population: skewed costs; config A better by `gap`.
  Rng rng(502);
  const size_t N = 4000;
  std::vector<double> diff(N);  // cost_B - cost_A per query
  for (double& d : diff) d = 5.0 + 40.0 * rng.NextLogNormal(0.0, 1.0);
  double mean_diff = 0.0;
  for (double d : diff) mean_diff += d;
  // True variance of the difference distribution.
  double var = 0.0;
  for (double d : diff) {
    var += (d - mean_diff / N) * (d - mean_diff / N);
  }
  var /= N;
  double sigma2_max = var * 3.0;  // a valid (loose) upper bound

  const uint64_t n = 60;
  const int trials = 2000;
  int correct = 0;
  double conservative_sum = 0.0;
  for (int t = 0; t < trials; ++t) {
    auto idx = rng.SampleWithoutReplacement(N, n);
    double s = 0.0;
    for (uint32_t i : idx) s += diff[i];
    double est_gap = s / n * static_cast<double>(N);
    if (est_gap > 0.0) ++correct;
    conservative_sum +=
        ConservativePairwisePrCs(est_gap, sigma2_max, n, N, 0.0);
  }
  double empirical = static_cast<double>(correct) / trials;
  double avg_conservative = conservative_sum / trials;
  EXPECT_LE(avg_conservative, empirical + 0.02);
}

}  // namespace
}  // namespace pdx
