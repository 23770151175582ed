#include "core/estimators.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "test_util.h"

namespace pdx {
namespace {

using testing::SyntheticMatrix;

std::vector<uint64_t> PopsOf(const CostSource& source) {
  std::vector<uint64_t> pops(source.num_templates(), 0);
  for (QueryId q = 0; q < source.num_queries(); ++q) {
    pops[source.TemplateOf(q)] += 1;
  }
  return pops;
}

TEST(SamplePoolTest, DrawsEveryQueryExactlyOnce) {
  MatrixCostSource src = SyntheticMatrix(500, 2, 5, 0.1, 1);
  Rng rng(2);
  StratifiedSamplePool pool(src, &rng);
  EXPECT_EQ(pool.RemainingTotal(), 500u);
  std::set<QueryId> seen;
  while (auto q = pool.DrawGlobal(&rng)) seen.insert(*q);
  EXPECT_EQ(seen.size(), 500u);
  EXPECT_EQ(pool.RemainingTotal(), 0u);
}

TEST(SamplePoolTest, StratifiedDrawStaysInStratum) {
  MatrixCostSource src = SyntheticMatrix(600, 2, 6, 0.1, 3);
  Rng rng(4);
  StratifiedSamplePool pool(src, &rng);
  Stratification strat(PopsOf(src));
  strat.Split(0, {0, 1});  // stratum 0 = templates {0,1}
  for (int i = 0; i < 150; ++i) {
    auto q = pool.Draw(strat, 0, &rng);
    ASSERT_TRUE(q.has_value());
    EXPECT_LE(src.TemplateOf(*q), 1u);
  }
  // 600 queries / 6 templates = 100 per template; stratum 0 has 200.
  EXPECT_EQ(pool.RemainingInStratum(strat, 0), 50u);
}

TEST(IndependentEstimatorTest, FullSampleGivesExactTotal) {
  MatrixCostSource src = SyntheticMatrix(400, 2, 4, 0.2, 5);
  std::vector<uint64_t> pops = PopsOf(src);
  IndependentEstimator est(2, 4, pops);
  Stratification strat(pops);
  for (QueryId q = 0; q < src.num_queries(); ++q) {
    est.Add(0, src.TemplateOf(q), src.Cost(q, 0));
  }
  EXPECT_NEAR(est.Estimate(0, strat), src.TotalCost(0),
              1e-8 * src.TotalCost(0));
  EXPECT_NEAR(est.Variance(0, strat), 0.0, 1e-6);
}

TEST(IndependentEstimatorTest, EstimateUnbiasedOverManySamples) {
  MatrixCostSource src = SyntheticMatrix(1000, 1, 10, 0.0, 6);
  std::vector<uint64_t> pops = PopsOf(src);
  Stratification strat(pops);
  double truth = src.TotalCost(0);
  Rng rng(7);
  double sum = 0.0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    IndependentEstimator est(1, 10, pops);
    StratifiedSamplePool pool(src, &rng);
    for (int i = 0; i < 50; ++i) {
      auto q = pool.DrawGlobal(&rng);
      est.Add(0, src.TemplateOf(*q), src.Cost(*q, 0));
    }
    sum += est.Estimate(0, strat);
  }
  EXPECT_NEAR(sum / trials, truth, 0.05 * truth);
}

TEST(IndependentEstimatorTest, VarianceEstimateTracksEmpiricalVariance) {
  MatrixCostSource src = SyntheticMatrix(2000, 1, 8, 0.0, 8);
  std::vector<uint64_t> pops = PopsOf(src);
  Stratification strat(pops);
  Rng rng(9);
  std::vector<double> estimates;
  double var_estimate_sum = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    IndependentEstimator est(1, 8, pops);
    StratifiedSamplePool pool(src, &rng);
    for (int i = 0; i < 60; ++i) {
      auto q = pool.DrawGlobal(&rng);
      est.Add(0, src.TemplateOf(*q), src.Cost(*q, 0));
    }
    estimates.push_back(est.Estimate(0, strat));
    var_estimate_sum += est.Variance(0, strat);
  }
  double empirical = ExactMoments::Compute(estimates).variance_sample;
  double predicted = var_estimate_sum / trials;
  EXPECT_NEAR(predicted / empirical, 1.0, 0.35);
}

TEST(IndependentEstimatorTest, VarianceReductionPositiveAndShrinking) {
  MatrixCostSource src = SyntheticMatrix(500, 1, 5, 0.0, 10);
  std::vector<uint64_t> pops = PopsOf(src);
  Stratification strat(pops);
  IndependentEstimator est(1, 5, pops);
  Rng rng(11);
  StratifiedSamplePool pool(src, &rng);
  for (int i = 0; i < 10; ++i) {
    auto q = pool.DrawGlobal(&rng);
    est.Add(0, src.TemplateOf(*q), src.Cost(*q, 0));
  }
  double red10 = est.VarianceReductionForNext(0, strat, 0);
  EXPECT_GT(red10, 0.0);
  for (int i = 0; i < 40; ++i) {
    auto q = pool.DrawGlobal(&rng);
    est.Add(0, src.TemplateOf(*q), src.Cost(*q, 0));
  }
  EXPECT_LT(est.VarianceReductionForNext(0, strat, 0), red10);
}

TEST(DeltaEstimatorTest, FullSampleGivesExactDiffs) {
  MatrixCostSource src = SyntheticMatrix(300, 3, 3, 0.15, 12);
  std::vector<uint64_t> pops = PopsOf(src);
  DeltaEstimator est(3, 3, pops);
  Stratification strat(pops);
  for (QueryId q = 0; q < src.num_queries(); ++q) {
    est.Add(q, src.TemplateOf(q),
            {src.Cost(q, 0), src.Cost(q, 1), src.Cost(q, 2)});
  }
  est.SetReference(0);
  double d01 = src.TotalCost(0) - src.TotalCost(1);
  EXPECT_NEAR(est.DiffEstimate(1, strat), d01, 1e-7 * std::abs(d01));
  EXPECT_NEAR(est.DiffVariance(1, strat), 0.0, 1e-6);
  EXPECT_NEAR(est.Estimate(2, strat), src.TotalCost(2),
              1e-8 * src.TotalCost(2));
}

TEST(DeltaEstimatorTest, ReferenceChangeRebuildsConsistently) {
  MatrixCostSource src = SyntheticMatrix(200, 3, 4, 0.1, 13);
  std::vector<uint64_t> pops = PopsOf(src);
  DeltaEstimator est(3, 4, pops);
  Stratification strat(pops);
  Rng rng(14);
  StratifiedSamplePool pool(src, &rng);
  for (int i = 0; i < 80; ++i) {
    auto q = pool.DrawGlobal(&rng);
    est.Add(*q, src.TemplateOf(*q),
            {src.Cost(*q, 0), src.Cost(*q, 1), src.Cost(*q, 2)});
  }
  est.SetReference(0);
  double d_0_2 = est.DiffEstimate(2, strat);
  est.SetReference(1);
  double d_1_2 = est.DiffEstimate(2, strat);
  double d_1_0 = est.DiffEstimate(0, strat);
  // X_{1,2} = X_{1,0} + X_{0,2} (same shared sample).
  EXPECT_NEAR(d_1_2, d_1_0 + d_0_2, 1e-6 * (1.0 + std::abs(d_1_2)));
  // Self-difference is identically zero.
  EXPECT_NEAR(est.DiffEstimate(1, strat), 0.0, 1e-9);
}

TEST(DeltaEstimatorTest, DeltaVarianceBeatsIndependentOnCorrelatedCosts) {
  // The §4.2 core claim: Var(diff estimator) << Var(X_l) + Var(X_j) when
  // costs are strongly positively correlated across configurations.
  MatrixCostSource src = SyntheticMatrix(2000, 2, 8, 0.05, 15);
  std::vector<uint64_t> pops = PopsOf(src);
  Stratification strat(pops);
  Rng rng(16);

  DeltaEstimator delta(2, 8, pops);
  IndependentEstimator indep(2, 8, pops);
  StratifiedSamplePool pool_d(src, &rng);
  StratifiedSamplePool pool_0(src, &rng);
  StratifiedSamplePool pool_1(src, &rng);
  for (int i = 0; i < 100; ++i) {
    auto q = pool_d.DrawGlobal(&rng);
    delta.Add(*q, src.TemplateOf(*q), {src.Cost(*q, 0), src.Cost(*q, 1)});
    auto q0 = pool_0.DrawGlobal(&rng);
    indep.Add(0, src.TemplateOf(*q0), src.Cost(*q0, 0));
    auto q1 = pool_1.DrawGlobal(&rng);
    indep.Add(1, src.TemplateOf(*q1), src.Cost(*q1, 1));
  }
  delta.SetReference(0);
  double var_delta = delta.DiffVariance(1, strat);
  double var_indep = indep.Variance(0, strat) + indep.Variance(1, strat);
  EXPECT_LT(var_delta, var_indep * 0.5);
}

TEST(DeltaEstimatorTest, EliminatedConfigsSkipNan) {
  MatrixCostSource src = SyntheticMatrix(100, 3, 2, 0.2, 17);
  std::vector<uint64_t> pops = PopsOf(src);
  DeltaEstimator est(3, 2, pops);
  Stratification strat(pops);
  double nan = std::numeric_limits<double>::quiet_NaN();
  est.Add(0, src.TemplateOf(0), {src.Cost(0, 0), src.Cost(0, 1), src.Cost(0, 2)});
  est.Add(1, src.TemplateOf(1), {src.Cost(1, 0), src.Cost(1, 1), nan});
  est.Add(2, src.TemplateOf(2), {src.Cost(2, 0), src.Cost(2, 1), nan});
  est.SetReference(0);
  // Config 2's estimate uses only its one valid sample; finite either way.
  EXPECT_TRUE(std::isfinite(est.Estimate(2, strat)));
  EXPECT_TRUE(std::isfinite(est.DiffEstimate(1, strat)));
}

TEST(DeltaEstimatorTest, TemplateCoverageAccounting) {
  MatrixCostSource src = SyntheticMatrix(300, 2, 3, 0.1, 20);
  std::vector<uint64_t> pops = {100, 100, 100};
  DeltaEstimator est(2, 3, pops);
  EXPECT_EQ(est.MinTemplateCount(), 0u);
  EXPECT_DOUBLE_EQ(est.UnobservedPopulationShare(), 1.0);
  // One sample of template 0: 2/3 of the population still unobserved.
  est.Add(0, 0, {src.Cost(0, 0), src.Cost(0, 1)});
  EXPECT_EQ(est.MinTemplateCount(), 0u);
  EXPECT_NEAR(est.UnobservedPopulationShare(), 2.0 / 3.0, 1e-12);
  est.Add(1, 1, {src.Cost(1, 0), src.Cost(1, 1)});
  est.Add(2, 2, {src.Cost(2, 0), src.Cost(2, 1)});
  EXPECT_EQ(est.MinTemplateCount(), 1u);
  EXPECT_DOUBLE_EQ(est.UnobservedPopulationShare(), 0.0);
}

TEST(IndependentEstimatorTest, TemplateCoveragePerConfig) {
  std::vector<uint64_t> pops = {50, 150};
  IndependentEstimator est(2, 2, pops);
  EXPECT_DOUBLE_EQ(est.UnobservedPopulationShare(0), 1.0);
  est.Add(0, 0, 10.0);
  EXPECT_NEAR(est.UnobservedPopulationShare(0), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(est.UnobservedPopulationShare(1), 1.0);
  est.Add(0, 1, 20.0);
  EXPECT_DOUBLE_EQ(est.UnobservedPopulationShare(0), 0.0);
  EXPECT_EQ(est.MinTemplateCount(0), 1u);
  EXPECT_EQ(est.MinTemplateCount(1), 0u);
}

TEST(DeltaEstimatorTest, BatchedStatsMatchScalarBitwise) {
  // The batched kernels (Estimates / DiffStats) are the hot path of the
  // vectorized selector; they must reproduce the scalar accessors bit for
  // bit, including the degraded-measurement uncertainty term.
  MatrixCostSource src = SyntheticMatrix(240, 4, 5, 0.12, 23);
  std::vector<uint64_t> pops = PopsOf(src);
  const size_t k = 4;
  DeltaEstimator est(k, 5, pops);
  Stratification strat(pops);
  strat.Split(0, {0, 1});  // non-trivial stratification
  Rng rng(24);
  StratifiedSamplePool pool(src, &rng);
  std::vector<double> costs(k), uncerts(k);
  for (int i = 0; i < 120; ++i) {
    auto q = pool.DrawGlobal(&rng);
    for (ConfigId c = 0; c < k; ++c) costs[c] = src.Cost(*q, c);
    // A sprinkling of degraded cells exercises the uncertainty sweep.
    for (ConfigId c = 0; c < k; ++c) {
      uncerts[c] = (i % 7 == 0) ? 0.01 * costs[c] : 0.0;
    }
    est.Add(*q, src.TemplateOf(*q), costs, uncerts);
  }
  est.SetReference(1);

  EstimatorScratch scratch;
  std::vector<double> estimates(k), diffs(k), vars(k);
  est.Estimates(strat, &scratch, estimates);
  est.DiffStats(strat, &scratch, diffs, vars);
  for (ConfigId c = 0; c < k; ++c) {
    const double e = est.Estimate(c, strat);
    const double d = est.DiffEstimate(c, strat);
    const double v = est.DiffVariance(c, strat);
    EXPECT_EQ(std::memcmp(&estimates[c], &e, sizeof(double)), 0) << "c=" << c;
    EXPECT_EQ(std::memcmp(&diffs[c], &d, sizeof(double)), 0) << "c=" << c;
    EXPECT_EQ(std::memcmp(&vars[c], &v, sizeof(double)), 0) << "c=" << c;
  }
}

// The Delta selector reuses each round's DiffStats sweep for the §5.2
// next-sample choice and keeps the averaged template stats across rounds.
// Both must match their oracles bit for bit — the scalar per-pair
// re-merge and a fresh estimator fed the same samples — through NaN cells
// of eliminated configurations, degraded samples, reference switches,
// active-mask changes and splits.
TEST(DeltaEstimatorTest, RoundReuseMatchesOraclesBitwise) {
  MatrixCostSource src = SyntheticMatrix(300, 5, 6, 0.1, 31);
  std::vector<uint64_t> pops = PopsOf(src);
  const size_t k = 5;
  DeltaEstimator est(k, 6, pops);
  Stratification strat(pops);
  EstimatorScratch scratch;
  std::vector<double> diffs(k), vars(k), costs(k), uncerts(k);
  std::vector<bool> active(k, true);
  std::vector<QueryId> drawn;
  Rng rng(32);
  StratifiedSamplePool pool(src, &rng);

  // Sample i of the stream: config 4 is eliminated from the 41st sample
  // on (NaN cells), and every query id divisible by 5 arrives degraded.
  auto add_sample = [&](DeltaEstimator* e, size_t i) {
    const QueryId q = drawn[i];
    for (ConfigId c = 0; c < k; ++c) {
      costs[c] = c == 4 && i >= 40 ? std::numeric_limits<double>::quiet_NaN()
                                   : src.Cost(q, c);
      uncerts[c] = c % 2 == 0 ? 0.03 * src.Cost(q, c) : 0.0;
    }
    e->Add(q, src.TemplateOf(q), costs,
           q % 5 == 0 ? std::span<const double>(uncerts)
                      : std::span<const double>());
  };
  auto add = [&](QueryId q) {
    drawn.push_back(q);
    add_sample(&est, drawn.size() - 1);
  };
  auto expect_oracles = [&](const char* when) {
    SCOPED_TRACE(when);
    est.DiffStats(strat, &scratch, diffs, vars);
    ASSERT_TRUE(est.RowsCurrent(strat, scratch));
    for (uint32_t h = 0; h < strat.num_strata(); ++h) {
      const double rows = est.VarianceReductionFromRows(scratch, strat, h,
                                                        active);
      const double scalar = est.VarianceReductionForNext(strat, h, active);
      EXPECT_EQ(std::memcmp(&rows, &scalar, sizeof(double)), 0)
          << "stratum " << h << ": " << rows << " vs " << scalar;
    }
    const std::vector<TemplateStats> kept =
        est.AveragedDiffTemplateStats(active);
    DeltaEstimator fresh(k, 6, pops);
    fresh.SetReference(est.reference());
    for (size_t i = 0; i < drawn.size(); ++i) add_sample(&fresh, i);
    const std::vector<TemplateStats>& full =
        fresh.AveragedDiffTemplateStats(active);
    ASSERT_EQ(kept.size(), full.size());
    for (size_t t = 0; t < kept.size(); ++t) {
      EXPECT_EQ(kept[t].population, full[t].population);
      EXPECT_EQ(kept[t].observations, full[t].observations);
      EXPECT_EQ(std::memcmp(&kept[t].mean, &full[t].mean, sizeof(double)), 0)
          << "template " << t;
      EXPECT_EQ(
          std::memcmp(&kept[t].variance, &full[t].variance, sizeof(double)),
          0)
          << "template " << t;
    }
  };

  for (int i = 0; i < 30; ++i) add(*pool.DrawGlobal(&rng));
  expect_oracles("pilot");
  for (int i = 0; i < 20; ++i) add(*pool.DrawGlobal(&rng));
  EXPECT_FALSE(est.RowsCurrent(strat, scratch));  // Add invalidates
  expect_oracles("after 20 more samples, config 4 eliminated");
  active[4] = false;
  expect_oracles("active mask dropped config 4");
  est.SetReference(2);
  EXPECT_FALSE(est.RowsCurrent(strat, scratch));  // reference switch too
  expect_oracles("reference switched to 2");
  strat.Split(0, {0, 1, 2});
  EXPECT_FALSE(est.RowsCurrent(strat, scratch));  // and a split
  for (int i = 0; i < 10; ++i) add(*pool.Draw(strat, 1, &rng));
  expect_oracles("split and top-up");
  active[1] = false;
  est.SetReference(3);
  for (int i = 0; i < 15; ++i) add(*pool.DrawGlobal(&rng));
  expect_oracles("mask, reference and samples changed together");
  active[1] = true;
  expect_oracles("config 1 re-activated");
}

TEST(DeltaEstimatorTest, AveragedTemplateStatsShape) {
  MatrixCostSource src = SyntheticMatrix(300, 3, 3, 0.1, 18);
  std::vector<uint64_t> pops = PopsOf(src);
  DeltaEstimator est(3, 3, pops);
  Rng rng(19);
  StratifiedSamplePool pool(src, &rng);
  for (int i = 0; i < 90; ++i) {
    auto q = pool.DrawGlobal(&rng);
    est.Add(*q, src.TemplateOf(*q),
            {src.Cost(*q, 0), src.Cost(*q, 1), src.Cost(*q, 2)});
  }
  est.SetReference(0);
  std::vector<bool> active = {true, true, true};
  auto stats = est.AveragedDiffTemplateStats(active);
  ASSERT_EQ(stats.size(), 3u);
  uint64_t total_obs = 0;
  for (const TemplateStats& s : stats) {
    EXPECT_EQ(s.population, 100u);
    EXPECT_GE(s.variance, 0.0);
    total_obs += s.observations;
  }
  EXPECT_EQ(total_obs, 90u);
}

}  // namespace
}  // namespace pdx
