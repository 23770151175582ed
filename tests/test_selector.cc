#include "core/selector.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace pdx {
namespace {

using testing::SyntheticMatrix;

ConfigId TrueBest(const MatrixCostSource& src) {
  ConfigId best = 0;
  double bt = src.TotalCost(0);
  for (ConfigId c = 1; c < src.num_configs(); ++c) {
    double t = src.TotalCost(c);
    if (t < bt) {
      bt = t;
      best = c;
    }
  }
  return best;
}

TEST(SelectorTest, SelectsCorrectlyOnEasyPair) {
  MatrixCostSource src = SyntheticMatrix(5000, 2, 10, 0.10, 21);
  SelectorOptions opt;
  opt.alpha = 0.95;
  opt.scheme = SamplingScheme::kDelta;
  ConfigurationSelector sel(&src, opt);
  Rng rng(22);
  SelectionResult r = sel.Run(&rng);
  EXPECT_EQ(r.best, TrueBest(src));
  EXPECT_TRUE(r.reached_target);
  EXPECT_GT(r.pr_cs, 0.95);
  // Far fewer optimizer calls than exact evaluation (2 * 5000).
  EXPECT_LT(r.optimizer_calls, 2000u);
}

TEST(SelectorTest, IndependentSchemeAlsoWorks) {
  // Independent Sampling is noisier than Delta for the same budget (the
  // paper's §4.2 point), so assert statistically over trials.
  MatrixCostSource src = SyntheticMatrix(5000, 2, 10, 0.15, 23);
  SelectorOptions opt;
  opt.alpha = 0.9;
  opt.scheme = SamplingScheme::kIndependent;
  opt.consecutive_to_stop = 5;
  int correct = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    Rng rng(2400 + t);
    ConfigurationSelector sel(&src, opt);
    SelectionResult r = sel.Run(&rng);
    if (r.best == TrueBest(src)) ++correct;
    EXPECT_LT(r.optimizer_calls, 10000u);
  }
  EXPECT_GE(correct, trials * 3 / 4);
}

TEST(SelectorTest, HarderPairNeedsMoreSamples) {
  MatrixCostSource easy = SyntheticMatrix(5000, 2, 10, 0.20, 25);
  MatrixCostSource hard = SyntheticMatrix(5000, 2, 10, 0.015, 25);
  SelectorOptions opt;
  opt.alpha = 0.9;
  Rng rng1(26), rng2(26);
  SelectionResult r_easy = ConfigurationSelector(&easy, opt).Run(&rng1);
  SelectionResult r_hard = ConfigurationSelector(&hard, opt).Run(&rng2);
  EXPECT_GT(r_hard.queries_sampled, r_easy.queries_sampled);
}

TEST(SelectorTest, MaxSamplesRespected) {
  MatrixCostSource src = SyntheticMatrix(5000, 2, 10, 0.001, 27);
  SelectorOptions opt;
  opt.alpha = 0.9999;
  opt.delta = 0.0;
  opt.max_samples = 100;
  ConfigurationSelector sel(&src, opt);
  Rng rng(28);
  SelectionResult r = sel.Run(&rng);
  EXPECT_LE(r.queries_sampled, 110u);  // pilot granularity slack
}

TEST(SelectorTest, DeltaSensitivityStopsEarlyOnNearTies) {
  // With cost gap far below delta, the selector should be quickly
  // confident that the chosen configuration is within delta of the best.
  MatrixCostSource src = SyntheticMatrix(5000, 2, 10, 0.005, 29);
  double total = src.TotalCost(0);
  SelectorOptions strict;
  strict.alpha = 0.95;
  strict.max_samples = 3000;
  SelectorOptions relaxed = strict;
  relaxed.delta = 0.10 * total;  // differences below 10% are acceptable
  Rng rng1(30), rng2(30);
  SelectionResult r_strict = ConfigurationSelector(&src, strict).Run(&rng1);
  SelectionResult r_relaxed = ConfigurationSelector(&src, relaxed).Run(&rng2);
  EXPECT_LT(r_relaxed.queries_sampled, r_strict.queries_sampled);
  EXPECT_TRUE(r_relaxed.reached_target);
}

TEST(SelectorTest, ManyConfigsEliminationKicksIn) {
  // A hard best-vs-runner-up gap keeps sampling going long enough for the
  // clearly-inferior tail configurations to be eliminated.
  MatrixCostSource src = SyntheticMatrix(4000, 12, 8, 0.012, 31);
  SelectorOptions opt;
  opt.alpha = 0.95;
  opt.scheme = SamplingScheme::kDelta;
  opt.consecutive_to_stop = 10;
  opt.elimination_threshold = 0.995;
  ConfigurationSelector sel(&src, opt);
  Rng rng(32);
  SelectionResult r = sel.Run(&rng);
  EXPECT_EQ(r.best, TrueBest(src));
  // Clearly inferior configurations must have been dropped.
  EXPECT_LT(r.active_configs, 12u);
  // Elimination saves calls: fewer than 12 * samples.
  EXPECT_LT(r.optimizer_calls, 12 * r.queries_sampled);
}

TEST(SelectorTest, SingleConfigTrivial) {
  MatrixCostSource src = SyntheticMatrix(100, 1, 4, 0.0, 33);
  SelectorOptions opt;
  ConfigurationSelector sel(&src, opt);
  Rng rng(34);
  SelectionResult r = sel.Run(&rng);
  EXPECT_EQ(r.best, 0u);
  EXPECT_EQ(r.pr_cs, 1.0);
  EXPECT_EQ(r.optimizer_calls, 0u);
}

TEST(SelectorTest, ExhaustionYieldsExactAnswer) {
  // Tiny workload with nearly identical configs: sampling exhausts the
  // population and the result is the exact argmin.
  MatrixCostSource src = SyntheticMatrix(60, 2, 4, 0.0005, 35);
  SelectorOptions opt;
  opt.alpha = 0.999;
  opt.consecutive_to_stop = 50;  // make early stopping unlikely
  ConfigurationSelector sel(&src, opt);
  Rng rng(36);
  SelectionResult r = sel.Run(&rng);
  EXPECT_EQ(r.best, TrueBest(src));
  EXPECT_EQ(r.queries_sampled, 60u);
}

TEST(SelectorTest, OscillationGuardIncreasesSamples) {
  MatrixCostSource src = SyntheticMatrix(5000, 2, 10, 0.05, 37);
  SelectorOptions fast;
  fast.alpha = 0.9;
  fast.consecutive_to_stop = 1;
  SelectorOptions guarded = fast;
  guarded.consecutive_to_stop = 10;
  Rng rng1(38), rng2(38);
  SelectionResult r_fast = ConfigurationSelector(&src, fast).Run(&rng1);
  SelectionResult r_guard = ConfigurationSelector(&src, guarded).Run(&rng2);
  EXPECT_GE(r_guard.queries_sampled, r_fast.queries_sampled);
}

TEST(SelectorTest, StratificationEngagesOnSkewedWorkloads) {
  // Strong template skew and a hard pair: progressive stratification
  // should split at least once before termination.
  MatrixCostSource src = SyntheticMatrix(20000, 2, 10, 0.008, 39);
  SelectorOptions opt;
  opt.alpha = 0.98;
  opt.stratify = true;
  ConfigurationSelector sel(&src, opt);
  Rng rng(40);
  SelectionResult r = sel.Run(&rng);
  EXPECT_GE(r.final_strata[0], 2u);
}

TEST(SelectorTest, AccuracyOverManyTrials) {
  // Monte-Carlo check of the guarantee: with alpha = 0.9, the selection
  // must be correct in well over 80% of trials (sampling error allowed).
  MatrixCostSource src = SyntheticMatrix(3000, 4, 6, 0.03, 41);
  ConfigId truth = TrueBest(src);
  SelectorOptions opt;
  opt.alpha = 0.9;
  int correct = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    Rng rng(1000 + t);
    ConfigurationSelector sel(&src, opt);
    if (sel.Run(&rng).best == truth) ++correct;
  }
  EXPECT_GE(correct, trials * 8 / 10);
}

TEST(SelectorTest, EliminationCannotFreezeOutNearTieBest) {
  // A configuration whose (sparse) advantage lives in one template must
  // not be eliminated before that template has been observed. With the
  // coverage gate, accuracy stays near alpha even with elimination on.
  const size_t N = 2600, T = 13;
  std::vector<std::vector<double>> costs(N);
  std::vector<TemplateId> templates(N);
  Rng gen(401);
  for (size_t q = 0; q < N; ++q) {
    TemplateId t = static_cast<TemplateId>(q % T);
    templates[q] = t;
    double base = 100.0 * (1 + t) * (1.0 + 0.05 * gen.NextGaussian());
    // Config 0: baseline. Config 1: identical except template 12, where it
    // is much cheaper (its entire advantage). Config 2: uniformly worse.
    costs[q] = {base, t == 12 ? base * 0.2 : base, base * 1.02};
  }
  MatrixCostSource src(std::move(costs), std::move(templates));
  ConfigId truth = 1;
  SelectorOptions opt;
  opt.alpha = 0.9;
  opt.scheme = SamplingScheme::kDelta;
  opt.elimination_threshold = 0.995;
  int correct = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    Rng rng(500 + t);
    ConfigurationSelector sel(&src, opt);
    if (sel.Run(&rng).best == truth) ++correct;
  }
  EXPECT_GE(correct, trials * 8 / 10);
}

TEST(SelectorTest, DeterministicForSeed) {
  MatrixCostSource src = SyntheticMatrix(3000, 3, 6, 0.05, 45);
  SelectorOptions opt;
  opt.alpha = 0.9;
  auto run = [&]() {
    Rng rng(777);
    ConfigurationSelector sel(&src, opt);
    return sel.Run(&rng);
  };
  SelectionResult a = run();
  SelectionResult b = run();
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.queries_sampled, b.queries_sampled);
  EXPECT_DOUBLE_EQ(a.pr_cs, b.pr_cs);
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (size_t c = 0; c < a.estimates.size(); ++c) {
    EXPECT_DOUBLE_EQ(a.estimates[c], b.estimates[c]);
  }
}

TEST(SelectorTest, OverheadAwareModeStillSelectsCorrectly) {
  MatrixCostSource src = SyntheticMatrix(4000, 2, 8, 0.08, 46);
  SelectorOptions opt;
  opt.alpha = 0.9;
  opt.overhead_aware = true;
  opt.stratify = true;
  ConfigurationSelector sel(&src, opt);
  Rng rng(47);
  SelectionResult r = sel.Run(&rng);
  EXPECT_EQ(r.best, TrueBest(src));
  EXPECT_TRUE(r.reached_target);
}

TEST(SelectorTest, EstimatesApproximateTrueTotals) {
  MatrixCostSource src = SyntheticMatrix(4000, 3, 8, 0.06, 48);
  SelectorOptions opt;
  opt.alpha = 0.95;
  opt.consecutive_to_stop = 10;
  opt.elimination_threshold = 1.0;  // keep all configs sampled
  ConfigurationSelector sel(&src, opt);
  Rng rng(49);
  SelectionResult r = sel.Run(&rng);
  for (ConfigId c = 0; c < 3; ++c) {
    double truth = src.TotalCost(c);
    EXPECT_NEAR(r.estimates[c], truth, 0.25 * truth) << "config " << c;
  }
}

TEST(SelectorTest, IndependentReportsEliminatedConfigsAtTheirEstimate) {
  // An eliminated configuration's sample and strata freeze when it leaves
  // the race, so its reported estimate is the one it was eliminated at —
  // never a placeholder 0, which would read as the cheapest configuration.
  MatrixCostSource src = SyntheticMatrix(3000, 4, 8, 0.05, 93);
  SelectorOptions opt;
  opt.scheme = SamplingScheme::kIndependent;
  opt.consecutive_to_stop = 5;
  Rng rng(94);
  SelectionResult r = ConfigurationSelector(&src, opt).Run(&rng);
  ASSERT_EQ(r.estimates.size(), 4u);
  size_t eliminated = 0;
  for (ConfigId c = 0; c < 4; ++c) {
    if (r.eliminated_at[c] == 0) continue;
    ++eliminated;
    const double truth = src.TotalCost(c);
    EXPECT_NEAR(r.estimates[c], truth, 0.5 * truth) << "config " << c;
    EXPECT_GT(r.estimates[c], r.estimates[r.best]) << "config " << c;
  }
  EXPECT_GT(eliminated, 0u);
}

class SelectorSchemeSweep
    : public ::testing::TestWithParam<std::tuple<SamplingScheme, bool>> {};

TEST_P(SelectorSchemeSweep, AllVariantsSelectCorrectlyOnModerateGap) {
  auto [scheme, stratify] = GetParam();
  MatrixCostSource src = SyntheticMatrix(4000, 3, 8, 0.08, 43);
  SelectorOptions opt;
  opt.alpha = 0.9;
  opt.scheme = scheme;
  opt.stratify = stratify;
  ConfigurationSelector sel(&src, opt);
  Rng rng(44);
  SelectionResult r = sel.Run(&rng);
  EXPECT_EQ(r.best, TrueBest(src));
  EXPECT_TRUE(r.reached_target);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SelectorSchemeSweep,
    ::testing::Combine(::testing::Values(SamplingScheme::kIndependent,
                                         SamplingScheme::kDelta),
                       ::testing::Bool()));

}  // namespace
}  // namespace pdx
