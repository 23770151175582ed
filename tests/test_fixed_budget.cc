#include "core/fixed_budget.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "test_util.h"

namespace pdx {
namespace {

using testing::SyntheticMatrix;

ConfigId TrueBest(const MatrixCostSource& src) {
  ConfigId best = 0;
  double bt = src.TotalCost(0);
  for (ConfigId c = 1; c < src.num_configs(); ++c) {
    if (src.TotalCost(c) < bt) {
      bt = src.TotalCost(c);
      best = c;
    }
  }
  return best;
}

TEST(FixedBudgetTest, BudgetRespectedDelta) {
  MatrixCostSource src = SyntheticMatrix(2000, 3, 8, 0.05, 51);
  FixedBudgetOptions opt;
  opt.scheme = SamplingScheme::kDelta;
  Rng rng(52);
  FixedBudgetResult r = FixedBudgetSelect(&src, 100, opt, &rng);
  EXPECT_LE(r.queries_sampled, 100u);
  EXPECT_EQ(r.optimizer_calls, r.queries_sampled * 3);
}

TEST(FixedBudgetTest, BudgetRespectedIndependent) {
  MatrixCostSource src = SyntheticMatrix(2000, 3, 8, 0.05, 53);
  FixedBudgetOptions opt;
  opt.scheme = SamplingScheme::kIndependent;
  Rng rng(54);
  FixedBudgetResult r = FixedBudgetSelect(&src, 120, opt, &rng);
  EXPECT_LE(r.queries_sampled, 120u);
  EXPECT_EQ(r.optimizer_calls, r.queries_sampled);
}

TEST(FixedBudgetTest, LargeBudgetSelectsCorrectly) {
  MatrixCostSource src = SyntheticMatrix(2000, 3, 8, 0.08, 55);
  for (AllocationPolicy policy :
       {AllocationPolicy::kVarianceGuided, AllocationPolicy::kUniform,
        AllocationPolicy::kEqualPerTemplate,
        AllocationPolicy::kFinePerTemplate}) {
    FixedBudgetOptions opt;
    opt.allocation = policy;
    Rng rng(56);
    FixedBudgetResult r = FixedBudgetSelect(&src, 800, opt, &rng);
    EXPECT_EQ(r.best, TrueBest(src))
        << "policy " << static_cast<int>(policy);
  }
}

TEST(FixedBudgetTest, AccuracyImprovesWithBudget) {
  MatrixCostSource src = SyntheticMatrix(4000, 2, 8, 0.02, 57);
  ConfigId truth = TrueBest(src);
  auto accuracy = [&](uint64_t budget) {
    int correct = 0;
    const int trials = 80;
    for (int t = 0; t < trials; ++t) {
      FixedBudgetOptions opt;
      opt.allocation = AllocationPolicy::kUniform;
      Rng rng(900 + t);
      if (FixedBudgetSelect(&src, budget, opt, &rng).best == truth) {
        ++correct;
      }
    }
    return static_cast<double>(correct) / trials;
  };
  double small = accuracy(20);
  double large = accuracy(600);
  EXPECT_GT(large, small);
  EXPECT_GT(large, 0.85);
}

TEST(FixedBudgetTest, EqualAllocationSpreadsOverTemplates) {
  MatrixCostSource src = SyntheticMatrix(1000, 2, 10, 0.1, 58);
  FixedBudgetOptions opt;
  opt.allocation = AllocationPolicy::kEqualPerTemplate;
  Rng rng(59);
  FixedBudgetResult r = FixedBudgetSelect(&src, 50, opt, &rng);
  // 50 samples over 10 templates: every template gets exactly 5 because
  // allocation is round-robin.
  EXPECT_EQ(r.queries_sampled, 50u);
}

TEST(FixedBudgetTest, ExhaustsSmallWorkloadGracefully) {
  MatrixCostSource src = SyntheticMatrix(40, 2, 4, 0.1, 60);
  FixedBudgetOptions opt;
  Rng rng(61);
  FixedBudgetResult r = FixedBudgetSelect(&src, 1000, opt, &rng);
  EXPECT_EQ(r.queries_sampled, 40u);
  EXPECT_EQ(r.best, TrueBest(src));
}

TEST(FixedBudgetTest, EstimatesScaleToWorkloadTotals) {
  MatrixCostSource src = SyntheticMatrix(2000, 2, 8, 0.1, 62);
  FixedBudgetOptions opt;
  Rng rng(63);
  FixedBudgetResult r = FixedBudgetSelect(&src, 500, opt, &rng);
  for (ConfigId c = 0; c < 2; ++c) {
    double truth = src.TotalCost(c);
    EXPECT_NEAR(r.estimates[c], truth, 0.2 * truth);
  }
}

TEST(FixedBudgetTest, DeterministicForSeed) {
  MatrixCostSource src = SyntheticMatrix(1500, 3, 6, 0.05, 64);
  FixedBudgetOptions opt;
  opt.allocation = AllocationPolicy::kVarianceGuided;
  auto run = [&]() {
    Rng rng(888);
    return FixedBudgetSelect(&src, 150, opt, &rng);
  };
  FixedBudgetResult a = run();
  FixedBudgetResult b = run();
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.queries_sampled, b.queries_sampled);
  for (size_t c = 0; c < a.estimates.size(); ++c) {
    EXPECT_DOUBLE_EQ(a.estimates[c], b.estimates[c]);
  }
}

TEST(FixedBudgetTest, FineStrataCoverEveryTemplateEarly) {
  // With the under-sampled-stratum priority, a fine-stratified run at a
  // budget of 2T samples must give every template at least one sample.
  MatrixCostSource src = SyntheticMatrix(2000, 2, 20, 0.05, 65);
  FixedBudgetOptions opt;
  opt.allocation = AllocationPolicy::kFinePerTemplate;
  Rng rng(66);
  FixedBudgetResult r = FixedBudgetSelect(&src, 40, opt, &rng);
  EXPECT_EQ(r.queries_sampled, 40u);
  // Estimates for both configs must be positive (every template visited;
  // an unvisited template would contribute zero mass).
  for (double e : r.estimates) EXPECT_GT(e, 0.0);
}

class BudgetSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BudgetSweep, ExactBudgetConsumedWhenAvailable) {
  MatrixCostSource src = SyntheticMatrix(3000, 2, 8, 0.05, 67);
  for (AllocationPolicy policy :
       {AllocationPolicy::kVarianceGuided, AllocationPolicy::kUniform,
        AllocationPolicy::kEqualPerTemplate}) {
    FixedBudgetOptions opt;
    opt.allocation = policy;
    Rng rng(68);
    FixedBudgetResult r = FixedBudgetSelect(&src, GetParam(), opt, &rng);
    EXPECT_EQ(r.queries_sampled, GetParam())
        << "policy " << static_cast<int>(policy);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweep,
                         ::testing::Values(10, 50, 200, 1000));

// Fixed-budget golden: every (scheme x allocation x stratify x
// overhead_aware) combination at three budgets — below the pilot, inside
// the variance-guided phase, and past the workload size — on one
// fixed-seed matrix whose per-template optimizer overheads differ, so the
// overhead-aware choice has something to weigh. Estimates are printed as
// hex floats, so any last-ulp change shows. Regenerate with
// PDX_REGEN_FIXED_BUDGET_GOLDEN=1 when a behaviour change is intended.
class OverheadMatrix : public MatrixCostSource {
 public:
  explicit OverheadMatrix(MatrixCostSource m) : MatrixCostSource(std::move(m)) {}
  double OptimizeOverhead(QueryId q) const override {
    return 1.0 + 2.0 * static_cast<double>(TemplateOf(q));
  }
};

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string ProduceFixedBudgetGolden() {
  OverheadMatrix src(SyntheticMatrix(600, 4, 6, 0.04, 71));
  const std::pair<SamplingScheme, const char*> schemes[] = {
      {SamplingScheme::kDelta, "delta"},
      {SamplingScheme::kIndependent, "indep"}};
  const std::pair<AllocationPolicy, const char*> allocations[] = {
      {AllocationPolicy::kVarianceGuided, "variance"},
      {AllocationPolicy::kUniform, "uniform"},
      {AllocationPolicy::kEqualPerTemplate, "equal"},
      {AllocationPolicy::kFinePerTemplate, "fine"}};
  std::string out;
  for (const auto& [scheme, scheme_name] : schemes) {
    for (const auto& [allocation, allocation_name] : allocations) {
      for (bool stratify : {false, true}) {
        for (bool overhead_aware : {false, true}) {
          for (uint64_t budget : {8u, 240u, 5000u}) {
            FixedBudgetOptions opt;
            opt.scheme = scheme;
            opt.allocation = allocation;
            opt.stratify = stratify;
            opt.overhead_aware = overhead_aware;
            opt.n_min = 10;
            src.ResetCallCounter();
            Rng rng(1000 + budget);
            FixedBudgetResult r = FixedBudgetSelect(&src, budget, opt, &rng);
            out += std::string(scheme_name) + " " + allocation_name +
                   " stratify=" + (stratify ? "1" : "0") +
                   " overhead=" + (overhead_aware ? "1" : "0") +
                   " budget=" + std::to_string(budget) +
                   " best=" + std::to_string(r.best) +
                   " sampled=" + std::to_string(r.queries_sampled) +
                   " calls=" + std::to_string(r.optimizer_calls) + " est=";
            for (size_t c = 0; c < r.estimates.size(); ++c) {
              out += (c > 0 ? "," : "") + Hex(r.estimates[c]);
            }
            out += "\n";
          }
        }
      }
    }
  }
  return out;
}

TEST(FixedBudgetGoldenTest, EveryOptionCombinationMatchesGolden) {
  const std::string path = PDX_FIXED_BUDGET_GOLDEN;
  const std::string produced = ProduceFixedBudgetGolden();
  if (std::getenv("PDX_REGEN_FIXED_BUDGET_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << produced;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  std::istringstream want(golden.str()), got(produced);
  std::string w, g;
  for (int line = 1; std::getline(want, w); ++line) {
    ASSERT_TRUE(std::getline(got, g)) << "output ends before line " << line;
    ASSERT_EQ(w, g) << "first difference at line " << line;
  }
  EXPECT_FALSE(std::getline(got, g)) << "output has extra lines: " << g;
}

}  // namespace
}  // namespace pdx
