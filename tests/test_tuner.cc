#include "tuner/enumerator.h"
#include "tuner/greedy_tuner.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "optimizer/relevance.h"
#include "test_util.h"

namespace pdx {
namespace {

using testing::SmallTpcdSchema;
using testing::SmallTpcdWorkload;

class TunerTest : public ::testing::Test {
 protected:
  TunerTest()
      : schema_(SmallTpcdSchema()),
        wl_(SmallTpcdWorkload(schema_, 240)),
        opt_(schema_) {}

  Schema schema_;
  Workload wl_;
  WhatIfOptimizer opt_;
};

TEST_F(TunerTest, ScoredCandidatesSortedByBenefit) {
  Rng rng(601);
  EnumeratorOptions eopt;
  eopt.eval_sample_size = 60;
  auto scored = ScoreCandidates(opt_, wl_, eopt, &rng);
  ASSERT_GT(scored.size(), 5u);
  for (size_t i = 1; i < scored.size(); ++i) {
    EXPECT_GE(scored[i - 1].benefit, scored[i].benefit);
  }
  EXPECT_GT(scored.front().benefit, 0.0);
}

TEST_F(TunerTest, EnumeratedConfigsDistinctAndWithinBudget) {
  Rng rng(602);
  EnumeratorOptions eopt;
  eopt.num_configs = 12;
  eopt.eval_sample_size = 60;
  eopt.storage_budget_bytes = schema_.TotalHeapBytes() / 4;
  auto configs = EnumerateConfigurations(opt_, wl_, eopt, &rng);
  EXPECT_EQ(configs.size(), 12u);
  std::set<uint64_t> hashes;
  for (const Configuration& c : configs) {
    EXPECT_TRUE(hashes.insert(c.Hash()).second) << "duplicate configuration";
    EXPECT_LE(c.StorageBytes(schema_), eopt.storage_budget_bytes);
    EXPECT_GT(c.NumStructures(), 0u);
  }
}

TEST_F(TunerTest, ConfigsShareTopStructures) {
  // The enumerator's whole point: overlapping configurations with
  // positive cost covariance (what Delta Sampling exploits).
  Rng rng(603);
  EnumeratorOptions eopt;
  eopt.num_configs = 10;
  eopt.eval_sample_size = 60;
  auto configs = EnumerateConfigurations(opt_, wl_, eopt, &rng);
  double overlap_sum = 0.0;
  int pairs = 0;
  for (size_t a = 1; a < configs.size(); ++a) {
    for (size_t b = a + 1; b < configs.size(); ++b) {
      overlap_sum += configs[a].StructureOverlap(configs[b]);
      ++pairs;
    }
  }
  EXPECT_GT(overlap_sum / pairs, 0.05);
}

TEST_F(TunerTest, NeighborhoodVariantsNearBase) {
  Rng rng(604);
  EnumeratorOptions eopt;
  eopt.eval_sample_size = 60;
  auto scored = ScoreCandidates(opt_, wl_, eopt, &rng);
  auto configs = EnumerateConfigurations(opt_, wl_, eopt, &rng);
  auto variants = EnumerateNeighborhood(configs[0], scored, 8, 2, 1, &rng);
  EXPECT_GE(variants.size(), 4u);
  for (const Configuration& v : variants) {
    EXPECT_NE(v.Hash(), configs[0].Hash());
    EXPECT_GT(v.StructureOverlap(configs[0]), 0.3)
        << "neighborhood variants must share most structures";
  }
}

TEST_F(TunerTest, FindConfigPairTargetsGap) {
  std::vector<Configuration> configs(4);
  for (int i = 0; i < 4; ++i) {
    configs[i].set_name("c" + std::to_string(i));
  }
  std::vector<double> totals = {100.0, 107.0, 150.0, 98.0};
  auto [lo, hi] = FindConfigPair(configs, totals, 0.07, 0.0, 1.0);
  // Closest pair to 7% gap: (100, 107).
  EXPECT_EQ(totals[lo], 100.0);
  EXPECT_EQ(totals[hi], 107.0);
  EXPECT_LE(totals[lo], totals[hi]);
}

TEST_F(TunerTest, GreedyTunerImprovesWorkloadCost) {
  std::vector<QueryId> ids;
  for (QueryId q = 0; q < wl_.size(); ++q) ids.push_back(q);
  Rng rng(605);
  TunerOptions topt;
  topt.max_structures = 6;
  topt.beam_width = 12;
  TuneResult r = GreedyTune(opt_, wl_, ids, {}, topt, &rng);
  EXPECT_GT(r.Improvement(), 0.15);
  EXPECT_LE(r.final_cost, r.initial_cost);
  EXPECT_LE(r.config.NumStructures(), 6u);
  EXPECT_GT(r.optimizer_calls, 0u);
}

TEST_F(TunerTest, GreedyTunerHonorsStorageBudget) {
  std::vector<QueryId> ids;
  for (QueryId q = 0; q < wl_.size(); ++q) ids.push_back(q);
  Rng rng(606);
  TunerOptions topt;
  topt.storage_budget_bytes = schema_.TotalHeapBytes() / 20;
  TuneResult r = GreedyTune(opt_, wl_, ids, {}, topt, &rng);
  EXPECT_LE(r.config.StorageBytes(schema_), topt.storage_budget_bytes);
}

TEST_F(TunerTest, WeightedTuningPrefersHeavyQueries) {
  // Weight one expensive join template heavily; the tuned configuration
  // must help it.
  std::vector<QueryId> ids;
  std::vector<double> weights;
  TemplateId heavy = wl_.query(0).template_id;
  for (QueryId q = 0; q < wl_.size(); ++q) {
    ids.push_back(q);
    weights.push_back(wl_.query(q).template_id == heavy ? 50.0 : 1.0);
  }
  Rng rng(607);
  TunerOptions topt;
  topt.max_structures = 4;
  TuneResult r = GreedyTune(opt_, wl_, ids, weights, topt, &rng);
  Configuration empty("empty");
  const Query& probe = wl_.query(wl_.QueriesOfTemplate(heavy)[0]);
  EXPECT_LT(opt_.Cost(probe, r.config), opt_.Cost(probe, empty));
}

TEST_F(TunerTest, PrimitiveDrivenTuningMatchesExactQuality) {
  std::vector<QueryId> ids;
  for (QueryId q = 0; q < wl_.size(); ++q) ids.push_back(q);
  Rng rng1(608), rng2(608);
  TunerOptions exact;
  exact.max_structures = 4;
  exact.beam_width = 8;
  TuneResult r_exact = GreedyTune(opt_, wl_, ids, {}, exact, &rng1);

  TunerOptions sampled = exact;
  sampled.use_comparison_primitive = true;
  sampled.selector.alpha = 0.85;
  sampled.selector.n_min = 20;
  TuneResult r_sampled = GreedyTune(opt_, wl_, ids, {}, sampled, &rng2);
  // The primitive-driven tuner must achieve comparable improvement.
  EXPECT_GT(r_sampled.Improvement(), 0.5 * r_exact.Improvement());
}

TEST_F(TunerTest, BaseConfigSeedsTuning) {
  // Tuning on top of a deployed base keeps the base structures and only
  // measures improvement beyond it.
  std::vector<QueryId> ids;
  for (QueryId q = 0; q < wl_.size(); ++q) ids.push_back(q);
  Configuration base("deployed");
  Index pk;
  pk.table = kCustomer;
  pk.key_columns = {0};
  base.AddIndex(pk);
  Rng rng(611);
  TunerOptions topt;
  topt.max_structures = 3;
  topt.base_config = base;
  TuneResult r = GreedyTune(opt_, wl_, ids, {}, topt, &rng);
  EXPECT_TRUE(r.config.ContainsIndex(pk));
  EXPECT_NEAR(r.initial_cost,
              WeightedCost(opt_, wl_, ids, {}, base), 1e-6 * r.initial_cost);
}

TEST_F(TunerTest, ScoringSampleReducesCallsSimilarQuality) {
  std::vector<QueryId> ids;
  for (QueryId q = 0; q < wl_.size(); ++q) ids.push_back(q);
  TunerOptions exact;
  exact.max_structures = 3;
  exact.beam_width = 10;
  Rng rng1(612);
  opt_.ResetCallCounter();
  TuneResult r_exact = GreedyTune(opt_, wl_, ids, {}, exact, &rng1);
  uint64_t calls_exact = opt_.num_calls();

  TunerOptions sampled = exact;
  sampled.scoring_sample_size = 60;
  Rng rng2(612);
  opt_.ResetCallCounter();
  TuneResult r_sampled = GreedyTune(opt_, wl_, ids, {}, sampled, &rng2);
  uint64_t calls_sampled = opt_.num_calls();
  EXPECT_LT(calls_sampled, calls_exact);
  EXPECT_GT(r_sampled.Improvement(), 0.5 * r_exact.Improvement());
}

TEST_F(TunerTest, GreedyTuneIsBitIdenticalAcrossCacheTiers) {
  // The cache tier only changes how the per-round selection source
  // memoizes; designs and costs must agree to the last bit.
  std::vector<QueryId> ids;
  for (QueryId q = 0; q < wl_.size(); ++q) ids.push_back(q);
  for (bool primitive : {false, true}) {
    TunerOptions topt;
    topt.max_structures = 4;
    topt.beam_width = 10;
    topt.use_comparison_primitive = primitive;
    topt.selector.alpha = 0.85;
    topt.selector.n_min = 20;
    std::vector<TuneResult> runs;
    for (WhatIfCacheMode mode :
         {WhatIfCacheMode::kOff, WhatIfCacheMode::kExact,
          WhatIfCacheMode::kSignature}) {
      topt.cache = mode;
      Rng rng(613);
      runs.push_back(GreedyTune(opt_, wl_, ids, {}, topt, &rng));
    }
    for (size_t i = 1; i < runs.size(); ++i) {
      SCOPED_TRACE("primitive=" + std::to_string(primitive) +
                   " tier=" + std::to_string(i));
      EXPECT_EQ(runs[i].config.indexes(), runs[0].config.indexes());
      EXPECT_EQ(runs[i].config.views(), runs[0].config.views());
      EXPECT_EQ(runs[i].initial_cost, runs[0].initial_cost);
      EXPECT_EQ(runs[i].final_cost, runs[0].final_cost);
    }
    EXPECT_GT(runs[0].config.NumStructures(), 0u);
  }
}

// Exact greedy tuning spelled out with whole-workload WeightedCost calls:
// every candidate is scored and every extension priced on every query.
struct ReferenceTune {
  Configuration config;
  double initial_cost = 0.0;
  double final_cost = 0.0;
};

ReferenceTune BruteForceGreedy(const WhatIfOptimizer& opt, const Workload& wl,
                               const std::vector<QueryId>& ids,
                               const std::vector<double>& weights,
                               const TunerOptions& o, Rng* rng) {
  const Schema& schema = wl.schema();
  const uint64_t budget = o.storage_budget_bytes > 0
                              ? o.storage_budget_bytes
                              : schema.TotalHeapBytes() * 2 / 5;
  auto with = [](Configuration c, const ScoredStructure& s) {
    if (s.is_view) {
      c.AddView(s.view);
    } else {
      c.AddIndex(s.index);
    }
    return c;
  };
  CandidateGenerator gen(schema, o.candidates);
  std::vector<ScoredStructure> pool;
  std::set<uint64_t> seen;
  for (QueryId q : ids) {
    QueryCandidates qc = gen.ForQuery(wl.query(q));
    for (Index& idx : qc.indexes) {
      if (!seen.insert(idx.Hash()).second) continue;
      ScoredStructure s;
      s.index = std::move(idx);
      s.storage_bytes = s.index.StorageBytes(schema);
      pool.push_back(std::move(s));
    }
    for (MaterializedView& v : qc.views) {
      if (!seen.insert(v.Hash()).second) continue;
      ScoredStructure s;
      s.is_view = true;
      s.view = std::move(v);
      s.storage_bytes = s.view.StorageBytes(schema);
      pool.push_back(std::move(s));
    }
  }
  std::vector<QueryId> scoring_ids = ids;
  std::vector<double> scoring_weights = weights;
  if (o.scoring_sample_size > 0 && o.scoring_sample_size < ids.size()) {
    scoring_ids.clear();
    scoring_weights.clear();
    for (uint32_t i :
         rng->SampleWithoutReplacement(ids.size(), o.scoring_sample_size)) {
      scoring_ids.push_back(ids[i]);
      if (!weights.empty()) scoring_weights.push_back(weights[i]);
    }
  }
  const double scoring_base =
      WeightedCost(opt, wl, scoring_ids, scoring_weights, o.base_config);
  for (ScoredStructure& s : pool) {
    s.benefit = scoring_base - WeightedCost(opt, wl, scoring_ids,
                                            scoring_weights,
                                            with(o.base_config, s));
  }
  std::sort(pool.begin(), pool.end(),
            [](const ScoredStructure& a, const ScoredStructure& b) {
              return a.benefit > b.benefit;
            });
  if (pool.size() > o.beam_width) pool.resize(o.beam_width);

  ReferenceTune r;
  r.config = o.base_config;
  r.initial_cost = WeightedCost(opt, wl, ids, weights, r.config);
  r.final_cost = r.initial_cost;
  std::vector<bool> used(pool.size(), false);
  uint64_t used_bytes = 0;
  for (uint32_t round = 0; round < o.max_structures; ++round) {
    int64_t best = -1;
    double best_cost = r.final_cost;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (used[i] || used_bytes + pool[i].storage_bytes > budget) continue;
      double c = WeightedCost(opt, wl, ids, weights, with(r.config, pool[i]));
      if (c < best_cost) {
        best_cost = c;
        best = static_cast<int64_t>(i);
      }
    }
    if (best < 0) break;
    r.config = with(r.config, pool[best]);
    used[best] = true;
    used_bytes += pool[best].storage_bytes;
    r.final_cost = best_cost;
  }
  return r;
}

TEST_F(TunerTest, ExactTuneMatchesBruteForceGreedy) {
  std::vector<QueryId> ids;
  std::vector<double> weights;
  for (QueryId q = 0; q < wl_.size(); q += 2) {
    ids.push_back(q);
    weights.push_back(0.5 + 0.25 * static_cast<double>(q % 7));
  }
  Configuration base("deployed");
  Index pk;
  pk.table = kOrders;
  pk.key_columns = {0};
  base.AddIndex(pk);
  for (uint32_t sample : {0u, 40u}) {
    SCOPED_TRACE("scoring_sample_size=" + std::to_string(sample));
    TunerOptions topt;
    topt.max_structures = 5;
    topt.beam_width = 12;
    topt.scoring_sample_size = sample;
    topt.base_config = base;
    Rng rng1(614), rng2(614);
    TuneResult got = GreedyTune(opt_, wl_, ids, weights, topt, &rng1);
    ReferenceTune want = BruteForceGreedy(opt_, wl_, ids, weights, topt, &rng2);
    EXPECT_EQ(got.config.indexes(), want.config.indexes());
    EXPECT_EQ(got.config.views(), want.config.views());
    EXPECT_EQ(got.initial_cost, want.initial_cost);
    EXPECT_EQ(got.final_cost, want.final_cost);
    EXPECT_GT(got.config.NumStructures(), base.NumStructures());
  }
}

TEST_F(TunerTest, PoolStructureInBaseCostsNoCall) {
  // With no rounds, a tune spends one call per query on the initial
  // costing plus one per (candidate, query it can touch) on scoring. A
  // candidate already deployed scores benefit 0 without any call, so
  // deploying it saves exactly the queries it touches.
  std::vector<QueryId> ids;
  for (QueryId q = 0; q < wl_.size(); ++q) ids.push_back(q);
  CandidateGenerator gen(schema_, CandidateGenOptions{});
  QueryCandidates qc = gen.ForQuery(wl_.query(ids[0]));
  ASSERT_FALSE(qc.indexes.empty());
  const Index s = qc.indexes[0];
  uint64_t touched = 0;
  for (QueryId q : ids) {
    if (IndexRelevant(ComputeFootprint(wl_.query(q)), s)) ++touched;
  }
  ASSERT_GT(touched, 0u);

  TunerOptions topt;
  topt.max_structures = 0;
  Rng rng1(615), rng2(615);
  TuneResult plain = GreedyTune(opt_, wl_, ids, {}, topt, &rng1);
  topt.base_config.AddIndex(s);
  TuneResult deployed = GreedyTune(opt_, wl_, ids, {}, topt, &rng2);
  EXPECT_EQ(plain.optimizer_calls - deployed.optimizer_calls, touched);
  EXPECT_EQ(deployed.final_cost, deployed.initial_cost);

  // In a round, too, re-adding it is worth nothing and never wins.
  topt.max_structures = 1;
  topt.beam_width = 4;
  Rng rng3(615);
  TuneResult round = GreedyTune(opt_, wl_, ids, {}, topt, &rng3);
  EXPECT_LE(round.config.NumStructures(), 2u);
  EXPECT_TRUE(round.config.ContainsIndex(s));
}

TEST_F(TunerTest, WeightedCostMatchesManualSum) {
  std::vector<QueryId> ids = {0, 5, 10};
  std::vector<double> weights = {2.0, 1.0, 3.0};
  Configuration empty("empty");
  double expected = 2.0 * opt_.Cost(wl_.query(0), empty) +
                    opt_.Cost(wl_.query(5), empty) +
                    3.0 * opt_.Cost(wl_.query(10), empty);
  EXPECT_NEAR(WeightedCost(opt_, wl_, ids, weights, empty), expected,
              1e-9 * expected);
}

}  // namespace
}  // namespace pdx
