// Copyright (c) the pdexplore authors.
// Fixed-budget comparison harnesses. The §7.1 Monte-Carlo experiments run
// each sampling scheme "for a given sample size and output the selected
// configuration"; the §7.2 comparisons give the alternative allocation
// methods "identical numbers of samples". These helpers run one selection
// at a fixed sampling budget without a stopping rule, elimination, dynamic
// budget or fault layer — the paper's baselines have none. They stay a
// loop of their own rather than a selector stop rule (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/cost_source.h"
#include "core/selector.h"

namespace pdx {

/// How the fixed budget is spent.
enum class AllocationPolicy {
  /// Algorithm 1's machinery (pilot + §5.2 variance-guided allocation,
  /// optional progressive stratification) truncated at the budget.
  kVarianceGuided,
  /// Uniform random sampling, no stratification ("No Strat." rows).
  kUniform,
  /// The same number of queries from every template ("Equal Alloc." rows,
  /// with one stratum per template).
  kEqualPerTemplate,
  /// One stratum per template with variance-guided allocation — the
  /// "fine stratification" curve of Figure 2.
  kFinePerTemplate,
};

/// Options for a fixed-budget run.
struct FixedBudgetOptions {
  SamplingScheme scheme = SamplingScheme::kDelta;
  AllocationPolicy allocation = AllocationPolicy::kVarianceGuided;
  /// Progressive stratification (only meaningful for kVarianceGuided).
  bool stratify = true;
  uint32_t n_min = 30;
  /// Weight the variance-guided stratum choice by per-template optimizer
  /// overhead (§5.2's non-constant optimization times). Only meaningful
  /// for kVarianceGuided / kFinePerTemplate.
  bool overhead_aware = false;
};

/// Outcome of a fixed-budget comparison.
struct FixedBudgetResult {
  ConfigId best = 0;
  /// Estimated workload totals per configuration.
  std::vector<double> estimates;
  /// Queries sampled (Delta: distinct queries; Independent: total draws).
  uint64_t queries_sampled = 0;
  uint64_t optimizer_calls = 0;
};

/// Runs one comparison spending at most `query_budget` sampled queries
/// (Delta Sampling evaluates each in every configuration; Independent
/// Sampling counts each draw once). Returns the configuration with the
/// lowest estimate.
FixedBudgetResult FixedBudgetSelect(CostSource* source, uint64_t query_budget,
                                    const FixedBudgetOptions& options,
                                    Rng* rng);

}  // namespace pdx
