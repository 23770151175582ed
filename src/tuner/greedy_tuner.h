// Copyright (c) the pdexplore authors.
// A small greedy physical-design tuner. Used by the §7.3 experiments to
// measure end-to-end tuning quality when the input workload is compressed
// ([5]/[20]) versus sampled (this paper), and as a demonstration of the
// comparison primitive as "the core comparison primitive inside an
// automated physical design tool".
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/selector.h"
#include "tuner/enumerator.h"

namespace pdx {

/// Options for the greedy tuner.
struct TunerOptions {
  /// Storage budget; 0 = 40% of the database heap size.
  uint64_t storage_budget_bytes = 0;
  /// Maximum structures added.
  uint32_t max_structures = 12;
  /// Candidates kept after the initial scoring round (greedy beam).
  uint32_t beam_width = 24;
  /// Queries used for the initial per-structure benefit scoring; 0 scores
  /// on the full tuning set (exact; one optimizer call per candidate and
  /// query the candidate can touch).
  uint32_t scoring_sample_size = 0;
  /// Structures already deployed: tuning starts from this configuration,
  /// candidates are added on top, and improvement is measured against it.
  Configuration base_config;
  /// When true, each greedy round selects the winning extension with the
  /// sampling-based comparison primitive instead of exact evaluation.
  bool use_comparison_primitive = false;
  /// What-if memoization tier for the per-round selections of the
  /// primitive-driven mode; exact evaluation does not read it. kSignature
  /// shares one optimizer call across every candidate configuration that
  /// agrees on a query's relevant structures — the candidates of one
  /// greedy round differ by a single structure, so nearly all of them do.
  /// Scoring, winner repricing and exact rounds need no tier: they price
  /// `current + s` by re-costing only the queries `s` can touch
  /// (optimizer/relevance.h). Results are bit-identical across tiers;
  /// only the call count changes.
  WhatIfCacheMode cache = WhatIfCacheMode::kOff;
  /// Selector settings for the primitive-driven mode.
  SelectorOptions selector;
  CandidateGenOptions candidates;
  /// Fault injection over the primitive-driven per-round selections
  /// (core/fault.h). When enabled(), each round's what-if source is
  /// wrapped in a seeded FaultInjectingCostSource (the round index is
  /// mixed into the seed so rounds draw independent schedules) and the
  /// selector runs under selector.exec's retry policy with §6 bound
  /// degradation; a once-per-tune CostBoundsDeriver over base + the
  /// pruned candidate pool supplies the intervals. Ignored when
  /// use_comparison_primitive is false (exact evaluation has no what-if
  /// loop to perturb).
  FaultSpec faults;
};

/// Tuning outcome.
struct TuneResult {
  Configuration config;
  /// Cost of the (weighted) tuning workload before/after, exact.
  double initial_cost = 0.0;
  double final_cost = 0.0;
  /// Optimizer calls spent tuning.
  uint64_t optimizer_calls = 0;
  /// Execution-layer totals summed over the per-round selections (all 0
  /// unless options.faults was enabled).
  uint64_t whatif_retries = 0;
  uint64_t whatif_timeouts = 0;
  uint64_t whatif_failures = 0;
  uint64_t degraded_cells = 0;
  /// Budget-reallocation totals summed over the per-round selections
  /// (all 0 unless options.selector.budget_policy is kDynamic). The
  /// refinement calls are already part of optimizer_calls: the bounds
  /// deriver prices them through the same optimizer meter.
  uint64_t bound_refinement_calls = 0;
  uint64_t dominance_eliminations = 0;
  uint64_t refined_queries = 0;

  double Improvement() const {
    return initial_cost > 0.0 ? 1.0 - final_cost / initial_cost : 0.0;
  }
};

/// Greedily tunes the (sub-)workload given by `query_ids` with per-query
/// `weights` (e.g. cluster sizes from compression; pass empty for unit
/// weights). Queries refer to `workload` ids.
TuneResult GreedyTune(const WhatIfOptimizer& optimizer,
                      const Workload& workload,
                      const std::vector<QueryId>& query_ids,
                      const std::vector<double>& weights,
                      const TunerOptions& options, Rng* rng);

/// Exact weighted cost of a query set under a configuration (one optimizer
/// call per query).
double WeightedCost(const WhatIfOptimizer& optimizer, const Workload& workload,
                    const std::vector<QueryId>& query_ids,
                    const std::vector<double>& weights,
                    const Configuration& config);

}  // namespace pdx
