// Copyright (c) the pdexplore authors.
// Algorithm 1: the probabilistic configuration-selection primitive.
//
// Given a cost source over (workload x configurations), a target
// probability alpha and a sensitivity delta, samples queries incrementally
// — Independent or Delta Sampling, with optional progressive
// stratification (Algorithm 2) — until the Bonferroni-bounded Pr(CS)
// exceeds alpha, and returns the selected configuration together with the
// probability estimate and the optimizer-call count spent.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "core/budget.h"
#include "core/cost_source.h"
#include "core/estimators.h"
#include "core/fault.h"
#include "core/pr_cs.h"

namespace pdx {

class TraceSink;

/// Which sampling scheme the selector runs (paper §4.1 / §4.2).
enum class SamplingScheme { kIndependent, kDelta };

/// Tuning knobs of Algorithm 1.
struct SelectorOptions {
  /// Target probability of correct selection.
  double alpha = 0.9;
  /// Sensitivity: cost differences below delta need not be detected.
  double delta = 0.0;
  SamplingScheme scheme = SamplingScheme::kDelta;
  /// Pilot sample size per estimator; also the per-stratum minimum
  /// (paper: the n_min = 30 rule of thumb, or the Cochran-derived value
  /// from §6.2's CLT check).
  uint32_t n_min = 30;
  /// Enable progressive stratification (Algorithm 2).
  bool stratify = true;
  /// Require Pr(CS) > alpha for this many consecutive samples before
  /// stopping ("guard against oscillation of the Pr(CS)-estimates"; the
  /// §7.2 experiments use 10).
  uint32_t consecutive_to_stop = 1;
  /// Stop sampling configurations whose pairwise Pr(CS) against the
  /// incumbent exceeds this ("elimination", §5/§7.2: 0.995). Values >= 1
  /// disable elimination. The effective threshold is auto-scaled with k so
  /// frozen pairs cannot exhaust the Bonferroni miss budget.
  double elimination_threshold = 0.995;
  /// Hard cap on sampled queries (0 = no cap; the workload size always
  /// caps naturally).
  uint64_t max_samples = 0;
  /// Weight §5.2's variance-reduction sample choice by per-template
  /// optimizer-call overhead.
  bool overhead_aware = false;
  /// Observer of the run's per-round events (not owned; may be shared
  /// across runs). Null disables tracing at the cost of one pointer test
  /// per event site. Tracing never perturbs the run: the sink triggers no
  /// sampling and no optimizer calls, so a traced run is byte-identical
  /// to an untraced one.
  TraceSink* trace = nullptr;
  /// Fault-tolerant execution (core/fault.h). When exec.enabled, Run()
  /// wraps the cost source in a FaultTolerantCostSource — bounded retries
  /// with backoff, per-call deadlines, and degradation of exhausted cells
  /// to §6 cost bounds via `bounds`. Degraded cells feed the estimators
  /// with their interval half-width, widening the SE so Pr(CS) stays an
  /// underestimate; a degraded run never claims the exhausted-sample
  /// Pr(CS) = 1 shortcut. With exec.enabled == false (default) the layer
  /// is not instantiated and the run is byte-identical to before it
  /// existed.
  ExecutionPolicy exec;
  /// §6 cost-interval provider for degradation (not owned; required for
  /// exec.degrade_to_bounds to engage — without it, exhausted cells
  /// rethrow their last WhatIfCallError).
  CellBoundsProvider* bounds = nullptr;
  /// Dynamic budget reallocation (core/budget.h; DESIGN.md §10). With
  /// kDynamic the run owns a BudgetManager that may spend §6.1 bound
  /// refinements through `bounds` (required non-null) and eliminate
  /// configurations by interval dominance. kStatic (default) instantiates
  /// nothing: the run is byte-identical to pre-budget behavior.
  BudgetPolicy budget_policy = BudgetPolicy::kStatic;
  /// Millisecond cost model the dynamic policy schedules against.
  BudgetCostModel budget_model;
};

/// Outcome of a selection run.
struct SelectionResult {
  ConfigId best = 0;
  /// Final Bonferroni Pr(CS) bound.
  double pr_cs = 0.0;
  /// True when Pr(CS) > alpha was reached (false: sample space exhausted
  /// or max_samples hit — the estimate is then exact or best-effort).
  bool reached_target = false;
  /// Distinct workload queries sampled (Delta) / total per-configuration
  /// samples (Independent).
  uint64_t queries_sampled = 0;
  /// Optimizer calls spent (the scarce resource).
  uint64_t optimizer_calls = 0;
  /// Cost estimates per configuration (scaled to workload totals): final
  /// for the configurations still active at termination. A configuration
  /// eliminated mid-run keeps its estimate at elimination, from the
  /// samples drawn up to then, so the entries are not a ranking (an
  /// eliminated configuration can read below the winner).
  std::vector<double> estimates;
  /// Number of strata per configuration at termination (size 1 vector for
  /// Delta Sampling's shared stratification).
  std::vector<uint32_t> final_strata;
  /// Configurations still active (not eliminated) at termination.
  uint32_t active_configs = 0;
  /// Selection-loop rounds executed (0 when k == 1: no loop ran).
  uint64_t rounds = 0;
  /// Round at which each configuration was eliminated (0 = never; the
  /// winner is always 0). Matches the trace's eliminate events.
  std::vector<uint32_t> eliminated_at;
  /// Bytes held by the Delta estimator's raw sample store at termination
  /// (0 for Independent Sampling, which keeps only running moments).
  size_t estimator_samples_bytes = 0;
  /// Evaluations that consumed a bound-degraded cell (ISSUE 4; 0 unless
  /// the run executed under a fault-tolerant source).
  uint64_t degraded_cells = 0;
  /// Retry/timeout/failure totals of the run's execution layer (0 when
  /// options.exec was disabled).
  uint64_t whatif_retries = 0;
  uint64_t whatif_timeouts = 0;
  uint64_t whatif_failures = 0;
  /// Budget-reallocation economics (ISSUE 7; all 0 under kStatic). Real
  /// optimizer calls spent on §6.1 bound refinements — already included
  /// in optimizer_calls.
  uint64_t bound_refinement_calls = 0;
  /// Configurations this run eliminated by interval dominance.
  uint64_t dominance_eliminations = 0;
  /// Queries whose §6.1 interval the run refined.
  uint64_t refined_queries = 0;
  /// Rounds where the §6.2 projection concluded refinement can no longer
  /// produce a dominance and halted it for the rest of the run (0 or 1;
  /// counted so benches can assert the projection engages on workloads
  /// whose bounds are too wide to ever dominate).
  uint64_t refine_halts = 0;
  /// Per-configuration flag: eliminated by interval dominance (as opposed
  /// to the statistical race). Empty under kStatic; consumed by the
  /// dominance_elimination_sound validation property.
  std::vector<bool> dominance_eliminated;
};

/// Algorithm 1 runner. Construct once per selection problem and call Run.
class ConfigurationSelector {
 public:
  ConfigurationSelector(CostSource* source, SelectorOptions options);

  /// Executes the selection. `rng` drives the sampling permutation.
  SelectionResult Run(Rng* rng);

 private:
  SelectionResult RunScheme(Rng* rng);
  /// Algorithm 1's round loop over either sampling scheme; `Scheme`
  /// supplies the estimator, the pilot and the sample choice.
  template <class Scheme>
  SelectionResult RunRounds(Rng* rng);

  /// z-score required per pairwise comparison after Bonferroni splitting
  /// of (1 - alpha) across `active_pairs` comparisons.
  double RequiredZ(size_t active_pairs) const;

  /// The user threshold raised so that all k-1 potentially-frozen pairs
  /// together consume at most half the (1 - alpha) miss budget.
  double EffectiveEliminationThreshold(size_t k) const;

  CostSource* source_;
  SelectorOptions options_;
};

}  // namespace pdx
