// Copyright (c) the pdexplore authors.
// The what-if optimizer: Cost(q, C) — "the optimizer-estimated cost of
// executing Q if configuration C were present" [8]. This is the substrate
// the whole paper runs against; in the original work it is SQL Server's
// optimizer behind the what-if API. Ours is a deterministic analytical
// model with the properties the paper's techniques rely on:
//
//   * access-path choice (heap scan / index seek / covering scans),
//     index-nested-loop vs. hash joins, sort avoidance, view matching —
//     so costs respond to physical design structures;
//   * SELECT costs are monotone non-increasing as structures are added
//     (a "well-behaved" optimizer, §6.1), enabling base-configuration
//     upper bounds;
//   * pure-update costs grow with statement selectivity (§6.1);
//   * costs are heavily skewed across templates and mildly varying within
//     a template, giving the distribution shape of §7.
//
// Every Cost() invocation increments an optimizer-call counter — the
// resource the comparison primitive is designed to conserve.
//
// Cost()/CostParts() allocate nothing unless a join query meets a
// configuration with views (view matching builds the query's join
// shape): plan text is formatted only when a caller passes a
// PlanExplanation, from the same costing kernel.
//
// Thread-safety: Cost()/CostParts()/CostExplained()/TotalCost() are safe
// to call concurrently. The cost model and schema are immutable after
// construction; the only state Cost() mutates is the pair of call
// counters, which are atomics updated with relaxed ordering. Note that
// weighted_calls() is a floating-point sum accumulated across threads,
// so its last-ulp rounding can differ between thread counts; the integer
// num_calls() is exact everywhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "optimizer/cost_model.h"
#include "optimizer/physical_design.h"
#include "workload/workload.h"

namespace pdx {

/// Optional plan breakdown returned by CostExplained.
struct PlanExplanation {
  double total_cost = 0.0;
  double select_cost = 0.0;
  double update_cost = 0.0;
  bool used_view = false;
  /// Human-readable chosen access path per table access.
  std::vector<std::string> access_paths;
};

/// The two halves of one statement's cost: the SELECT part (the query
/// plan) and the UPDATE part (base-table, index and view maintenance).
/// Their sum is bitwise what Cost() returns.
struct CostSplit {
  double select = 0.0;
  double update = 0.0;
};

/// Deterministic what-if cost oracle with call accounting.
class WhatIfOptimizer {
 public:
  explicit WhatIfOptimizer(const Schema& schema, CostConstants constants = {})
      : model_(schema, constants) {}

  /// Optimizer-estimated cost of `query` under `config`. Counts one
  /// optimizer call (weighted by the query's optimize_overhead in
  /// weighted_calls()). Logically const and safe to call concurrently:
  /// the model is immutable, and the call counters are atomic.
  double Cost(const Query& query, const Configuration& config) const;

  /// As Cost, split into its SELECT and UPDATE parts (counts one call;
  /// builds no plan text). The §6.1 bounds read the parts separately.
  CostSplit CostParts(const Query& query, const Configuration& config) const;

  /// As Cost, filling `explanation` (may be nullptr) with the parts and
  /// the plan text.
  double CostExplained(const Query& query, const Configuration& config,
                       PlanExplanation* explanation) const;

  /// Sum of Cost over all queries of `workload` (makes |workload| calls).
  double TotalCost(const Workload& workload, const Configuration& config) const;

  /// Number of Cost() invocations since construction / last reset.
  uint64_t num_calls() const {
    return calls_.load(std::memory_order_relaxed);
  }
  /// Calls weighted by per-query optimization overhead (§5.2).
  double weighted_calls() const {
    return weighted_calls_.load(std::memory_order_relaxed);
  }
  void ResetCallCounter() const {
    calls_.store(0, std::memory_order_relaxed);
    weighted_calls_.store(0.0, std::memory_order_relaxed);
  }

  const CostModel& model() const { return model_; }
  const Schema& schema() const { return model_.schema(); }

 private:
  struct AccessPlan {
    double cost = 0.0;
    /// Rows emitted after applying all local predicates.
    double output_rows = 0.0;
    /// Cost of the cheapest path that delivers rows already ordered by the
    /// query's group-by prefix (aggregation sort can be skipped), or a
    /// negative value when no such path exists. Tracked separately from
    /// `cost` so the caller can minimize (path + aggregation) jointly —
    /// required for SELECT-cost monotonicity under added structures.
    double ordered_cost = -1.0;
    /// The winning path: its kind and, unless a heap scan, its index.
    /// Turned into text only for a PlanExplanation (Describe).
    const char* kind = "heap_scan";
    const Index* index = nullptr;
  };

  AccessPlan BestAccessPath(const TableAccess& access,
                            const Configuration& config,
                            const std::vector<ColumnRef>& group_by) const;

  /// Plan text of `plan` for `access`, e.g. "index_seek(ix_orders(o_key))".
  std::string Describe(const AccessPlan& plan, const TableAccess& access) const;

  /// Cost of an index-nested-loop probe side for a join, or a negative
  /// value when no suitable index exists in `config`.
  double IndexNestedLoopProbeCost(const TableAccess& inner,
                                  ColumnId inner_join_column,
                                  const Configuration& config) const;

  double SelectCost(const SelectSpec& spec, const Configuration& config,
                    PlanExplanation* explanation) const;

  /// Attempts to answer the query from a matching materialized view;
  /// returns a negative value when no view matches.
  double ViewMatchCost(const SelectSpec& spec,
                       const Configuration& config) const;

  double UpdatePartCost(const Query& query, const Configuration& config) const;

  /// The one costing kernel behind Cost/CostParts/CostExplained: counts
  /// the call and appends plan text only when `explanation` is non-null.
  CostSplit Evaluate(const Query& query, const Configuration& config,
                     PlanExplanation* explanation) const;

  CostModel model_;
  mutable std::atomic<uint64_t> calls_{0};
  mutable std::atomic<double> weighted_calls_{0.0};
};

}  // namespace pdx
