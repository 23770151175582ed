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
// A call is an assembly: a configuration-independent plan frame (join
// order, heap scans, cardinalities, hash joins, aggregation) combined
// with per-(query, structure) terms (index access paths, INLJ probes,
// view matches, maintenance). Cost()/CostParts() compute the terms
// inline; a CostTermTable memoizes them for one cost source, which makes
// a call over known terms a few dozen loads. Both paths run the same
// assembly, so they agree to the bit.
//
// Cost()/CostParts() allocate nothing unless a join query meets a
// configuration with views (view matching builds the query's join
// shape); CostTermTable over a filled row allocates nothing at all. Plan
// text is formatted only when a caller passes a PlanExplanation, from
// the same costing kernel.
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
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
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
  friend class CostTermTable;

  /// How an access path reads its table; turned into text only for a
  /// PlanExplanation (Describe).
  enum class AccessKind : uint8_t {
    kHeapScan,
    kIndexRange,
    kIndexSeek,
    kIndexScan
  };

  /// One (table access, index) term: the index's cheapest path for the
  /// access, negative when the index cannot serve it, and whether the path
  /// delivers the query's group-by order.
  struct AccessTerm {
    double cost = -1.0;
    AccessKind kind = AccessKind::kHeapScan;
    bool ordered = false;
  };

  /// The winner of one table access: the heap scan or the cheapest
  /// usable index term.
  struct AccessPlan {
    double cost = 0.0;
    /// Cost of the cheapest path that delivers rows already ordered by the
    /// query's group-by prefix (aggregation sort can be skipped), or a
    /// negative value when no such path exists. Tracked separately from
    /// `cost` so the caller can minimize (path + aggregation) jointly —
    /// required for SELECT-cost monotonicity under added structures.
    double ordered_cost = -1.0;
    /// The winning path: its kind and, unless a heap scan, its index
    /// (known only when the terms are computed inline).
    AccessKind kind = AccessKind::kHeapScan;
    const Index* index = nullptr;
  };

  /// One join edge that adds a new access to the left-deep prefix, with
  /// the configuration-independent parts of its costing. No member
  /// initializers: Evaluate keeps 64 of them on the stack per call, and
  /// BuildFrame writes every step it counts.
  struct JoinStep {
    uint32_t inner;         // access slot joined
    ColumnId inner_column;  // its join column
    double heap_cost;       // heap scan of the inner
    double hash_join;       // hash join of the inner and the prefix
    double outer_rows;      // rows of the prefix: one INLJ probe each
    double residual_cpu;    // per-probe cost of the inner's predicates
  };

  /// The configuration-independent skeleton of a statement's plan: join
  /// order, heap scans, output rows, join cardinalities, hash joins,
  /// aggregation, and the UPDATE base cost. Everything configuration-
  /// dependent is a per-structure term. `steps` is the caller's buffer.
  struct PlanFrame {
    uint32_t first = 0;  // access slot the left-deep order starts from
    double first_heap_cost = 0.0;
    const JoinStep* steps = nullptr;
    uint32_t num_steps = 0;
    double aggregate = 0.0;      // cheaper of sort and hash aggregation
    double order_sort = 0.0;     // ORDER BY sort of the output
    double aggregate_cpu = 0.0;  // aggregate expressions over the output
    double affected = 0.0;       // rows the UPDATE part modifies
    double update_base = 0.0;    // base-table modification
  };

  /// The canonical join shape a view must match (sorted tables, join
  /// signature).
  struct JoinShape {
    std::vector<TableId> tables;
    std::vector<uint64_t> signature;
  };

  /// Term providers for Assemble: computed on the spot from a
  /// Configuration, or read from a CostTermTable row (what_if.cc).
  class InlineTerms;
  class TableTerms;

  /// Fills `frame` for `query`; `steps` must hold query.select.joins.size()
  /// entries.
  void BuildFrame(const Query& query, JoinStep* steps, PlanFrame* frame) const;

  /// Rows of `table`.
  double RowCount(TableId table) const;

  // The per-structure terms: each is a pure function of (query part,
  // structure), so a CostTermTable can memoize it. `table_rows` is
  // RowCount of the access's table, looked up once per access.
  AccessTerm AccessTermOf(const TableAccess& access, double table_rows,
                          const Index& index,
                          const std::vector<ColumnRef>& group_by) const;
  /// Cost of an index-nested-loop probe into `inner` on
  /// `inner_join_column` through `index`; negative when the index does not
  /// lead with the column.
  double ProbeTermOf(const TableAccess& inner, double table_rows,
                     ColumnId inner_join_column, const Index& index) const;
  static JoinShape JoinShapeOf(const SelectSpec& spec);
  /// Cost of answering `spec` from `view`; negative when it does not match.
  double ViewTermOf(const SelectSpec& spec, const JoinShape& shape,
                    const MaterializedView& view) const;
  /// Maintenance charged to `index` by the statement; negative when the
  /// statement does not touch it.
  double IndexMaintenanceTermOf(const UpdateSpec& u, double affected,
                                const Index& index) const;
  double ViewMaintenanceTermOf(double affected,
                               const MaterializedView& view) const;

  /// Plan text of `plan` for `access`, e.g. "index_seek(ix_orders(o_key))".
  std::string Describe(const AccessPlan& plan, const TableAccess& access) const;

  /// The one costing kernel behind Cost/CostParts/CostExplained and
  /// CostTermTable: counts the call, then combines the frame with the
  /// terms `terms` provides, appending plan text only when `explanation`
  /// is non-null. Minima keep strict `<` with first-wins ties and sums
  /// keep their order, so the result does not depend on where the terms
  /// came from.
  template <typename Terms>
  CostSplit Assemble(const Query& query, const PlanFrame& frame,
                     const Terms& terms, PlanExplanation* explanation) const;
  template <typename Terms>
  double SelectCost(const SelectSpec& spec, const PlanFrame& frame,
                    const Terms& terms, PlanExplanation* explanation) const;
  /// Assemble over terms computed inline from `config`.
  CostSplit Evaluate(const Query& query, const Configuration& config,
                     PlanExplanation* explanation) const;

  CostModel model_;
  mutable std::atomic<uint64_t> calls_{0};
  mutable std::atomic<double> weighted_calls_{0.0};
};

/// The memo of one cost source: the per-(query, structure) terms of a
/// (workload, configuration set), so a what-if call over them is an
/// assembly of known terms rather than a fresh walk of every structure
/// (CoPhy/INUM-style; DESIGN §9). The configurations' structures are
/// interned once at construction; a query's row of terms is filled on its
/// first call, under a per-row std::call_once, and read without a lock or
/// an allocation afterwards. Rows are allocated per queried statement,
/// never as a dense queries x structures table.
///
/// Cost/CostParts are bitwise WhatIfOptimizer::Cost/CostParts of
/// (workload.query(q), configs[c]) and count one optimizer call each. The
/// memo lives and dies with its owner; the optimizer keeps no terms.
/// Thread-safe. Keeps references to `optimizer`, `workload` and `configs`.
class CostTermTable {
 public:
  CostTermTable(const WhatIfOptimizer& optimizer, const Workload& workload,
                const std::vector<Configuration>& configs);
  ~CostTermTable();
  PDX_DISALLOW_COPY(CostTermTable);

  double Cost(QueryId q, ConfigId c) const;
  CostSplit CostParts(QueryId q, ConfigId c) const;

 private:
  friend class WhatIfOptimizer::TableTerms;
  struct IndexTerm;
  struct RowTerms;
  struct Row;
  class Arena;

  const RowTerms& RowOf(QueryId q) const;
  /// Computes `query`'s frame and terms into the arena.
  const RowTerms* FillRow(const Query& query) const;

  const WhatIfOptimizer& optimizer_;
  const Workload& workload_;
  const std::vector<Configuration>& configs_;
  InternedStructures structures_;
  /// [table] -> interned indexes on the table; an index's position here is
  /// its rank, the column of its terms in a row.
  std::vector<std::vector<uint32_t>> table_indexes_;
  /// The ranks of configuration c's indexes on table t, in IndexesOnTable
  /// order (the assembly's order), are
  /// table_ranks_[table_ranks_begin_[c * T + t], ...[c * T + t + 1]) for
  /// T tables: no per-call lookup in the configuration's table map.
  std::vector<uint32_t> table_ranks_;
  std::vector<uint32_t> table_ranks_begin_;
  std::unique_ptr<Row[]> rows_;
  std::unique_ptr<Arena> arena_;
};

}  // namespace pdx
