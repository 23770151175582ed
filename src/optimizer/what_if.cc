#include "optimizer/what_if.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace pdx {

namespace {

// Returns the selectivity and key-prefix depth an index seek can apply:
// equality predicates on a leading prefix of the key, optionally followed
// by one range predicate on the next key column. Returns prefix length 0
// when the leading key column has no sargable predicate.
struct SeekMatch {
  uint32_t prefix_len = 0;
  double selectivity = 1.0;
  /// Fraction of the leaf level touched (selectivity of the seek columns).
  double leaf_fraction = 1.0;
  bool ends_with_range = false;
};

SeekMatch MatchSeekPrefix(const Index& index, const TableAccess& access) {
  SeekMatch m;
  for (ColumnId key : index.key_columns) {
    const Predicate* eq = nullptr;
    const Predicate* range = nullptr;
    for (const Predicate& p : access.predicates) {
      if (!p.sargable || p.column.column != key) continue;
      if (p.op == PredOp::kEq || p.op == PredOp::kIn) {
        eq = &p;
      } else if (p.op == PredOp::kRange) {
        range = &p;
      }
    }
    if (eq != nullptr) {
      m.prefix_len += 1;
      m.selectivity *= eq->selectivity;
      m.leaf_fraction *= eq->selectivity;
      continue;  // can keep extending the prefix
    }
    if (range != nullptr) {
      m.prefix_len += 1;
      m.selectivity *= range->selectivity;
      m.leaf_fraction *= range->selectivity;
      m.ends_with_range = true;
    }
    break;  // range (or no predicate) terminates the usable prefix
  }
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// Per-structure terms

double WhatIfOptimizer::RowCount(TableId table) const {
  return static_cast<double>(model_.schema().table(table).row_count);
}

WhatIfOptimizer::AccessTerm WhatIfOptimizer::AccessTermOf(
    const TableAccess& access, double table_rows, const Index& index,
    const std::vector<ColumnRef>& group_by) const {
  const bool covering = index.Covers(access.referenced_columns);
  SeekMatch match = MatchSeekPrefix(index, access);

  AccessTerm term;
  if (match.prefix_len > 0) {
    double matching_rows = table_rows * match.selectivity;
    if (match.ends_with_range || match.prefix_len < index.key_columns.size()) {
      term.cost = model_.IndexRangeScanCost(index, match.leaf_fraction,
                                            matching_rows, covering);
      term.kind = AccessKind::kIndexRange;
    } else {
      term.cost = model_.IndexSeekCost(index, matching_rows, covering);
      term.kind = AccessKind::kIndexSeek;
    }
  } else if (covering) {
    // No sargable prefix, but the index is narrower than the heap:
    // covering leaf-level scan.
    term.cost = model_.ScanPagesCost(
        static_cast<double>(index.Geometry(model_.schema()).leaf_pages),
        table_rows);
    term.kind = AccessKind::kIndexScan;
  } else {
    return term;  // unusable
  }

  // Order property: the index delivers rows sorted by its key columns;
  // usable when the group-by columns (all on this table) form a prefix
  // of the key sequence and the path is a scan (not an equality seek
  // past the grouping prefix).
  if (!group_by.empty() && group_by.size() <= index.key_columns.size()) {
    term.ordered = true;
    for (size_t g = 0; g < group_by.size(); ++g) {
      if (group_by[g].table != access.table ||
          group_by[g].column != index.key_columns[g]) {
        term.ordered = false;
        break;
      }
    }
  }
  return term;
}

double WhatIfOptimizer::ProbeTermOf(const TableAccess& inner,
                                    double table_rows,
                                    ColumnId inner_join_column,
                                    const Index& index) const {
  if (index.key_columns.empty() || index.key_columns[0] != inner_join_column) {
    return -1.0;
  }
  const bool covering = index.Covers(inner.referenced_columns);
  double ndv = model_.ColumnNdv({inner.table, inner_join_column});
  double rows_per_probe = std::max(1.0, table_rows / ndv);
  return model_.IndexSeekCost(index, rows_per_probe, covering);
}

WhatIfOptimizer::JoinShape WhatIfOptimizer::JoinShapeOf(
    const SelectSpec& spec) {
  JoinShape shape;
  for (const TableAccess& a : spec.accesses) shape.tables.push_back(a.table);
  std::sort(shape.tables.begin(), shape.tables.end());
  std::vector<std::pair<ColumnRef, ColumnRef>> edges;
  for (const JoinEdge& j : spec.joins) {
    edges.push_back({{spec.accesses[j.left_access].table, j.left_column},
                     {spec.accesses[j.right_access].table, j.right_column}});
  }
  shape.signature = MakeJoinSignature(edges);
  return shape;
}

double WhatIfOptimizer::ViewTermOf(const SelectSpec& spec,
                                   const JoinShape& shape,
                                   const MaterializedView& view) const {
  if (view.tables != shape.tables) return -1.0;
  if (view.join_signature != shape.signature) return -1.0;

  // Grouping must be a subset of the view's grouping (each query group
  // column must be exposed at view granularity).
  for (const ColumnRef& g : spec.group_by) {
    if (std::find(view.group_by.begin(), view.group_by.end(), g) ==
        view.group_by.end()) {
      return -1.0;
    }
  }
  // Every column the query touches must be exposed.
  for (const TableAccess& a : spec.accesses) {
    for (ColumnId c : a.referenced_columns) {
      ColumnRef ref{a.table, c};
      if (std::find(view.exposed_columns.begin(), view.exposed_columns.end(),
                    ref) == view.exposed_columns.end()) {
        return -1.0;
      }
    }
  }

  // Scan the materialization, apply residual predicates, re-aggregate.
  double view_rows = static_cast<double>(view.row_count);
  double sel = 1.0;
  for (const TableAccess& a : spec.accesses) sel *= a.CombinedSelectivity();
  double rows_after = view_rows * sel;
  double cost = model_.ScanPagesCost(
      static_cast<double>(view.Pages(model_.schema())), view_rows);
  if (!spec.group_by.empty()) {
    double groups = model_.GroupCardinality(rows_after, spec.group_by);
    cost += model_.HashAggregateCost(rows_after, groups);
    rows_after = groups;
  }
  if (!spec.order_by.empty()) cost += model_.SortCost(rows_after);
  cost += model_.constants().cpu_operator * rows_after *
          static_cast<double>(spec.num_aggregates);
  return cost;
}

double WhatIfOptimizer::IndexMaintenanceTermOf(const UpdateSpec& u,
                                               double affected,
                                               const Index& index) const {
  // UPDATE touches an index only when a written column appears in it;
  // INSERT/DELETE touch all indexes on the table.
  bool touched = u.kind != StatementKind::kUpdate;
  if (!touched) {
    for (ColumnId c : u.set_columns) {
      if (index.ContainsColumn(c)) {
        touched = true;
        break;
      }
    }
  }
  if (!touched) return -1.0;
  const CostConstants& k = model_.constants();
  double leaf_pages =
      static_cast<double>(index.Geometry(model_.schema()).leaf_pages);
  return k.maintenance_tuple * affected +
         k.random_page * std::min(affected, leaf_pages);
}

double WhatIfOptimizer::ViewMaintenanceTermOf(
    double affected, const MaterializedView& view) const {
  // Join views are more expensive to maintain (the delta must be joined
  // against the other base tables).
  const CostConstants& k = model_.constants();
  double width_factor = static_cast<double>(view.tables.size());
  double view_pages = static_cast<double>(view.Pages(model_.schema()));
  return k.maintenance_tuple * affected * width_factor +
         k.seq_page * std::min(affected, view_pages);
}

std::string WhatIfOptimizer::Describe(const AccessPlan& plan,
                                      const TableAccess& access) const {
  static constexpr const char* kKindNames[] = {"heap_scan", "index_range",
                                               "index_seek", "index_scan"};
  return std::string(kKindNames[static_cast<int>(plan.kind)]) + "(" +
         (plan.index != nullptr
              ? plan.index->Name(model_.schema())
              : model_.schema().table(access.table).name) +
         ")";
}

// ---------------------------------------------------------------------------
// The plan frame

void WhatIfOptimizer::BuildFrame(const Query& query, JoinStep* steps,
                                 PlanFrame* frame) const {
  const SelectSpec& spec = query.select;
  const CostConstants& k = model_.constants();
  if (!spec.accesses.empty()) {
    auto output_rows = [&](const TableAccess& access) {
      return RowCount(access.table) * access.CombinedSelectivity();
    };
    // Left-deep composition in edge order (generators emit connected
    // orderings starting from the most selective side); a single access
    // has no edges.
    frame->first = spec.joins.empty() ? 0 : spec.joins[0].left_access;
    const TableAccess& first = spec.accesses[frame->first];
    frame->first_heap_cost = model_.HeapScanCost(first.table);
    double current_rows = output_rows(first);
    frame->steps = steps;
    frame->num_steps = 0;

    if (!spec.joins.empty()) {
      // `joined` flags the accesses already in the prefix: on the stack
      // for any query the generators emit, on the heap only past
      // kInlineAccesses tables.
      constexpr size_t kInlineAccesses = 64;
      bool inline_joined[kInlineAccesses] = {};
      std::unique_ptr<bool[]> wide_joined;
      bool* joined = inline_joined;
      if (spec.accesses.size() > kInlineAccesses) {
        wide_joined.reset(new bool[spec.accesses.size()]());
        joined = wide_joined.get();
      }
      joined[frame->first] = true;
      for (const JoinEdge& edge : spec.joins) {
        bool left_in = joined[edge.left_access];
        bool right_in = joined[edge.right_access];
        if (left_in && right_in) {
          // Redundant edge within the joined set: a residual filter.
          double ndv = std::max(
              model_.ColumnNdv(
                  {spec.accesses[edge.left_access].table, edge.left_column}),
              model_.ColumnNdv({spec.accesses[edge.right_access].table,
                                edge.right_column}));
          current_rows = std::max(1.0, current_rows / std::max(1.0, ndv));
          continue;
        }
        PDX_CHECK_MSG(left_in || right_in,
                      "join edge disconnected from joined prefix");
        JoinStep& step = steps[frame->num_steps++];
        step.inner = left_in ? edge.right_access : edge.left_access;
        step.inner_column = left_in ? edge.right_column : edge.left_column;
        ColumnId outer_col = left_in ? edge.left_column : edge.right_column;
        uint32_t outer_id = left_in ? edge.left_access : edge.right_access;
        const TableAccess& inner = spec.accesses[step.inner];
        step.heap_cost = model_.HeapScanCost(inner.table);
        double inner_rows = output_rows(inner);
        // Hash join: materialize the inner via its best path, probe with
        // the current outer stream (build on the smaller input).
        double build_rows = std::min(inner_rows, current_rows);
        double probe_rows = std::max(inner_rows, current_rows);
        step.hash_join = model_.HashJoinCost(build_rows, probe_rows);
        step.outer_rows = current_rows;
        step.residual_cpu =
            k.cpu_operator * static_cast<double>(inner.predicates.size());
        current_rows = model_.JoinCardinality(
            current_rows, inner_rows,
            {spec.accesses[outer_id].table, outer_col},
            {inner.table, step.inner_column});
        joined[step.inner] = true;
      }
    }

    double rows_out = current_rows;
    if (!spec.group_by.empty()) {
      double groups = model_.GroupCardinality(current_rows, spec.group_by);
      frame->aggregate = std::min(model_.SortCost(current_rows),
                                  model_.HashAggregateCost(current_rows,
                                                           groups));
      rows_out = groups;
    }
    if (!spec.order_by.empty()) frame->order_sort = model_.SortCost(rows_out);
    frame->aggregate_cpu =
        k.cpu_operator * rows_out * static_cast<double>(spec.num_aggregates);
  }

  if (query.update.has_value()) {
    // Base-table modification: grows with selectivity (§6.1,
    // observation 2).
    const UpdateSpec& u = *query.update;
    const Table& table = model_.schema().table(u.table);
    frame->affected =
        std::max(1.0, static_cast<double>(table.row_count) * u.selectivity);
    double heap_pages = static_cast<double>(table.HeapPages());
    frame->update_base = k.cpu_tuple * frame->affected +
                         k.random_page * std::min(frame->affected, heap_pages);
  }
}

// ---------------------------------------------------------------------------
// Term providers. Each visits, in the configuration's canonical order, the
// terms of the structures that can serve one part of the statement:
//   ForEachAccess(access, f)     f(AccessTerm, const Index*) per index on
//                                the table of the plan's first access;
//   ForEachJoinIndex(s, inner, f)  f(AccessTerm, double probe, const
//                                Index*) per index on the table of join
//                                step s's inner access;
//   ForEachView(f)               f(double) per view (join queries only);
//   ForEachIndexMaintenance(u, f), ForEachViewMaintenance(u, f)
//                                f(double) per index / view on u.table.

/// Computes every term on the spot from a Configuration: the memo-less
/// path of Cost/CostParts/CostExplained.
class WhatIfOptimizer::InlineTerms {
 public:
  InlineTerms(const WhatIfOptimizer& opt, const SelectSpec& spec,
              const PlanFrame& frame, const Configuration& config)
      : opt_(opt), spec_(spec), frame_(frame), config_(config) {}

  template <typename F>
  void ForEachAccess(const TableAccess& access, F f) const {
    const double rows = opt_.RowCount(access.table);
    for (uint32_t idx : config_.IndexesOnTable(access.table)) {
      const Index& index = config_.indexes()[idx];
      f(opt_.AccessTermOf(access, rows, index, spec_.group_by), &index);
    }
  }
  template <typename F>
  void ForEachJoinIndex(uint32_t step, const TableAccess& inner, F f) const {
    const ColumnId column = frame_.steps[step].inner_column;
    const double rows = opt_.RowCount(inner.table);
    for (uint32_t idx : config_.IndexesOnTable(inner.table)) {
      const Index& index = config_.indexes()[idx];
      f(opt_.AccessTermOf(inner, rows, index, /*group_by=*/{}),
        opt_.ProbeTermOf(inner, rows, column, index), &index);
    }
  }
  template <typename F>
  void ForEachView(F f) const {
    // The join shape is built only when a view could match (the one
    // allocation of this path).
    if (spec_.joins.empty() || config_.views().empty()) return;
    const JoinShape shape = JoinShapeOf(spec_);
    for (const MaterializedView& view : config_.views()) {
      f(opt_.ViewTermOf(spec_, shape, view));
    }
  }
  template <typename F>
  void ForEachIndexMaintenance(const UpdateSpec& u, F f) const {
    for (uint32_t idx : config_.IndexesOnTable(u.table)) {
      f(opt_.IndexMaintenanceTermOf(u, frame_.affected,
                                    config_.indexes()[idx]));
    }
  }
  template <typename F>
  void ForEachViewMaintenance(const UpdateSpec& u, F f) const {
    for (uint32_t v : config_.ViewsOnTable(u.table)) {
      f(opt_.ViewMaintenanceTermOf(frame_.affected, config_.views()[v]));
    }
  }

 private:
  const WhatIfOptimizer& opt_;
  const SelectSpec& spec_;
  const PlanFrame& frame_;
  const Configuration& config_;
};

// ---------------------------------------------------------------------------
// Assembly

template <typename Terms>
double WhatIfOptimizer::SelectCost(const SelectSpec& spec,
                                   const PlanFrame& frame, const Terms& terms,
                                   PlanExplanation* explanation) const {
  // The first access. Only a join-free plan can use an index's order to
  // make the aggregation free.
  const bool group_order = spec.joins.empty();
  const TableAccess& first = spec.accesses[frame.first];
  AccessPlan first_plan;
  first_plan.cost = frame.first_heap_cost;
  terms.ForEachAccess(first, [&](const AccessTerm& term, const Index* index) {
    if (term.cost < 0.0) return;
    if (term.cost < first_plan.cost) {
      first_plan.cost = term.cost;
      first_plan.kind = term.kind;
      first_plan.index = index;
    }
    if (group_order && term.ordered &&
        (first_plan.ordered_cost < 0.0 || term.cost < first_plan.ordered_cost)) {
      first_plan.ordered_cost = term.cost;
    }
  });
  double join_cost = first_plan.cost;
  if (explanation != nullptr) {
    explanation->access_paths.push_back(Describe(first_plan, first));
  }

  for (uint32_t s = 0; s < frame.num_steps; ++s) {
    const JoinStep& step = frame.steps[s];
    const TableAccess& inner = spec.accesses[step.inner];
    // The inner's best path, and the cheapest index-nested-loop probe
    // (an index that leads with the join column).
    AccessPlan inner_plan;
    inner_plan.cost = step.heap_cost;
    double probe_cost = -1.0;
    terms.ForEachJoinIndex(
        s, inner, [&](const AccessTerm& term, double probe, const Index* index) {
          if (term.cost >= 0.0 && term.cost < inner_plan.cost) {
            inner_plan.cost = term.cost;
            inner_plan.kind = term.kind;
            inner_plan.index = index;
          }
          if (probe >= 0.0 && (probe_cost < 0.0 || probe < probe_cost)) {
            probe_cost = probe;
          }
        });
    double join_op_cost = inner_plan.cost + step.hash_join;
    bool inlj = false;
    if (probe_cost >= 0.0) {
      // One seek per outer row.
      double inlj_cost = step.outer_rows * (probe_cost + step.residual_cpu);
      if (inlj_cost < join_op_cost) {
        join_op_cost = inlj_cost;
        inlj = true;
      }
    }
    join_cost += join_op_cost;
    if (explanation != nullptr) {
      const Table& table = model_.schema().table(inner.table);
      explanation->access_paths.push_back(
          inlj ? "inlj(" + table.name + "." +
                     table.columns[step.inner_column].name + ")"
               : Describe(inner_plan, inner) + "+hash");
    }
  }

  // Grouping / aggregation. An order-providing single-table plan is an
  // alternative whose aggregation is free (streaming aggregate); choose
  // the jointly cheaper option so adding indexes can never hurt.
  if (!spec.group_by.empty()) {
    double unordered_total = join_cost + frame.aggregate;
    join_cost = (first_plan.ordered_cost >= 0.0)
                    ? std::min(unordered_total, first_plan.ordered_cost)
                    : unordered_total;
  }
  if (!spec.order_by.empty()) join_cost += frame.order_sort;
  join_cost += frame.aggregate_cpu;

  // A matching materialized view may beat the join plan.
  double view_cost = -1.0;
  terms.ForEachView([&](double cost) {
    if (cost >= 0.0 && (view_cost < 0.0 || cost < view_cost)) {
      view_cost = cost;
    }
  });
  if (view_cost >= 0.0 && view_cost < join_cost) {
    if (explanation != nullptr) {
      explanation->used_view = true;
      explanation->access_paths.push_back("view_scan");
    }
    return view_cost;
  }
  return join_cost;
}

template <typename Terms>
CostSplit WhatIfOptimizer::Assemble(const Query& query, const PlanFrame& frame,
                                    const Terms& terms,
                                    PlanExplanation* explanation) const {
  calls_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&weighted_calls_, query.optimize_overhead);

  CostSplit parts;
  if (!query.select.accesses.empty()) {
    parts.select = SelectCost(query.select, frame, terms, explanation);
  }
  if (query.update.has_value()) {
    // Index, then view maintenance, in the configuration's canonical
    // order.
    const UpdateSpec& u = *query.update;
    double cost = frame.update_base;
    terms.ForEachIndexMaintenance(u, [&](double term) {
      if (term >= 0.0) cost += term;
    });
    terms.ForEachViewMaintenance(u, [&](double term) { cost += term; });
    parts.update = cost;
  }
  return parts;
}

CostSplit WhatIfOptimizer::Evaluate(const Query& query,
                                    const Configuration& config,
                                    PlanExplanation* explanation) const {
  // The frame's join steps live on the stack for any query the generators
  // emit, on the heap only past kInlineSteps edges.
  constexpr size_t kInlineSteps = 64;
  JoinStep inline_steps[kInlineSteps];
  std::unique_ptr<JoinStep[]> wide_steps;
  JoinStep* steps = inline_steps;
  if (query.select.joins.size() > kInlineSteps) {
    wide_steps.reset(new JoinStep[query.select.joins.size()]);
    steps = wide_steps.get();
  }
  PlanFrame frame;
  BuildFrame(query, steps, &frame);
  return Assemble(query, frame, InlineTerms(*this, query.select, frame, config),
                  explanation);
}

CostSplit WhatIfOptimizer::CostParts(const Query& query,
                                     const Configuration& config) const {
  return Evaluate(query, config, nullptr);
}

double WhatIfOptimizer::CostExplained(const Query& query,
                                      const Configuration& config,
                                      PlanExplanation* explanation) const {
  CostSplit parts = Evaluate(query, config, explanation);
  double total = parts.select + parts.update;
  if (explanation != nullptr) {
    explanation->select_cost = parts.select;
    explanation->update_cost = parts.update;
    explanation->total_cost = total;
  }
  return total;
}

double WhatIfOptimizer::Cost(const Query& query,
                             const Configuration& config) const {
  CostSplit parts = Evaluate(query, config, nullptr);
  return parts.select + parts.update;
}

double WhatIfOptimizer::TotalCost(const Workload& workload,
                                  const Configuration& config) const {
  double total = 0.0;
  for (const Query& q : workload.queries()) total += Cost(q, config);
  return total;
}

// ---------------------------------------------------------------------------
// CostTermTable

/// One (visit, index) term: the index's access path for the visited
/// access and, for a join step's inner, its INLJ probe.
struct CostTermTable::IndexTerm {
  WhatIfOptimizer::AccessTerm access;
  double probe = -1.0;  // join steps only
};

/// One statement's frame and terms, in the table's arena. Visit 0 is the
/// plan's first access and visit s + 1 join step s; the terms of a visit
/// start at visit_offset[visit], one per index on the visited table, in
/// rank order. View terms are indexed by interned view id (nullptr when
/// no view can match), index maintenance terms by rank on the updated
/// table.
struct CostTermTable::RowTerms {
  WhatIfOptimizer::PlanFrame frame;
  const uint32_t* visit_offset = nullptr;
  const IndexTerm* index = nullptr;
  const double* view = nullptr;
  const double* index_maintenance = nullptr;
  const double* view_maintenance = nullptr;
};

struct CostTermTable::Row {
  std::once_flag filled;
  const RowTerms* terms = nullptr;
};

/// Bump allocator for the rows. Rows live exactly as long as their table,
/// so they are carved out of a few large chunks: one heap block per row
/// array left the heap fragmented enough to raise tpcd_compare's peak RSS
/// by three times the rows' size. Only fills allocate, under the mutex.
class CostTermTable::Arena {
 public:
  /// A copy of `values` in the arena; nullptr when empty.
  template <typename T>
  const T* Copy(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (values.empty()) return nullptr;
    void* p = Allocate(values.size() * sizeof(T), alignof(T));
    std::memcpy(p, values.data(), values.size() * sizeof(T));
    return static_cast<const T*>(p);
  }
  const RowTerms* Place(const RowTerms& row) {
    static_assert(std::is_trivially_copyable_v<RowTerms>);
    return new (Allocate(sizeof(RowTerms), alignof(RowTerms))) RowTerms(row);
  }

 private:
  static constexpr size_t kChunkBytes = 64 << 10;

  void* Allocate(size_t bytes, size_t align) {
    std::lock_guard<std::mutex> lock(mu_);
    used_ = (used_ + align - 1) / align * align;
    if (chunks_.empty() || used_ + bytes > chunk_bytes_) {
      chunk_bytes_ = std::max(kChunkBytes, bytes);
      chunks_.emplace_back(new std::byte[chunk_bytes_]);
      used_ = 0;
    }
    void* p = chunks_.back().get() + used_;
    used_ += bytes;
    return p;
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  size_t chunk_bytes_ = 0;
  size_t used_ = 0;
};

/// Reads the terms of one (statement, configuration) from a filled row.
class WhatIfOptimizer::TableTerms {
 public:
  TableTerms(const CostTermTable& table, const CostTermTable::RowTerms& row,
             ConfigId c)
      : row_(row),
        config_(table.configs_[c]),
        view_ids_(table.structures_.config_view_ids[c]),
        ranks_(table.table_ranks_.data()),
        ranks_begin_(table.table_ranks_begin_.data() +
                     static_cast<size_t>(c) * table.table_indexes_.size()) {}

  template <typename F>
  void ForEachAccess(const TableAccess& access, F f) const {
    const auto* terms = row_.index + row_.visit_offset[0];
    ForEachRank(access.table, [&](uint32_t rank) {
      f(terms[rank].access, static_cast<const Index*>(nullptr));
    });
  }
  template <typename F>
  void ForEachJoinIndex(uint32_t step, const TableAccess& inner, F f) const {
    const auto* terms = row_.index + row_.visit_offset[step + 1];
    ForEachRank(inner.table, [&](uint32_t rank) {
      f(terms[rank].access, terms[rank].probe,
        static_cast<const Index*>(nullptr));
    });
  }
  template <typename F>
  void ForEachView(F f) const {
    if (row_.view == nullptr) return;
    for (uint32_t id : view_ids_) f(row_.view[id]);
  }
  template <typename F>
  void ForEachIndexMaintenance(const UpdateSpec& u, F f) const {
    ForEachRank(u.table,
                [&](uint32_t rank) { f(row_.index_maintenance[rank]); });
  }
  template <typename F>
  void ForEachViewMaintenance(const UpdateSpec& u, F f) const {
    for (uint32_t v : config_.ViewsOnTable(u.table)) {
      f(row_.view_maintenance[view_ids_[v]]);
    }
  }

 private:
  /// Ranks of the configuration's indexes on `table`, in IndexesOnTable
  /// order.
  template <typename F>
  void ForEachRank(TableId table, F f) const {
    for (uint32_t i = ranks_begin_[table]; i < ranks_begin_[table + 1]; ++i) {
      f(ranks_[i]);
    }
  }

  const CostTermTable::RowTerms& row_;
  const Configuration& config_;
  const std::vector<uint32_t>& view_ids_;
  const uint32_t* ranks_;
  const uint32_t* ranks_begin_;
};

CostTermTable::CostTermTable(const WhatIfOptimizer& optimizer,
                             const Workload& workload,
                             const std::vector<Configuration>& configs)
    : optimizer_(optimizer),
      workload_(workload),
      configs_(configs),
      structures_(InternStructures(configs)),
      rows_(std::make_unique<Row[]>(workload.size())),
      arena_(std::make_unique<Arena>()) {
  const size_t num_tables = optimizer.schema().num_tables();
  table_indexes_.resize(num_tables);
  std::vector<uint32_t> index_rank(structures_.indexes.size());
  for (uint32_t id = 0; id < structures_.indexes.size(); ++id) {
    std::vector<uint32_t>& on_table =
        table_indexes_[structures_.indexes[id].table];
    index_rank[id] = static_cast<uint32_t>(on_table.size());
    on_table.push_back(id);
  }
  table_ranks_begin_.reserve(configs.size() * num_tables + 1);
  for (size_t c = 0; c < configs.size(); ++c) {
    const std::vector<uint32_t>& ids = structures_.config_index_ids[c];
    for (TableId t = 0; t < num_tables; ++t) {
      table_ranks_begin_.push_back(static_cast<uint32_t>(table_ranks_.size()));
      if (table_indexes_[t].empty()) continue;  // no configuration has one
      for (uint32_t pos : configs[c].IndexesOnTable(t)) {
        table_ranks_.push_back(index_rank[ids[pos]]);
      }
    }
  }
  table_ranks_begin_.push_back(static_cast<uint32_t>(table_ranks_.size()));
}

CostTermTable::~CostTermTable() = default;

const CostTermTable::RowTerms* CostTermTable::FillRow(
    const Query& query) const {
  // Built in per-thread scratch, then copied into the arena.
  thread_local std::vector<WhatIfOptimizer::JoinStep> steps;
  thread_local std::vector<uint32_t> visit_offset;
  thread_local std::vector<IndexTerm> index;
  thread_local std::vector<double> view, index_maintenance, view_maintenance;
  visit_offset.clear();
  index.clear();
  view.clear();
  index_maintenance.clear();
  view_maintenance.clear();

  const WhatIfOptimizer& opt = optimizer_;
  const SelectSpec& spec = query.select;
  RowTerms row;
  steps.resize(spec.joins.size());
  opt.BuildFrame(query, steps.data(), &row.frame);
  const WhatIfOptimizer::PlanFrame& frame = row.frame;
  if (!spec.accesses.empty()) {
    // Every access the plan visits, each once: the first, then the inner
    // of each join step.
    for (uint32_t visit = 0; visit <= frame.num_steps; ++visit) {
      const bool is_step = visit > 0;
      const TableAccess& access =
          spec.accesses[is_step ? frame.steps[visit - 1].inner : frame.first];
      visit_offset.push_back(static_cast<uint32_t>(index.size()));
      const double rows = opt.RowCount(access.table);
      for (uint32_t id : table_indexes_[access.table]) {
        const Index& structure = structures_.indexes[id];
        IndexTerm term;
        term.access = opt.AccessTermOf(
            access, rows, structure,
            is_step ? std::vector<ColumnRef>() : spec.group_by);
        if (is_step) {
          term.probe = opt.ProbeTermOf(
              access, rows, frame.steps[visit - 1].inner_column, structure);
        }
        index.push_back(term);
      }
    }
    if (!spec.joins.empty() && !structures_.views.empty()) {
      const WhatIfOptimizer::JoinShape shape =
          WhatIfOptimizer::JoinShapeOf(spec);
      for (const MaterializedView& v : structures_.views) {
        view.push_back(opt.ViewTermOf(spec, shape, v));
      }
    }
  }
  if (query.update.has_value()) {
    const UpdateSpec& u = *query.update;
    for (uint32_t id : table_indexes_[u.table]) {
      index_maintenance.push_back(opt.IndexMaintenanceTermOf(
          u, frame.affected, structures_.indexes[id]));
    }
    for (const MaterializedView& v : structures_.views) {
      view_maintenance.push_back(opt.ViewMaintenanceTermOf(frame.affected, v));
    }
  }

  steps.resize(frame.num_steps);
  row.frame.steps = arena_->Copy(steps);
  row.visit_offset = arena_->Copy(visit_offset);
  row.index = arena_->Copy(index);
  row.view = arena_->Copy(view);
  row.index_maintenance = arena_->Copy(index_maintenance);
  row.view_maintenance = arena_->Copy(view_maintenance);
  return arena_->Place(row);
}

const CostTermTable::RowTerms& CostTermTable::RowOf(QueryId q) const {
  Row& row = rows_[q];
  std::call_once(row.filled,
                 [&] { row.terms = FillRow(workload_.query(q)); });
  return *row.terms;
}

CostSplit CostTermTable::CostParts(QueryId q, ConfigId c) const {
  PDX_CHECK(q < workload_.size());
  PDX_CHECK(c < configs_.size());
  const RowTerms& row = RowOf(q);
  return optimizer_.Assemble(workload_.query(q), row.frame,
                             WhatIfOptimizer::TableTerms(*this, row, c),
                             nullptr);
}

double CostTermTable::Cost(QueryId q, ConfigId c) const {
  CostSplit parts = CostParts(q, c);
  return parts.select + parts.update;
}

}  // namespace pdx
