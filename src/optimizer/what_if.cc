#include "optimizer/what_if.h"

#include <algorithm>
#include <cmath>
#include <memory>

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

WhatIfOptimizer::AccessPlan WhatIfOptimizer::BestAccessPath(
    const TableAccess& access, const Configuration& config,
    const std::vector<ColumnRef>& group_by) const {
  const Table& table = model_.schema().table(access.table);
  const double table_rows = static_cast<double>(table.row_count);
  const double combined_sel = access.CombinedSelectivity();
  const double output_rows = table_rows * combined_sel;

  AccessPlan best;
  best.cost = model_.HeapScanCost(access.table);
  best.output_rows = output_rows;
  best.ordered_cost = -1.0;

  for (uint32_t idx : config.IndexesOnTable(access.table)) {
    const Index& index = config.indexes()[idx];
    const bool covering = index.Covers(access.referenced_columns);
    SeekMatch match = MatchSeekPrefix(index, access);

    double cost;
    const char* kind;
    if (match.prefix_len > 0) {
      double matching_rows = table_rows * match.selectivity;
      if (match.ends_with_range || match.prefix_len < index.key_columns.size()) {
        cost = model_.IndexRangeScanCost(index, match.leaf_fraction,
                                         matching_rows, covering);
        kind = "index_range";
      } else {
        cost = model_.IndexSeekCost(index, matching_rows, covering);
        kind = "index_seek";
      }
    } else if (covering) {
      // No sargable prefix, but the index is narrower than the heap:
      // covering leaf-level scan.
      cost = model_.ScanPagesCost(
          static_cast<double>(index.Geometry(model_.schema()).leaf_pages),
          table_rows);
      kind = "index_scan";
    } else {
      continue;
    }

    if (cost < best.cost) {
      best.cost = cost;
      best.kind = kind;
      best.index = &index;
    }
    // Order property: the index delivers rows sorted by its key columns;
    // usable when the group-by columns (all on this table) form a prefix
    // of the key sequence and the path is a scan (not an equality seek
    // past the grouping prefix).
    if (!group_by.empty() && group_by.size() <= index.key_columns.size()) {
      bool all_match = true;
      for (size_t g = 0; g < group_by.size(); ++g) {
        if (group_by[g].table != access.table ||
            group_by[g].column != index.key_columns[g]) {
          all_match = false;
          break;
        }
      }
      if (all_match && (best.ordered_cost < 0.0 || cost < best.ordered_cost)) {
        best.ordered_cost = cost;
      }
    }
  }
  best.output_rows = output_rows;
  return best;
}

std::string WhatIfOptimizer::Describe(const AccessPlan& plan,
                                      const TableAccess& access) const {
  return std::string(plan.kind) + "(" +
         (plan.index != nullptr
              ? plan.index->Name(model_.schema())
              : model_.schema().table(access.table).name) +
         ")";
}

double WhatIfOptimizer::IndexNestedLoopProbeCost(
    const TableAccess& inner, ColumnId inner_join_column,
    const Configuration& config) const {
  const Table& table = model_.schema().table(inner.table);
  const double table_rows = static_cast<double>(table.row_count);
  double best = -1.0;
  for (uint32_t idx : config.IndexesOnTable(inner.table)) {
    const Index& index = config.indexes()[idx];
    if (index.key_columns.empty() ||
        index.key_columns[0] != inner_join_column) {
      continue;
    }
    const bool covering = index.Covers(inner.referenced_columns);
    double ndv = model_.ColumnNdv({inner.table, inner_join_column});
    double rows_per_probe = std::max(1.0, table_rows / ndv);
    double cost = model_.IndexSeekCost(index, rows_per_probe, covering);
    if (best < 0.0 || cost < best) best = cost;
  }
  return best;
}

double WhatIfOptimizer::ViewMatchCost(const SelectSpec& spec,
                                      const Configuration& config) const {
  if (spec.joins.empty() || config.views().empty()) return -1.0;

  // Canonical shape of the query's join graph.
  std::vector<TableId> query_tables;
  for (const TableAccess& a : spec.accesses) query_tables.push_back(a.table);
  std::sort(query_tables.begin(), query_tables.end());
  std::vector<std::pair<ColumnRef, ColumnRef>> edges;
  for (const JoinEdge& j : spec.joins) {
    edges.push_back({{spec.accesses[j.left_access].table, j.left_column},
                     {spec.accesses[j.right_access].table, j.right_column}});
  }
  std::vector<uint64_t> signature = MakeJoinSignature(edges);

  double best = -1.0;
  for (const MaterializedView& view : config.views()) {
    if (view.tables != query_tables) continue;
    if (view.join_signature != signature) continue;

    // Grouping must be a subset of the view's grouping (each query group
    // column must be exposed at view granularity).
    bool groups_ok = true;
    for (const ColumnRef& g : spec.group_by) {
      if (std::find(view.group_by.begin(), view.group_by.end(), g) ==
          view.group_by.end()) {
        groups_ok = false;
        break;
      }
    }
    if (!groups_ok) continue;

    // Every column the query touches must be exposed.
    bool columns_ok = true;
    for (const TableAccess& a : spec.accesses) {
      for (ColumnId c : a.referenced_columns) {
        ColumnRef ref{a.table, c};
        if (std::find(view.exposed_columns.begin(), view.exposed_columns.end(),
                      ref) == view.exposed_columns.end()) {
          columns_ok = false;
          break;
        }
      }
      if (!columns_ok) break;
    }
    if (!columns_ok) continue;

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
    if (best < 0.0 || cost < best) best = cost;
  }
  return best;
}

double WhatIfOptimizer::SelectCost(const SelectSpec& spec,
                                   const Configuration& config,
                                   PlanExplanation* explanation) const {
  if (spec.accesses.empty()) return 0.0;

  // Join-free single access.
  double join_cost = 0.0;
  double current_rows = 0.0;
  // Cost of an alternative single-table plan that delivers group order
  // (aggregation becomes free); negative when unavailable.
  double ordered_plan_cost = -1.0;

  if (spec.joins.empty()) {
    AccessPlan plan = BestAccessPath(spec.accesses[0], config, spec.group_by);
    join_cost = plan.cost;
    current_rows = plan.output_rows;
    ordered_plan_cost = plan.ordered_cost;
    if (explanation != nullptr) {
      explanation->access_paths.push_back(Describe(plan, spec.accesses[0]));
    }
  } else {
    // Left-deep composition in edge order (generators emit connected
    // orderings starting from the most selective side). `joined` flags
    // the accesses already in the prefix: on the stack for any query the
    // generators emit, on the heap only past kInlineAccesses tables.
    constexpr size_t kInlineAccesses = 64;
    bool inline_joined[kInlineAccesses] = {};
    std::unique_ptr<bool[]> wide_joined;
    bool* joined = inline_joined;
    if (spec.accesses.size() > kInlineAccesses) {
      wide_joined.reset(new bool[spec.accesses.size()]());
      joined = wide_joined.get();
    }
    uint32_t first = spec.joins[0].left_access;
    AccessPlan first_plan =
        BestAccessPath(spec.accesses[first], config, spec.group_by);
    join_cost = first_plan.cost;
    current_rows = first_plan.output_rows;
    joined[first] = true;
    if (explanation != nullptr) {
      explanation->access_paths.push_back(
          Describe(first_plan, spec.accesses[first]));
    }

    for (const JoinEdge& edge : spec.joins) {
      bool left_in = joined[edge.left_access];
      bool right_in = joined[edge.right_access];
      if (left_in && right_in) {
        // Redundant edge within the joined set: a residual filter.
        double ndv = std::max(
            model_.ColumnNdv(
                {spec.accesses[edge.left_access].table, edge.left_column}),
            model_.ColumnNdv(
                {spec.accesses[edge.right_access].table, edge.right_column}));
        current_rows = std::max(1.0, current_rows / std::max(1.0, ndv));
        continue;
      }
      PDX_CHECK_MSG(left_in || right_in,
                    "join edge disconnected from joined prefix");
      uint32_t inner_id = left_in ? edge.right_access : edge.left_access;
      ColumnId inner_col = left_in ? edge.right_column : edge.left_column;
      ColumnId outer_col = left_in ? edge.left_column : edge.right_column;
      uint32_t outer_id = left_in ? edge.left_access : edge.right_access;
      const TableAccess& inner = spec.accesses[inner_id];

      AccessPlan inner_plan = BestAccessPath(inner, config, {});
      double inner_rows = inner_plan.output_rows;

      // Hash join: materialize the inner via its best path, probe with the
      // current outer stream (build on the smaller input).
      double build_rows = std::min(inner_rows, current_rows);
      double probe_rows = std::max(inner_rows, current_rows);
      double hash_cost =
          inner_plan.cost + model_.HashJoinCost(build_rows, probe_rows);

      // Index nested loop: one seek per outer row.
      double join_op_cost = hash_cost;
      bool inlj = false;
      double probe_cost = IndexNestedLoopProbeCost(inner, inner_col, config);
      if (probe_cost >= 0.0) {
        double residual_cpu = model_.constants().cpu_operator *
                              static_cast<double>(inner.predicates.size());
        double inlj_cost = current_rows * (probe_cost + residual_cpu);
        if (inlj_cost < join_op_cost) {
          join_op_cost = inlj_cost;
          inlj = true;
        }
      }
      join_cost += join_op_cost;
      current_rows = model_.JoinCardinality(
          current_rows, inner_rows,
          {spec.accesses[outer_id].table, outer_col},
          {inner.table, inner_col});
      joined[inner_id] = true;
      if (explanation != nullptr) {
        const Table& table = model_.schema().table(inner.table);
        explanation->access_paths.push_back(
            inlj ? "inlj(" + table.name + "." + table.columns[inner_col].name +
                       ")"
                 : Describe(inner_plan, inner) + "+hash");
      }
    }
  }

  // Grouping / aggregation. An order-providing single-table plan is an
  // alternative whose aggregation is free (streaming aggregate); choose
  // the jointly cheaper option so adding indexes can never hurt.
  double rows_out = current_rows;
  if (!spec.group_by.empty()) {
    double groups = model_.GroupCardinality(current_rows, spec.group_by);
    double agg = std::min(model_.SortCost(current_rows),
                          model_.HashAggregateCost(current_rows, groups));
    double unordered_total = join_cost + agg;
    join_cost = (ordered_plan_cost >= 0.0)
                    ? std::min(unordered_total, ordered_plan_cost)
                    : unordered_total;
    rows_out = groups;
  }
  if (!spec.order_by.empty()) {
    join_cost += model_.SortCost(rows_out);
  }
  join_cost += model_.constants().cpu_operator * rows_out *
               static_cast<double>(spec.num_aggregates);

  // A matching materialized view may beat the join plan.
  double view_cost = ViewMatchCost(spec, config);
  if (view_cost >= 0.0 && view_cost < join_cost) {
    if (explanation != nullptr) {
      explanation->used_view = true;
      explanation->access_paths.push_back("view_scan");
    }
    return view_cost;
  }
  return join_cost;
}

double WhatIfOptimizer::UpdatePartCost(const Query& query,
                                       const Configuration& config) const {
  const UpdateSpec& u = *query.update;
  const Table& table = model_.schema().table(u.table);
  const double affected =
      std::max(1.0, static_cast<double>(table.row_count) * u.selectivity);
  const CostConstants& k = model_.constants();

  // Base-table modification: grows with selectivity (§6.1, observation 2).
  double heap_pages = static_cast<double>(table.HeapPages());
  double cost = k.cpu_tuple * affected +
                k.random_page * std::min(affected, heap_pages);

  // Index maintenance. UPDATE touches an index only when a written column
  // appears in it; INSERT/DELETE touch all indexes on the table.
  for (uint32_t idx : config.IndexesOnTable(u.table)) {
    const Index& index = config.indexes()[idx];
    bool touched = u.kind != StatementKind::kUpdate;
    if (!touched) {
      for (ColumnId c : u.set_columns) {
        if (index.ContainsColumn(c)) {
          touched = true;
          break;
        }
      }
    }
    if (!touched) continue;
    double leaf_pages =
        static_cast<double>(index.Geometry(model_.schema()).leaf_pages);
    cost += k.maintenance_tuple * affected +
            k.random_page * std::min(affected, leaf_pages);
  }

  // View maintenance: join views are more expensive to maintain (delta
  // must be joined against the other base tables).
  for (uint32_t v : config.ViewsOnTable(u.table)) {
    const MaterializedView& view = config.views()[v];
    double width_factor = static_cast<double>(view.tables.size());
    double view_pages = static_cast<double>(view.Pages(model_.schema()));
    cost += k.maintenance_tuple * affected * width_factor +
            k.seq_page * std::min(affected, view_pages);
  }
  return cost;
}

CostSplit WhatIfOptimizer::Evaluate(const Query& query,
                                    const Configuration& config,
                                    PlanExplanation* explanation) const {
  calls_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&weighted_calls_, query.optimize_overhead);

  CostSplit parts;
  if (!query.select.accesses.empty()) {
    parts.select = SelectCost(query.select, config, explanation);
  }
  if (query.update.has_value()) {
    parts.update = UpdatePartCost(query, config);
  }
  return parts;
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

}  // namespace pdx
