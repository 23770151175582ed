#include "optimizer/relevance.h"

#include <algorithm>

namespace pdx {

namespace {

void SortUnique(std::vector<ColumnId>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

bool Contains(const std::vector<ColumnId>& sorted, ColumnId c) {
  return std::binary_search(sorted.begin(), sorted.end(), c);
}

}  // namespace

QueryFootprint ComputeFootprint(const Query& query) {
  QueryFootprint f;
  const SelectSpec& spec = query.select;
  f.accesses.resize(spec.accesses.size());
  for (size_t a = 0; a < spec.accesses.size(); ++a) {
    const TableAccess& access = spec.accesses[a];
    AccessFootprint& out = f.accesses[a];
    out.table = access.table;
    out.referenced_columns = access.referenced_columns;
    for (const Predicate& p : access.predicates) {
      // MatchSeekPrefix only anchors on sargable Eq/In/Range predicates.
      if (!p.sargable) continue;
      if (p.op == PredOp::kEq || p.op == PredOp::kIn ||
          p.op == PredOp::kRange) {
        out.seek_columns.push_back(p.column.column);
      }
    }
    SortUnique(&out.seek_columns);
    f.view_tables.push_back(access.table);
    for (ColumnId c : access.referenced_columns) {
      f.referenced_refs.push_back({access.table, c});
    }
  }
  for (const JoinEdge& j : spec.joins) {
    f.accesses[j.left_access].join_columns.push_back(j.left_column);
    f.accesses[j.right_access].join_columns.push_back(j.right_column);
  }
  for (AccessFootprint& a : f.accesses) SortUnique(&a.join_columns);
  std::sort(f.view_tables.begin(), f.view_tables.end());
  f.has_joins = !spec.joins.empty();
  if (f.has_joins) {
    std::vector<std::pair<ColumnRef, ColumnRef>> edges;
    edges.reserve(spec.joins.size());
    for (const JoinEdge& j : spec.joins) {
      edges.push_back({{spec.accesses[j.left_access].table, j.left_column},
                       {spec.accesses[j.right_access].table, j.right_column}});
    }
    f.join_signature = MakeJoinSignature(edges);
  }
  f.group_by = spec.group_by;
  if (query.update.has_value()) {
    f.has_update = true;
    f.update_table = query.update->table;
    f.update_kind = query.update->kind;
    f.update_set_columns = query.update->set_columns;
  }
  return f;
}

std::vector<QueryFootprint> ComputeWorkloadFootprints(
    const Workload& workload) {
  std::vector<QueryFootprint> out;
  out.reserve(workload.size());
  for (const Query& q : workload.queries()) out.push_back(ComputeFootprint(q));
  return out;
}

bool IndexRelevantToAccess(const AccessFootprint& access, const Index& index) {
  if (index.table != access.table) return false;
  if (!index.key_columns.empty()) {
    ColumnId lead = index.key_columns[0];
    if (Contains(access.seek_columns, lead)) return true;
    if (Contains(access.join_columns, lead)) return true;
  }
  return index.Covers(access.referenced_columns);
}

bool IndexTouchedByUpdate(const QueryFootprint& footprint,
                          const Index& index) {
  if (!footprint.has_update || index.table != footprint.update_table) {
    return false;
  }
  if (footprint.update_kind != StatementKind::kUpdate) return true;
  for (ColumnId c : footprint.update_set_columns) {
    if (index.ContainsColumn(c)) return true;
  }
  return false;
}

bool IndexRelevant(const QueryFootprint& footprint, const Index& index) {
  for (const AccessFootprint& a : footprint.accesses) {
    if (IndexRelevantToAccess(a, index)) return true;
  }
  return IndexTouchedByUpdate(footprint, index);
}

bool ViewSelectRelevant(const QueryFootprint& footprint,
                        const MaterializedView& view) {
  if (!footprint.has_joins) return false;
  if (view.tables != footprint.view_tables) return false;
  if (view.join_signature != footprint.join_signature) return false;
  for (const ColumnRef& g : footprint.group_by) {
    if (std::find(view.group_by.begin(), view.group_by.end(), g) ==
        view.group_by.end()) {
      return false;
    }
  }
  for (const ColumnRef& r : footprint.referenced_refs) {
    if (std::find(view.exposed_columns.begin(), view.exposed_columns.end(),
                  r) == view.exposed_columns.end()) {
      return false;
    }
  }
  return true;
}

bool ViewRelevant(const QueryFootprint& footprint,
                  const MaterializedView& view) {
  if (ViewSelectRelevant(footprint, view)) return true;
  return footprint.has_update && view.References(footprint.update_table);
}

void RelevantStructurePositions(const QueryFootprint& footprint,
                                const Configuration& config,
                                std::vector<uint32_t>* index_positions,
                                std::vector<uint32_t>* view_positions) {
  for (const AccessFootprint& a : footprint.accesses) {
    for (uint32_t pos : config.IndexesOnTable(a.table)) {
      if (IndexRelevantToAccess(a, config.indexes()[pos])) {
        index_positions->push_back(pos);
      }
    }
  }
  if (footprint.has_update) {
    for (uint32_t pos : config.IndexesOnTable(footprint.update_table)) {
      if (IndexTouchedByUpdate(footprint, config.indexes()[pos])) {
        index_positions->push_back(pos);
      }
    }
    for (uint32_t pos : config.ViewsOnTable(footprint.update_table)) {
      view_positions->push_back(pos);
    }
  }
  if (footprint.has_joins && !config.views().empty()) {
    // View matching is whole-shape, not per-table: scan all views. A
    // first-table filter would also be correct, but view sets are small.
    for (uint32_t pos = 0; pos < config.views().size(); ++pos) {
      if (ViewSelectRelevant(footprint, config.views()[pos])) {
        view_positions->push_back(pos);
      }
    }
  }
  std::sort(index_positions->begin(), index_positions->end());
  index_positions->erase(
      std::unique(index_positions->begin(), index_positions->end()),
      index_positions->end());
  std::sort(view_positions->begin(), view_positions->end());
  view_positions->erase(
      std::unique(view_positions->begin(), view_positions->end()),
      view_positions->end());
}

}  // namespace pdx
