#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

namespace pdx {

double CostModel::HeapScanCost(TableId table) const {
  const Table& t = schema_.table(table);
  return ScanPagesCost(static_cast<double>(t.HeapPages()),
                       static_cast<double>(t.row_count));
}

double CostModel::ScanPagesCost(double pages, double rows) const {
  return constants_.seq_page * std::max(1.0, pages) +
         constants_.cpu_tuple * std::max(0.0, rows);
}

double CostModel::IndexSeekCost(const Index& index, double matching_rows,
                                bool covering) const {
  const IndexGeometry g = index.Geometry(schema_);
  double levels = static_cast<double>(g.levels);
  double leaf_entries_per_page = std::max(
      1.0, static_cast<double>(Schema::kPageSizeBytes) / g.entry_bytes);
  double leaf_pages_touched =
      std::max(1.0, matching_rows / leaf_entries_per_page);
  double cost = constants_.random_page * levels +
                constants_.seq_page * (leaf_pages_touched - 1.0) +
                constants_.cpu_tuple * matching_rows;
  if (!covering) {
    // One base-table lookup per matching row, degrading toward sequential
    // behaviour when enough of the table is touched that reads cluster.
    const Table& t = schema_.table(index.table);
    double table_pages = static_cast<double>(t.HeapPages());
    double lookups = std::min(matching_rows, table_pages * 4.0);
    cost += constants_.random_page * lookups;
  }
  return cost;
}

double CostModel::IndexRangeScanCost(const Index& index, double leaf_fraction,
                                     double matching_rows,
                                     bool covering) const {
  leaf_fraction = std::clamp(leaf_fraction, 0.0, 1.0);
  const IndexGeometry g = index.Geometry(schema_);
  double levels = static_cast<double>(g.levels);
  double leaf_pages = static_cast<double>(g.leaf_pages) * leaf_fraction;
  double cost = constants_.random_page * levels +
                constants_.seq_page * std::max(1.0, leaf_pages) +
                constants_.cpu_tuple * matching_rows;
  if (!covering) {
    const Table& t = schema_.table(index.table);
    double table_pages = static_cast<double>(t.HeapPages());
    double lookups = std::min(matching_rows, table_pages * 4.0);
    cost += constants_.random_page * lookups;
  }
  return cost;
}

double CostModel::SortCost(double rows) const {
  if (rows <= 1.0) return 0.0;
  return constants_.sort_compare * rows * std::log2(rows);
}

double CostModel::HashAggregateCost(double rows, double groups) const {
  return constants_.hash_build_tuple * std::max(0.0, groups) +
         constants_.hash_probe_tuple * std::max(0.0, rows);
}

double CostModel::HashJoinCost(double build_rows, double probe_rows) const {
  return constants_.hash_build_tuple * std::max(0.0, build_rows) +
         constants_.hash_probe_tuple * std::max(0.0, probe_rows);
}

double CostModel::ColumnNdv(const ColumnRef& ref) const {
  return static_cast<double>(
      std::max<uint64_t>(1, schema_.column(ref).num_distinct));
}

double CostModel::JoinCardinality(double left_rows, double right_rows,
                                  const ColumnRef& left_col,
                                  const ColumnRef& right_col) const {
  double ndv = std::max(ColumnNdv(left_col), ColumnNdv(right_col));
  double card = left_rows * right_rows / std::max(1.0, ndv);
  return std::max(0.0, card);
}

double CostModel::GroupCardinality(
    double rows, const std::vector<ColumnRef>& columns) const {
  if (columns.empty() || rows <= 0.0) return std::min(rows, 1.0);
  double groups = 1.0;
  for (const ColumnRef& c : columns) groups *= ColumnNdv(c);
  return std::min(rows, groups);
}

}  // namespace pdx
