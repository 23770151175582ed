// Copyright (c) the pdexplore authors.
// Physical design structures: indexes, materialized views, and
// configurations (the candidate points of the design space the comparison
// primitive selects among).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "catalog/types.h"

namespace pdx {

/// Size and shape of an index's B-tree, derived from its columns' widths
/// and the table's row count.
struct IndexGeometry {
  /// Bytes per leaf entry (keys + includes + entry overhead).
  uint32_t entry_bytes = 0;
  /// Total leaf pages.
  uint64_t leaf_pages = 0;
  /// B-tree height (levels above the leaf level), >= 1.
  uint32_t levels = 0;
};

/// A B-tree index: ordered key columns plus non-key included columns.
struct Index {
  TableId table = kInvalidTableId;
  /// Key columns in order; the leading prefix determines seek ability.
  std::vector<ColumnId> key_columns;
  /// Non-key columns stored in the leaves (covering payload).
  std::vector<ColumnId> include_columns;

  /// Stable identity for set operations and overlap metrics.
  bool operator==(const Index& o) const {
    return table == o.table && key_columns == o.key_columns &&
           include_columns == o.include_columns;
  }

  /// B-tree geometry, computed in one pass over the columns.
  IndexGeometry Geometry(const Schema& schema) const;
  /// Storage footprint in bytes.
  uint64_t StorageBytes(const Schema& schema) const;
  /// True if `column` appears in keys or includes. The one column test
  /// shared by the optimizer and the relevance layer, whose bit-identity
  /// rests on both applying the same rule.
  bool ContainsColumn(ColumnId column) const;
  /// True if every column in `columns` appears in keys or includes.
  bool Covers(const std::vector<ColumnId>& columns) const;
  /// Canonical name, e.g. "ix_lineitem(l_shipdate)incl(...)".
  std::string Name(const Schema& schema) const;
  /// Order-insensitive 64-bit identity hash.
  uint64_t Hash() const;
};

/// A materialized join/aggregation view. Matching is structural: a query
/// can use the view when it joins exactly the view's tables via the view's
/// join signature, its grouping is a subset of the view's grouping, and all
/// columns it touches are exposed.
struct MaterializedView {
  std::string name;
  /// Tables joined by the view, sorted ascending.
  std::vector<TableId> tables;
  /// Canonical join signature: for each edge, the two column refs in
  /// sorted order; edges sorted. Built by MakeJoinSignature.
  std::vector<uint64_t> join_signature;
  /// Grouping columns of the view (empty = no pre-aggregation).
  std::vector<ColumnRef> group_by;
  /// Columns exposed by the view (available to predicates / output).
  std::vector<ColumnRef> exposed_columns;
  /// Materialized row count (estimated at creation time).
  uint64_t row_count = 0;

  bool operator==(const MaterializedView& o) const {
    return tables == o.tables && join_signature == o.join_signature &&
           group_by == o.group_by && exposed_columns == o.exposed_columns;
  }

  /// Bytes per materialized row.
  uint32_t RowBytes(const Schema& schema) const;
  /// Heap pages of the materialization.
  uint64_t Pages(const Schema& schema) const;
  uint64_t StorageBytes(const Schema& schema) const;
  /// True if `t` participates in the view (DML on t must maintain it).
  bool References(TableId t) const;
  /// Order-insensitive identity hash.
  uint64_t Hash() const;
};

/// Canonical signature of a join edge set (order-insensitive).
std::vector<uint64_t> MakeJoinSignature(
    const std::vector<std::pair<ColumnRef, ColumnRef>>& edges);

/// A candidate physical configuration: a set of indexes and views.
class Configuration {
 public:
  Configuration() = default;
  explicit Configuration(std::string name) : name_(std::move(name)) {}

  /// Adds an index if not already present; returns true if added.
  bool AddIndex(Index index);
  /// Adds a view if not already present; returns true if added.
  bool AddView(MaterializedView view);

  const std::vector<Index>& indexes() const { return indexes_; }
  const std::vector<MaterializedView>& views() const { return views_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Indexes on a given table (indices into indexes()). The lists are
  /// maintained incrementally by AddIndex/AddView — no per-call
  /// allocation on the optimizer's hot path — and are ordered by
  /// structure identity hash (position as tie-break), so per-table
  /// iteration order (and hence floating-point accumulation in
  /// maintenance costing) is independent of the order structures were
  /// added. The signature what-if cache's bit-identity guarantee relies
  /// on this canonical order.
  const std::vector<uint32_t>& IndexesOnTable(TableId table) const;
  /// Views referencing a given table (same ordering guarantees).
  const std::vector<uint32_t>& ViewsOnTable(TableId table) const;

  bool ContainsIndex(const Index& index) const;
  bool ContainsView(const MaterializedView& view) const;

  /// Total storage footprint.
  uint64_t StorageBytes(const Schema& schema) const;

  /// Union of this and `other`.
  Configuration Merge(const Configuration& other) const;

  /// Jaccard overlap of structure sets — used by benches to engineer the
  /// "shared structures" vs "little overlap" scenarios of Figures 1/3/4.
  double StructureOverlap(const Configuration& other) const;

  size_t NumStructures() const { return indexes_.size() + views_.size(); }

  /// Order-insensitive identity hash over all structures.
  uint64_t Hash() const;

 private:
  std::string name_;
  std::vector<Index> indexes_;
  std::vector<MaterializedView> views_;
  /// table -> positions into indexes_/views_, canonically ordered (see
  /// IndexesOnTable).
  std::unordered_map<TableId, std::vector<uint32_t>> indexes_by_table_;
  std::unordered_map<TableId, std::vector<uint32_t>> views_by_table_;
};

/// The distinct structures of a configuration set, each kept once. Equal
/// structures (full structural equality; hash buckets only narrow the
/// search, so a collision cannot merge distinct structures) share one id
/// across configurations, which is what lets per-structure memos — the
/// signature cache's alphabet, the what-if cost terms — be shared across
/// configurations.
struct InternedStructures {
  std::vector<Index> indexes;
  std::vector<MaterializedView> views;
  /// [config][position in indexes()/views()] -> id into indexes/views. A
  /// structure listed twice keeps one id per listing.
  std::vector<std::vector<uint32_t>> config_index_ids;
  std::vector<std::vector<uint32_t>> config_view_ids;
};

InternedStructures InternStructures(const std::vector<Configuration>& configs);

}  // namespace pdx
