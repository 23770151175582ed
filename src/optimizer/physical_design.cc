#include "optimizer/physical_design.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/string_util.h"

namespace pdx {

namespace {
constexpr uint32_t kIndexEntryOverhead = 12;
constexpr uint32_t kViewRowOverhead = 16;

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

uint64_t HashColumnRef(const ColumnRef& r) {
  return (static_cast<uint64_t>(r.table) << 32) | r.column;
}
}  // namespace

IndexGeometry Index::Geometry(const Schema& schema) const {
  const Table& t = schema.table(table);
  IndexGeometry g;
  uint32_t key_bytes = kIndexEntryOverhead;
  for (ColumnId c : key_columns) key_bytes += t.columns[c].width_bytes;
  g.entry_bytes = key_bytes;
  for (ColumnId c : include_columns) g.entry_bytes += t.columns[c].width_bytes;
  uint64_t per_page = Schema::kPageSizeBytes / std::max(1u, g.entry_bytes);
  if (per_page == 0) per_page = 1;
  g.leaf_pages = (t.row_count + per_page - 1) / per_page;
  // Internal fan-out: key bytes + child pointer.
  double fanout =
      std::max(2.0, static_cast<double>(Schema::kPageSizeBytes) / key_bytes);
  double leaves = static_cast<double>(g.leaf_pages);
  g.levels = 1;
  while (leaves > 1.0) {
    leaves /= fanout;
    ++g.levels;
  }
  return g;
}

uint64_t Index::StorageBytes(const Schema& schema) const {
  // Leaves plus ~1/fanout of internal pages; the latter is negligible, we
  // charge 2% like common sizing formulas.
  uint64_t leaf_bytes = Geometry(schema).leaf_pages * Schema::kPageSizeBytes;
  return leaf_bytes + leaf_bytes / 50;
}

bool Index::ContainsColumn(ColumnId column) const {
  return std::find(key_columns.begin(), key_columns.end(), column) !=
             key_columns.end() ||
         std::find(include_columns.begin(), include_columns.end(), column) !=
             include_columns.end();
}

bool Index::Covers(const std::vector<ColumnId>& columns) const {
  for (ColumnId c : columns) {
    if (!ContainsColumn(c)) return false;
  }
  return true;
}

std::string Index::Name(const Schema& schema) const {
  const Table& t = schema.table(table);
  std::string out = "ix_" + t.name + "(";
  for (size_t i = 0; i < key_columns.size(); ++i) {
    if (i > 0) out += ",";
    out += t.columns[key_columns[i]].name;
  }
  out += ")";
  if (!include_columns.empty()) {
    out += "incl(";
    for (size_t i = 0; i < include_columns.size(); ++i) {
      if (i > 0) out += ",";
      out += t.columns[include_columns[i]].name;
    }
    out += ")";
  }
  return out;
}

uint64_t Index::Hash() const {
  uint64_t h = 0xA11CE5 ^ table;
  for (ColumnId c : key_columns) h = HashCombine(h, 0x1000 + c);
  // Includes are order-insensitive.
  uint64_t inc = 0;
  for (ColumnId c : include_columns) inc += 0x9E3779B9ULL * (c + 1);
  return HashCombine(h, inc);
}

uint32_t MaterializedView::RowBytes(const Schema& schema) const {
  uint32_t bytes = kViewRowOverhead;
  for (const ColumnRef& r : exposed_columns) {
    bytes += schema.column(r).width_bytes;
  }
  return bytes;
}

uint64_t MaterializedView::Pages(const Schema& schema) const {
  uint64_t per_page = Schema::kPageSizeBytes / std::max(1u, RowBytes(schema));
  if (per_page == 0) per_page = 1;
  return (row_count + per_page - 1) / per_page;
}

uint64_t MaterializedView::StorageBytes(const Schema& schema) const {
  return Pages(schema) * Schema::kPageSizeBytes;
}

bool MaterializedView::References(TableId t) const {
  return std::binary_search(tables.begin(), tables.end(), t);
}

uint64_t MaterializedView::Hash() const {
  uint64_t h = 0xBEEF;
  for (TableId t : tables) h = HashCombine(h, t);
  for (uint64_t j : join_signature) h = HashCombine(h, j);
  uint64_t g = 0;
  for (const ColumnRef& r : group_by) g += HashColumnRef(r) * 0x9E3779B9ULL;
  uint64_t e = 0;
  for (const ColumnRef& r : exposed_columns) e += HashColumnRef(r) * 0x85EBCA6BULL;
  h = HashCombine(h, g);
  h = HashCombine(h, e);
  return h;
}

std::vector<uint64_t> MakeJoinSignature(
    const std::vector<std::pair<ColumnRef, ColumnRef>>& edges) {
  std::vector<uint64_t> sig;
  sig.reserve(edges.size());
  for (const auto& [a, b] : edges) {
    uint64_t ha = HashColumnRef(a);
    uint64_t hb = HashColumnRef(b);
    if (ha > hb) std::swap(ha, hb);
    sig.push_back(HashCombine(ha, hb));
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

namespace {

// Inserts `pos` into a per-table position list keeping it ordered by the
// structures' identity hashes (position as tie-break): iteration order is
// then a function of the structure *set*, not of insertion history.
template <typename Structure>
void InsertCanonical(const std::vector<Structure>& structures,
                     std::vector<uint32_t>* list, uint32_t pos) {
  uint64_t h = structures[pos].Hash();
  auto it = std::upper_bound(
      list->begin(), list->end(), pos, [&](uint32_t a, uint32_t b) {
        uint64_t ha = a == pos ? h : structures[a].Hash();
        uint64_t hb = b == pos ? h : structures[b].Hash();
        return ha != hb ? ha < hb : a < b;
      });
  list->insert(it, pos);
}

const std::vector<uint32_t> kNoStructures;

}  // namespace

bool Configuration::AddIndex(Index index) {
  if (ContainsIndex(index)) return false;
  indexes_.push_back(std::move(index));
  uint32_t pos = static_cast<uint32_t>(indexes_.size() - 1);
  InsertCanonical(indexes_, &indexes_by_table_[indexes_.back().table], pos);
  return true;
}

bool Configuration::AddView(MaterializedView view) {
  if (ContainsView(view)) return false;
  views_.push_back(std::move(view));
  uint32_t pos = static_cast<uint32_t>(views_.size() - 1);
  TableId prev = kInvalidTableId;
  for (TableId t : views_.back().tables) {  // sorted; skip self-join dups
    if (t == prev) continue;
    prev = t;
    InsertCanonical(views_, &views_by_table_[t], pos);
  }
  return true;
}

const std::vector<uint32_t>& Configuration::IndexesOnTable(
    TableId table) const {
  auto it = indexes_by_table_.find(table);
  return it == indexes_by_table_.end() ? kNoStructures : it->second;
}

const std::vector<uint32_t>& Configuration::ViewsOnTable(TableId table) const {
  auto it = views_by_table_.find(table);
  return it == views_by_table_.end() ? kNoStructures : it->second;
}

bool Configuration::ContainsIndex(const Index& index) const {
  return std::find(indexes_.begin(), indexes_.end(), index) != indexes_.end();
}

bool Configuration::ContainsView(const MaterializedView& view) const {
  return std::find(views_.begin(), views_.end(), view) != views_.end();
}

uint64_t Configuration::StorageBytes(const Schema& schema) const {
  uint64_t bytes = 0;
  for (const Index& i : indexes_) bytes += i.StorageBytes(schema);
  for (const MaterializedView& v : views_) bytes += v.StorageBytes(schema);
  return bytes;
}

Configuration Configuration::Merge(const Configuration& other) const {
  Configuration merged(name_ + "+" + other.name_);
  for (const Index& i : indexes_) merged.AddIndex(i);
  for (const MaterializedView& v : views_) merged.AddView(v);
  for (const Index& i : other.indexes_) merged.AddIndex(i);
  for (const MaterializedView& v : other.views_) merged.AddView(v);
  return merged;
}

double Configuration::StructureOverlap(const Configuration& other) const {
  std::unordered_set<uint64_t> mine;
  for (const Index& i : indexes_) mine.insert(i.Hash());
  for (const MaterializedView& v : views_) mine.insert(v.Hash());
  std::unordered_set<uint64_t> theirs;
  for (const Index& i : other.indexes_) theirs.insert(i.Hash());
  for (const MaterializedView& v : other.views_) theirs.insert(v.Hash());
  if (mine.empty() && theirs.empty()) return 1.0;
  size_t common = 0;
  for (uint64_t h : mine) common += theirs.count(h);
  size_t uni = mine.size() + theirs.size() - common;
  return uni == 0 ? 1.0 : static_cast<double>(common) / static_cast<double>(uni);
}

uint64_t Configuration::Hash() const {
  uint64_t h = 0;
  // Order-insensitive: sum of structure hashes.
  for (const Index& i : indexes_) h += i.Hash();
  for (const MaterializedView& v : views_) h += v.Hash();
  return h;
}

namespace {

// Returns the id of `s` in `pool`, appending it when new.
template <typename Structure>
uint32_t Intern(const Structure& s, std::vector<Structure>* pool,
                std::unordered_map<uint64_t, std::vector<uint32_t>>* buckets) {
  std::vector<uint32_t>& bucket = (*buckets)[s.Hash()];
  for (uint32_t cand : bucket) {
    if ((*pool)[cand] == s) return cand;
  }
  const uint32_t id = static_cast<uint32_t>(pool->size());
  pool->push_back(s);
  bucket.push_back(id);
  return id;
}

}  // namespace

InternedStructures InternStructures(
    const std::vector<Configuration>& configs) {
  InternedStructures out;
  std::unordered_map<uint64_t, std::vector<uint32_t>> index_buckets;
  std::unordered_map<uint64_t, std::vector<uint32_t>> view_buckets;
  out.config_index_ids.resize(configs.size());
  out.config_view_ids.resize(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    out.config_index_ids[c].reserve(configs[c].indexes().size());
    for (const Index& idx : configs[c].indexes()) {
      out.config_index_ids[c].push_back(
          Intern(idx, &out.indexes, &index_buckets));
    }
    out.config_view_ids[c].reserve(configs[c].views().size());
    for (const MaterializedView& v : configs[c].views()) {
      out.config_view_ids[c].push_back(Intern(v, &out.views, &view_buckets));
    }
  }
  return out;
}

}  // namespace pdx
