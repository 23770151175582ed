#include "optimizer/physical_design.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace pdx {
namespace {

using testing::SmallTpcdSchema;

Index MakeIndex(TableId t, std::vector<ColumnId> keys,
                std::vector<ColumnId> includes = {}) {
  Index i;
  i.table = t;
  i.key_columns = std::move(keys);
  i.include_columns = std::move(includes);
  return i;
}

TEST(IndexTest, CoversKeysAndIncludes) {
  Index i = MakeIndex(kLineitem, {1, 2}, {5, 6});
  EXPECT_TRUE(i.Covers({1}));
  EXPECT_TRUE(i.Covers({2, 5}));
  EXPECT_TRUE(i.Covers({1, 2, 5, 6}));
  EXPECT_FALSE(i.Covers({3}));
  EXPECT_TRUE(i.Covers({}));
}

TEST(IndexTest, StorageSmallerThanHeapForNarrowKeys) {
  Schema schema = SmallTpcdSchema();
  Index i = MakeIndex(kLineitem, {10});  // l_shipdate (4 bytes)
  EXPECT_LT(i.StorageBytes(schema),
            schema.table(kLineitem).HeapPages() * Schema::kPageSizeBytes);
  EXPECT_GT(i.StorageBytes(schema), 0u);
}

TEST(IndexTest, WiderIndexUsesMoreStorage) {
  Schema schema = SmallTpcdSchema();
  Index narrow = MakeIndex(kOrders, {0});
  Index wide = MakeIndex(kOrders, {0}, {1, 2, 3, 4, 5});
  EXPECT_GT(wide.StorageBytes(schema), narrow.StorageBytes(schema));
}

TEST(IndexTest, LevelsAtLeastOneAndGrowWithRows) {
  Schema schema = SmallTpcdSchema();
  EXPECT_GE(MakeIndex(kRegion, {0}).Geometry(schema).levels, 1u);
  EXPECT_GE(MakeIndex(kLineitem, {0}).Geometry(schema).levels,
            MakeIndex(kRegion, {0}).Geometry(schema).levels);
}

TEST(IndexTest, HashIdentity) {
  Index a = MakeIndex(kOrders, {1, 2}, {3});
  Index b = MakeIndex(kOrders, {1, 2}, {3});
  Index c = MakeIndex(kOrders, {2, 1}, {3});  // key order matters
  Index d = MakeIndex(kOrders, {1, 2}, {4});
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), c.Hash());
  EXPECT_NE(a.Hash(), d.Hash());
}

TEST(IndexTest, NameMentionsTableAndColumns) {
  Schema schema = SmallTpcdSchema();
  Index i = MakeIndex(kOrders, {1}, {3});
  std::string name = i.Name(schema);
  EXPECT_NE(name.find("orders"), std::string::npos);
  EXPECT_NE(name.find("o_custkey"), std::string::npos);
}

MaterializedView MakeView(std::vector<TableId> tables, uint64_t rows) {
  MaterializedView v;
  v.name = "v";
  v.tables = std::move(tables);
  std::sort(v.tables.begin(), v.tables.end());
  v.join_signature = MakeJoinSignature(
      {{{v.tables[0], 0}, {v.tables.size() > 1 ? v.tables[1] : v.tables[0], 0}}});
  v.exposed_columns = {{v.tables[0], 0}};
  v.row_count = rows;
  return v;
}

TEST(ViewTest, ReferencesMemberTables) {
  MaterializedView v = MakeView({kOrders, kLineitem}, 1000);
  EXPECT_TRUE(v.References(kOrders));
  EXPECT_TRUE(v.References(kLineitem));
  EXPECT_FALSE(v.References(kCustomer));
}

TEST(ViewTest, JoinSignatureOrderInsensitive) {
  ColumnRef a{0, 1}, b{2, 3}, c{4, 5}, d{6, 7};
  auto sig1 = MakeJoinSignature({{a, b}, {c, d}});
  auto sig2 = MakeJoinSignature({{d, c}, {b, a}});
  EXPECT_EQ(sig1, sig2);
  auto sig3 = MakeJoinSignature({{a, c}, {b, d}});
  EXPECT_NE(sig1, sig3);
}

TEST(ViewTest, StorageProportionalToRows) {
  Schema schema = SmallTpcdSchema();
  MaterializedView small = MakeView({kOrders, kLineitem}, 100);
  MaterializedView big = MakeView({kOrders, kLineitem}, 1000000);
  EXPECT_LT(small.StorageBytes(schema), big.StorageBytes(schema));
}

TEST(ConfigurationTest, AddDeduplicates) {
  Configuration c("test");
  Index i = MakeIndex(kOrders, {1});
  EXPECT_TRUE(c.AddIndex(i));
  EXPECT_FALSE(c.AddIndex(i));
  EXPECT_EQ(c.indexes().size(), 1u);
  MaterializedView v = MakeView({kOrders, kLineitem}, 10);
  EXPECT_TRUE(c.AddView(v));
  EXPECT_FALSE(c.AddView(v));
  EXPECT_EQ(c.NumStructures(), 2u);
}

TEST(ConfigurationTest, IndexesOnTable) {
  Configuration c("test");
  c.AddIndex(MakeIndex(kOrders, {1}));
  c.AddIndex(MakeIndex(kOrders, {2}));
  c.AddIndex(MakeIndex(kLineitem, {1}));
  EXPECT_EQ(c.IndexesOnTable(kOrders).size(), 2u);
  EXPECT_EQ(c.IndexesOnTable(kLineitem).size(), 1u);
  EXPECT_EQ(c.IndexesOnTable(kCustomer).size(), 0u);
}

TEST(ConfigurationTest, MergeUnions) {
  Configuration a("a"), b("b");
  a.AddIndex(MakeIndex(kOrders, {1}));
  b.AddIndex(MakeIndex(kOrders, {1}));
  b.AddIndex(MakeIndex(kOrders, {2}));
  Configuration m = a.Merge(b);
  EXPECT_EQ(m.indexes().size(), 2u);
}

TEST(ConfigurationTest, StructureOverlapJaccard) {
  Configuration a("a"), b("b"), c("c");
  a.AddIndex(MakeIndex(kOrders, {1}));
  a.AddIndex(MakeIndex(kOrders, {2}));
  b.AddIndex(MakeIndex(kOrders, {1}));
  b.AddIndex(MakeIndex(kOrders, {2}));
  EXPECT_DOUBLE_EQ(a.StructureOverlap(b), 1.0);
  c.AddIndex(MakeIndex(kOrders, {1}));
  c.AddIndex(MakeIndex(kOrders, {3}));
  EXPECT_NEAR(a.StructureOverlap(c), 1.0 / 3.0, 1e-12);
  Configuration empty1("e1"), empty2("e2");
  EXPECT_DOUBLE_EQ(empty1.StructureOverlap(empty2), 1.0);
  EXPECT_DOUBLE_EQ(a.StructureOverlap(empty1), 0.0);
}

TEST(ConfigurationTest, HashOrderInsensitive) {
  Configuration a("a"), b("b");
  a.AddIndex(MakeIndex(kOrders, {1}));
  a.AddIndex(MakeIndex(kOrders, {2}));
  b.AddIndex(MakeIndex(kOrders, {2}));
  b.AddIndex(MakeIndex(kOrders, {1}));
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(ConfigurationTest, StorageBytesSumsStructures) {
  Schema schema = SmallTpcdSchema();
  Configuration c("c");
  Index i1 = MakeIndex(kOrders, {1});
  Index i2 = MakeIndex(kLineitem, {2});
  c.AddIndex(i1);
  c.AddIndex(i2);
  EXPECT_EQ(c.StorageBytes(schema),
            i1.StorageBytes(schema) + i2.StorageBytes(schema));
}

}  // namespace
}  // namespace pdx
