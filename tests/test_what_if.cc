#include "optimizer/what_if.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/running_stats.h"
#include "optimizer/candidate_gen.h"
#include "test_util.h"
#include "tuner/enumerator.h"

namespace pdx {
namespace {

using testing::SmallCrmSchema;
using testing::SmallCrmTrace;
using testing::SmallTpcdSchema;
using testing::SmallTpcdWorkload;

class WhatIfTest : public ::testing::Test {
 protected:
  WhatIfTest()
      : schema_(SmallTpcdSchema()),
        wl_(SmallTpcdWorkload(schema_, 240)),
        opt_(schema_) {}

  Schema schema_;
  Workload wl_;
  WhatIfOptimizer opt_;
};

TEST_F(WhatIfTest, CallCounterCounts) {
  Configuration empty("empty");
  opt_.ResetCallCounter();
  opt_.Cost(wl_.query(0), empty);
  opt_.Cost(wl_.query(1), empty);
  EXPECT_EQ(opt_.num_calls(), 2u);
  EXPECT_GT(opt_.weighted_calls(), 0.0);
  opt_.ResetCallCounter();
  EXPECT_EQ(opt_.num_calls(), 0u);
}

TEST_F(WhatIfTest, CostsArePositiveAndDeterministic) {
  Configuration empty("empty");
  for (QueryId q = 0; q < 50; ++q) {
    double c1 = opt_.Cost(wl_.query(q), empty);
    double c2 = opt_.Cost(wl_.query(q), empty);
    EXPECT_GT(c1, 0.0);
    EXPECT_DOUBLE_EQ(c1, c2);
  }
}

TEST_F(WhatIfTest, IndexHelpsSelectiveLookup) {
  // Template "customer_lookup" (point select on c_custkey).
  Configuration empty("empty");
  Configuration with_index("ix");
  Index i;
  i.table = kCustomer;
  i.key_columns = {schema_.table(kCustomer).FindColumn("c_custkey")};
  with_index.AddIndex(i);

  bool found = false;
  for (const Query& q : wl_.queries()) {
    if (wl_.query_template(q.template_id).name != "customer_lookup") continue;
    found = true;
    double before = opt_.Cost(q, empty);
    double after = opt_.Cost(q, with_index);
    EXPECT_LT(after, before / 20.0) << "index should make lookups cheap";
  }
  EXPECT_TRUE(found);
}

TEST_F(WhatIfTest, SelectCostMonotoneUnderAddedStructures) {
  // The §6.1 requirement: a well-behaved optimizer never prices a SELECT
  // higher when structures are added. Property-checked over the workload
  // and a chain of growing configurations.
  CandidateGenerator gen(schema_);
  Configuration rich = gen.RichConfiguration(wl_);

  Configuration partial("partial");
  size_t count = 0;
  for (const Index& i : rich.indexes()) {
    if (count++ % 2 == 0) partial.AddIndex(i);
  }

  Configuration empty("empty");
  for (QueryId q = 0; q < wl_.size(); q += 3) {
    PlanExplanation e_empty, e_partial, e_rich;
    opt_.CostExplained(wl_.query(q), empty, &e_empty);
    opt_.CostExplained(wl_.query(q), partial, &e_partial);
    opt_.CostExplained(wl_.query(q), rich, &e_rich);
    EXPECT_LE(e_partial.select_cost, e_empty.select_cost * (1.0 + 1e-9))
        << "query " << q;
    // `rich` is a superset of `partial`'s indexes plus views.
    EXPECT_LE(e_rich.select_cost, e_partial.select_cost * (1.0 + 1e-9))
        << "query " << q;
  }
}

TEST_F(WhatIfTest, ViewAnswersMatchingJoinQuery) {
  CandidateGenerator gen(schema_);
  // Pick a join template and its view candidate.
  for (const Query& q : wl_.queries()) {
    if (q.select.joins.size() < 2) continue;
    QueryCandidates cands = gen.ForQuery(q);
    if (cands.views.empty()) continue;
    Configuration with_view("v");
    with_view.AddView(cands.views[0]);
    PlanExplanation ex;
    double with_cost = opt_.CostExplained(q, with_view, &ex);
    Configuration empty("empty");
    double without = opt_.Cost(q, empty);
    EXPECT_LE(with_cost, without);
    EXPECT_TRUE(ex.used_view) << "view candidate should answer its query";
    return;  // one confirmed case suffices
  }
  FAIL() << "no join query with view candidate found";
}

TEST_F(WhatIfTest, TotalCostSumsAndCounts) {
  Configuration empty("empty");
  opt_.ResetCallCounter();
  double total = opt_.TotalCost(wl_, empty);
  EXPECT_EQ(opt_.num_calls(), wl_.size());
  double manual = 0.0;
  for (const Query& q : wl_.queries()) manual += opt_.Cost(q, empty);
  EXPECT_NEAR(total, manual, 1e-6 * manual);
}

TEST_F(WhatIfTest, CrossTemplateCostSkew) {
  // Costs must span orders of magnitude across templates (the "highly
  // skewed" workloads of §7) once useful indexes exist.
  CandidateGenerator gen(schema_);
  Configuration rich = gen.RichConfiguration(wl_);
  double min_cost = 1e300, max_cost = 0.0;
  for (const Query& q : wl_.queries()) {
    double c = opt_.Cost(q, rich);
    min_cost = std::min(min_cost, c);
    max_cost = std::max(max_cost, c);
  }
  EXPECT_GT(max_cost / min_cost, 1000.0);
}

TEST_F(WhatIfTest, WithinTemplateVarianceSmallerThanGlobal) {
  Configuration empty("empty");
  std::vector<double> all;
  std::vector<std::vector<double>> per_template(wl_.num_templates());
  for (const Query& q : wl_.queries()) {
    double c = opt_.Cost(q, empty);
    all.push_back(c);
    per_template[q.template_id].push_back(c);
  }
  double global_var = ExactMoments::Compute(all).variance_population;
  double within = 0.0;
  for (const auto& tv : per_template) {
    within += ExactMoments::Compute(tv).variance_population *
              static_cast<double>(tv.size());
  }
  within /= static_cast<double>(all.size());
  EXPECT_LT(within, global_var * 0.5)
      << "template should explain most cost variance";
}


TEST_F(WhatIfTest, PlanExplanationDescribesAccessPaths) {
  CandidateGenerator gen(schema_);
  Configuration rich = gen.RichConfiguration(wl_);
  bool saw_index_path = false;
  bool saw_heap_path = false;
  for (QueryId q = 0; q < wl_.size(); q += 9) {
    PlanExplanation ex;
    opt_.CostExplained(wl_.query(q), rich, &ex);
    EXPECT_EQ(ex.total_cost, ex.select_cost + ex.update_cost);
    EXPECT_GE(ex.access_paths.size(), 1u);
    for (const std::string& path : ex.access_paths) {
      saw_index_path |= path.find("index") != std::string::npos ||
                        path.find("inlj") != std::string::npos;
      saw_heap_path |= path.find("heap_scan") != std::string::npos;
    }
  }
  EXPECT_TRUE(saw_index_path) << "rich config should enable index paths";
  Configuration empty("empty");
  PlanExplanation ex;
  opt_.CostExplained(wl_.query(0), empty, &ex);
  for (const std::string& path : ex.access_paths) {
    saw_heap_path |= path.find("heap_scan") != std::string::npos;
  }
  EXPECT_TRUE(saw_heap_path);
}

TEST_F(WhatIfTest, JoinWiderThanInlineFlagsIsCosted) {
  // A 70-way self-join chain outgrows the optimizer's on-stack join flags
  // (64 accesses): every edge must still join one new access, and the
  // closing edge 0-69 is a residual filter within the joined set.
  const ColumnId key = schema_.table(kCustomer).FindColumn("c_custkey");
  Query q;
  for (uint32_t a = 0; a < 70; ++a) {
    TableAccess access;
    access.table = kCustomer;
    access.referenced_columns = {key};
    q.select.accesses.push_back(access);
    if (a > 0) q.select.joins.push_back({a - 1, a, key, key});
  }
  q.select.joins.push_back({0, 69, key, key});
  Configuration empty("empty");
  Configuration with_index("ix");
  Index i;
  i.table = kCustomer;
  i.key_columns = {key};
  with_index.AddIndex(i);
  for (const Configuration* c : {&empty, &with_index}) {
    PlanExplanation e;
    double total = opt_.CostExplained(q, *c, &e);
    EXPECT_EQ(e.access_paths.size(), 70u);
    EXPECT_TRUE(std::isfinite(total));
    EXPECT_EQ(total, opt_.Cost(q, *c));
  }
}

TEST_F(WhatIfTest, WeightedCallsTrackOverheads) {
  Configuration empty("empty");
  opt_.ResetCallCounter();
  double expected = 0.0;
  for (QueryId q = 0; q < 20; ++q) {
    opt_.Cost(wl_.query(q), empty);
    expected += wl_.query(q).optimize_overhead;
  }
  EXPECT_NEAR(opt_.weighted_calls(), expected, 1e-9);
}

class WhatIfDmlTest : public ::testing::Test {
 protected:
  WhatIfDmlTest()
      : schema_(SmallCrmSchema()),
        wl_(SmallCrmTrace(schema_, 500)),
        opt_(schema_) {}

  Schema schema_;
  Workload wl_;
  WhatIfOptimizer opt_;
};

TEST_F(WhatIfDmlTest, UpdateCostGrowsWithSelectivity) {
  // §6.1: "the cost of a pure update statement grows with its selectivity".
  Configuration empty("empty");
  for (const Query& q : wl_.queries()) {
    if (!q.update.has_value()) continue;
    Query more = q;
    more.update->selectivity = std::min(1.0, q.update->selectivity * 10.0);
    PlanExplanation e1, e2;
    opt_.CostExplained(q, empty, &e1);
    opt_.CostExplained(more, empty, &e2);
    EXPECT_GE(e2.update_cost, e1.update_cost);
  }
}

TEST_F(WhatIfDmlTest, IndexesMakeDmlMoreExpensive) {
  Configuration empty("empty");
  bool checked = false;
  for (const Query& q : wl_.queries()) {
    if (q.kind != StatementKind::kInsert) continue;
    Configuration with_index("ix");
    Index i;
    i.table = q.update->table;
    i.key_columns = {0};
    with_index.AddIndex(i);
    PlanExplanation e1, e2;
    opt_.CostExplained(q, empty, &e1);
    opt_.CostExplained(q, with_index, &e2);
    EXPECT_GT(e2.update_cost, e1.update_cost)
        << "insert must pay index maintenance";
    checked = true;
    break;
  }
  EXPECT_TRUE(checked);
}

TEST_F(WhatIfDmlTest, UpdateOnlyPaysForTouchedIndexes) {
  for (const Query& q : wl_.queries()) {
    if (q.kind != StatementKind::kUpdate || q.update->set_columns.empty()) {
      continue;
    }
    const Table& t = schema_.table(q.update->table);
    // An index on a column NOT written should not add maintenance cost.
    ColumnId untouched = kInvalidColumnId;
    for (ColumnId c = 0; c < t.columns.size(); ++c) {
      if (std::find(q.update->set_columns.begin(), q.update->set_columns.end(),
                    c) == q.update->set_columns.end()) {
        untouched = c;
        break;
      }
    }
    if (untouched == kInvalidColumnId) continue;
    Configuration empty("empty");
    Configuration with_untouched("ix");
    Index i;
    i.table = q.update->table;
    i.key_columns = {untouched};
    with_untouched.AddIndex(i);
    PlanExplanation e1, e2;
    opt_.CostExplained(q, empty, &e1);
    opt_.CostExplained(q, with_untouched, &e2);
    EXPECT_DOUBLE_EQ(e1.update_cost, e2.update_cost);
    return;
  }
  GTEST_SKIP() << "no suitable update statement found";
}

// Builds a view answering exactly the given join query: same tables, same
// join signature, all referenced columns exposed, same grouping.
MaterializedView ViewAnswering(const Query& q) {
  const SelectSpec& spec = q.select;
  MaterializedView v;
  v.name = "exact";
  for (const TableAccess& a : spec.accesses) v.tables.push_back(a.table);
  std::sort(v.tables.begin(), v.tables.end());
  std::vector<std::pair<ColumnRef, ColumnRef>> edges;
  for (const JoinEdge& j : spec.joins) {
    edges.push_back({{spec.accesses[j.left_access].table, j.left_column},
                     {spec.accesses[j.right_access].table, j.right_column}});
  }
  v.join_signature = MakeJoinSignature(edges);
  v.group_by = spec.group_by;
  for (const TableAccess& a : spec.accesses) {
    for (ColumnId c : a.referenced_columns) {
      v.exposed_columns.push_back({a.table, c});
    }
  }
  v.row_count = 2000;
  return v;
}

// ViewMatchCost edge cases: structural near-misses must be skipped — a
// view is usable only on an exact shape match, and the relevance layer
// (optimizer/relevance.h) mirrors these exact checks.
class WhatIfViewMatchTest : public WhatIfTest {
 protected:
  // First join query with grouping (so the group-subset check is live).
  const Query* FindJoinQuery() const {
    for (const Query& q : wl_.queries()) {
      if (!q.select.joins.empty() && !q.select.group_by.empty()) return &q;
    }
    for (const Query& q : wl_.queries()) {
      if (!q.select.joins.empty()) return &q;
    }
    return nullptr;
  }
};

TEST_F(WhatIfViewMatchTest, ExactShapeMatchUsesView) {
  const Query* q = FindJoinQuery();
  ASSERT_NE(q, nullptr);
  Configuration with_view("v");
  with_view.AddView(ViewAnswering(*q));
  PlanExplanation ex;
  opt_.CostExplained(*q, with_view, &ex);
  EXPECT_TRUE(ex.used_view);
}

TEST_F(WhatIfViewMatchTest, MatchingTablesWrongJoinSignatureIgnored) {
  const Query* q = FindJoinQuery();
  ASSERT_NE(q, nullptr);
  MaterializedView v = ViewAnswering(*q);
  // Same table set, different join columns: perturb one edge.
  const JoinEdge& j = q->select.joins[0];
  TableId lt = q->select.accesses[j.left_access].table;
  TableId rt = q->select.accesses[j.right_access].table;
  v.join_signature =
      MakeJoinSignature({{{lt, j.left_column + 1}, {rt, j.right_column}}});
  Configuration with_view("v");
  with_view.AddView(v);
  PlanExplanation ex;
  double with_cost = opt_.CostExplained(*q, with_view, &ex);
  EXPECT_FALSE(ex.used_view);
  Configuration empty("empty");
  EXPECT_EQ(with_cost, opt_.Cost(*q, empty))
      << "a non-matching view must not change the plan";
}

TEST_F(WhatIfViewMatchTest, GroupColumnNotExposedIgnored) {
  for (const Query& q : wl_.queries()) {
    if (q.select.joins.empty() || q.select.group_by.empty()) continue;
    MaterializedView v = ViewAnswering(q);
    v.group_by.clear();  // view granularity hides the grouping column
    Configuration with_view("v");
    with_view.AddView(v);
    PlanExplanation ex;
    double with_cost = opt_.CostExplained(q, with_view, &ex);
    EXPECT_FALSE(ex.used_view);
    Configuration empty("empty");
    EXPECT_EQ(with_cost, opt_.Cost(q, empty));
    return;
  }
  GTEST_SKIP() << "no grouped join query found";
}

TEST_F(WhatIfViewMatchTest, ReferencedColumnNotExposedIgnored) {
  const Query* q = FindJoinQuery();
  ASSERT_NE(q, nullptr);
  MaterializedView v = ViewAnswering(*q);
  ASSERT_FALSE(v.exposed_columns.empty());
  v.exposed_columns.pop_back();  // one touched column no longer exposed
  Configuration with_view("v");
  with_view.AddView(v);
  PlanExplanation ex;
  double with_cost = opt_.CostExplained(*q, with_view, &ex);
  EXPECT_FALSE(ex.used_view);
  Configuration empty("empty");
  EXPECT_EQ(with_cost, opt_.Cost(*q, empty));
}

TEST_F(WhatIfDmlTest, UpdateTouchesIndexThroughIncludeColumn) {
  // The UPDATE touch rule consults key AND include columns: an index
  // merely INCLUDE-ing a written column still needs maintenance.
  for (const Query& q : wl_.queries()) {
    if (q.kind != StatementKind::kUpdate || q.update->set_columns.empty()) {
      continue;
    }
    const Table& t = schema_.table(q.update->table);
    ColumnId set_col = q.update->set_columns[0];
    ColumnId other = kInvalidColumnId;
    for (ColumnId c = 0; c < t.columns.size(); ++c) {
      if (std::find(q.update->set_columns.begin(), q.update->set_columns.end(),
                    c) == q.update->set_columns.end()) {
        other = c;
        break;
      }
    }
    if (other == kInvalidColumnId) continue;
    Index including;
    including.table = q.update->table;
    including.key_columns = {other};
    including.include_columns = {set_col};
    Configuration empty("empty");
    Configuration with_including("ix");
    with_including.AddIndex(including);
    PlanExplanation e1, e2;
    opt_.CostExplained(q, empty, &e1);
    opt_.CostExplained(q, with_including, &e2);
    EXPECT_GT(e2.update_cost, e1.update_cost)
        << "include-column write must pay maintenance";
    return;
  }
  GTEST_SKIP() << "no suitable update statement found";
}

TEST_F(WhatIfDmlTest, InsertPaysEveryIndexUpdateOnlyTouched) {
  // Contrast on one table: an index on a column the UPDATE never writes
  // is free for the UPDATE but charged to an INSERT on the same table.
  const Query* update_q = nullptr;
  for (const Query& q : wl_.queries()) {
    if (q.kind == StatementKind::kUpdate && !q.update->set_columns.empty()) {
      update_q = &q;
      break;
    }
  }
  if (update_q == nullptr) GTEST_SKIP() << "no update statement found";
  const TableId table = update_q->update->table;
  const Table& t = schema_.table(table);
  ColumnId untouched = kInvalidColumnId;
  for (ColumnId c = 0; c < t.columns.size(); ++c) {
    if (std::find(update_q->update->set_columns.begin(),
                  update_q->update->set_columns.end(),
                  c) == update_q->update->set_columns.end()) {
      untouched = c;
      break;
    }
  }
  if (untouched == kInvalidColumnId) GTEST_SKIP() << "all columns written";

  Query insert_q;
  insert_q.kind = StatementKind::kInsert;
  UpdateSpec u;
  u.table = table;
  u.kind = StatementKind::kInsert;
  u.selectivity = 1.0 / std::max<uint64_t>(1, t.row_count);
  insert_q.update = u;

  Index ix;
  ix.table = table;
  ix.key_columns = {untouched};
  Configuration empty("empty");
  Configuration with_ix("ix");
  with_ix.AddIndex(ix);

  PlanExplanation up1, up2;
  opt_.CostExplained(*update_q, empty, &up1);
  opt_.CostExplained(*update_q, with_ix, &up2);
  EXPECT_DOUBLE_EQ(up1.update_cost, up2.update_cost)
      << "UPDATE must not pay for an index it does not touch";

  double ins_without = opt_.Cost(insert_q, empty);
  double ins_with = opt_.Cost(insert_q, with_ix);
  EXPECT_GT(ins_with, ins_without)
      << "INSERT must pay maintenance on every index of the table";
}

// Plan-text golden: CostExplained over a fixed grid of TPC-D and CRM
// statements (the first of each template: SELECT, INSERT, UPDATE,
// DELETE) x configurations (empty,
// half of the candidate indexes, every index, every index plus views).
// Costs are printed as hex floats, so any last-ulp change shows, and the
// chosen access paths must keep their exact text. Regenerate with
// PDX_REGEN_WHATIF_GOLDEN=1 when a cost-model change is intended.
std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::vector<Configuration> GoldenConfigs(const Schema& schema,
                                         const Workload& wl) {
  QueryCandidates all = CandidateGenerator(schema).ForWorkload(wl);
  Configuration empty("empty"), partial("partial"), indexes("indexes"),
      rich("rich");
  for (size_t i = 0; i < all.indexes.size(); ++i) {
    if (i % 2 == 0) partial.AddIndex(all.indexes[i]);
    indexes.AddIndex(all.indexes[i]);
    rich.AddIndex(all.indexes[i]);
  }
  for (const MaterializedView& v : all.views) rich.AddView(v);
  return {empty, partial, indexes, rich};
}

void AppendPlanLines(const std::string& label, const Schema& schema,
                     const Workload& wl, std::string* out) {
  WhatIfOptimizer opt(schema);
  for (const Configuration& c : GoldenConfigs(schema, wl)) {
    for (TemplateId t = 0; t < wl.num_templates(); ++t) {
      const QueryId q = wl.QueriesOfTemplate(t).front();
      const Query& query = wl.query(q);
      PlanExplanation e;
      const double total = opt.CostExplained(query, c, &e);
      const CostSplit parts = opt.CostParts(query, c);
      // One kernel: every entry point agrees to the bit.
      EXPECT_EQ(Hex(total), Hex(e.total_cost));
      EXPECT_EQ(Hex(total), Hex(opt.Cost(query, c))) << label << " q" << q;
      EXPECT_EQ(Hex(total), Hex(parts.select + parts.update));
      EXPECT_EQ(Hex(parts.select), Hex(e.select_cost));
      EXPECT_EQ(Hex(parts.update), Hex(e.update_cost));
      *out += label + " q" + std::to_string(q) + " " +
              StatementKindName(query.kind) + " " + c.name() +
              " total=" + Hex(e.total_cost) + " select=" +
              Hex(e.select_cost) + " update=" + Hex(e.update_cost) +
              " view=" + (e.used_view ? "1" : "0") + " paths=";
      for (size_t i = 0; i < e.access_paths.size(); ++i) {
        *out += (i > 0 ? " " : "") + e.access_paths[i];
      }
      *out += "\n";
    }
  }
}

std::string ProducePlanGolden() {
  std::string out;
  Schema tpcd = SmallTpcdSchema();
  AppendPlanLines("tpcd", tpcd, SmallTpcdWorkload(tpcd, 240), &out);
  Schema crm = SmallCrmSchema();
  AppendPlanLines("crm", crm, SmallCrmTrace(crm, 500), &out);
  return out;
}

TEST(WhatIfGoldenTest, PlanTextAndCostsMatchGolden) {
  const std::string path = PDX_WHATIF_GOLDEN;
  const std::string produced = ProducePlanGolden();
  if (std::getenv("PDX_REGEN_WHATIF_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << produced;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  std::istringstream want(golden.str()), got(produced);
  std::string w, g;
  for (int line = 1; std::getline(want, w); ++line) {
    ASSERT_TRUE(std::getline(got, g)) << "output ends before line " << line;
    ASSERT_EQ(w, g) << "first difference at line " << line;
  }
  EXPECT_FALSE(std::getline(got, g)) << "output has extra lines: " << g;

  // The grid must exercise every plan shape and statement kind it pins.
  for (const char* token :
       {"heap_scan(", "index_seek(", "index_range(", "index_scan(", "+hash",
        "inlj(", "view_scan", " INSERT ", " UPDATE ", " DELETE "}) {
    EXPECT_NE(produced.find(token), std::string::npos) << token;
  }
}

}  // namespace
}  // namespace pdx
