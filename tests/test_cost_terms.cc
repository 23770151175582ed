// Copyright (c) the pdexplore authors.
// The memoized cost terms (CostTermTable) against the memo-less optimizer:
// every assembled Cost/CostParts must equal a fresh WhatIfOptimizer
// evaluation to the bit (memcmp, so -0.0 and NaN payloads count too) and
// count exactly one optimizer call, over TPC-D, the CRM trace (INSERT,
// UPDATE, DELETE) and a read/write scenario; over the benchmark's k = 100
// TPC-D and k = 50 CRM pools and random sub-configurations of them, with
// views and with near-duplicate structures; and over joins wider than the
// optimizer's 64 on-stack join slots. Concurrent first calls on cold rows
// must fill each row once and agree with the serial values (run under
// -DPDX_SANITIZE=thread in CI).
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cost_source.h"
#include "optimizer/candidate_gen.h"
#include "test_util.h"
#include "workload/scenario.h"

namespace pdx {
namespace {

using testing::SmallCrmSchema;
using testing::SmallCrmTrace;
using testing::SmallTpcdSchema;
using testing::SmallTpcdWorkload;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Prices `queries` x every configuration through a term table, rows filled
// by whichever configuration comes first, then again in reverse
// configuration order over the warm rows. Each cell is compared with a
// fresh memo-less evaluation on the same optimizer, and each table call
// must move num_calls by exactly one and weighted_calls by the
// statement's overhead.
void ExpectBitwise(const WhatIfOptimizer& opt, const Workload& wl,
                   const std::vector<Configuration>& configs,
                   const std::vector<QueryId>& queries) {
  CostTermTable table(opt, wl, configs);
  for (int pass = 0; pass < 2; ++pass) {
    for (QueryId q : queries) {
      const Query& query = wl.query(q);
      for (size_t i = 0; i < configs.size(); ++i) {
        const ConfigId c =
            static_cast<ConfigId>(pass == 0 ? i : configs.size() - 1 - i);
        const uint64_t calls = opt.num_calls();
        const double weighted = opt.weighted_calls();
        const CostSplit got = table.CostParts(q, c);
        ASSERT_EQ(opt.num_calls(), calls + 1);
        ASSERT_EQ(opt.weighted_calls(), weighted + query.optimize_overhead);
        const double got_total = table.Cost(q, c);
        ASSERT_EQ(opt.num_calls(), calls + 2);

        const CostSplit want = opt.CostParts(query, configs[c]);
        const double want_total = opt.Cost(query, configs[c]);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof(CostSplit)), 0)
            << "q" << q << " c" << c << " select " << got.select << " vs "
            << want.select << ", update " << got.update << " vs "
            << want.update;
        ASSERT_TRUE(SameBits(got_total, want_total)) << "q" << q << " c" << c;
      }
    }
  }
}

std::vector<QueryId> EveryNth(const Workload& wl, size_t n) {
  std::vector<QueryId> out;
  for (QueryId q = 0; q < wl.size(); q += static_cast<QueryId>(n)) {
    out.push_back(q);
  }
  return out;
}

// Random sub-configurations of a pool: each keeps a random half of the
// union's indexes and views, so structures recur across configurations in
// every combination; the empty and the full union ride along.
std::vector<Configuration> SubConfigurations(
    const std::vector<Configuration>& pool, size_t count, uint64_t seed) {
  Configuration all("union");
  for (const Configuration& c : pool) all = all.Merge(c);
  Rng rng(seed);
  std::vector<Configuration> out = {Configuration("empty"), all};
  for (size_t k = 0; k < count; ++k) {
    Configuration c("sub" + std::to_string(k));
    for (const Index& i : all.indexes()) {
      if (rng.NextBernoulli(0.5)) c.AddIndex(i);
    }
    for (const MaterializedView& v : all.views()) {
      if (rng.NextBernoulli(0.5)) c.AddView(v);
    }
    out.push_back(std::move(c));
  }
  return out;
}

// Index-and-view configurations from the candidate generator, plus a
// configuration holding two indexes that differ only in the order of their
// include columns: equal identity hashes, distinct structures, so both are
// interned, both serve reads and both are charged maintenance.
std::vector<Configuration> CandidateConfigs(const Schema& schema,
                                            const Workload& wl,
                                            uint64_t seed) {
  QueryCandidates cand = CandidateGenerator(schema).ForWorkload(wl);
  Configuration rich("rich");
  Configuration near_duplicates("near_duplicates");
  for (const Index& i : cand.indexes) {
    rich.AddIndex(i);
    near_duplicates.AddIndex(i);
    if (i.include_columns.size() >= 2) {
      Index swapped = i;
      std::swap(swapped.include_columns[0], swapped.include_columns[1]);
      EXPECT_EQ(swapped.Hash(), i.Hash());
      near_duplicates.AddIndex(swapped);
    }
  }
  for (const MaterializedView& v : cand.views) {
    rich.AddView(v);
    near_duplicates.AddView(v);
  }
  EXPECT_GT(near_duplicates.indexes().size(), rich.indexes().size());
  std::vector<Configuration> out = SubConfigurations({rich}, 12, seed);
  out.push_back(near_duplicates);
  return out;
}

TEST(CostTermBitwiseTest, TpcdPoolK100) {
  // The perfbench tpcd_compare catalog: 13K statements, k = 100 cloud.
  auto env = bench::MakeTpcdEnvironment(13000);
  Rng rng(7);
  std::vector<Configuration> pool = bench::MakeConfigPool(*env, 100, &rng);
  ExpectBitwise(*env->optimizer, *env->workload, pool,
                EveryNth(*env->workload, 131));
  ExpectBitwise(*env->optimizer, *env->workload,
                SubConfigurations(pool, 20, 11),
                EveryNth(*env->workload, 97));
}

TEST(CostTermBitwiseTest, CrmPoolWithDml) {
  // The perfbench crm_compare catalog: INSERT, UPDATE and DELETE
  // statements over 520 tables, k = 50 cloud.
  auto env = bench::MakeCrmEnvironment(6000, 130);
  Rng rng(7);
  std::vector<Configuration> pool = bench::MakeConfigPool(*env, 50, &rng);
  std::vector<QueryId> queries = EveryNth(*env->workload, 23);
  bool kinds[4] = {};
  for (QueryId q : queries) {
    kinds[static_cast<int>(env->workload->query(q).kind)] = true;
  }
  ASSERT_TRUE(kinds[static_cast<int>(StatementKind::kInsert)]);
  ASSERT_TRUE(kinds[static_cast<int>(StatementKind::kUpdate)]);
  ASSERT_TRUE(kinds[static_cast<int>(StatementKind::kDelete)]);
  ExpectBitwise(*env->optimizer, *env->workload, pool, queries);
  ExpectBitwise(*env->optimizer, *env->workload,
                SubConfigurations(pool, 12, 13), EveryNth(*env->workload, 61));
}

TEST(CostTermBitwiseTest, SmallCatalogsWithViewsAndNearDuplicates) {
  Schema tpcd = SmallTpcdSchema();
  Workload tpcd_wl = SmallTpcdWorkload(tpcd, 600);
  WhatIfOptimizer tpcd_opt(tpcd);
  ExpectBitwise(tpcd_opt, tpcd_wl, CandidateConfigs(tpcd, tpcd_wl, 3),
                EveryNth(tpcd_wl, 1));

  Schema crm = SmallCrmSchema();
  Workload crm_wl = SmallCrmTrace(crm, 500);
  WhatIfOptimizer crm_opt(crm);
  ExpectBitwise(crm_opt, crm_wl, CandidateConfigs(crm, crm_wl, 5),
                EveryNth(crm_wl, 1));
}

TEST(CostTermBitwiseTest, ReadWriteScenario) {
  Schema schema = SmallTpcdSchema();
  auto spec = ParseScenarioSpec("zipf:0.9,rw:0.6,n:800,seed:7");
  ASSERT_TRUE(spec.ok());
  Workload wl = GenerateScenarioWorkload(schema, *spec);
  ASSERT_GT(wl.DmlFraction(), 0.2);
  WhatIfOptimizer opt(schema);
  ExpectBitwise(opt, wl, CandidateConfigs(schema, wl, 17), EveryNth(wl, 1));
}

TEST(CostTermBitwiseTest, DmlCostsMatchPinnedChecksum) {
  // The table and inline paths share one assembly, so comparing them
  // cannot catch a change to the assembly itself. This pins its UPDATE
  // arithmetic: FNV-1a over the bits of CostParts of every DML statement
  // of a read/write scenario under every candidate index and view (both
  // maintenance sums non-empty), as the cost model computed it before
  // the assembly was split into terms. Summing view maintenance before
  // index maintenance, for one, changes it. Update only with an intended
  // cost-model change.
  Schema schema = SmallTpcdSchema();
  auto spec = ParseScenarioSpec("zipf:0.9,rw:0.6,n:800,seed:7");
  ASSERT_TRUE(spec.ok());
  Workload wl = GenerateScenarioWorkload(schema, *spec);
  QueryCandidates cand = CandidateGenerator(schema).ForWorkload(wl);
  Configuration rich("rich");
  for (const Index& i : cand.indexes) rich.AddIndex(i);
  for (const MaterializedView& v : cand.views) rich.AddView(v);
  ASSERT_FALSE(rich.views().empty());
  WhatIfOptimizer opt(schema);
  const std::vector<Configuration> configs = {rich};
  CostTermTable table(opt, wl, configs);
  uint64_t inline_hash = 1469598103934665603ULL;
  uint64_t table_hash = inline_hash;
  auto fnv = [](uint64_t h, double v) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (unsigned char b : bytes) h = (h ^ b) * 1099511628211ULL;
    return h;
  };
  size_t dml = 0;
  for (QueryId q = 0; q < wl.size(); ++q) {
    if (!wl.query(q).update.has_value()) continue;
    const CostSplit want = opt.CostParts(wl.query(q), rich);
    const CostSplit got = table.CostParts(q, 0);
    inline_hash = fnv(fnv(inline_hash, want.select), want.update);
    table_hash = fnv(fnv(table_hash, got.select), got.update);
    ++dml;
  }
  EXPECT_EQ(dml, 323u);
  EXPECT_EQ(inline_hash, 0x98a85be27fa5ce24ULL);
  EXPECT_EQ(table_hash, 0x98a85be27fa5ce24ULL);
}

TEST(CostTermBitwiseTest, JoinsWiderThanTheInlineSlots) {
  // 70-way chains outgrow the optimizer's 64 on-stack join slots. One is a
  // self-join of customer closed by a residual edge; the other alternates
  // orders and customer, with a range predicate per access and an UPDATE
  // part.
  Schema schema = SmallTpcdSchema();
  const Table& customer = schema.table(kCustomer);
  const Table& orders = schema.table(kOrders);
  const ColumnId c_key = customer.FindColumn("c_custkey");
  const ColumnId c_bal = customer.FindColumn("c_acctbal");
  const ColumnId o_cust = orders.FindColumn("o_custkey");
  const ColumnId o_date = orders.FindColumn("o_orderdate");
  Workload wl(&schema);
  QueryTemplate tmpl;
  tmpl.name = "wide";
  const TemplateId t = wl.AddTemplate(tmpl);

  Query chain;
  chain.template_id = t;
  for (uint32_t a = 0; a < 70; ++a) {
    TableAccess access;
    access.table = kCustomer;
    access.referenced_columns = {c_key};
    chain.select.accesses.push_back(access);
    if (a > 0) chain.select.joins.push_back({a - 1, a, c_key, c_key});
  }
  chain.select.joins.push_back({0, 69, c_key, c_key});
  wl.AddQuery(chain);

  Query mixed;
  mixed.template_id = t;
  mixed.kind = StatementKind::kUpdate;
  for (uint32_t a = 0; a < 70; ++a) {
    const bool is_orders = a % 2 == 0;
    TableAccess access;
    access.table = is_orders ? kOrders : kCustomer;
    Predicate p;
    p.column = {access.table, is_orders ? o_date : c_bal};
    p.op = PredOp::kRange;
    p.selectivity = 0.1 + 0.01 * a;
    access.predicates.push_back(p);
    access.referenced_columns = {is_orders ? o_cust : c_key,
                                 is_orders ? o_date : c_bal};
    mixed.select.accesses.push_back(access);
    if (a > 0) {
      mixed.select.joins.push_back({a - 1, a, is_orders ? c_key : o_cust,
                                    is_orders ? o_cust : c_key});
    }
  }
  mixed.select.group_by = {{kCustomer, c_key}};
  mixed.select.order_by = {{kCustomer, c_key}};
  mixed.select.num_aggregates = 2;
  UpdateSpec u;
  u.table = kOrders;
  u.kind = StatementKind::kUpdate;
  u.selectivity = 0.01;
  u.set_columns = {o_date};
  mixed.update = u;
  wl.AddQuery(mixed);

  std::vector<Configuration> configs;
  for (int k = 0; k < 4; ++k) configs.emplace_back("c" + std::to_string(k));
  Index by_cust{kOrders, {o_cust}, {o_date}};
  Index by_date{kOrders, {o_date}, {}};
  Index by_key{kCustomer, {c_key}, {c_bal}};
  Index by_bal{kCustomer, {c_bal}, {c_key}};
  configs[1].AddIndex(by_cust);
  configs[1].AddIndex(by_key);
  configs[2].AddIndex(by_date);
  configs[2].AddIndex(by_bal);
  for (const Index& i : {by_cust, by_date, by_key, by_bal}) {
    configs[3].AddIndex(i);
  }
  WhatIfOptimizer opt(schema);
  ExpectBitwise(opt, wl, configs, {0, 1});
}

TEST(CostTermBitwiseTest, EqualCostIndexesKeepTheFirstInTableOrder) {
  // Ties never change a cost, only the plan: the access minimum keeps the
  // first of equal-cost indexes in IndexesOnTable order. Two indexes that
  // differ only in the order of their include columns cost the same for
  // every access; whichever was added first names the plan.
  Schema schema = SmallTpcdSchema();
  Workload wl = SmallTpcdWorkload(schema, 600);
  WhatIfOptimizer opt(schema);
  QueryCandidates cand = CandidateGenerator(schema).ForWorkload(wl);
  size_t ties = 0;
  for (const Index& index : cand.indexes) {
    if (index.include_columns.size() < 2) continue;
    Index twin = index;
    std::swap(twin.include_columns[0], twin.include_columns[1]);
    Configuration alone("alone"), first("first"), second("second");
    alone.AddIndex(index);
    first.AddIndex(index);
    first.AddIndex(twin);
    second.AddIndex(twin);
    second.AddIndex(index);
    const std::string name = index.Name(schema);
    const std::string twin_name = twin.Name(schema);
    for (const Query& q : wl.queries()) {
      PlanExplanation e, e_first, e_second;
      opt.CostExplained(q, alone, &e);
      const double c_first = opt.CostExplained(q, first, &e_first);
      const double c_second = opt.CostExplained(q, second, &e_second);
      ASSERT_TRUE(SameBits(c_first, c_second));
      ASSERT_EQ(e_first.access_paths.size(), e.access_paths.size());
      ASSERT_EQ(e_second.access_paths.size(), e.access_paths.size());
      // Every access (first or joined) the index wins alone goes to
      // whichever twin was added first.
      for (size_t p = 0; p < e.access_paths.size(); ++p) {
        if (e.access_paths[p].find(name) == std::string::npos) continue;
        EXPECT_NE(e_first.access_paths[p].find(name), std::string::npos)
            << e_first.access_paths[p];
        EXPECT_NE(e_second.access_paths[p].find(twin_name), std::string::npos)
            << e_second.access_paths[p];
        ++ties;
      }
    }
  }
  EXPECT_GT(ties, 0u) << "no query picks an index with two include columns";
}

TEST(CostTermBitwiseTest, LiveSourceSweepsMatchTheOptimizer) {
  // WhatIfCostSource assembles from its own term table on every path:
  // scalar, row and column sweeps all equal the memo-less optimizer and
  // count one call per cell.
  Schema schema = SmallCrmSchema();
  Workload wl = SmallCrmTrace(schema, 300);
  WhatIfOptimizer opt(schema);
  std::vector<Configuration> configs = CandidateConfigs(schema, wl, 9);
  WhatIfCostSource source(opt, wl, configs);
  std::vector<ConfigId> all_configs(configs.size());
  for (ConfigId c = 0; c < configs.size(); ++c) all_configs[c] = c;
  std::vector<QueryId> all_queries = EveryNth(wl, 1);
  std::vector<double> row(configs.size());
  std::vector<double> column(wl.size());
  for (QueryId q = 0; q < wl.size(); ++q) {
    source.CostAcross(q, all_configs, row);
    for (ConfigId c = 0; c < configs.size(); ++c) {
      ASSERT_TRUE(SameBits(row[c], opt.Cost(wl.query(q), configs[c])));
      ASSERT_TRUE(SameBits(source.Cost(q, c), row[c]));
    }
  }
  for (ConfigId c = 0; c < configs.size(); ++c) {
    source.CostMany(all_queries, c, column);
    for (QueryId q = 0; q < wl.size(); ++q) {
      ASSERT_TRUE(SameBits(column[q], opt.Cost(wl.query(q), configs[c])));
    }
  }
  EXPECT_EQ(source.num_calls(), 3u * wl.size() * configs.size());
}

TEST(CostTermTableConcurrencyTest, ConcurrentFillsAreConsistent) {
  // Threads collide on cold rows: each row must be filled once (call_once)
  // and every value must equal the serial reference; each call still
  // counts once.
  Schema schema = SmallCrmSchema();
  Workload wl = SmallCrmTrace(schema, 200);
  WhatIfOptimizer opt(schema);
  std::vector<Configuration> configs = CandidateConfigs(schema, wl, 21);
  std::vector<double> want(wl.size() * configs.size());
  for (QueryId q = 0; q < wl.size(); ++q) {
    for (ConfigId c = 0; c < configs.size(); ++c) {
      want[q * configs.size() + c] = opt.Cost(wl.query(q), configs[c]);
    }
  }
  opt.ResetCallCounter();
  CostTermTable table(opt, wl, configs);
  const size_t cells = want.size();
  constexpr int kRounds = 3;
  std::atomic<uint64_t> mismatches{0};
  ThreadPool pool(4);
  pool.ParallelFor(0, cells * kRounds, /*chunk=*/16,
                   [&](size_t begin, size_t end) {
                     for (size_t i = begin; i < end; ++i) {
                       // Scatter so concurrent threads meet on one row.
                       const size_t cell = (i * 2654435761u) % cells;
                       const QueryId q =
                           static_cast<QueryId>(cell / configs.size());
                       const ConfigId c =
                           static_cast<ConfigId>(cell % configs.size());
                       if (!SameBits(table.Cost(q, c), want[cell])) {
                         mismatches.fetch_add(1, std::memory_order_relaxed);
                       }
                     }
                   });
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(opt.num_calls(), static_cast<uint64_t>(cells * kRounds));
}

}  // namespace
}  // namespace pdx
