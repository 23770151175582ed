// Zero-allocation regression test for the what-if optimizer: Cost() and
// CostParts() must not touch the heap on index-only configurations, and a
// CostTermTable must not touch it on any configuration once a statement's
// row of terms is filled. This binary replaces the global operator
// new/delete with counting versions, which is why it is its own test
// executable.
//
// The memo-less path still allocates for a join query under a
// configuration with materialized views: view matching builds the query's
// join shape in three small vectors. The term table builds that shape
// once, when it fills the statement's row, so the cost sources' hot path
// (assembly over warm rows) allocates nothing, views included.
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "optimizer/candidate_gen.h"
#include "optimizer/what_if.h"
#include "test_util.h"
#include "workload/scenario.h"

namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  return p;
}

void* CountedAllocOrThrow(std::size_t size, std::size_t align) {
  void* p = CountedAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) {
  return CountedAllocOrThrow(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return CountedAllocOrThrow(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pdx {
namespace {

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Index-only configurations from the candidate generator: none, every
// other candidate, and all of them.
std::vector<Configuration> IndexOnlyConfigs(const Schema& schema,
                                            const Workload& wl) {
  QueryCandidates all = CandidateGenerator(schema).ForWorkload(wl);
  Configuration empty("empty"), partial("partial"), indexes("indexes");
  for (size_t i = 0; i < all.indexes.size(); ++i) {
    if (i % 2 == 0) partial.AddIndex(all.indexes[i]);
    indexes.AddIndex(all.indexes[i]);
  }
  return {empty, partial, indexes};
}

struct Sweep {
  uint64_t allocations = 0;
  uint64_t calls = 0;
  double checksum = 0.0;
};

// Costs every statement of `wl` under every config, through Cost() and
// CostParts(), counting heap allocations across the whole sweep.
Sweep CostEverything(const WhatIfOptimizer& opt, const Workload& wl,
                     const std::vector<Configuration>& configs) {
  Sweep s;
  opt.ResetCallCounter();
  const uint64_t before = Allocations();
  for (const Configuration& c : configs) {
    for (const Query& q : wl.queries()) {
      s.checksum += opt.Cost(q, c);
      CostSplit parts = opt.CostParts(q, c);
      s.checksum += parts.select + parts.update;
    }
  }
  s.allocations = Allocations() - before;
  s.calls = opt.num_calls();
  return s;
}

TEST(WhatIfAllocTest, CounterSeesAllocations) {
  // The replacement operators are live: a heap allocation is counted.
  // (A direct call, unlike a new-expression, cannot be elided.)
  const uint64_t before = Allocations();
  void* p = ::operator new(32);
  const uint64_t after = Allocations();
  ::operator delete(p);
  EXPECT_EQ(after - before, 1u);
}

TEST(WhatIfAllocTest, TpcdCostAllocatesNothing) {
  Schema schema = testing::SmallTpcdSchema();
  Workload wl = testing::SmallTpcdWorkload(schema, 600);
  std::vector<Configuration> configs = IndexOnlyConfigs(schema, wl);
  ASSERT_GT(configs.back().indexes().size(), 0u);
  WhatIfOptimizer opt(schema);
  Sweep s = CostEverything(opt, wl, configs);
  EXPECT_EQ(s.calls, 2u * configs.size() * wl.size());
  EXPECT_GT(s.checksum, 0.0);
  EXPECT_EQ(s.allocations, 0u);
}

TEST(WhatIfAllocTest, CrmTraceWithDmlCostAllocatesNothing) {
  Schema schema = testing::SmallCrmSchema();
  Workload wl = testing::SmallCrmTrace(schema, 500);
  bool kinds[4] = {};
  for (const Query& q : wl.queries()) kinds[static_cast<int>(q.kind)] = true;
  ASSERT_TRUE(kinds[static_cast<int>(StatementKind::kInsert)]);
  ASSERT_TRUE(kinds[static_cast<int>(StatementKind::kUpdate)]);
  ASSERT_TRUE(kinds[static_cast<int>(StatementKind::kDelete)]);
  std::vector<Configuration> configs = IndexOnlyConfigs(schema, wl);
  ASSERT_GT(configs.back().indexes().size(), 0u);
  WhatIfOptimizer opt(schema);
  Sweep s = CostEverything(opt, wl, configs);
  EXPECT_EQ(s.calls, 2u * configs.size() * wl.size());
  EXPECT_GT(s.checksum, 0.0);
  EXPECT_EQ(s.allocations, 0u);
}

// Index-and-view configurations: every candidate index and view, and
// every other one.
std::vector<Configuration> ViewConfigs(const Schema& schema,
                                       const Workload& wl) {
  QueryCandidates all = CandidateGenerator(schema).ForWorkload(wl);
  Configuration partial("partial"), rich("rich");
  for (size_t i = 0; i < all.indexes.size(); ++i) {
    if (i % 2 == 0) partial.AddIndex(all.indexes[i]);
    rich.AddIndex(all.indexes[i]);
  }
  for (size_t v = 0; v < all.views.size(); ++v) {
    if (v % 2 == 0) partial.AddView(all.views[v]);
    rich.AddView(all.views[v]);
  }
  return {partial, rich};
}

// Fills every row of a term table, then sweeps it again over the warm
// rows through Cost() and CostParts(), counting heap allocations across
// the warm sweep only.
Sweep WarmTermTableSweep(const WhatIfOptimizer& opt, const Workload& wl,
                         const std::vector<Configuration>& configs) {
  CostTermTable table(opt, wl, configs);
  for (QueryId q = 0; q < wl.size(); ++q) table.Cost(q, 0);  // fills
  Sweep s;
  opt.ResetCallCounter();
  const uint64_t before = Allocations();
  for (ConfigId c = 0; c < configs.size(); ++c) {
    for (QueryId q = 0; q < wl.size(); ++q) {
      s.checksum += table.Cost(q, c);
      CostSplit parts = table.CostParts(q, c);
      s.checksum += parts.select + parts.update;
    }
  }
  s.allocations = Allocations() - before;
  s.calls = opt.num_calls();
  return s;
}

TEST(WhatIfAllocTest, TermTableOverViewsAllocatesNothingWhenWarm) {
  Schema schema = testing::SmallTpcdSchema();
  Workload wl = testing::SmallTpcdWorkload(schema, 600);
  std::vector<Configuration> configs = ViewConfigs(schema, wl);
  ASSERT_GT(configs.back().views().size(), 0u);
  WhatIfOptimizer opt(schema);
  // A view does win somewhere, so view matching is on the measured path.
  bool view_used = false;
  for (const Query& q : wl.queries()) {
    PlanExplanation e;
    opt.CostExplained(q, configs.back(), &e);
    view_used = view_used || e.used_view;
  }
  ASSERT_TRUE(view_used);
  Sweep s = WarmTermTableSweep(opt, wl, configs);
  EXPECT_EQ(s.calls, 2u * configs.size() * wl.size());
  EXPECT_GT(s.checksum, 0.0);
  EXPECT_EQ(s.allocations, 0u);
}

TEST(WhatIfAllocTest, TermTableOverDmlAndViewsAllocatesNothingWhenWarm) {
  // A read/write scenario: UPDATE, INSERT and DELETE statements charge
  // index and view maintenance.
  Schema schema = testing::SmallTpcdSchema();
  auto spec = ParseScenarioSpec("zipf:0.9,rw:0.6,n:600,seed:7");
  ASSERT_TRUE(spec.ok());
  Workload wl = GenerateScenarioWorkload(schema, *spec);
  ASSERT_GT(wl.DmlFraction(), 0.2);
  std::vector<Configuration> configs = ViewConfigs(schema, wl);
  ASSERT_GT(configs.back().views().size(), 0u);
  WhatIfOptimizer opt(schema);
  Sweep s = WarmTermTableSweep(opt, wl, configs);
  EXPECT_EQ(s.calls, 2u * configs.size() * wl.size());
  EXPECT_GT(s.checksum, 0.0);
  EXPECT_EQ(s.allocations, 0u);
}

TEST(WhatIfAllocTest, PlanTextIsBuiltOnRequest) {
  // The explained path still formats text, so it does allocate.
  Schema schema = testing::SmallTpcdSchema();
  Workload wl = testing::SmallTpcdWorkload(schema, 60);
  WhatIfOptimizer opt(schema);
  Configuration empty("empty");
  PlanExplanation e;
  const uint64_t before = Allocations();
  opt.CostExplained(wl.query(0), empty, &e);
  const uint64_t after = Allocations();
  EXPECT_GT(after - before, 0u);
  EXPECT_FALSE(e.access_paths.empty());
}

}  // namespace
}  // namespace pdx
