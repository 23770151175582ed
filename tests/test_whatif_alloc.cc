// Zero-allocation regression test for the what-if optimizer: Cost() and
// CostParts() must not touch the heap on index-only configurations. This
// binary replaces the global operator new/delete with counting versions,
// which is why it is its own test executable.
//
// Configurations with materialized views are excluded on purpose: view
// matching (WhatIfOptimizer::ViewMatchCost) builds the query's join shape
// in three small vectors, the one allocation the optimizer keeps. A
// variant that skipped them with a view-size pre-check bought no
// measurable time and raised peak RSS by ~10% on the TPC-D compare
// benchmark (a heap-layout effect), so it stays as it is.
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "optimizer/candidate_gen.h"
#include "optimizer/what_if.h"
#include "test_util.h"

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
