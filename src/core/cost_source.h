// Copyright (c) the pdexplore authors.
// The cost oracle the comparison primitive samples from. "To sample a
// query" in the paper means: fetch the query text and evaluate its cost
// with the query optimizer under a configuration — the expensive resource
// being optimizer calls. CostSource abstracts that: the live
// implementation forwards to the what-if optimizer; the Monte-Carlo
// harness replays a precomputed cost matrix so the same selection run can
// be repeated thousands of times; CachingCostSource memoizes a live
// source so no (query, configuration) pair is ever costed twice.
//
// Thread-safety: Cost() may be called concurrently from ThreadPool
// workers on every implementation in this header — call accounting is
// atomic and the underlying data is immutable after construction
// (CachingCostSource fills each cache cell, and WhatIfCostSource each
// statement's row of cost terms, exactly once via std::call_once).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "catalog/types.h"
#include "common/macros.h"
#include "optimizer/relevance.h"
#include "optimizer/what_if.h"

namespace pdx {

/// Abstract per-(query, configuration) cost oracle with call accounting.
class CostSource {
 public:
  virtual ~CostSource() = default;

  /// Optimizer-estimated cost of query `q` in configuration `c`.
  /// Counts one optimizer call. Safe to call concurrently.
  virtual double Cost(QueryId q, ConfigId c) = 0;

  /// Batched column sweep: prices queries[i] under configuration `c` into
  /// out[i] (out.size() == queries.size()). The contract is exactly the
  /// scalar loop `out[i] = Cost(queries[i], c)` — same values bit for bit,
  /// same call accounting, same cache fills, same exceptions at the same
  /// cell — and the default implementation IS that loop, so third-party
  /// sources that only override Cost() keep working unchanged. Overrides
  /// exist to make the sweep cheap (columnar gathers, hoisted metric
  /// handles, one counter add per batch), never to change its meaning.
  virtual void CostMany(std::span<const QueryId> queries, ConfigId c,
                        std::span<double> out);

  /// Batched row sweep — the Delta-sampling hot path: prices query `q`
  /// under configs[i] into out[i], so sampling one query prices all k
  /// candidate configurations in one virtual dispatch instead of k. Same
  /// scalar-loop contract and default fallback as CostMany.
  virtual void CostAcross(QueryId q, std::span<const ConfigId> configs,
                          std::span<double> out);

  /// Batched CostUncertainty over queries[i] x {c}; scalar-loop contract
  /// and default fallback as CostMany. Only meaningful after the matching
  /// cost sweep.
  virtual void CostUncertaintyMany(std::span<const QueryId> queries,
                                   ConfigId c, std::span<double> out) const;

  /// Batched CostUncertainty over {q} x configs[i].
  virtual void CostUncertaintyAcross(QueryId q,
                                     std::span<const ConfigId> configs,
                                     std::span<double> out) const;

  virtual size_t num_queries() const = 0;
  virtual size_t num_configs() const = 0;

  /// Template of a query (available without an optimizer call: the
  /// workload store records it at trace time).
  virtual TemplateId TemplateOf(QueryId q) const = 0;
  virtual size_t num_templates() const = 0;

  /// Relative optimizer-call overhead of a query (1.0 = average).
  virtual double OptimizeOverhead(QueryId /*q*/) const { return 1.0; }

  /// Half-width of the uncertainty interval around Cost(q, c). 0.0 means
  /// the value is an exact optimizer measurement (every source in this
  /// header); FaultTolerantCostSource (core/fault.h) reports a positive
  /// half-width for cells degraded to §6 cost bounds, which estimators
  /// fold into the standard error. Only meaningful after Cost(q, c).
  virtual double CostUncertainty(QueryId /*q*/, ConfigId /*c*/) const {
    return 0.0;
  }

  /// Optimizer calls made through this source.
  virtual uint64_t num_calls() const = 0;
  virtual void ResetCallCounter() = 0;
};

/// Live source: forwards to a WhatIfOptimizer over a workload and a
/// configuration set. Costs are not cached — each Cost() is a real
/// optimizer call, counted as one, as in the deployed tool (wrap in
/// CachingCostSource to memoize). What the source does memoize is the
/// optimizer's per-(query, structure) terms (CostTermTable), so a call is
/// assembled from terms earlier calls on the same query already computed;
/// the values are bitwise the optimizer's, and the terms are freed with
/// the source.
class WhatIfCostSource : public CostSource {
 public:
  WhatIfCostSource(const WhatIfOptimizer& optimizer, const Workload& workload,
                   std::vector<Configuration> configs);

  double Cost(QueryId q, ConfigId c) override;
  /// Batched live sweeps: every cell is still a real optimizer call, but
  /// the call counter, whatif metric and latency histogram are updated
  /// once per batch (latency at the batch's per-cell mean).
  void CostMany(std::span<const QueryId> queries, ConfigId c,
                std::span<double> out) override;
  void CostAcross(QueryId q, std::span<const ConfigId> configs,
                  std::span<double> out) override;
  size_t num_queries() const override { return workload_.size(); }
  size_t num_configs() const override { return configs_.size(); }
  TemplateId TemplateOf(QueryId q) const override {
    return workload_.query(q).template_id;
  }
  size_t num_templates() const override { return workload_.num_templates(); }
  double OptimizeOverhead(QueryId q) const override {
    return workload_.query(q).optimize_overhead;
  }
  uint64_t num_calls() const override {
    return calls_.load(std::memory_order_relaxed);
  }
  void ResetCallCounter() override {
    calls_.store(0, std::memory_order_relaxed);
  }

  const std::vector<Configuration>& configs() const { return configs_; }
  const Workload& workload() const { return workload_; }

 private:
  const Workload& workload_;
  std::vector<Configuration> configs_;
  CostTermTable terms_;
  std::atomic<uint64_t> calls_{0};
};

/// Replay source over a dense precomputed cost matrix. Used by the
/// Monte-Carlo experiment harness; still counts "calls" so sampling
/// efficiency can be reported.
///
/// Storage is columnar and config-major — one flat array with the full
/// query column of each configuration contiguous — so CostMany() is a
/// sequential gather over one column and TotalCost()/Column() stream
/// cache lines instead of hopping row allocations.
class MatrixCostSource : public CostSource {
 public:
  /// `costs[q][c]` (row-major input, transposed internally);
  /// `templates[q]` maps queries to templates. `num_configs`
  /// disambiguates the matrix width when the matrix has no rows (an empty
  /// workload over a non-empty configuration set); when left at the
  /// default it is derived from the first row.
  MatrixCostSource(std::vector<std::vector<double>> costs,
                   std::vector<TemplateId> templates,
                   size_t num_configs = kDeriveNumConfigs);

  /// Movable (the call counter is copied non-atomically: don't move while
  /// another thread is calling Cost()).
  MatrixCostSource(MatrixCostSource&& other) noexcept;
  MatrixCostSource& operator=(MatrixCostSource&& other) noexcept;

  /// Builds the matrix by evaluating every (query, configuration) pair
  /// once — the "exact" evaluation whose call count the primitive is
  /// measured against. Rows are filled in parallel on the global
  /// ThreadPool; the result is bit-identical at every thread count (each
  /// cell is an independent deterministic optimizer call).
  static MatrixCostSource Precompute(const WhatIfOptimizer& optimizer,
                                     const Workload& workload,
                                     const std::vector<Configuration>& configs);

  double Cost(QueryId q, ConfigId c) override;
  void CostMany(std::span<const QueryId> queries, ConfigId c,
                std::span<double> out) override;
  void CostAcross(QueryId q, std::span<const ConfigId> configs,
                  std::span<double> out) override;
  size_t num_queries() const override { return num_queries_; }
  size_t num_configs() const override { return num_configs_; }
  TemplateId TemplateOf(QueryId q) const override {
    PDX_CHECK(q < templates_.size());
    return templates_[q];
  }
  size_t num_templates() const override { return num_templates_; }
  uint64_t num_calls() const override {
    return calls_.load(std::memory_order_relaxed);
  }
  void ResetCallCounter() override {
    calls_.store(0, std::memory_order_relaxed);
  }

  /// The full cost column of a configuration (no call accounting) — used
  /// by harnesses to compute ground-truth totals.
  std::vector<double> Column(ConfigId c) const;
  /// Ground-truth total cost of a configuration (no call accounting).
  double TotalCost(ConfigId c) const;

 private:
  static constexpr size_t kDeriveNumConfigs = static_cast<size_t>(-1);

  /// cells_[c * num_queries_ + q]: column c (all queries of one
  /// configuration) is contiguous.
  std::vector<double> cells_;
  std::vector<TemplateId> templates_;
  size_t num_queries_ = 0;
  size_t num_configs_ = 0;
  size_t num_templates_ = 0;
  std::atomic<uint64_t> calls_{0};
};

/// Memoizing decorator: forwards each distinct (query, configuration)
/// pair to the wrapped source exactly once and replays the stored value
/// afterwards — the deployed tool's what-if cache, where the selection
/// loop never pays for re-costing a pair it already sampled. num_calls()
/// counts only cold misses (the optimizer calls actually made); hits are
/// reported separately.
///
/// The cache holds one row of num_configs cells per query, allocated
/// once (std::call_once) on the query's first lookup: a selection samples a few hundred of a workload's queries, so a dense
/// num_queries x num_configs table (15.6 MB zero-filled per compare on
/// 13K TPC-D x 100) would be mostly untouched. Each cell is guarded by a
/// std::once_flag, so concurrent Cost() calls for the same pair still
/// make exactly one underlying call. Does not own `inner`.
class CachingCostSource : public CostSource {
 public:
  explicit CachingCostSource(CostSource* inner);

  double Cost(QueryId q, ConfigId c) override;
  void CostMany(std::span<const QueryId> queries, ConfigId c,
                std::span<double> out) override;
  void CostAcross(QueryId q, std::span<const ConfigId> configs,
                  std::span<double> out) override;
  size_t num_queries() const override { return num_queries_; }
  size_t num_configs() const override { return num_configs_; }
  TemplateId TemplateOf(QueryId q) const override {
    return inner_->TemplateOf(q);
  }
  size_t num_templates() const override { return inner_->num_templates(); }
  double OptimizeOverhead(QueryId q) const override {
    return inner_->OptimizeOverhead(q);
  }
  /// Cold misses only: the optimizer calls this source actually caused.
  uint64_t num_calls() const override {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Resets hit/miss accounting; the cache contents are kept.
  void ResetCallCounter() override {
    misses_.store(0, std::memory_order_relaxed);
    hits_.store(0, std::memory_order_relaxed);
  }

  uint64_t num_misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Calls served from the cache without touching the wrapped source.
  uint64_t num_hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  struct Cell {
    std::once_flag filled;
    double value = 0.0;
  };
  struct Row {
    std::once_flag allocated;
    std::unique_ptr<Cell[]> cells;
  };
  /// The cells of query `q`, allocating the row on first use.
  Cell* RowOf(QueryId q);
  /// Fills `cell` if cold; returns true when this call was the miss.
  bool FillCell(QueryId q, ConfigId c, Cell& cell);

  CostSource* inner_;
  size_t num_queries_ = 0;
  size_t num_configs_ = 0;
  /// Per-query rows of num_configs_ cells; empty until first looked up.
  std::unique_ptr<Row[]> rows_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

/// Which what-if cache tier a caller wants (examples, benches, tuner):
/// no memoization, exact (query, configuration) cells, or
/// relevant-structure signatures (cross-configuration dedup).
enum class WhatIfCacheMode { kOff, kExact, kSignature };

const char* WhatIfCacheModeName(WhatIfCacheMode mode);

/// Live what-if source with relevant-structure memoization: costs are
/// keyed by (query, atomic-configuration signature) instead of
/// (query, configuration), where the signature is the sorted id list of
/// the configuration's structures that can influence the query's cost
/// (see optimizer/relevance.h). All configurations agreeing on a query's
/// relevant subset — for most queries, the vast majority of any candidate
/// set — share a single optimizer call, which is how CoPhy-style tools
/// cut what-if counts by orders of magnitude below exact-cell caching.
///
/// Costs are bit-identical to an uncached WhatIfCostSource: the optimizer
/// examines exactly the relevant structures, and Configuration's
/// per-table lists iterate in canonical (insertion-order-independent)
/// order, so the replayed value is the value the optimizer would have
/// computed. set_debug_check(true) verifies this on every memoized read.
///
/// Thread-safety: Cost() may be called concurrently. The memo table is
/// sharded (mutex per shard) and each entry is filled exactly once via a
/// per-entry std::call_once; footprints, interned ids and configurations
/// are immutable after construction.
///
/// Call accounting distinguishes three outcomes:
///   * cold calls      — the optimizer was actually invoked;
///   * signature hits  — first touch of a (query, config) cell, served
///                       from another configuration's identical signature;
///   * exact hits      — a (query, config) cell seen before (what plain
///                       CachingCostSource would also have caught).
/// num_calls() reports cold calls only.
class SignatureCachingCostSource : public CostSource {
 public:
  /// Sources over `workload` x `configs`. When `query_ids` is non-empty,
  /// the source exposes only that subset (local QueryId i maps to
  /// workload query query_ids[i]) — used by the tuner's per-round
  /// sub-workload selections.
  SignatureCachingCostSource(const WhatIfOptimizer& optimizer,
                             const Workload& workload,
                             std::vector<Configuration> configs,
                             std::vector<QueryId> query_ids = {});
  ~SignatureCachingCostSource() override;

  double Cost(QueryId q, ConfigId c) override;
  /// Batched fills share one signature scratch buffer per batch, compute
  /// each cell's relevance signature exactly once, and hoist the metric
  /// handles / timing flag out of the loop: accounting classifies every
  /// cell (cold / signature hit / exact hit) exactly as the scalar loop
  /// would, but the atomics and histogram are updated once per batch.
  void CostMany(std::span<const QueryId> queries, ConfigId c,
                std::span<double> out) override;
  void CostAcross(QueryId q, std::span<const ConfigId> configs,
                  std::span<double> out) override;
  size_t num_queries() const override { return queries_.size(); }
  size_t num_configs() const override { return configs_.size(); }
  TemplateId TemplateOf(QueryId q) const override {
    PDX_CHECK(q < queries_.size());
    return queries_[q]->template_id;
  }
  size_t num_templates() const override { return num_templates_; }
  double OptimizeOverhead(QueryId q) const override {
    PDX_CHECK(q < queries_.size());
    return queries_[q]->optimize_overhead;
  }
  /// Cold calls only: optimizer invocations this source actually made.
  uint64_t num_calls() const override {
    return cold_.load(std::memory_order_relaxed);
  }
  /// Resets hit/miss accounting; cache contents and cell-seen state kept.
  void ResetCallCounter() override {
    cold_.store(0, std::memory_order_relaxed);
    signature_hits_.store(0, std::memory_order_relaxed);
    exact_hits_.store(0, std::memory_order_relaxed);
  }

  uint64_t num_cold_calls() const {
    return cold_.load(std::memory_order_relaxed);
  }
  uint64_t num_signature_hits() const {
    return signature_hits_.load(std::memory_order_relaxed);
  }
  uint64_t num_exact_hits() const {
    return exact_hits_.load(std::memory_order_relaxed);
  }
  /// Distinct (query, signature) entries materialized so far.
  uint64_t num_distinct_signatures() const;

  /// Debug mode: every memoized read is cross-checked against a direct
  /// optimizer call (which must agree bitwise). Expensive — tests only.
  void set_debug_check(bool on) { debug_check_ = on; }

  /// The atomic-configuration signature of (q, c): sorted interned ids of
  /// the structures of configuration `c` relevant to query `q`. Exposed
  /// for tests and the signature-overhead microbenchmark.
  void SignatureOf(QueryId q, ConfigId c, std::vector<uint32_t>* out) const;

  const std::vector<Configuration>& configs() const { return configs_; }

 private:
  struct Shard;
  struct Cell;

  /// How a single cell lookup was served (indexes a batch tally array).
  enum class CellClass : uint8_t { kCold = 0, kSignatureHit = 1, kExactHit = 2 };

  void BuildSignature(QueryId q, ConfigId c, std::vector<uint32_t>* sig) const;
  /// Resolves one (q, c) cell — signature built exactly once into a
  /// thread-local scratch, memo probe, optimizer call if cold — and
  /// classifies it, without touching any counter or histogram. Shared by
  /// the scalar path (which then does per-call accounting) and the batched
  /// paths (which tally locally and flush once per batch).
  double ResolveCell(QueryId q, ConfigId c, CellClass* cls);
  /// Publishes a batch's tally (indexed by CellClass) to the atomics and
  /// metric registry in one add per class; latency is attributed at the
  /// batch's per-cell mean.
  void FlushBatchAccounting(uint64_t t0, size_t n, const uint64_t* tally);

  const WhatIfOptimizer& optimizer_;
  std::vector<const Query*> queries_;
  std::vector<Configuration> configs_;
  size_t num_templates_ = 0;
  /// Per-query relevance footprints, computed once at construction.
  std::vector<QueryFootprint> footprints_;
  /// [config]: the signature alphabet ids (indexes 2 * id, views
  /// 2 * id + 1) of the configuration, pre-sorted — the signature of
  /// (q, c) is the subsequence relevant to q, so building it needs no sort.
  std::vector<std::vector<uint32_t>> config_sorted_ids_;
  /// relevant_[q * relevant_stride_ + id]: can interned structure `id`
  /// influence query q's cost? Precomputed once per (query, structure) —
  /// config-independent — so the hot path is a byte test per structure.
  size_t relevant_stride_ = 0;
  std::vector<uint8_t> relevant_;
  /// Sharded (query, signature) -> cost memo table.
  static constexpr size_t kNumShards = 64;
  std::unique_ptr<Shard[]> shards_;
  /// Dense per-cell touched flags for hit classification.
  std::unique_ptr<std::atomic<uint8_t>[]> cell_seen_;
  std::atomic<uint64_t> cold_{0};
  std::atomic<uint64_t> signature_hits_{0};
  std::atomic<uint64_t> exact_hits_{0};
  bool debug_check_ = false;
};

}  // namespace pdx
