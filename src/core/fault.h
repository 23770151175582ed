// Copyright (c) the pdexplore authors.
// Fault-tolerant what-if execution. In the deployed tool the what-if
// optimizer is a remote, failure-prone service: calls can fail outright,
// stall past a deadline, or return late. The paper's comparison primitive
// treats every call as infallible; this layer closes that gap without
// touching the primitive's statistics:
//
//   * FaultInjectingCostSource — a seeded, deterministic decorator that
//     injects failures and latency spikes per (query, config, attempt)
//     cell. Fault draws are pure functions of (seed, q, c, attempt), so a
//     fault schedule is bit-identical at every thread count and across
//     re-runs — the property test_parallel_determinism pins down.
//   * RetryPolicy / ExecutionPolicy — bounded retries with exponential
//     backoff (jitter from a per-cell seeded stream) and a per-call
//     deadline.
//   * FaultTolerantCostSource — the executor. Resolves each (q, c) cell
//     exactly once (a per-cell once protocol in the spirit of
//     CachingCostSource's call_once, but with an exception-safe reset
//     path): retry until
//     the call succeeds or attempts are exhausted, then degrade to the §6
//     cost-bound interval — the cell's value becomes the interval
//     midpoint and its half-width is reported as CostUncertainty(), which
//     the estimators fold into the standard error so a degraded cell can
//     never masquerade as an exact measurement (see estimators.h).
//
// Timeout semantics are cooperative and simulated: the injector assigns
// each call a deterministic latency (base or spike) and the executor's
// deadline classifies spikes as timeouts. The call's result is discarded
// exactly as a real client would discard a response that arrives after
// its deadline — the optimizer call is still spent. A wall-clock
// preemptive timeout would make selections racy (a cell's fate would
// depend on scheduler noise); the simulated model keeps every run
// reproducible. Likewise backoff is accounted (simulated_backoff_ms())
// rather than slept, so tests and benches run at full speed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/cost_source.h"
#include "optimizer/cost_bounds.h"

namespace pdx {

class TraceSink;

/// Fault-injection knobs, parsed from --faults=p_fail,p_slow[,seed].
struct FaultSpec {
  /// Probability a call fails outright (thrown before the optimizer is
  /// consulted — the call is not spent).
  double p_fail = 0.0;
  /// Probability a call is a latency spike of slow_latency_ms. The
  /// optimizer call IS spent; whether it becomes a timeout depends on the
  /// executor's deadline.
  double p_slow = 0.0;
  /// Seed of the fault schedule. Distinct seeds give independent
  /// schedules over the same (q, c, attempt) space.
  uint64_t seed = 0;
  /// Simulated latency of a spiked call (default well past the default
  /// RetryPolicy deadline, so every spike times out).
  double slow_latency_ms = 250.0;
  /// Simulated latency of a normal call.
  double base_latency_ms = 1.0;

  bool enabled() const { return p_fail > 0.0 || p_slow > 0.0; }
};

/// Parses "p_fail,p_slow" or "p_fail,p_slow,seed". Probabilities must be
/// finite and in [0, 1]; the seed a non-negative integer.
Result<FaultSpec> ParseFaultSpec(const std::string& text);

enum class WhatIfErrorKind { kFailure, kTimeout };

const char* WhatIfErrorKindName(WhatIfErrorKind kind);

/// A failed or timed-out what-if call. Thrown by FaultInjectingCostSource
/// and caught by FaultTolerantCostSource; escapes to the caller only when
/// retries are exhausted and no degradation path is available.
class WhatIfCallError : public std::exception {
 public:
  WhatIfCallError(WhatIfErrorKind kind, QueryId q, ConfigId c,
                  uint32_t attempt, double latency_ms);

  const char* what() const noexcept override { return message_.c_str(); }
  WhatIfErrorKind kind() const { return kind_; }
  QueryId query() const { return query_; }
  ConfigId config() const { return config_; }
  uint32_t attempt() const { return attempt_; }
  double latency_ms() const { return latency_ms_; }

 private:
  WhatIfErrorKind kind_;
  QueryId query_;
  ConfigId config_;
  uint32_t attempt_;
  double latency_ms_;
  std::string message_;
};

/// Seeded deterministic fault decorator. Each Cost(q, c) call is an
/// "attempt" (per-cell atomic counter); the fault draw for an attempt is
/// a pure function of (spec.seed, q, c, attempt), so the schedule does
/// not depend on thread interleaving or call order across cells.
///
///   * failure draw < p_fail: throws WhatIfCallError(kFailure) BEFORE
///     forwarding — no optimizer call is spent;
///   * slow draw < p_slow: the call forwards (spent) with simulated
///     latency spec.slow_latency_ms; if that exceeds the deadline the
///     late result is discarded and WhatIfCallError(kTimeout) is thrown.
///
/// Thread-safe; does not own `inner`.
class FaultInjectingCostSource : public CostSource {
 public:
  FaultInjectingCostSource(CostSource* inner, const FaultSpec& spec);

  /// Per-call deadline in simulated milliseconds. Calls whose simulated
  /// latency exceeds it become timeouts. Defaults to +inf (spikes are
  /// latency only). Set before use; not thread-safe against Cost().
  void set_deadline_ms(double deadline_ms) { deadline_ms_ = deadline_ms; }

  double Cost(QueryId q, ConfigId c) override;
  size_t num_queries() const override { return inner_->num_queries(); }
  size_t num_configs() const override { return inner_->num_configs(); }
  TemplateId TemplateOf(QueryId q) const override {
    return inner_->TemplateOf(q);
  }
  size_t num_templates() const override { return inner_->num_templates(); }
  double OptimizeOverhead(QueryId q) const override {
    return inner_->OptimizeOverhead(q);
  }
  uint64_t num_calls() const override { return inner_->num_calls(); }
  void ResetCallCounter() override { inner_->ResetCallCounter(); }

  uint64_t injected_failures() const {
    return injected_failures_.load(std::memory_order_relaxed);
  }
  uint64_t injected_slow_calls() const {
    return injected_slow_calls_.load(std::memory_order_relaxed);
  }
  uint64_t injected_timeouts() const {
    return injected_timeouts_.load(std::memory_order_relaxed);
  }

  const FaultSpec& spec() const { return spec_; }

 private:
  CostSource* inner_;
  FaultSpec spec_;
  double deadline_ms_ = std::numeric_limits<double>::infinity();
  /// attempts_[q * num_configs + c]: calls seen for the cell so far.
  std::unique_ptr<std::atomic<uint32_t>[]> attempts_;
  std::atomic<uint64_t> injected_failures_{0};
  std::atomic<uint64_t> injected_slow_calls_{0};
  std::atomic<uint64_t> injected_timeouts_{0};
};

/// Retry schedule for one what-if call.
struct RetryPolicy {
  /// Total attempts per cell (first try included).
  uint32_t max_attempts = 4;
  /// Per-call deadline in (simulated) milliseconds; responses arriving
  /// later are discarded as timeouts.
  double deadline_ms = 100.0;
  /// Exponential backoff: base * multiplier^attempt, scaled by a uniform
  /// jitter factor in [1, 1 + jitter] drawn from a per-cell seeded
  /// stream. Backoff is accounted, not slept (see header comment).
  double backoff_base_ms = 10.0;
  double backoff_multiplier = 2.0;
  double backoff_jitter = 0.5;
};

/// How the selection loop executes what-if calls.
struct ExecutionPolicy {
  /// Off by default: the selector calls the source directly and is
  /// byte-identical to a build without this layer.
  bool enabled = false;
  RetryPolicy retry;
  /// When a cell exhausts its retries, substitute the §6 cost-bound
  /// interval (requires a CellBoundsProvider); when false (or no provider
  /// is wired) the last WhatIfCallError propagates to the caller.
  bool degrade_to_bounds = true;
  /// Seeds the per-cell backoff-jitter streams.
  uint64_t seed = 0;
};

/// Supplies a §6 cost interval guaranteed to contain Cost(q, c) — the
/// degradation fallback and the budget manager's refinement source. Must
/// be safe to call concurrently.
class CellBoundsProvider {
 public:
  virtual ~CellBoundsProvider() = default;
  virtual CostInterval BoundsFor(QueryId q, ConfigId c) = 0;
  /// Real optimizer calls this provider has spent deriving bounds so far.
  /// The budget manager charges refinements against this meter; providers
  /// with free bounds (e.g. a precomputed matrix) keep the default 0.
  virtual uint64_t derivation_calls() const { return 0; }
};

/// CellBoundsProvider over CostBoundsDeriver, kept as a shared service:
/// dominance checks and bound refinements hammer BoundsFor on the hot
/// path, so the fill is per-*piece* and sharded rather than the old
/// whole-workload-per-config derivation behind one mutex:
///
///   * the SELECT interval of a workload query is configuration-
///     independent (§6.1) — derived once (2 optimizer calls) and shared
///     by every compared configuration;
///   * the update interval of a DML template is per (template, config) —
///     2 calls on the template's selectivity extremes, shared by every
///     instance of the template;
///   * each piece fills exactly once under a hand-rolled per-slot once
///     protocol (16 shards of mutex+condvar, exception-safe reset — same
///     rationale as FaultTolerantCostSource: TSan's pthread_once
///     interceptor is not exception-aware), with a lock-free acquire fast
///     path for filled slots.
///
/// When `query_ids` is non-empty, local QueryId i maps to workload query
/// query_ids[i] (the tuner's per-round sub-workload convention).
class WorkloadBoundsCache : public CellBoundsProvider {
 public:
  WorkloadBoundsCache(const CostBoundsDeriver* deriver,
                      const std::vector<Configuration>* configs,
                      std::vector<QueryId> query_ids = {});

  CostInterval BoundsFor(QueryId q, ConfigId c) override;
  uint64_t derivation_calls() const override {
    return derivation_calls_.load(std::memory_order_relaxed);
  }

  /// SELECT-piece fills so far (one per distinct workload query touched).
  uint64_t select_fills() const {
    return select_fills_.load(std::memory_order_relaxed);
  }
  /// DML-piece fills so far (one per distinct (DML template, config)).
  uint64_t dml_fills() const {
    return dml_fills_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kShards = 16;
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
  };

  CostInterval EnsureSelect(QueryId wq, const Query& query);
  CostInterval EnsureDml(TemplateId t, ConfigId c);

  const CostBoundsDeriver* deriver_;
  const std::vector<Configuration>* configs_;
  std::vector<QueryId> query_ids_;
  size_t num_workload_queries_ = 0;
  size_t num_templates_ = 0;
  /// Per-workload-query SELECT pieces and per-(template, config) DML
  /// pieces; state arrays hold the once protocol (0 empty / 1 filling /
  /// 2 filled), interval arrays the filled values.
  std::unique_ptr<std::atomic<uint8_t>[]> select_state_;
  std::unique_ptr<CostInterval[]> select_iv_;
  std::unique_ptr<std::atomic<uint8_t>[]> dml_state_;
  std::unique_ptr<CostInterval[]> dml_iv_;
  Shard shards_[kShards];
  std::atomic<uint64_t> derivation_calls_{0};
  std::atomic<uint64_t> select_fills_{0};
  std::atomic<uint64_t> dml_fills_{0};
};

/// The executor: retries, deadlines, and bound-based degradation around
/// an unreliable inner source. Each (q, c) cell is resolved exactly once
/// and the outcome — exact value or degraded interval — is sticky, so
/// retries of one cell never perturb another and repeated reads are
/// free. A cell whose resolution throws (retries exhausted, no
/// degradation) resets to unresolved; a later call retries from scratch.
/// The once protocol is hand-rolled (per-cell state + condvar) rather
/// than std::call_once: the executor relies on the exceptional path
/// resetting the flag, and TSan's pthread_once interceptor is not
/// exception-aware (a thrown resolution would wedge the cell forever
/// under -DPDX_SANITIZE=thread).
///
/// Degraded cells report Cost() = interval midpoint and
/// CostUncertainty() = interval half-width; estimators widen the standard
/// error by the pessimal systematic shift (see estimators.h), so Pr(CS)
/// stays an underestimate — a bound is never treated as an exact cost.
///
/// Thread-safe; does not own inner/bounds/trace. num_calls() forwards the
/// inner source (cells resolved from bounds spend derivation calls on the
/// optimizer, visible in WhatIfOptimizer::num_calls()).
class FaultTolerantCostSource : public CostSource {
 public:
  FaultTolerantCostSource(CostSource* inner, const ExecutionPolicy& policy,
                          CellBoundsProvider* bounds = nullptr,
                          TraceSink* trace = nullptr);

  double Cost(QueryId q, ConfigId c) override;
  /// Batched sweeps resolve cells strictly in index order, one at a time —
  /// resolution is where retries, degradation and exceptions live, and the
  /// scalar-loop contract requires that a cell whose resolution throws
  /// leaves every later sibling in the batch untouched (unresolved). The
  /// win over the default fallback is the lock-free fast path: cells
  /// already resolved are read straight from the columnar value array
  /// without a virtual dispatch per cell.
  void CostMany(std::span<const QueryId> queries, ConfigId c,
                std::span<double> out) override;
  void CostAcross(QueryId q, std::span<const ConfigId> configs,
                  std::span<double> out) override;
  /// Half-width of the degraded interval of (q, c); 0.0 for cells
  /// resolved exactly (or not yet resolved).
  double CostUncertainty(QueryId q, ConfigId c) const override;
  void CostUncertaintyMany(std::span<const QueryId> queries, ConfigId c,
                           std::span<double> out) const override;
  void CostUncertaintyAcross(QueryId q, std::span<const ConfigId> configs,
                             std::span<double> out) const override;

  size_t num_queries() const override { return num_queries_; }
  size_t num_configs() const override { return num_configs_; }
  TemplateId TemplateOf(QueryId q) const override {
    return inner_->TemplateOf(q);
  }
  size_t num_templates() const override { return inner_->num_templates(); }
  double OptimizeOverhead(QueryId q) const override {
    return inner_->OptimizeOverhead(q);
  }
  uint64_t num_calls() const override { return inner_->num_calls(); }
  void ResetCallCounter() override { inner_->ResetCallCounter(); }

  uint64_t num_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  uint64_t num_failures() const {
    return failures_.load(std::memory_order_relaxed);
  }
  uint64_t num_timeouts() const {
    return timeouts_.load(std::memory_order_relaxed);
  }
  uint64_t num_degraded_cells() const {
    return degraded_cells_.load(std::memory_order_relaxed);
  }
  /// Total backoff the retry schedule would have slept.
  double simulated_backoff_ms() const {
    return backoff_ms_.load(std::memory_order_relaxed);
  }

  /// All cells resolved from bounds so far, sorted (q, c).
  std::vector<std::pair<QueryId, ConfigId>> DegradedCells() const;

 private:
  enum : uint8_t { kUnresolved = 0, kResolving = 1, kResolved = 2 };

  void ResolveCell(QueryId q, ConfigId c, size_t cell);
  /// The slow path shared by Cost() and the batched sweeps: claims or
  /// waits on the cell's once state, resolves it if this thread won, and
  /// returns the resolved value. Exceptions reset the cell to unresolved
  /// and propagate.
  double ResolveAndRead(QueryId q, ConfigId c, size_t cell);

  CostSource* inner_;
  ExecutionPolicy policy_;
  CellBoundsProvider* bounds_;
  TraceSink* trace_;
  size_t num_queries_ = 0;
  size_t num_configs_ = 0;
  /// Per-cell once state; transitions under resolve_mu_ except the
  /// lock-free kResolved fast path (acquire load pairs with the release
  /// store after a successful resolution).
  std::unique_ptr<std::atomic<uint8_t>[]> state_;
  std::mutex resolve_mu_;
  std::condition_variable resolve_cv_;
  std::unique_ptr<double[]> values_;
  std::unique_ptr<double[]> uncertainty_;
  std::unique_ptr<std::atomic<uint8_t>[]> degraded_;
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> degraded_cells_{0};
  std::atomic<double> backoff_ms_{0.0};
};

}  // namespace pdx
