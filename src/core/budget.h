// Copyright (c) the pdexplore authors.
// Dynamic budget reallocation between what-if calls, bound refinements and
// interval-dominance elimination (Wii-style; DESIGN.md §10).
//
// The paper derives §6 cost intervals so cheap bounds can substitute for
// expensive optimizer calls, but Algorithm 1 treats every sample as a
// full-price what-if call and uses bounds only as a fault-degradation
// fallback. The BudgetManager closes that gap: each selection round it
// chooses, per (query, config-pair) stratum, among three actions —
//
//   (a) a real batched what-if call (the selector's normal draw),
//   (b) a bound refinement: derive the §6.1 interval of an unsampled
//       query through the shared CellBoundsProvider (2 optimizer calls
//       for the SELECT part, shared by every compared configuration),
//   (c) elimination by interval dominance: once every workload query of a
//       configuration is either sampled exactly or bounded, its total
//       cost lies in a closed envelope [LB, UB]; UB(c1) < LB(c2) proves
//       c2 is not the true best, so the pair needs zero further samples —
//
// ranked by expected Pr(CS) gain per millisecond. The per-tier latency
// histograms (PR 3) supply the cost model; the §6.2 variance/skew bounds
// supply the information model that projects whether refinement can still
// produce a dominance before coverage completes.
//
// Soundness (why dominance preserves Pr(CS) semantics): the envelope of c
// contains the true total cost of c by §6.1, so UB(l) < LB(j) implies
// true(j) >= LB(j) > UB(l) >= true(l) >= min over all configurations —
// j is certainly not the true argmin, for ANY incumbent l, even across
// later incumbent changes. A dominated pair is frozen at Pr(CS) = 1,
// which only tightens the Bonferroni product relative to continuing to
// sample it. The incumbent itself is never dominance-eliminated (it may
// be interval-dominated while statistically ahead; the statistical race
// resolves that case).
//
// Determinism: every scheduling decision is a pure function of the run's
// sample stream and the provider's (deterministic) intervals. The cost
// model is fixed constants, never live wall-clock: feeding measured
// latencies into decisions would make selections racy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/fault.h"

namespace pdx {

class TraceSink;

/// Which budget policy a selection run uses.
enum class BudgetPolicy {
  /// Every sample is a full-price what-if call; bounds serve only the
  /// fault-degradation path. Byte-identical to pre-budget behavior.
  kStatic,
  /// Wii-style reallocation: the BudgetManager may spend bound
  /// refinements and eliminate pairs by interval dominance.
  kDynamic,
};

/// Parses "static" / "dynamic" (the --budget= flag).
Result<BudgetPolicy> ParseBudgetPolicy(const std::string& text);

const char* BudgetPolicyName(BudgetPolicy policy);

/// Millisecond cost model of the three actions. Defaults are fixed
/// deterministic constants in the ratio the PR-3 latency histograms
/// report on the reference machine (a cold what-if call and one bound-
/// derivation call hit the same optimizer, so they price equally; a
/// dominance check is pure arithmetic).
struct BudgetCostModel {
  /// One real what-if optimizer call.
  double whatif_ms = 1.0;
  /// One optimizer call spent deriving a bound (same service, same price).
  double bound_call_ms = 1.0;
  /// One interval-dominance envelope comparison.
  double dominance_check_ms = 1e-4;

  /// Preset for a LOCAL bounds provider (e.g. StaleCostBoundsProvider):
  /// BoundsFor is a memory lookup with no optimizer behind it, so a
  /// bound refinement prices like a dominance check, not like a call.
  static BudgetCostModel ForLocalBounds() {
    BudgetCostModel model;
    model.bound_call_ms = 1e-4;
    return model;
  }
};

/// Counters of one run's budget decisions (surfaced on SelectionResult
/// and in the pdx_tool report economics table).
struct BudgetStats {
  /// Real optimizer calls spent on bound refinements, measured as the
  /// provider's derivation_calls() delta over this run — a shared warm
  /// cache charges only newly derived pieces to this run.
  uint64_t bound_refinement_calls = 0;
  /// Configurations eliminated by interval dominance.
  uint64_t dominance_eliminations = 0;
  /// Queries whose interval this run refined (action b).
  uint64_t refined_queries = 0;
  /// Rounds that chose refinement over sampling.
  uint64_t refine_rounds = 0;
  /// Rounds where the projection said refinement could no longer produce
  /// a dominance (refinement halts for the rest of the run).
  uint64_t refine_halted = 0;
};

/// Per-run budget reallocation engine. Owned by one selection run and
/// driven from its loop — ObserveSample on every priced cell, DecideRound
/// once per round. Not thread-safe (the selection loop is sequential).
class BudgetManager {
 public:
  /// `bounds` must outlive the manager and yield intervals that contain
  /// Cost(q, c) for every compared configuration (§6.1).
  BudgetManager(size_t num_configs, size_t num_queries,
                CellBoundsProvider* bounds, const BudgetCostModel& model,
                TraceSink* trace);

  /// A real sample arrived for (q, c): exact `cost`, unless
  /// `uncertainty` > 0 (a fault-degraded cell whose true cost lies in
  /// [cost - uncertainty, cost + uncertainty] — kept as interval mass in
  /// the envelope so degradation can never fake an exact census).
  void ObserveSample(QueryId q, ConfigId c, double cost, double uncertainty);

  /// The per-round decision: pick refine-vs-sample by expected Pr(CS)
  /// gain per millisecond, perform the chosen refinements, then return
  /// the configurations (ascending, never `best`) proven non-best by
  /// interval dominance. `pair_prcs[j]` is the current pairwise Pr(CS)
  /// of j against the incumbent (ignored at j == best); `bonferroni` the
  /// round's overall bound.
  std::vector<ConfigId> DecideRound(uint64_t round, ConfigId best,
                                    const std::vector<bool>& active,
                                    const std::vector<double>& pair_prcs,
                                    double bonferroni);

  const BudgetStats& stats() const { return stats_; }

  /// Envelope state, exposed for tests: valid (finite UB) only once every
  /// query is sampled or refined for `c`.
  bool Covered(ConfigId c) const { return env_pieces_[c] == num_queries_; }
  double LowerEnvelope(ConfigId c) const { return env_lo_[c]; }
  double UpperEnvelope(ConfigId c) const { return env_hi_[c]; }

 private:
  /// Refines up to `quota` unrefined, not-globally-covered queries in
  /// ascending QueryId order; returns how many were refined.
  size_t RefineChunk(size_t quota, const std::vector<bool>& active);
  /// True when refinement is projected to eventually dominate pair
  /// (best, j): the mean-filled envelope projection, widened by the §6.2
  /// conservative variance/skew slack, separates the pair.
  bool ProjectedDominated(ConfigId best, ConfigId j) const;
  void UpdateInfoModel(const std::vector<CostInterval>& chunk);

  size_t k_;
  size_t num_queries_;
  CellBoundsProvider* bounds_;
  BudgetCostModel model_;
  TraceSink* trace_;
  uint64_t derivation_calls_at_start_ = 0;

  /// sampled_[c * num_queries_ + q]: cell priced exactly (or degraded).
  std::vector<bool> sampled_;
  /// refined_[q]: interval derived for every then-active configuration.
  std::vector<bool> refined_;
  QueryId refine_cursor_ = 0;
  size_t refined_count_ = 0;
  bool refine_halted_ = false;

  /// Envelope accumulators: a sampled exact cell adds cost to both ends,
  /// a degraded cell adds [cost - u, cost + u], a refined unsampled cell
  /// adds its §6.1 interval. env_pieces_[c] counts covered queries.
  std::vector<double> env_lo_;
  std::vector<double> env_hi_;
  std::vector<size_t> env_pieces_;

  /// Projection state (information model): running means of refined
  /// interval endpoints per configuration, plus the §6.2 conservative
  /// per-query variance/skew of the refined interval population.
  std::vector<double> refined_lo_sum_;
  std::vector<double> refined_hi_sum_;
  std::vector<uint64_t> refined_in_env_;
  double sigma2_max_ = 0.0;
  double g1_upper_ = 0.0;

  BudgetStats stats_;
};

/// CellBoundsProvider over an exact cost matrix: per-row [min, max] over
/// the compared configurations, derived eagerly at construction from
/// `cost` (a pure function — called num_queries * num_configs times).
/// Models the §6.1 scenario where bounds come from a precomputed ground-
/// truth matrix; derivation_calls() charges the standard 2 calls for the
/// first touch of each row so benches and properties price refinements
/// the way a live CostBoundsDeriver would. Thread-safe; shareable across
/// concurrent trials (the accounting then amortizes naturally: a row is
/// charged once per process, not once per trial).
class MatrixRowBoundsProvider : public CellBoundsProvider {
 public:
  MatrixRowBoundsProvider(size_t num_queries, size_t num_configs,
                          const std::function<double(QueryId, ConfigId)>& cost);

  CostInterval BoundsFor(QueryId q, ConfigId c) override;
  uint64_t derivation_calls() const override {
    return derivation_calls_.load(std::memory_order_relaxed);
  }

 private:
  size_t num_queries_;
  std::vector<CostInterval> rows_;
  std::unique_ptr<std::atomic<uint8_t>[]> touched_;
  std::atomic<uint64_t> derivation_calls_{0};
};

/// CellBoundsProvider over a persisted per-cell cost cache from a previous
/// tuning session (the warm-service scenario of DESIGN.md §10.3): each
/// stale cost is trusted within a relative drift band `eps`, yielding the
/// configuration-SPECIFIC interval
///
///   [stale - eps * |stale|, stale + eps * |stale|].
///
/// This is the regime where interval dominance genuinely pays: the width
/// is 2*eps*cost — proportional to the assumed drift, not to the pool's
/// cost spread like the §6.1 base/rich intervals — and reading the cache
/// is a local lookup, so derivation_calls() stays 0 and bound refinement
/// spends no real optimizer budget at all. Every configuration whose true
/// total-cost gap exceeds the accumulated band is eliminated right after
/// coverage, leaving only genuine near-ties to the statistical race.
///
/// Callers own the drift premise |true(q, c) - stale(q, c)| <= eps *
/// |stale(q, c)| (re-deriving cells that violate a staleness TTL, or
/// growing eps to the known drift). The soundness gates — the
/// `dominance_elimination_sound` property and bench_budget's byte-identity
/// check — abort if a violated premise ever changes a selection.
class StaleCostBoundsProvider : public CellBoundsProvider {
 public:
  /// `stale_cost` must be a pure function (BoundsFor may re-read a cell
  /// and relies on getting bit-identical endpoints); `drift_eps` in
  /// [0, 1).
  StaleCostBoundsProvider(size_t num_queries, size_t num_configs,
                          std::function<double(QueryId, ConfigId)> stale_cost,
                          double drift_eps);

  CostInterval BoundsFor(QueryId q, ConfigId c) override;
  /// Local lookups spend no optimizer calls.
  uint64_t derivation_calls() const override { return 0; }

  double drift_eps() const { return eps_; }

 private:
  size_t num_queries_;
  size_t k_;
  std::function<double(QueryId, ConfigId)> stale_;
  double eps_;
};

}  // namespace pdx
