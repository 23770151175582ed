#include "core/budget.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/obs.h"
#include "common/span.h"
#include "core/selection_trace.h"
#include "core/skew_bound.h"
#include "core/variance_bound.h"

namespace pdx {

namespace {

// Bootstrap refinement: the first chunk is always taken (capped sunk cost
// that seeds the information model); later chunks grow geometrically so a
// full coverage pass needs O(log N) decision rounds.
constexpr size_t kSeedChunk = 64;

// Per-round expected miss-probability reduction attributed to one more
// sampling round — a coarse deterministic constant (selection runs
// typically converge over hundreds of rounds) that prices the sampling
// alternative in the value-per-millisecond comparison.
constexpr double kSampleRoundGain = 0.01;

// The §6.2 information model subsamples each refinement chunk to at most
// this many intervals before running the variance DP / skew vertex search
// (both are superlinear; the model only needs the width scale).
constexpr size_t kInfoModelSample = 128;

// Interned metric handles; one registry lookup per process.
struct BudgetMetricSet {
  obs::Counter* refine_rounds;
  obs::Counter* refined_queries;
  obs::Counter* bound_calls;
  obs::Counter* dominance_eliminations;
  obs::Counter* refine_halts;
};

BudgetMetricSet& BMetrics() {
  static BudgetMetricSet m = [] {
    auto& r = obs::Registry::Global();
    return BudgetMetricSet{
        r.GetCounter("pdx_budget_refine_rounds_total"),
        r.GetCounter("pdx_budget_refined_queries_total"),
        r.GetCounter("pdx_budget_bound_calls_total"),
        r.GetCounter("pdx_budget_dominance_eliminations_total"),
        r.GetCounter("pdx_budget_refine_halts_total")};
  }();
  return m;
}

// Relative-plus-absolute margin that keeps dominance sound under the
// floating-point rounding of the envelope sums (which accumulate across
// the whole workload): a pair must separate by more than the margin
// before its interval evidence is trusted.
double DominanceMargin(double ub) {
  return 1e-9 + 1e-12 * std::abs(ub);
}

}  // namespace

Result<BudgetPolicy> ParseBudgetPolicy(const std::string& text) {
  if (text == "static") return BudgetPolicy::kStatic;
  if (text == "dynamic") return BudgetPolicy::kDynamic;
  return Status::InvalidArgument("--budget must be 'static' or 'dynamic' (got '" +
                                 text + "')");
}

const char* BudgetPolicyName(BudgetPolicy policy) {
  switch (policy) {
    case BudgetPolicy::kStatic:
      return "static";
    case BudgetPolicy::kDynamic:
      return "dynamic";
  }
  return "unknown";
}

BudgetManager::BudgetManager(size_t num_configs, size_t num_queries,
                             CellBoundsProvider* bounds,
                             const BudgetCostModel& model, TraceSink* trace)
    : k_(num_configs),
      num_queries_(num_queries),
      bounds_(bounds),
      model_(model),
      trace_(trace),
      sampled_(num_configs * num_queries, false),
      refined_(num_queries, false),
      env_lo_(num_configs, 0.0),
      env_hi_(num_configs, 0.0),
      env_pieces_(num_configs, 0),
      refined_lo_sum_(num_configs, 0.0),
      refined_hi_sum_(num_configs, 0.0),
      refined_in_env_(num_configs, 0) {
  PDX_CHECK_MSG(bounds != nullptr,
                "BudgetPolicy::kDynamic requires a CellBoundsProvider");
  PDX_CHECK(num_configs >= 1);
  derivation_calls_at_start_ = bounds->derivation_calls();
}

void BudgetManager::ObserveSample(QueryId q, ConfigId c, double cost,
                                  double uncertainty) {
  PDX_CHECK(q < num_queries_ && c < k_);
  const size_t cell = static_cast<size_t>(c) * num_queries_ + q;
  if (sampled_[cell]) return;  // pools draw without replacement; defensive
  sampled_[cell] = true;
  if (refined_[q]) {
    // The sample supersedes the interval contribution. BoundsFor is
    // memoized by the provider, so the re-read spends no derivation.
    CostInterval iv = bounds_->BoundsFor(q, c);
    env_lo_[c] -= iv.low;
    env_hi_[c] -= iv.high;
  } else {
    ++env_pieces_[c];
  }
  // A degraded cell (uncertainty > 0) stays interval mass [cost-u, cost+u]
  // in the envelope — degradation must never fake an exact census.
  env_lo_[c] += cost - uncertainty;
  env_hi_[c] += cost + uncertainty;
}

void BudgetManager::UpdateInfoModel(const std::vector<CostInterval>& chunk) {
  if (chunk.empty()) return;
  // Deterministic stride subsample.
  std::vector<CostInterval> sample;
  const size_t stride = std::max<size_t>(1, chunk.size() / kInfoModelSample);
  for (size_t i = 0; i < chunk.size(); i += stride) sample.push_back(chunk[i]);
  double width_max = 0.0;
  for (const CostInterval& iv : sample) width_max = std::max(width_max, iv.width());
  if (width_max <= 0.0) {
    // Every refined interval is exact: the projection needs no slack.
    sigma2_max_ = 0.0;
    g1_upper_ = 0.0;
    return;
  }
  // §6.2 conservative per-query variance (rho scaled to the chunk's width
  // so the DP stays at <= 16 steps per interval) and certified skew upper
  // bound. Only the bound feeds the slack, so the vertex-search estimate
  // (MaxSkewBound) is never run here.
  VarianceBoundResult vb = MaxVarianceBound(sample, width_max / 16.0);
  sigma2_max_ = vb.upper;
  g1_upper_ = MaxSkewUpperBound(sample);
}

bool BudgetManager::ProjectedDominated(ConfigId best, ConfigId j) const {
  const size_t uncov_j = num_queries_ - env_pieces_[j];
  const size_t uncov_b = num_queries_ - env_pieces_[best];
  if (uncov_j == 0 && uncov_b == 0) {
    // Full coverage: the projection IS the envelope comparison.
    return env_lo_[j] > env_hi_[best] + DominanceMargin(env_hi_[best]);
  }
  if (refined_in_env_[j] == 0 || refined_in_env_[best] == 0) {
    return false;  // no interval evidence to project from yet
  }
  const double mean_lo_j =
      refined_lo_sum_[j] / static_cast<double>(refined_in_env_[j]);
  const double mean_hi_b =
      refined_hi_sum_[best] / static_cast<double>(refined_in_env_[best]);
  const double proj_lb_j =
      env_lo_[j] + static_cast<double>(uncov_j) * mean_lo_j;
  const double proj_ub_b =
      env_hi_[best] + static_cast<double>(uncov_b) * mean_hi_b;
  // Optimistic value-of-information: the pair is worth refining while its
  // projected separation is within the §6.2 slack of dominating — the
  // slack is the conservative standard deviation of the mean-filled part
  // (sqrt(m * sigma^2_max)), Cochran-inflated by the skew upper bound.
  const double m = static_cast<double>(uncov_j + uncov_b);
  const double slack =
      std::sqrt(sigma2_max_ * m) * (1.0 + g1_upper_ / std::sqrt(std::max(1.0, m)));
  return proj_lb_j - proj_ub_b > -slack;
}

size_t BudgetManager::RefineChunk(size_t quota, const std::vector<bool>& active) {
  size_t done = 0;
  std::vector<CostInterval> chunk_sample;
  while (done < quota && refine_cursor_ < num_queries_) {
    const QueryId q = refine_cursor_++;
    if (refined_[q]) continue;
    // A query already priced under every active configuration is covered
    // everywhere it matters; its interval would add nothing.
    bool all_sampled = true;
    for (ConfigId c = 0; c < k_; ++c) {
      if (active[c] && !sampled_[static_cast<size_t>(c) * num_queries_ + q]) {
        all_sampled = false;
        break;
      }
    }
    if (all_sampled) continue;
    refined_[q] = true;
    ++refined_count_;
    ++done;
    bool first = true;
    for (ConfigId c = 0; c < k_; ++c) {
      if (!active[c]) continue;
      if (sampled_[static_cast<size_t>(c) * num_queries_ + q]) continue;
      CostInterval iv = bounds_->BoundsFor(q, c);
      env_lo_[c] += iv.low;
      env_hi_[c] += iv.high;
      ++env_pieces_[c];
      refined_lo_sum_[c] += iv.low;
      refined_hi_sum_[c] += iv.high;
      ++refined_in_env_[c];
      if (first) {
        chunk_sample.push_back(iv);
        first = false;
      }
    }
  }
  stats_.refined_queries += done;
  BMetrics().refined_queries->Add(done);
  if (!chunk_sample.empty()) UpdateInfoModel(chunk_sample);
  return done;
}

std::vector<ConfigId> BudgetManager::DecideRound(
    uint64_t round, ConfigId best, const std::vector<bool>& active,
    const std::vector<double>& pair_prcs, double bonferroni) {
  obs::SpanScope decide_span("decide_round", "budget");
  PDX_CHECK(best < k_ && active.size() == k_ && pair_prcs.size() == k_);
  size_t k_active = 0;
  for (ConfigId c = 0; c < k_; ++c) k_active += active[c] ? 1 : 0;

  // --- Action choice: refine vs sample, by expected Pr(CS) gain / ms ----
  const char* action = "sample";
  size_t refined_now = 0;
  double value_refine = 0.0;
  double value_sample = 0.0;
  const bool coverage_done = refine_cursor_ >= num_queries_;
  if (!refine_halted_ && !coverage_done && k_active > 1) {
    if (refined_count_ < kSeedChunk) {
      // Bootstrap: a capped seed chunk that feeds the information model.
      refined_now = RefineChunk(kSeedChunk - refined_count_, active);
      action = "refine";
    } else {
      // Projection: which pairs could interval evidence still separate?
      double projected_gain = 0.0;
      size_t projected_pairs = 0;
      for (ConfigId j = 0; j < k_; ++j) {
        if (j == best || !active[j]) continue;
        if (ProjectedDominated(best, j)) {
          projected_gain += 1.0 - std::min(1.0, pair_prcs[j]);
          ++projected_pairs;
        }
      }
      if (projected_pairs == 0) {
        // No pair is projected to dominate even optimistically: further
        // refinement is pure waste — halt it for the rest of the run.
        refine_halted_ = true;
        ++stats_.refine_halted;
        BMetrics().refine_halts->Add();
        action = "halt_refine";
      } else {
        const size_t remaining = num_queries_ - refined_count_;
        const double refine_cost_ms =
            2.0 * static_cast<double>(remaining) * model_.bound_call_ms +
            model_.dominance_check_ms * static_cast<double>(k_active);
        value_refine = projected_gain / std::max(1e-12, refine_cost_ms);
        value_sample =
            kSampleRoundGain * (1.0 - std::min(1.0, bonferroni)) /
            std::max(1e-12,
                     static_cast<double>(k_active) * model_.whatif_ms);
        if (value_refine > value_sample) {
          // Geometric chunks: O(log N) decision rounds to full coverage.
          refined_now = RefineChunk(std::max(kSeedChunk, refined_count_),
                                    active);
          action = "refine";
        }
      }
    }
    if (refined_now > 0) {
      ++stats_.refine_rounds;
      BMetrics().refine_rounds->Add();
    }
  }

  // --- Interval dominance over covered envelopes ------------------------
  std::vector<ConfigId> dominated;
  double ub_min = std::numeric_limits<double>::infinity();
  for (ConfigId c = 0; c < k_; ++c) {
    if (active[c] && Covered(c)) ub_min = std::min(ub_min, env_hi_[c]);
  }
  if (std::isfinite(ub_min)) {
    const double margin = DominanceMargin(ub_min);
    for (ConfigId j = 0; j < k_; ++j) {
      // Never eliminate the incumbent: a statistically-ahead but
      // interval-dominated incumbent is left to the statistical race.
      if (j == best || !active[j] || !Covered(j)) continue;
      if (env_lo_[j] > ub_min + margin) dominated.push_back(j);
    }
  }
  stats_.dominance_eliminations += dominated.size();
  if (!dominated.empty()) BMetrics().dominance_eliminations->Add(dominated.size());

  // Refinement accounting: the provider's derivation meter measures real
  // optimizer calls; a shared warm cache charges this run only for pieces
  // it derived first.
  const uint64_t calls_now = bounds_->derivation_calls();
  const uint64_t new_calls = calls_now - derivation_calls_at_start_ -
                             stats_.bound_refinement_calls;
  stats_.bound_refinement_calls += new_calls;
  if (new_calls > 0) BMetrics().bound_calls->Add(new_calls);

  if (trace_ != nullptr) {
    TraceBudgetDecision ev;
    ev.round = round;
    ev.action = action;
    ev.refined_queries = refined_now;
    ev.bound_calls = stats_.bound_refinement_calls;
    ev.dominated = dominated.size();
    ev.value_refine = value_refine;
    ev.value_sample = value_sample;
    trace_->BudgetDecision(ev);
  }
  return dominated;
}

MatrixRowBoundsProvider::MatrixRowBoundsProvider(
    size_t num_queries, size_t num_configs,
    const std::function<double(QueryId, ConfigId)>& cost)
    : num_queries_(num_queries) {
  PDX_CHECK(num_queries >= 1 && num_configs >= 1);
  rows_.reserve(num_queries);
  for (QueryId q = 0; q < num_queries; ++q) {
    double lo = cost(q, 0);
    double hi = lo;
    for (ConfigId c = 1; c < num_configs; ++c) {
      double v = cost(q, c);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    rows_.emplace_back(lo, hi);
  }
  touched_ = std::make_unique<std::atomic<uint8_t>[]>(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    touched_[i].store(0, std::memory_order_relaxed);
  }
}

CostInterval MatrixRowBoundsProvider::BoundsFor(QueryId q, ConfigId c) {
  (void)c;  // row bounds are configuration-independent
  PDX_CHECK(q < num_queries_);
  if (touched_[q].exchange(1, std::memory_order_relaxed) == 0) {
    // Priced the way a live CostBoundsDeriver would charge the row's
    // first derivation: 2 optimizer calls (base + rich).
    derivation_calls_.fetch_add(2, std::memory_order_relaxed);
  }
  return rows_[q];
}

StaleCostBoundsProvider::StaleCostBoundsProvider(
    size_t num_queries, size_t num_configs,
    std::function<double(QueryId, ConfigId)> stale_cost, double drift_eps)
    : num_queries_(num_queries),
      k_(num_configs),
      stale_(std::move(stale_cost)),
      eps_(drift_eps) {
  PDX_CHECK(num_queries >= 1 && num_configs >= 1);
  PDX_CHECK_MSG(drift_eps >= 0.0 && drift_eps < 1.0,
                "drift_eps must lie in [0, 1)");
  PDX_CHECK_MSG(stale_ != nullptr, "stale_cost must be callable");
}

CostInterval StaleCostBoundsProvider::BoundsFor(QueryId q, ConfigId c) {
  PDX_CHECK(q < num_queries_ && c < k_);
  const double v = stale_(q, c);
  const double half = eps_ * std::abs(v);
  return CostInterval(v - half, v + half);
}

}  // namespace pdx
