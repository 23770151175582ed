#include "core/selector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "common/normal.h"
#include "common/obs.h"
#include "common/span.h"
#include "core/selection_trace.h"

namespace pdx {

namespace {

// When the observed gap between two configurations is not yet positive,
// the target-variance derivation uses this fraction of the current
// standard error as a stand-in gap, keeping Algorithm 2's #Samples
// comparisons meaningful during the ambiguous phase.
constexpr double kGapFloorSeFraction = 0.25;

// Elimination waits until the templates still unobserved hold at most
// this share of the workload population: an unobserved template can hide
// a configuration's entire advantage (DESIGN.md §5, finding 2).
constexpr double kEliminationCoverageSlack = 0.02;

// Interned metric handles; one registry lookup per process.
struct SelectorMetrics {
  obs::Counter* runs;
  obs::Counter* rounds;
  obs::Counter* eliminations;
  obs::Counter* splits;
  obs::Histogram* run_ns;
  obs::Histogram* split_search_ns;
  obs::Counter* whatif_calls;  // tracked (read-only) by the whatif span
};

SelectorMetrics& Metrics() {
  static SelectorMetrics m = [] {
    obs::Registry& r = obs::Registry::Global();
    return SelectorMetrics{r.GetCounter("pdx_selector_runs_total"),
                           r.GetCounter("pdx_selector_rounds_total"),
                           r.GetCounter("pdx_selector_eliminations_total"),
                           r.GetCounter("pdx_selector_splits_total"),
                           r.GetHistogram("pdx_selector_run_ns"),
                           r.GetHistogram("pdx_strat_split_search_ns"),
                           r.GetCounter("pdx_whatif_calls_total")};
  }();
  return m;
}

// The counter every "whatif" span tracks: the cost source bumps it on
// each optimizer invocation, so the span's delta says how many what-if
// calls the bracketed batch issued.
obs::TrackedCounter WhatIfTracked() {
  return obs::TrackedCounter{Metrics().whatif_calls, "pdx_whatif_calls_total"};
}

// Standard error from an estimated variance. NaN variance (possible when a
// degenerate stratum reports an infinite term that cancels badly) must map
// to +inf, not 0: std::max(0.0, NaN) returns 0.0, which would silently turn
// "no information" into "perfect certainty".
double SafeSe(double variance) {
  if (std::isnan(variance)) return std::numeric_limits<double>::infinity();
  return std::sqrt(std::max(0.0, variance));
}

// Post-split Neyman allocation over all strata for the trace's split
// event. Pure arithmetic on already-estimated moments — draws nothing,
// calls no optimizer — and only runs when a sink is attached.
std::vector<double> TraceSplitNeyman(const Stratification& strat,
                                     const std::vector<TemplateStats>& stats,
                                     uint64_t est_total_samples,
                                     uint32_t n_min) {
  const size_t H = strat.num_strata();
  std::vector<double> pops(H, 0.0);
  std::vector<double> sds(H, 0.0);
  std::vector<double> lo(H, 0.0);
  for (uint32_t h = 0; h < H; ++h) {
    StratumEstimate e = EstimateStratum(strat.TemplatesOf(h), stats);
    pops[h] = static_cast<double>(e.population);
    sds[h] = std::sqrt(std::max(0.0, e.variance));
    lo[h] = std::min(static_cast<double>(n_min), pops[h]);
  }
  return NeymanAllocation(pops, sds, static_cast<double>(est_total_samples),
                          lo);
}

// Race state the round frame owns and a scheme's hooks read or update:
// the run's inputs, the active set, the budget manager, the degraded-cell
// count and the round's estimate buffer.
struct RaceState {
  RaceState(CostSource* src, const SelectorOptions& opts)
      : source(src),
        options(opts),
        k(src->num_configs()),
        num_templates(src->num_templates()),
        pops(TemplatePopulationsOf(*src)),
        overheads(opts.overhead_aware ? PerTemplateOverheads(*src, pops)
                                      : std::vector<double>()),
        active(k, true),
        estimates(k, 0.0) {}

  CostSource* const source;
  const SelectorOptions& options;
  const size_t k;
  const size_t num_templates;
  const std::vector<uint64_t> pops;
  const std::vector<double> overheads;  // per template; overhead_aware only
  std::vector<bool> active;
  std::unique_ptr<BudgetManager> budget;  // kDynamic only
  uint64_t degraded_cells = 0;
  // Per-round phase spans are decimated (SampledSpanRound); run-level
  // spans are not. False through the pilot — the pilot span's tracked
  // counter already accounts for its what-if calls, and per-call children
  // there would cost n_min ring slots per run.
  bool span_round = false;
  // Estimate(c) as of the latest round that estimated configuration c:
  // the current round for every active one.
  std::vector<double> estimates;
};

// The incumbent: the active configuration with the lowest estimate (the
// lowest index on ties).
ConfigId ArgminActive(const std::vector<double>& estimates,
                      const std::vector<bool>& active) {
  ConfigId best = 0;
  double best_est = std::numeric_limits<double>::infinity();
  for (ConfigId c = 0; c < estimates.size(); ++c) {
    if (active[c] && estimates[c] < best_est) {
      best_est = estimates[c];
      best = c;
    }
  }
  return best;
}

// Algorithm 2 on one stratification: applies the split that most cuts the
// samples needed to reach `target_var`, if any helps, and traces it.
// Returns the two strata the split left to top up.
std::optional<std::pair<uint32_t, uint32_t>> TrySplit(
    Stratification* strat, const std::vector<TemplateStats>& tstats,
    double target_var, uint32_t n_min, TraceSink* sink, uint64_t round,
    int32_t trace_config) {
  const uint64_t split_t0 = obs::TimerStart();
  SplitDecision dec = FindBestSplit(*strat, tstats, target_var, n_min,
                                    kMinTemplateObservations);
  obs::TimerStop(split_t0, Metrics().split_search_ns);
  if (!dec.beneficial) return std::nullopt;
  strat->Split(dec.stratum, dec.part1);
  const uint32_t new_stratum = static_cast<uint32_t>(strat->num_strata() - 1);
  Metrics().splits->Add();
  if (sink != nullptr) {
    TraceSplit ev;
    ev.round = round;
    ev.config = trace_config;
    ev.stratum = dec.stratum;
    ev.new_stratum = new_stratum;
    ev.part1 = dec.part1;
    ev.est_total_samples = dec.est_total_samples;
    ev.neyman = TraceSplitNeyman(*strat, tstats, dec.est_total_samples, n_min);
    sink->Split(ev);
  }
  return std::pair{dec.stratum, new_stratum};
}

// The round frame (ConfigurationSelector::RunRounds) runs Algorithm 1 and
// calls a scheme for what differs between the two sampling schemes:
//   Pilot(rng)                  the pilot sample (Algorithm 1, line 4);
//   Incumbent()                 fill RaceState::estimates for the active
//                               configurations, return the best of them;
//   PreparePairs(best)          any sweep GapSe reads;
//   GapSe(j, best)              pair (best, j)'s observed gap and its SE;
//   TotalSamples(), NumStrata(), Exhausted();
//   Covered(j, best)            elimination's template-coverage gate;
//   MayStratify(), Stratify(best, target_se, round, sink, rng)
//                               Algorithm 2's split and its top-up;
//   SampleNext(best, rng)       the §5.2 next-sample choice;
//   Fill(result)                the scheme's result fields.

// Delta Sampling (paper §4.2 + §5): a sampled query is priced under every
// active configuration, and one stratification serves every pair.
class DeltaScheme {
 public:
  static constexpr const char* kRunSpan = "run_delta";
  static constexpr const char* kName = "delta";

  DeltaScheme(RaceState& s, Rng* rng)
      : s_(s),
        strat_(s.pops),
        pool_(*s.source, rng),
        est_(s.k, s.num_templates, s.pops),
        diffs_(s.k, 0.0),
        vars_(s.k, 0.0),
        costs_(s.k, 0.0),
        uncerts_(s.k, 0.0),
        batch_vals_(s.k, 0.0) {
    batch_ids_.reserve(s.k);
  }

  void Pilot(Rng* rng) {
    for (uint32_t i = 0; i < s_.options.n_min; ++i) {
      std::optional<QueryId> q = pool_.DrawGlobal(rng);
      if (!q) break;
      Evaluate(*q);
    }
  }

  // One batched sweep computes every configuration's estimate
  // (bit-identical to the scalar Estimate calls); inactive entries are
  // simply not compared.
  ConfigId Incumbent() {
    est_.Estimates(strat_, &scratch_, s_.estimates);
    const ConfigId best = ArgminActive(s_.estimates, s_.active);
    est_.SetReference(best);
    return best;
  }

  // DiffStats computes every pair's estimate and variance from one
  // merged-moment sweep — the same merged state the scalar
  // DiffEstimate/DiffVariance pair derived twice — so gaps, ses and
  // Pr(CS) match bit for bit. The sweep's per-stratum rows also serve the
  // next-sample choice.
  void PreparePairs(ConfigId /*best*/) {
    est_.DiffStats(strat_, &scratch_, diffs_, vars_);
  }

  // X_{best,j} should be negative when best is better; the gap is
  // -X_{best,j}.
  std::pair<double, double> GapSe(ConfigId j, ConfigId /*best*/) const {
    return {-diffs_[j], SafeSe(vars_[j])};
  }

  uint64_t TotalSamples() const { return est_.TotalSamples(); }
  uint32_t NumStrata() const {
    return static_cast<uint32_t>(strat_.num_strata());
  }
  bool Exhausted() const { return pool_.RemainingTotal() == 0; }

  // Every configuration shares the sample, so coverage is global.
  bool Covered(ConfigId /*j*/, ConfigId /*best*/) const {
    return est_.UnobservedPopulationShare() <= kEliminationCoverageSlack;
  }

  bool MayStratify() const { return true; }

  // The shared stratification must serve the incumbent's tightest pair.
  template <class TargetSe>
  void Stratify(ConfigId best, const TargetSe& target_se, uint64_t round,
                TraceSink* sink, Rng* rng) {
    const double t = target_se(best);
    if (!(std::isfinite(t) && t > 0.0)) return;
    const std::vector<TemplateStats>& tstats =
        est_.AveragedDiffTemplateStats(s_.active);
    const uint32_t n_min = s_.options.n_min;
    auto split = TrySplit(&strat_, tstats, t * t, n_min, sink, round,
                          TraceSplit::kSharedStratification);
    if (!split) return;
    // Top-up: every stratum must hold >= n_min samples.
    for (uint32_t h : {split->first, split->second}) {
      while (est_.SamplesIn(strat_, h) < n_min) {
        std::optional<QueryId> q = pool_.Draw(strat_, h, rng);
        if (!q) break;
        Evaluate(*q);
      }
    }
  }

  // §5.2: the stratum with the largest estimated reduction in the sum of
  // active pair variances, optionally per unit of optimizer overhead, read
  // from the round's stratum rows. Only a split (new stratum, top-up
  // samples) leaves them stale; that round sweeps again.
  void SampleNext(ConfigId /*best*/, Rng* rng) {
    if (!est_.RowsCurrent(strat_, scratch_)) {
      est_.DiffStats(strat_, &scratch_, diffs_, vars_);
    }
    uint32_t chosen = 0;
    double best_score = -1.0;
    for (uint32_t h = 0; h < strat_.num_strata(); ++h) {
      if (pool_.RemainingInStratum(strat_, h) == 0) continue;
      double red =
          est_.VarianceReductionFromRows(scratch_, strat_, h, s_.active);
      if (s_.options.overhead_aware) {
        red /= StratumMeanOverhead(strat_, h, s_.overheads, s_.pops);
      }
      if (red > best_score) {
        best_score = red;
        chosen = h;
      }
    }
    std::optional<QueryId> q = pool_.Draw(strat_, chosen, rng);
    if (!q) q = pool_.DrawGlobal(rng);
    if (q) Evaluate(*q);  // else fully exhausted; the frame stops next round
  }

  void Fill(SelectionResult* result) const {
    result->final_strata = {NumStrata()};
    result->estimator_samples_bytes = est_.samples_bytes();
  }

 private:
  // Prices query q under every active configuration. batch_ids_ carries
  // the active configurations in ascending order — the order the scalar
  // loop visited them — so the batched sweep prices identical cells in an
  // identical sequence.
  void Evaluate(QueryId q) {
    batch_ids_.clear();
    for (ConfigId c = 0; c < s_.k; ++c) {
      if (s_.active[c]) batch_ids_.push_back(c);
    }
    std::span<double> vals(batch_vals_.data(), batch_ids_.size());
    std::fill(costs_.begin(), costs_.end(),
              std::numeric_limits<double>::quiet_NaN());
    // One batched sweep prices the query under every active configuration;
    // the uncertainty sweep afterwards is safe to separate from the cost
    // sweep because CostUncertainty is side-effect-free and fixed once the
    // cell is resolved.
    {
      obs::SpanScope whatif_span(s_.span_round, "whatif", "selector",
                                 WhatIfTracked());
      s_.source->CostAcross(q, batch_ids_, vals);
    }
    for (size_t i = 0; i < batch_ids_.size(); ++i) {
      costs_[batch_ids_[i]] = vals[i];
    }
    s_.source->CostUncertaintyAcross(q, batch_ids_, vals);
    bool any_uncertain = false;
    std::fill(uncerts_.begin(), uncerts_.end(), 0.0);
    for (size_t i = 0; i < batch_ids_.size(); ++i) {
      if (vals[i] > 0.0) {
        uncerts_[batch_ids_[i]] = vals[i];
        any_uncertain = true;
        ++s_.degraded_cells;
      }
    }
    est_.Add(q, s_.source->TemplateOf(q), costs_,
             any_uncertain ? std::span<const double>(uncerts_)
                           : std::span<const double>());
    if (s_.budget) {
      for (ConfigId c : batch_ids_) {
        s_.budget->ObserveSample(q, c, costs_[c], uncerts_[c]);
      }
    }
  }

  RaceState& s_;
  Stratification strat_;
  StratifiedSamplePool pool_;
  DeltaEstimator est_;
  // Hot-loop buffers, allocated once per run and reused every sample and
  // round (the estimator no-allocation rule).
  EstimatorScratch scratch_;
  std::vector<double> diffs_;
  std::vector<double> vars_;
  std::vector<double> costs_;
  std::vector<double> uncerts_;
  std::vector<double> batch_vals_;
  std::vector<ConfigId> batch_ids_;
};

// Independent Sampling (paper §4.1 + §5): a sample prices one
// (configuration, query) cell, and every configuration keeps its own
// sample and stratification.
class IndependentScheme {
 public:
  static constexpr const char* kRunSpan = "run_independent";
  static constexpr const char* kName = "independent";

  IndependentScheme(RaceState& s, Rng* rng)
      : s_(s), est_(s.k, s.num_templates, s.pops), variances_(s.k, 0.0) {
    strat_.reserve(s.k);
    pools_.reserve(s.k);
    for (size_t c = 0; c < s.k; ++c) {
      strat_.emplace_back(s.pops);
      pools_.emplace_back(*s.source, rng);
    }
  }

  // n_min samples per configuration. Each configuration's draws are taken
  // first — pricing consumes no randomness, so the RNG stream is unchanged
  // — then priced in one batched config-major sweep.
  void Pilot(Rng* rng) {
    const uint32_t n_min = s_.options.n_min;
    std::vector<QueryId> qbuf;
    std::vector<double> cbuf(n_min, 0.0);
    std::vector<double> ubuf(n_min, 0.0);
    qbuf.reserve(n_min);
    for (ConfigId c = 0; c < s_.k; ++c) {
      qbuf.clear();
      for (uint32_t i = 0; i < n_min; ++i) {
        std::optional<QueryId> q = pools_[c].DrawGlobal(rng);
        if (!q) break;
        qbuf.push_back(*q);
      }
      std::span<double> costs(cbuf.data(), qbuf.size());
      std::span<double> uncerts(ubuf.data(), qbuf.size());
      s_.source->CostMany(qbuf, c, costs);
      s_.source->CostUncertaintyMany(qbuf, c, uncerts);
      for (size_t i = 0; i < qbuf.size(); ++i) {
        if (ubuf[i] > 0.0) ++s_.degraded_cells;
        est_.Add(c, s_.source->TemplateOf(qbuf[i]), cbuf[i], ubuf[i]);
        if (s_.budget) s_.budget->ObserveSample(qbuf[i], c, cbuf[i], ubuf[i]);
      }
    }
  }

  ConfigId Incumbent() {
    for (ConfigId c = 0; c < s_.k; ++c) {
      if (!s_.active[c]) continue;
      s_.estimates[c] = est_.Estimate(c, strat_[c]);
      variances_[c] = est_.Variance(c, strat_[c]);
    }
    return ArgminActive(s_.estimates, s_.active);
  }

  void PreparePairs(ConfigId /*best*/) {}

  // The two samples are independent, so their variances add.
  std::pair<double, double> GapSe(ConfigId j, ConfigId best) const {
    return {s_.estimates[j] - s_.estimates[best],
            SafeSe(variances_[j] + variances_[best])};
  }

  uint64_t TotalSamples() const {
    uint64_t total = 0;
    for (ConfigId c = 0; c < s_.k; ++c) total += est_.TotalSamples(c);
    return total;
  }
  uint32_t NumStrata() const {
    uint32_t total = 0;
    for (const Stratification& st : strat_) {
      total += static_cast<uint32_t>(st.num_strata());
    }
    return total;
  }
  bool Exhausted() const {
    for (ConfigId c = 0; c < s_.k; ++c) {
      if (s_.active[c] && pools_[c].RemainingTotal() > 0) return false;
    }
    return true;
  }

  // Each side of the pair has its own sample, so both must be covered.
  bool Covered(ConfigId j, ConfigId best) const {
    return est_.UnobservedPopulationShare(j) <= kEliminationCoverageSlack &&
           est_.UnobservedPopulationShare(best) <= kEliminationCoverageSlack;
  }

  // Only the configuration that received the previous sample can have
  // changed (paper §5.1).
  bool MayStratify() const { return s_.active[last_sampled_]; }

  // The configuration's variance is half of its pair's budget; the
  // incumbent's pair is its tightest.
  template <class TargetSe>
  void Stratify(ConfigId best, const TargetSe& target_se, uint64_t round,
                TraceSink* sink, Rng* rng) {
    const ConfigId c = last_sampled_;
    const double t = target_se(c);
    const double target_var =
        (c != best || std::isfinite(t)) ? t * t / 2.0 : 0.0;
    if (!(target_var > 0.0)) return;
    const uint32_t n_min = s_.options.n_min;
    std::vector<TemplateStats> tstats = est_.TemplateStatsFor(c);
    auto split = TrySplit(&strat_[c], tstats, target_var, n_min, sink, round,
                          static_cast<int32_t>(c));
    if (!split) return;
    for (uint32_t h : {split->first, split->second}) {
      while (est_.SamplesIn(c, strat_[c], h) < n_min) {
        std::optional<QueryId> q = pools_[c].Draw(strat_[c], h, rng);
        if (!q) break;
        Evaluate(c, *q);
      }
    }
  }

  // §5.2: the (configuration, stratum) pair with the largest estimated
  // reduction of the variance sum.
  void SampleNext(ConfigId best, Rng* rng) {
    ConfigId chosen_c = best;
    uint32_t chosen_h = 0;
    double best_score = -1.0;
    for (ConfigId c = 0; c < s_.k; ++c) {
      if (!s_.active[c]) continue;
      for (uint32_t h = 0; h < strat_[c].num_strata(); ++h) {
        if (pools_[c].RemainingInStratum(strat_[c], h) == 0) continue;
        double red = est_.VarianceReductionForNext(c, strat_[c], h);
        if (s_.options.overhead_aware) {
          red /= StratumMeanOverhead(strat_[c], h, s_.overheads, s_.pops);
        }
        if (red > best_score) {
          best_score = red;
          chosen_c = c;
          chosen_h = h;
        }
      }
    }
    std::optional<QueryId> q =
        pools_[chosen_c].Draw(strat_[chosen_c], chosen_h, rng);
    if (!q) q = pools_[chosen_c].DrawGlobal(rng);
    if (!q) return;  // exhausted config; the frame's stop test handles it
    Evaluate(chosen_c, *q);
    last_sampled_ = chosen_c;
  }

  void Fill(SelectionResult* result) const {
    result->final_strata.resize(s_.k);
    for (ConfigId c = 0; c < s_.k; ++c) {
      result->final_strata[c] = static_cast<uint32_t>(strat_[c].num_strata());
    }
  }

 private:
  void Evaluate(ConfigId c, QueryId q) {
    double cost;
    {
      obs::SpanScope whatif_span(s_.span_round, "whatif", "selector",
                                 WhatIfTracked());
      cost = s_.source->Cost(q, c);
    }
    double u = s_.source->CostUncertainty(q, c);
    if (u > 0.0) ++s_.degraded_cells;
    est_.Add(c, s_.source->TemplateOf(q), cost, u);
    if (s_.budget) s_.budget->ObserveSample(q, c, cost, u);
  }

  RaceState& s_;
  std::vector<Stratification> strat_;
  std::vector<StratifiedSamplePool> pools_;
  IndependentEstimator est_;
  std::vector<double> variances_;
  ConfigId last_sampled_ = 0;
};

}  // namespace

ConfigurationSelector::ConfigurationSelector(CostSource* source,
                                             SelectorOptions options)
    : source_(source), options_(options) {
  PDX_CHECK(source != nullptr);
  PDX_CHECK(options_.alpha > 0.0 && options_.alpha < 1.0);
  PDX_CHECK(options_.delta >= 0.0);
  PDX_CHECK(options_.n_min >= 2);
  PDX_CHECK(options_.consecutive_to_stop >= 1);
}

double ConfigurationSelector::RequiredZ(size_t active_pairs) const {
  if (active_pairs == 0) return 0.0;
  double per_pair =
      1.0 - (1.0 - options_.alpha) / static_cast<double>(active_pairs);
  per_pair = std::clamp(per_pair, 0.5 + 1e-12, 1.0 - 1e-12);
  return NormalQuantile(per_pair);
}

double ConfigurationSelector::EffectiveEliminationThreshold(size_t k) const {
  double threshold = options_.elimination_threshold;
  if (threshold >= 1.0 || k < 2) return threshold;
  // A frozen pair keeps contributing (1 - Pr(CS_{l,j})) to the Bonferroni
  // miss budget forever, so its contribution must be negligible relative
  // to (1 - alpha) *per pair*: freezing k-1 pairs at 0.995 each would cap
  // Pr(CS) at 1 - 0.005 (k-1), unreachable for large k. Scale the
  // threshold so all frozen pairs together consume at most half the miss
  // budget.
  double per_pair =
      1.0 - (1.0 - options_.alpha) / (2.0 * static_cast<double>(k - 1));
  return std::max(threshold, per_pair);
}

SelectionResult ConfigurationSelector::Run(Rng* rng) {
  PDX_CHECK(rng != nullptr);
  if (!options_.exec.enabled) return RunScheme(rng);
  // Fault-tolerant execution: interpose the retry/degrade layer for the
  // duration of this run only. The wrapper is deterministic and caches each
  // resolved cell, so the sampling schedule below is unchanged; only the
  // values (and their uncertainty half-widths) can differ when cells
  // degrade to bounds.
  FaultTolerantCostSource executor(source_, options_.exec, options_.bounds,
                                   options_.trace);
  CostSource* const saved = source_;
  source_ = &executor;
  SelectionResult result;
  try {
    result = RunScheme(rng);
  } catch (...) {
    source_ = saved;
    throw;
  }
  source_ = saved;
  result.whatif_retries = executor.num_retries();
  result.whatif_timeouts = executor.num_timeouts();
  result.whatif_failures = executor.num_failures();
  return result;
}

SelectionResult ConfigurationSelector::RunScheme(Rng* rng) {
  if (options_.scheme == SamplingScheme::kIndependent) {
    return RunRounds<IndependentScheme>(rng);
  }
  return RunRounds<DeltaScheme>(rng);
}

// ---------------------------------------------------------------------------
// Algorithm 1's round frame, shared by both sampling schemes: pilot,
// incumbent, Bonferroni Pr(CS) (eq. 3), stop test, elimination, Algorithm-2
// split, next sample. `Scheme` supplies what differs (see DeltaScheme).

template <class Scheme>
SelectionResult ConfigurationSelector::RunRounds(Rng* rng) {
  obs::SpanScope run_span(Scheme::kRunSpan, "selector");
  const uint64_t calls_before = source_->num_calls();
  TraceSink* const sink = options_.trace;
  Metrics().runs->Add();
  const uint64_t run_t0 = obs::TimerStart();
  RaceState s(source_, options_);
  const size_t k = s.k;
  Scheme scheme(s, rng);
  std::vector<double> frozen_prcs(k, 1.0);
  std::vector<uint32_t> eliminated_at(k, 0);
  std::vector<bool> dominance_eliminated;
  const double elim_threshold = EffectiveEliminationThreshold(k);
  const uint64_t workload_size =
      std::accumulate(s.pops.begin(), s.pops.end(), uint64_t{0});

  // Dynamic budget reallocation (DESIGN.md §10): instantiated only under
  // kDynamic, so the static path stays byte-identical to pre-budget runs.
  if (options_.budget_policy == BudgetPolicy::kDynamic && k > 1) {
    PDX_CHECK_MSG(options_.bounds != nullptr,
                  "BudgetPolicy::kDynamic requires SelectorOptions::bounds");
    s.budget = std::make_unique<BudgetManager>(
        k, workload_size, options_.bounds, options_.budget_model, sink);
    dominance_eliminated.assign(k, false);
  }

  if (sink != nullptr) {
    TraceRunStart ev;
    ev.scheme = Scheme::kName;
    ev.num_configs = k;
    ev.num_templates = s.num_templates;
    ev.workload_size = workload_size;
    ev.alpha = options_.alpha;
    ev.delta = options_.delta;
    ev.n_min = options_.n_min;
    ev.stratify = options_.stratify;
    ev.elimination_threshold = elim_threshold;
    sink->RunStart(ev);
  }

  auto finish = [&](const SelectionResult& res) {
    Metrics().rounds->Add(res.rounds);
    obs::TimerStop(run_t0, Metrics().run_ns);
    if (sink != nullptr) {
      TraceRunEnd ev;
      ev.best = res.best;
      ev.pr_cs = res.pr_cs;
      ev.reached_target = res.reached_target;
      ev.rounds = res.rounds;
      ev.samples = res.queries_sampled;
      ev.optimizer_calls = res.optimizer_calls;
      ev.active_configs = res.active_configs;
      sink->RunEnd(ev);
      sink->Flush();
    }
  };

  SelectionResult result;
  if (k == 1) {
    result.best = 0;
    result.pr_cs = 1.0;
    result.reached_target = true;
    result.active_configs = 1;
    result.final_strata = {1};
    result.estimates = {0.0};
    result.eliminated_at = {0};
    finish(result);
    return result;
  }

  {
    obs::SpanScope pilot_span("pilot", "selector", WhatIfTracked());
    scheme.Pilot(rng);
  }

  // Per-round buffers, allocated once per run.
  std::vector<double> pairwise;
  pairwise.reserve(k);
  std::vector<double> gaps(k, 0.0);
  std::vector<double> ses(k, 0.0);
  std::vector<double> pair_prcs(k, 1.0);
  uint64_t iteration = 0;
  auto eliminate = [&](ConfigId j, double pr_cs, const char* reason) {
    s.active[j] = false;
    frozen_prcs[j] = pr_cs;
    eliminated_at[j] = static_cast<uint32_t>(iteration);
    Metrics().eliminations->Add();
    if (sink != nullptr) {
      TraceElimination ev;
      ev.round = iteration;
      ev.config = j;
      ev.pr_cs = pr_cs;
      ev.threshold = elim_threshold;
      ev.reason = reason;
      sink->Elimination(ev);
    }
  };

  uint32_t consecutive = 0;
  ConfigId prev_best = static_cast<ConfigId>(k);  // sentinel: no incumbent
  while (true) {
    ++iteration;
    s.span_round = obs::SampledSpanRound(iteration - 1);

    ConfigId best = 0;
    {
      obs::SpanScope estimate_span(s.span_round, "estimate", "selector");
      best = scheme.Incumbent();
    }
    if (sink != nullptr && prev_best != static_cast<ConfigId>(k) &&
        best != prev_best) {
      TraceIncumbent ev;
      ev.round = iteration;
      ev.from = prev_best;
      ev.to = best;
      sink->Incumbent(ev);
    }
    prev_best = best;

    // Pairwise Pr(CS) and the Bonferroni bound (eq. 3).
    pairwise.clear();
    std::fill(gaps.begin(), gaps.end(), 0.0);
    std::fill(ses.begin(), ses.end(), 0.0);
    size_t active_pairs = 0;
    double pr = 0.0;
    {
      obs::SpanScope pairwise_span(s.span_round, "pairwise", "selector");
      scheme.PreparePairs(best);
      for (ConfigId j = 0; j < k; ++j) {
        if (j == best) continue;
        if (!s.active[j]) {
          pairwise.push_back(frozen_prcs[j]);
          continue;
        }
        ++active_pairs;
        const auto [gap, se] = scheme.GapSe(j, best);
        gaps[j] = gap;
        ses[j] = se;
        pairwise.push_back(PairwisePrCs(gap, se, options_.delta));
      }
      pr = BonferroniPrCs(pairwise);
    }
    const uint64_t total_samples = scheme.TotalSamples();

    if (sink != nullptr) {
      TraceRound ev;
      ev.round = iteration;
      ev.samples = total_samples;
      ev.optimizer_calls = source_->num_calls() - calls_before;
      ev.incumbent = best;
      ev.bonferroni = pr;
      ev.active_configs = static_cast<uint32_t>(
          std::count(s.active.begin(), s.active.end(), true));
      ev.num_strata = scheme.NumStrata();
      ev.pairs.reserve(k - 1);
      size_t p_idx = 0;
      for (ConfigId j = 0; j < k; ++j) {
        if (j == best) continue;
        TracePair p;
        p.config = j;
        p.pr_cs = pairwise[p_idx++];
        p.gap = gaps[j];
        p.se = ses[j];
        p.active = s.active[j];
        ev.pairs.push_back(p);
      }
      sink->Round(ev);
    }

    bool exhausted = false;
    bool capped = false;
    {
      obs::SpanScope termination_span(s.span_round, "termination", "selector");
      if (pr > options_.alpha) {
        ++consecutive;
      } else {
        consecutive = 0;
      }
      exhausted = scheme.Exhausted();
      capped = options_.max_samples > 0 && total_samples >= options_.max_samples;
    }
    if (consecutive >= options_.consecutive_to_stop || exhausted || capped) {
      // Exhausting the sample space only yields an exact census — and thus
      // Pr(CS) = 1 — when every cell was measured exactly; any degraded
      // (bound-interval) cell keeps residual uncertainty in the estimate.
      const bool exact_exhausted = exhausted && s.degraded_cells == 0;
      result.best = best;
      result.pr_cs = exact_exhausted ? 1.0 : pr;
      result.reached_target = consecutive >= options_.consecutive_to_stop ||
                              (exact_exhausted && options_.alpha < 1.0) ||
                              (exhausted && pr > options_.alpha);
      result.degraded_cells = s.degraded_cells;
      result.queries_sampled = total_samples;
      result.optimizer_calls = source_->num_calls() - calls_before;
      if (s.budget) {
        const BudgetStats& bs = s.budget->stats();
        // Refinement spends real optimizer calls outside the cost source's
        // meter; fold them in so optimizer_calls stays the total price.
        result.optimizer_calls += bs.bound_refinement_calls;
        result.bound_refinement_calls = bs.bound_refinement_calls;
        result.dominance_eliminations = bs.dominance_eliminations;
        result.refined_queries = bs.refined_queries;
        result.refine_halts = bs.refine_halted;
        result.dominance_eliminated = std::move(dominance_eliminated);
      }
      // No sample was added since the round's Incumbent(), and an
      // eliminated configuration's sample and strata froze when it left
      // the race, so the buffer holds Estimate(c) for every c, bit for bit.
      result.estimates.assign(s.estimates.begin(), s.estimates.end());
      scheme.Fill(&result);
      result.active_configs = static_cast<uint32_t>(
          std::count(s.active.begin(), s.active.end(), true));
      result.rounds = iteration;
      result.eliminated_at = std::move(eliminated_at);
      finish(result);
      return result;
    }

    // Elimination of clearly-inferior configurations. Gated on template
    // coverage: structure-specific cost differences are sparse, and a
    // configuration's entire advantage can hide in templates the sample
    // has not reached yet — eliminating then risks freezing out the true
    // best. The gate allows a small unobserved population share so rare
    // trace templates don't force coupon-collection over the workload.
    if (elim_threshold < 1.0) {
      size_t p_idx = 0;
      for (ConfigId j = 0; j < k; ++j) {
        if (j == best) continue;
        const double p = pairwise[p_idx++];
        if (s.active[j] && p > elim_threshold && scheme.Covered(j, best)) {
          eliminate(j, p, "pr_cs_above_threshold");
        }
      }
    }

    // Dynamic budget reallocation (DESIGN.md §10): the manager may spend
    // §6.1 bound refinements and returns the configurations proven
    // non-best by interval dominance — frozen at Pr(CS) = 1, which only
    // tightens the Bonferroni bound (the envelope contains the true cost,
    // so a dominated configuration is certainly not the true argmin).
    if (s.budget) {
      size_t pp_idx = 0;
      for (ConfigId j = 0; j < k; ++j) {
        pair_prcs[j] = j == best ? 1.0 : pairwise[pp_idx++];
      }
      std::vector<ConfigId> dominated =
          s.budget->DecideRound(iteration, best, s.active, pair_prcs, pr);
      for (ConfigId j : dominated) {
        eliminate(j, 1.0, "interval_dominance");
        dominance_eliminated[j] = true;
      }
    }

    // Progressive stratification (Algorithm 2).
    if (options_.stratify && scheme.MayStratify()) {
      // Fires every round and usually declines to split, so it is
      // decimated by call index like the round phases (one counter per
      // scheme).
      thread_local uint64_t stratify_calls = 0;
      obs::SpanScope stratify_span(
          obs::TimingEnabled() && obs::SampledSpanRound(stratify_calls++),
          "stratify", "selector", WhatIfTracked());
      const double z =
          std::max(RequiredZ(std::max<size_t>(1, active_pairs)), 1e-9);
      // The SE a comparison must shrink to for its Pr(CS) to clear z: a
      // challenger's own pair, its gap floored at a share of the current
      // SE while still ambiguous (keeping Algorithm 2's #Samples
      // comparisons meaningful); the incumbent's tightest active pair.
      auto se_needed = [&](ConfigId j) {
        const double gap = std::max(gaps[j], kGapFloorSeFraction * ses[j]);
        return (gap + options_.delta) / z;
      };
      auto target_se = [&](ConfigId c) {
        if (c != best) return se_needed(c);
        double t = std::numeric_limits<double>::infinity();
        for (ConfigId j = 0; j < k; ++j) {
          if (s.active[j] && j != best) t = std::min(t, se_needed(j));
        }
        return t;
      };
      scheme.Stratify(best, target_se, iteration, sink, rng);
    }

    // Next sample (§5.2).
    obs::SpanScope sample_span(s.span_round, "sample", "selector",
                               WhatIfTracked());
    scheme.SampleNext(best, rng);
  }
}

}  // namespace pdx
