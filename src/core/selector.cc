#include "core/selector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

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

}  // namespace

ConfigurationSelector::ConfigurationSelector(CostSource* source,
                                             SelectorOptions options)
    : source_(source), options_(options) {
  PDX_CHECK(source != nullptr);
  PDX_CHECK(options_.alpha > 0.0 && options_.alpha < 1.0);
  PDX_CHECK(options_.delta >= 0.0);
  PDX_CHECK(options_.n_min >= 2);
  PDX_CHECK(options_.consecutive_to_stop >= 1);
  PDX_CHECK(options_.stratification_period >= 1);
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
    return RunIndependent(rng);
  }
  return RunDelta(rng);
}

// ---------------------------------------------------------------------------
// Delta Sampling (paper §4.2 + §5)

SelectionResult ConfigurationSelector::RunDelta(Rng* rng) {
  obs::SpanScope run_span("run_delta", "selector");
  const size_t k = source_->num_configs();
  const size_t T = source_->num_templates();
  const uint64_t calls_before = source_->num_calls();
  TraceSink* const sink = options_.trace;
  Metrics().runs->Add();
  const uint64_t run_t0 = obs::TimerStart();
  std::vector<uint64_t> pops = TemplatePopulationsOf(*source_);
  std::vector<double> overheads =
      options_.overhead_aware ? PerTemplateOverheads(*source_, pops)
                              : std::vector<double>();

  Stratification strat(pops);
  StratifiedSamplePool pool(*source_, rng);
  DeltaEstimator est(k, T, pops);
  std::vector<bool> active(k, true);
  std::vector<double> frozen_prcs(k, 1.0);
  std::vector<uint32_t> eliminated_at(k, 0);
  std::vector<bool> dominance_eliminated;
  const double elim_threshold = EffectiveEliminationThreshold(k);

  // Dynamic budget reallocation (DESIGN.md §10): instantiated only under
  // kDynamic, so the static path stays byte-identical to pre-budget runs.
  std::unique_ptr<BudgetManager> budget;
  if (options_.budget_policy == BudgetPolicy::kDynamic && k > 1) {
    PDX_CHECK_MSG(options_.bounds != nullptr,
                  "BudgetPolicy::kDynamic requires SelectorOptions::bounds");
    const uint64_t N = std::accumulate(pops.begin(), pops.end(), uint64_t{0});
    budget = std::make_unique<BudgetManager>(k, N, options_.bounds,
                                             options_.budget_model, sink);
    dominance_eliminated.assign(k, false);
  }

  if (sink != nullptr) {
    TraceRunStart ev;
    ev.scheme = "delta";
    ev.num_configs = k;
    ev.num_templates = T;
    ev.workload_size = std::accumulate(pops.begin(), pops.end(), uint64_t{0});
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

  // Hot-loop buffers, allocated once per run and reused every sample /
  // round (the estimator no-allocation rule). batch_ids carries the
  // active configurations in ascending order — the same order the scalar
  // loop visited them — so the batched sweep prices identical cells in an
  // identical sequence.
  uint64_t degraded_cells = 0;
  EstimatorScratch scratch;
  std::vector<double> estimates_buf(k, 0.0);
  std::vector<double> diffs_buf(k, 0.0);
  std::vector<double> vars_buf(k, 0.0);
  std::vector<double> costs_buf(k, 0.0);
  std::vector<double> uncerts_buf(k, 0.0);
  std::vector<double> batch_vals(k, 0.0);
  std::vector<ConfigId> batch_ids;
  batch_ids.reserve(k);
  std::vector<double> pairwise;
  pairwise.reserve(k);
  std::vector<double> gaps(k, 0.0);
  std::vector<double> ses(k, 0.0);
  std::vector<double> pair_prcs(k, 1.0);
  // Per-round phase spans are decimated (SampledSpanRound); run-level
  // spans above are not. False through the pilot — the pilot span's
  // tracked counter already accounts for its what-if calls, and per-call
  // children there would cost n_min ring slots per run.
  bool span_round = false;
  auto evaluate = [&](QueryId q) {
    batch_ids.clear();
    for (ConfigId c = 0; c < k; ++c) {
      if (active[c]) batch_ids.push_back(c);
    }
    std::span<double> vals(batch_vals.data(), batch_ids.size());
    std::fill(costs_buf.begin(), costs_buf.end(),
              std::numeric_limits<double>::quiet_NaN());
    // One batched sweep prices the query under every active configuration;
    // the uncertainty sweep afterwards is safe to separate from the cost
    // sweep because CostUncertainty is side-effect-free and fixed once the
    // cell is resolved.
    {
      obs::SpanScope whatif_span(span_round, "whatif", "selector",
                                 WhatIfTracked());
      source_->CostAcross(q, batch_ids, vals);
    }
    for (size_t i = 0; i < batch_ids.size(); ++i) {
      costs_buf[batch_ids[i]] = vals[i];
    }
    source_->CostUncertaintyAcross(q, batch_ids, vals);
    bool any_uncertain = false;
    std::fill(uncerts_buf.begin(), uncerts_buf.end(), 0.0);
    for (size_t i = 0; i < batch_ids.size(); ++i) {
      if (vals[i] > 0.0) {
        uncerts_buf[batch_ids[i]] = vals[i];
        any_uncertain = true;
        ++degraded_cells;
      }
    }
    est.Add(q, source_->TemplateOf(q), costs_buf,
            any_uncertain ? std::span<const double>(uncerts_buf)
                          : std::span<const double>());
    if (budget) {
      for (ConfigId c : batch_ids) {
        budget->ObserveSample(q, c, costs_buf[c], uncerts_buf[c]);
      }
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

  // Pilot sample (Algorithm 1, line 4).
  {
    obs::SpanScope pilot_span("pilot", "selector", WhatIfTracked());
    for (uint32_t i = 0; i < options_.n_min; ++i) {
      std::optional<QueryId> q = pool.DrawGlobal(rng);
      if (!q) break;
      evaluate(*q);
    }
  }

  uint32_t consecutive = 0;
  uint64_t iteration = 0;
  ConfigId prev_best = static_cast<ConfigId>(k);  // sentinel: no incumbent
  while (true) {
    ++iteration;
    span_round = obs::SampledSpanRound(iteration - 1);

    // Select the incumbent best among active configurations. One batched
    // sweep computes every configuration's estimate (bit-identical to the
    // scalar Estimate calls); inactive entries are simply not compared.
    ConfigId best = 0;
    {
      obs::SpanScope estimate_span(span_round, "estimate", "selector");
      double best_est = std::numeric_limits<double>::infinity();
      est.Estimates(strat, &scratch, estimates_buf);
      for (ConfigId c = 0; c < k; ++c) {
        if (!active[c]) continue;
        if (estimates_buf[c] < best_est) {
          best_est = estimates_buf[c];
          best = c;
        }
      }
      est.SetReference(best);
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

    // Pairwise Pr(CS) and the Bonferroni bound (eq. 3). DiffStats computes
    // every pair's estimate and variance from one merged-moment sweep —
    // the same merged state the scalar DiffEstimate/DiffVariance pair
    // derived twice — so gaps, ses and Pr(CS) match bit for bit. The
    // sweep's per-stratum rows also serve the next-sample choice below.
    pairwise.clear();
    std::fill(gaps.begin(), gaps.end(), 0.0);
    std::fill(ses.begin(), ses.end(), 0.0);
    size_t active_pairs = 0;
    double pr = 0.0;
    {
      obs::SpanScope pairwise_span(span_round, "pairwise", "selector");
      est.DiffStats(strat, &scratch, diffs_buf, vars_buf);
      for (ConfigId j = 0; j < k; ++j) {
        if (j == best) continue;
        if (!active[j]) {
          pairwise.push_back(frozen_prcs[j]);
          continue;
        }
        ++active_pairs;
        // X_{best,j} should be negative when best is better; the gap fed to
        // PairwisePrCs is -X_{best,j}.
        double se = SafeSe(vars_buf[j]);
        gaps[j] = -diffs_buf[j];
        ses[j] = se;
        pairwise.push_back(PairwisePrCs(-diffs_buf[j], se, options_.delta));
      }
      pr = BonferroniPrCs(pairwise);
    }

    if (sink != nullptr) {
      TraceRound ev;
      ev.round = iteration;
      ev.samples = est.TotalSamples();
      ev.optimizer_calls = source_->num_calls() - calls_before;
      ev.incumbent = best;
      ev.bonferroni = pr;
      ev.active_configs = static_cast<uint32_t>(
          std::count(active.begin(), active.end(), true));
      ev.num_strata = static_cast<uint32_t>(strat.num_strata());
      ev.pairs.reserve(k - 1);
      size_t p_idx = 0;
      for (ConfigId j = 0; j < k; ++j) {
        if (j == best) continue;
        TracePair p;
        p.config = j;
        p.pr_cs = pairwise[p_idx++];
        p.gap = gaps[j];
        p.se = ses[j];
        p.active = active[j];
        ev.pairs.push_back(p);
      }
      sink->Round(ev);
    }

    bool exhausted = false;
    bool capped = false;
    {
      obs::SpanScope termination_span(span_round, "termination", "selector");
      if (pr > options_.alpha) {
        ++consecutive;
      } else {
        consecutive = 0;
      }
      exhausted = pool.RemainingTotal() == 0;
      capped = options_.max_samples > 0 &&
               est.TotalSamples() >= options_.max_samples;
    }
    if (consecutive >= options_.consecutive_to_stop || exhausted || capped) {
      // Exhausting the sample space only yields an exact census — and thus
      // Pr(CS) = 1 — when every cell was measured exactly; any degraded
      // (bound-interval) cell keeps residual uncertainty in the estimate.
      const bool exact_exhausted = exhausted && degraded_cells == 0;
      result.best = best;
      result.pr_cs = exact_exhausted ? 1.0 : pr;
      result.reached_target = consecutive >= options_.consecutive_to_stop ||
                              (exact_exhausted && options_.alpha < 1.0) ||
                              (exhausted && pr > options_.alpha);
      result.degraded_cells = degraded_cells;
      result.queries_sampled = est.TotalSamples();
      result.optimizer_calls = source_->num_calls() - calls_before;
      if (budget) {
        const BudgetStats& bs = budget->stats();
        // Refinement spends real optimizer calls outside the cost source's
        // meter; fold them in so optimizer_calls stays the total price.
        result.optimizer_calls += bs.bound_refinement_calls;
        result.bound_refinement_calls = bs.bound_refinement_calls;
        result.dominance_eliminations = bs.dominance_eliminations;
        result.refined_queries = bs.refined_queries;
        result.refine_halts = bs.refine_halted;
        result.dominance_eliminated = std::move(dominance_eliminated);
      }
      result.estimator_samples_bytes = est.samples_bytes();
      // No samples were added since the round-top Estimates sweep, so the
      // buffer already holds Estimate(c, strat) for every c — including
      // eliminated configurations — bit for bit.
      result.estimates.assign(estimates_buf.begin(), estimates_buf.end());
      result.final_strata = {static_cast<uint32_t>(strat.num_strata())};
      result.active_configs = static_cast<uint32_t>(
          std::count(active.begin(), active.end(), true));
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
    if (elim_threshold < 1.0 &&
        est.UnobservedPopulationShare() <=
            options_.elimination_coverage_slack) {
      size_t p_idx = 0;
      for (ConfigId j = 0; j < k; ++j) {
        if (j == best) continue;
        double p = pairwise[p_idx++];
        if (active[j] && p > elim_threshold) {
          active[j] = false;
          frozen_prcs[j] = p;
          eliminated_at[j] = static_cast<uint32_t>(iteration);
          Metrics().eliminations->Add();
          if (sink != nullptr) {
            TraceElimination ev;
            ev.round = iteration;
            ev.config = j;
            ev.pr_cs = p;
            ev.threshold = elim_threshold;
            ev.reason = "pr_cs_above_threshold";
            sink->Elimination(ev);
          }
        }
      }
    }

    // Dynamic budget reallocation (DESIGN.md §10): the manager may spend
    // §6.1 bound refinements and returns the configurations proven
    // non-best by interval dominance — frozen at Pr(CS) = 1, which only
    // tightens the Bonferroni bound (the envelope contains the true cost,
    // so a dominated configuration is certainly not the true argmin).
    if (budget) {
      size_t pp_idx = 0;
      for (ConfigId j = 0; j < k; ++j) {
        pair_prcs[j] = j == best ? 1.0 : pairwise[pp_idx++];
      }
      std::vector<ConfigId> dominated =
          budget->DecideRound(iteration, best, active, pair_prcs, pr);
      for (ConfigId j : dominated) {
        active[j] = false;
        frozen_prcs[j] = 1.0;
        eliminated_at[j] = static_cast<uint32_t>(iteration);
        dominance_eliminated[j] = true;
        Metrics().eliminations->Add();
        if (sink != nullptr) {
          TraceElimination ev;
          ev.round = iteration;
          ev.config = j;
          ev.pr_cs = 1.0;
          ev.threshold = elim_threshold;
          ev.reason = "interval_dominance";
          sink->Elimination(ev);
        }
      }
    }

    // Progressive stratification (Algorithm 2).
    if (options_.stratify && iteration % options_.stratification_period == 0) {
      // Fires every stratification_period rounds and usually declines to
      // split, so it is decimated by call index like the round phases.
      thread_local uint64_t stratify_calls = 0;
      obs::SpanScope stratify_span(
          obs::TimingEnabled() && obs::SampledSpanRound(stratify_calls++),
          "stratify", "selector", WhatIfTracked());
      double z = RequiredZ(std::max<size_t>(1, active_pairs));
      double target_se = std::numeric_limits<double>::infinity();
      for (ConfigId j = 0; j < k; ++j) {
        if (!active[j] || j == best) continue;
        double gap = std::max(gaps[j], kGapFloorSeFraction * ses[j]);
        double se_needed = (gap + options_.delta) / std::max(z, 1e-9);
        target_se = std::min(target_se, se_needed);
      }
      if (std::isfinite(target_se) && target_se > 0.0) {
        const std::vector<TemplateStats>& tstats =
            est.AveragedDiffTemplateStats(active);
        const uint64_t split_t0 = obs::TimerStart();
        SplitDecision dec =
            FindBestSplit(strat, tstats, target_se * target_se,
                          options_.n_min, options_.min_template_observations);
        obs::TimerStop(split_t0, Metrics().split_search_ns);
        if (dec.beneficial) {
          uint32_t old_stratum = dec.stratum;
          strat.Split(old_stratum, dec.part1);
          uint32_t new_stratum = static_cast<uint32_t>(strat.num_strata() - 1);
          Metrics().splits->Add();
          if (sink != nullptr) {
            TraceSplit ev;
            ev.round = iteration;
            ev.config = TraceSplit::kSharedStratification;
            ev.stratum = old_stratum;
            ev.new_stratum = new_stratum;
            ev.part1 = dec.part1;
            ev.est_total_samples = dec.est_total_samples;
            ev.neyman = TraceSplitNeyman(strat, tstats, dec.est_total_samples,
                                         options_.n_min);
            sink->Split(ev);
          }
          // Top-up: every stratum must hold >= n_min samples.
          for (uint32_t h : {old_stratum, new_stratum}) {
            while (est.SamplesIn(strat, h) < options_.n_min) {
              std::optional<QueryId> q = pool.Draw(strat, h, rng);
              if (!q) break;
              evaluate(*q);
            }
          }
        }
      }
    }

    // Next sample (§5.2): stratum with the largest estimated reduction in
    // the sum of active pair variances, optionally per unit of optimizer
    // overhead, read from the round's stratum rows. Only a split (new
    // stratum, top-up samples) leaves them stale; that round sweeps again.
    obs::SpanScope sample_span(span_round, "sample", "selector",
                               WhatIfTracked());
    if (!est.RowsCurrent(strat, scratch)) {
      est.DiffStats(strat, &scratch, diffs_buf, vars_buf);
    }
    uint32_t chosen = 0;
    double best_score = -1.0;
    for (uint32_t h = 0; h < strat.num_strata(); ++h) {
      if (pool.RemainingInStratum(strat, h) == 0) continue;
      double red = est.VarianceReductionFromRows(scratch, strat, h, active);
      if (options_.overhead_aware) {
        red /= StratumMeanOverhead(strat, h, overheads, pops);
      }
      // Tie-break toward larger remaining population.
      double score = red;
      if (score > best_score) {
        best_score = score;
        chosen = h;
      }
    }
    std::optional<QueryId> q = pool.Draw(strat, chosen, rng);
    if (!q) q = pool.DrawGlobal(rng);
    if (!q) continue;  // fully exhausted; loop exits at the top
    evaluate(*q);
  }
}

// ---------------------------------------------------------------------------
// Independent Sampling (paper §4.1 + §5)

SelectionResult ConfigurationSelector::RunIndependent(Rng* rng) {
  obs::SpanScope run_span("run_independent", "selector");
  const size_t k = source_->num_configs();
  const size_t T = source_->num_templates();
  const uint64_t calls_before = source_->num_calls();
  TraceSink* const sink = options_.trace;
  Metrics().runs->Add();
  const uint64_t run_t0 = obs::TimerStart();
  std::vector<uint64_t> pops = TemplatePopulationsOf(*source_);
  std::vector<double> overheads =
      options_.overhead_aware ? PerTemplateOverheads(*source_, pops)
                              : std::vector<double>();

  std::vector<Stratification> strat;
  std::vector<StratifiedSamplePool> pools;
  strat.reserve(k);
  pools.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    strat.emplace_back(pops);
    pools.emplace_back(*source_, rng);
  }
  IndependentEstimator est(k, T, pops);
  std::vector<bool> active(k, true);
  std::vector<double> frozen_prcs(k, 1.0);
  std::vector<uint32_t> eliminated_at(k, 0);
  std::vector<bool> dominance_eliminated;
  const double elim_threshold = EffectiveEliminationThreshold(k);

  // Dynamic budget reallocation (DESIGN.md §10); see the Delta path.
  std::unique_ptr<BudgetManager> budget;
  if (options_.budget_policy == BudgetPolicy::kDynamic && k > 1) {
    PDX_CHECK_MSG(options_.bounds != nullptr,
                  "BudgetPolicy::kDynamic requires SelectorOptions::bounds");
    const uint64_t N = std::accumulate(pops.begin(), pops.end(), uint64_t{0});
    budget = std::make_unique<BudgetManager>(k, N, options_.bounds,
                                             options_.budget_model, sink);
    dominance_eliminated.assign(k, false);
  }

  if (sink != nullptr) {
    TraceRunStart ev;
    ev.scheme = "independent";
    ev.num_configs = k;
    ev.num_templates = T;
    ev.workload_size = std::accumulate(pops.begin(), pops.end(), uint64_t{0});
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

  uint64_t degraded_cells = 0;
  bool span_round = false;  // decimated per round, as in RunDelta
  auto evaluate = [&](ConfigId c, QueryId q) {
    double cost;
    {
      obs::SpanScope whatif_span(span_round, "whatif", "selector",
                                 WhatIfTracked());
      cost = source_->Cost(q, c);
    }
    double u = source_->CostUncertainty(q, c);
    if (u > 0.0) ++degraded_cells;
    est.Add(c, source_->TemplateOf(q), cost, u);
    if (budget) budget->ObserveSample(q, c, cost, u);
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

  // Pilot: n_min samples per configuration. Each configuration's draws are
  // taken first — pricing consumes no randomness, so the RNG stream is
  // unchanged — then priced in one batched config-major sweep.
  {
    obs::SpanScope pilot_span("pilot", "selector", WhatIfTracked());
    std::vector<QueryId> qbuf;
    std::vector<double> cbuf(options_.n_min, 0.0);
    std::vector<double> ubuf(options_.n_min, 0.0);
    qbuf.reserve(options_.n_min);
    for (ConfigId c = 0; c < k; ++c) {
      qbuf.clear();
      for (uint32_t i = 0; i < options_.n_min; ++i) {
        std::optional<QueryId> q = pools[c].DrawGlobal(rng);
        if (!q) break;
        qbuf.push_back(*q);
      }
      std::span<double> costs(cbuf.data(), qbuf.size());
      std::span<double> uncerts(ubuf.data(), qbuf.size());
      source_->CostMany(qbuf, c, costs);
      source_->CostUncertaintyMany(qbuf, c, uncerts);
      for (size_t i = 0; i < qbuf.size(); ++i) {
        if (ubuf[i] > 0.0) ++degraded_cells;
        est.Add(c, source_->TemplateOf(qbuf[i]), cbuf[i], ubuf[i]);
        if (budget) budget->ObserveSample(qbuf[i], c, cbuf[i], ubuf[i]);
      }
    }
  }

  uint32_t consecutive = 0;
  uint64_t iteration = 0;
  ConfigId last_sampled = 0;
  ConfigId prev_best = static_cast<ConfigId>(k);  // sentinel: no incumbent
  while (true) {
    ++iteration;
    span_round = obs::SampledSpanRound(iteration - 1);

    ConfigId best = 0;
    std::vector<double> estimates(k, 0.0);
    std::vector<double> variances(k, 0.0);
    {
      obs::SpanScope estimate_span(span_round, "estimate", "selector");
      double best_est = std::numeric_limits<double>::infinity();
      for (ConfigId c = 0; c < k; ++c) {
        if (!active[c]) continue;
        estimates[c] = est.Estimate(c, strat[c]);
        variances[c] = est.Variance(c, strat[c]);
        if (estimates[c] < best_est) {
          best_est = estimates[c];
          best = c;
        }
      }
    }

    std::vector<double> pairwise;
    pairwise.reserve(k - 1);
    std::vector<double> gaps(k, 0.0);
    std::vector<double> ses(k, 0.0);
    size_t active_pairs = 0;
    double pr = 0.0;
    {
      obs::SpanScope pairwise_span(span_round, "pairwise", "selector");
      for (ConfigId j = 0; j < k; ++j) {
        if (j == best) continue;
        if (!active[j]) {
          pairwise.push_back(frozen_prcs[j]);
          continue;
        }
        ++active_pairs;
        double gap = estimates[j] - estimates[best];
        double se = SafeSe(variances[j] + variances[best]);
        gaps[j] = gap;
        ses[j] = se;
        pairwise.push_back(PairwisePrCs(gap, se, options_.delta));
      }
      pr = BonferroniPrCs(pairwise);
    }

    uint64_t total_samples = 0;
    for (ConfigId c = 0; c < k; ++c) total_samples += est.TotalSamples(c);

    if (sink != nullptr) {
      if (prev_best != static_cast<ConfigId>(k) && best != prev_best) {
        TraceIncumbent iev;
        iev.round = iteration;
        iev.from = prev_best;
        iev.to = best;
        sink->Incumbent(iev);
      }
      TraceRound ev;
      ev.round = iteration;
      ev.samples = total_samples;
      ev.optimizer_calls = source_->num_calls() - calls_before;
      ev.incumbent = best;
      ev.bonferroni = pr;
      ev.active_configs = static_cast<uint32_t>(
          std::count(active.begin(), active.end(), true));
      uint32_t strata_total = 0;
      for (ConfigId c = 0; c < k; ++c) {
        strata_total += static_cast<uint32_t>(strat[c].num_strata());
      }
      ev.num_strata = strata_total;
      ev.pairs.reserve(k - 1);
      size_t p_idx = 0;
      for (ConfigId j = 0; j < k; ++j) {
        if (j == best) continue;
        TracePair p;
        p.config = j;
        p.pr_cs = pairwise[p_idx++];
        p.gap = gaps[j];
        p.se = ses[j];
        p.active = active[j];
        ev.pairs.push_back(p);
      }
      sink->Round(ev);
    }
    prev_best = best;

    bool exhausted = true;
    bool capped = false;
    {
      obs::SpanScope termination_span(span_round, "termination", "selector");
      if (pr > options_.alpha) {
        ++consecutive;
      } else {
        consecutive = 0;
      }
      for (ConfigId c = 0; c < k; ++c) {
        if (active[c] && pools[c].RemainingTotal() > 0) {
          exhausted = false;
          break;
        }
      }
      capped =
          options_.max_samples > 0 && total_samples >= options_.max_samples;
    }

    if (consecutive >= options_.consecutive_to_stop || exhausted || capped) {
      // See the Delta path: a census is only exact when no cell degraded.
      const bool exact_exhausted = exhausted && degraded_cells == 0;
      result.best = best;
      result.pr_cs = exact_exhausted ? 1.0 : pr;
      result.reached_target = consecutive >= options_.consecutive_to_stop ||
                              (exact_exhausted && options_.alpha < 1.0) ||
                              (exhausted && pr > options_.alpha);
      result.degraded_cells = degraded_cells;
      result.queries_sampled = total_samples;
      result.optimizer_calls = source_->num_calls() - calls_before;
      if (budget) {
        const BudgetStats& bs = budget->stats();
        result.optimizer_calls += bs.bound_refinement_calls;
        result.bound_refinement_calls = bs.bound_refinement_calls;
        result.dominance_eliminations = bs.dominance_eliminations;
        result.refined_queries = bs.refined_queries;
        result.refine_halts = bs.refine_halted;
        result.dominance_eliminated = std::move(dominance_eliminated);
      }
      result.estimates = std::move(estimates);
      result.final_strata.resize(k);
      for (ConfigId c = 0; c < k; ++c) {
        result.final_strata[c] = static_cast<uint32_t>(strat[c].num_strata());
      }
      result.active_configs = static_cast<uint32_t>(
          std::count(active.begin(), active.end(), true));
      result.rounds = iteration;
      result.eliminated_at = std::move(eliminated_at);
      finish(result);
      return result;
    }

    if (elim_threshold < 1.0) {
      size_t p_idx = 0;
      for (ConfigId j = 0; j < k; ++j) {
        if (j == best) continue;
        double p = pairwise[p_idx++];
        // Coverage gate as in the Delta path, applied to both sides of
        // the pair.
        if (active[j] && p > elim_threshold &&
            est.UnobservedPopulationShare(j) <=
                options_.elimination_coverage_slack &&
            est.UnobservedPopulationShare(best) <=
                options_.elimination_coverage_slack) {
          active[j] = false;
          frozen_prcs[j] = p;
          eliminated_at[j] = static_cast<uint32_t>(iteration);
          Metrics().eliminations->Add();
          if (sink != nullptr) {
            TraceElimination ev;
            ev.round = iteration;
            ev.config = j;
            ev.pr_cs = p;
            ev.threshold = elim_threshold;
            ev.reason = "pr_cs_above_threshold";
            sink->Elimination(ev);
          }
        }
      }
    }

    // Dynamic budget reallocation; see the Delta path for the soundness
    // argument.
    if (budget) {
      std::vector<double> pair_prcs(k, 1.0);
      size_t pp_idx = 0;
      for (ConfigId j = 0; j < k; ++j) {
        if (j == best) continue;
        pair_prcs[j] = pairwise[pp_idx++];
      }
      std::vector<ConfigId> dominated =
          budget->DecideRound(iteration, best, active, pair_prcs, pr);
      for (ConfigId j : dominated) {
        active[j] = false;
        frozen_prcs[j] = 1.0;
        eliminated_at[j] = static_cast<uint32_t>(iteration);
        dominance_eliminated[j] = true;
        Metrics().eliminations->Add();
        if (sink != nullptr) {
          TraceElimination ev;
          ev.round = iteration;
          ev.config = j;
          ev.pr_cs = 1.0;
          ev.threshold = elim_threshold;
          ev.reason = "interval_dominance";
          sink->Elimination(ev);
        }
      }
    }

    // Progressive stratification: only the configuration that received the
    // previous sample can have changed (paper §5.1).
    if (options_.stratify && active[last_sampled] &&
        iteration % options_.stratification_period == 0) {
      thread_local uint64_t stratify_calls = 0;  // as in RunDelta
      obs::SpanScope stratify_span(
          obs::TimingEnabled() && obs::SampledSpanRound(stratify_calls++),
          "stratify", "selector", WhatIfTracked());
      ConfigId c = last_sampled;
      double z = RequiredZ(std::max<size_t>(1, active_pairs));
      double target_var;
      if (c == best) {
        double min_se = std::numeric_limits<double>::infinity();
        for (ConfigId j = 0; j < k; ++j) {
          if (!active[j] || j == best) continue;
          double gap = std::max(gaps[j], kGapFloorSeFraction * ses[j]);
          min_se = std::min(min_se, (gap + options_.delta) / std::max(z, 1e-9));
        }
        target_var = std::isfinite(min_se) ? min_se * min_se / 2.0 : 0.0;
      } else {
        double gap = std::max(gaps[c], kGapFloorSeFraction * ses[c]);
        double se_needed = (gap + options_.delta) / std::max(z, 1e-9);
        target_var = se_needed * se_needed / 2.0;
      }
      if (target_var > 0.0) {
        std::vector<TemplateStats> tstats = est.TemplateStatsFor(c);
        const uint64_t split_t0 = obs::TimerStart();
        SplitDecision dec =
            FindBestSplit(strat[c], tstats, target_var, options_.n_min,
                          options_.min_template_observations);
        obs::TimerStop(split_t0, Metrics().split_search_ns);
        if (dec.beneficial) {
          uint32_t old_stratum = dec.stratum;
          strat[c].Split(old_stratum, dec.part1);
          uint32_t new_stratum =
              static_cast<uint32_t>(strat[c].num_strata() - 1);
          Metrics().splits->Add();
          if (sink != nullptr) {
            TraceSplit ev;
            ev.round = iteration;
            ev.config = static_cast<int32_t>(c);
            ev.stratum = old_stratum;
            ev.new_stratum = new_stratum;
            ev.part1 = dec.part1;
            ev.est_total_samples = dec.est_total_samples;
            ev.neyman = TraceSplitNeyman(strat[c], tstats,
                                         dec.est_total_samples,
                                         options_.n_min);
            sink->Split(ev);
          }
          for (uint32_t h : {old_stratum, new_stratum}) {
            while (est.SamplesIn(c, strat[c], h) < options_.n_min) {
              std::optional<QueryId> q = pools[c].Draw(strat[c], h, rng);
              if (!q) break;
              evaluate(c, *q);
            }
          }
        }
      }
    }

    // Next sample (§5.2): the (configuration, stratum) pair with the
    // largest estimated reduction of the variance sum.
    obs::SpanScope sample_span(span_round, "sample", "selector",
                               WhatIfTracked());
    ConfigId chosen_c = best;
    uint32_t chosen_h = 0;
    double best_score = -1.0;
    for (ConfigId c = 0; c < k; ++c) {
      if (!active[c]) continue;
      for (uint32_t h = 0; h < strat[c].num_strata(); ++h) {
        if (pools[c].RemainingInStratum(strat[c], h) == 0) continue;
        double red = est.VarianceReductionForNext(c, strat[c], h);
        if (options_.overhead_aware) {
          red /= StratumMeanOverhead(strat[c], h, overheads, pops);
        }
        if (red > best_score) {
          best_score = red;
          chosen_c = c;
          chosen_h = h;
        }
      }
    }
    std::optional<QueryId> q = pools[chosen_c].Draw(strat[chosen_c], chosen_h, rng);
    if (!q) q = pools[chosen_c].DrawGlobal(rng);
    if (!q) continue;  // exhausted config; loop exit handles termination
    evaluate(chosen_c, *q);
    last_sampled = chosen_c;
  }
}

}  // namespace pdx
