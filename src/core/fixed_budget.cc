#include "core/fixed_budget.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/normal.h"

namespace pdx {

namespace {

// Splits the single-stratum stratification into one stratum per template.
void MakeFineStrata(Stratification* strat) {
  while (true) {
    bool split_any = false;
    for (uint32_t h = 0; h < strat->num_strata(); ++h) {
      const std::vector<TemplateId>& members = strat->TemplatesOf(h);
      if (members.size() > 1) {
        strat->Split(h, {members.front()});
        split_any = true;
        break;
      }
    }
    if (!split_any) return;
  }
}

ConfigId ArgMin(const std::vector<double>& estimates) {
  ConfigId best = 0;
  double best_est = std::numeric_limits<double>::infinity();
  for (ConfigId c = 0; c < estimates.size(); ++c) {
    if (estimates[c] < best_est) {
      best_est = estimates[c];
      best = c;
    }
  }
  return best;
}

FixedBudgetResult RunDeltaFixed(CostSource* source, uint64_t query_budget,
                                const FixedBudgetOptions& options, Rng* rng) {
  const size_t k = source->num_configs();
  const size_t T = source->num_templates();
  const uint64_t calls_before = source->num_calls();
  std::vector<uint64_t> pops = TemplatePopulationsOf(*source);

  Stratification strat(pops);
  if (options.allocation == AllocationPolicy::kEqualPerTemplate ||
      options.allocation == AllocationPolicy::kFinePerTemplate) {
    MakeFineStrata(&strat);
  }
  StratifiedSamplePool pool(*source, rng);
  DeltaEstimator est(k, T, pops);
  // Every configuration is priced to the end (no elimination); the
  // estimator API still takes an active mask.
  const std::vector<bool> all_active(k, true);
  std::vector<double> overheads =
      options.overhead_aware ? PerTemplateOverheads(*source, pops)
                             : std::vector<double>();

  // Hot-loop buffers, allocated once per run (the estimator no-allocation
  // rule). Every sweep covers all k configurations in ascending order —
  // the scalar visit order.
  EstimatorScratch scratch;
  std::vector<double> estimates_buf(k, 0.0);
  std::vector<double> diffs_buf(k, 0.0);
  std::vector<double> vars_buf(k, 0.0);
  std::vector<double> costs_buf(k, 0.0);
  std::vector<ConfigId> all_ids(k);
  for (ConfigId c = 0; c < k; ++c) all_ids[c] = c;

  auto evaluate = [&](QueryId q) {
    source->CostAcross(q, all_ids, costs_buf);
    est.Add(q, source->TemplateOf(q), costs_buf);
  };

  uint64_t drawn = 0;
  auto draw_from = [&](uint32_t h) {
    std::optional<QueryId> q = pool.Draw(strat, h, rng);
    if (!q) q = pool.DrawGlobal(rng);
    if (!q) return false;
    evaluate(*q);
    ++drawn;
    return true;
  };

  switch (options.allocation) {
    case AllocationPolicy::kUniform: {
      while (drawn < query_budget) {
        std::optional<QueryId> q = pool.DrawGlobal(rng);
        if (!q) break;
        evaluate(*q);
        ++drawn;
      }
      break;
    }
    case AllocationPolicy::kEqualPerTemplate: {
      // Round-robin over strata (= templates).
      bool progressed = true;
      while (drawn < query_budget && progressed) {
        progressed = false;
        for (uint32_t h = 0; h < strat.num_strata() && drawn < query_budget;
             ++h) {
          std::optional<QueryId> q = pool.Draw(strat, h, rng);
          if (!q) continue;
          evaluate(*q);
          ++drawn;
          progressed = true;
        }
      }
      break;
    }
    case AllocationPolicy::kFinePerTemplate:
    case AllocationPolicy::kVarianceGuided: {
      const bool fine =
          options.allocation == AllocationPolicy::kFinePerTemplate;
      // Pilot.
      if (fine) {
        // One pass of round-robin so each stratum has an estimate seed.
        for (uint32_t h = 0; h < strat.num_strata() && drawn < query_budget;
             ++h) {
          draw_from(h);
        }
      }
      while (drawn < query_budget && pool.RemainingTotal() > 0 &&
             drawn < options.n_min && !fine) {
        std::optional<QueryId> q = pool.DrawGlobal(rng);
        if (!q) break;
        evaluate(*q);
        ++drawn;
      }
      // Variance-guided allocation, with progressive splits when enabled.
      while (drawn < query_budget && pool.RemainingTotal() > 0) {
        est.Estimates(strat, &scratch, estimates_buf);
        const ConfigId best = ArgMin(estimates_buf);
        est.SetReference(best);

        if (!fine && options.stratify) {
          // Target variance: what would make the weakest pair confident at
          // a nominal 95% level (budget mode has no alpha).
          double z = NormalQuantile(0.975);
          double target_se = std::numeric_limits<double>::infinity();
          est.DiffStats(strat, &scratch, diffs_buf, vars_buf);
          for (ConfigId j = 0; j < k; ++j) {
            if (j == best) continue;
            double gap = -diffs_buf[j];
            double se = std::sqrt(std::max(0.0, vars_buf[j]));
            gap = std::max(gap, 0.25 * se);
            if (gap > 0.0) target_se = std::min(target_se, gap / z);
          }
          if (std::isfinite(target_se) && target_se > 0.0) {
            SplitDecision dec = FindBestSplit(
                strat, est.AveragedDiffTemplateStats(all_active),
                target_se * target_se, options.n_min,
                kMinTemplateObservations);
            if (dec.beneficial) {
              uint32_t old_stratum = dec.stratum;
              strat.Split(old_stratum, dec.part1);
              uint32_t new_stratum =
                  static_cast<uint32_t>(strat.num_strata() - 1);
              for (uint32_t h : {old_stratum, new_stratum}) {
                while (est.SamplesIn(strat, h) < options.n_min &&
                       drawn < query_budget) {
                  if (!draw_from(h)) break;
                }
              }
            }
          }
        }
        if (drawn >= query_budget) break;

        // The next-sample choice reads the stratum rows of a DiffStats
        // sweep: the split search's when it ran and split nothing, a
        // fresh one otherwise.
        if (!est.RowsCurrent(strat, scratch)) {
          est.DiffStats(strat, &scratch, diffs_buf, vars_buf);
        }
        uint32_t chosen = 0;
        double best_score = -1.0;
        for (uint32_t h = 0; h < strat.num_strata(); ++h) {
          if (pool.RemainingInStratum(strat, h) == 0) continue;
          double red =
              est.VarianceReductionFromRows(scratch, strat, h, all_active);
          if (options.overhead_aware) {
            red /= StratumMeanOverhead(strat, h, overheads, pops);
          }
          if (red > best_score) {
            best_score = red;
            chosen = h;
          }
        }
        if (!draw_from(chosen)) break;
      }
      break;
    }
  }

  FixedBudgetResult out;
  out.estimates.resize(k);
  est.Estimates(strat, &scratch, out.estimates);
  out.best = ArgMin(out.estimates);
  out.queries_sampled = est.TotalSamples();
  out.optimizer_calls = source->num_calls() - calls_before;
  return out;
}

FixedBudgetResult RunIndependentFixed(CostSource* source,
                                      uint64_t query_budget,
                                      const FixedBudgetOptions& options,
                                      Rng* rng) {
  const size_t k = source->num_configs();
  const size_t T = source->num_templates();
  const uint64_t calls_before = source->num_calls();
  std::vector<uint64_t> pops = TemplatePopulationsOf(*source);

  std::vector<Stratification> strat;
  std::vector<StratifiedSamplePool> pools;
  for (size_t c = 0; c < k; ++c) {
    strat.emplace_back(pops);
    pools.emplace_back(*source, rng);
    if (options.allocation == AllocationPolicy::kEqualPerTemplate ||
        options.allocation == AllocationPolicy::kFinePerTemplate) {
      MakeFineStrata(&strat.back());
    }
  }
  IndependentEstimator est(k, T, pops);
  uint64_t drawn = 0;

  auto draw_for = [&](ConfigId c, uint32_t h) {
    std::optional<QueryId> q = pools[c].Draw(strat[c], h, rng);
    if (!q) q = pools[c].DrawGlobal(rng);
    if (!q) return false;
    est.Add(c, source->TemplateOf(*q), source->Cost(*q, c));
    ++drawn;
    return true;
  };

  switch (options.allocation) {
    case AllocationPolicy::kUniform: {
      ConfigId c = 0;
      while (drawn < query_budget) {
        std::optional<QueryId> q = pools[c].DrawGlobal(rng);
        if (!q) break;
        est.Add(c, source->TemplateOf(*q), source->Cost(*q, c));
        ++drawn;
        c = static_cast<ConfigId>((c + 1) % k);
      }
      break;
    }
    case AllocationPolicy::kEqualPerTemplate: {
      bool progressed = true;
      while (drawn < query_budget && progressed) {
        progressed = false;
        for (ConfigId c = 0; c < k && drawn < query_budget; ++c) {
          for (uint32_t h = 0;
               h < strat[c].num_strata() && drawn < query_budget; ++h) {
            std::optional<QueryId> q = pools[c].Draw(strat[c], h, rng);
            if (!q) continue;
            est.Add(c, source->TemplateOf(*q), source->Cost(*q, c));
            ++drawn;
            progressed = true;
          }
        }
      }
      break;
    }
    case AllocationPolicy::kFinePerTemplate:
    case AllocationPolicy::kVarianceGuided: {
      const bool fine =
          options.allocation == AllocationPolicy::kFinePerTemplate;
      if (fine) {
        for (ConfigId c = 0; c < k; ++c) {
          for (uint32_t h = 0;
               h < strat[c].num_strata() && drawn < query_budget; ++h) {
            draw_for(c, h);
          }
        }
      } else {
        // Pilot: n_min per configuration, round-robin.
        for (uint32_t i = 0; i < options.n_min && drawn < query_budget; ++i) {
          for (ConfigId c = 0; c < k && drawn < query_budget; ++c) {
            std::optional<QueryId> q = pools[c].DrawGlobal(rng);
            if (!q) continue;
            est.Add(c, source->TemplateOf(*q), source->Cost(*q, c));
            ++drawn;
          }
        }
      }
      uint64_t stale_guard = 0;
      while (drawn < query_budget) {
        // Progressive split for the configuration with the highest
        // variance (cheap surrogate for "last sampled" in budget mode).
        if (!fine && options.stratify) {
          ConfigId target = 0;
          double worst = -1.0;
          for (ConfigId c = 0; c < k; ++c) {
            double v = est.Variance(c, strat[c]);
            if (v > worst) {
              worst = v;
              target = c;
            }
          }
          double z = NormalQuantile(0.975);
          double var = est.Variance(target, strat[target]);
          double target_var = var / (z * z * 4.0);
          SplitDecision dec = FindBestSplit(
              strat[target], est.TemplateStatsFor(target), target_var,
              options.n_min, kMinTemplateObservations);
          if (dec.beneficial) {
            uint32_t old_stratum = dec.stratum;
            strat[target].Split(old_stratum, dec.part1);
            uint32_t new_stratum =
                static_cast<uint32_t>(strat[target].num_strata() - 1);
            for (uint32_t h : {old_stratum, new_stratum}) {
              while (est.SamplesIn(target, strat[target], h) < options.n_min &&
                     drawn < query_budget) {
                if (!draw_for(target, h)) break;
              }
            }
          }
        }
        if (drawn >= query_budget) break;

        ConfigId chosen_c = 0;
        uint32_t chosen_h = 0;
        double best_score = -1.0;
        for (ConfigId c = 0; c < k; ++c) {
          for (uint32_t h = 0; h < strat[c].num_strata(); ++h) {
            if (pools[c].RemainingInStratum(strat[c], h) == 0) continue;
            double red = est.VarianceReductionForNext(c, strat[c], h);
            if (red > best_score) {
              best_score = red;
              chosen_c = c;
              chosen_h = h;
            }
          }
        }
        if (best_score < 0.0) break;  // all pools exhausted
        if (!draw_for(chosen_c, chosen_h)) {
          if (++stale_guard > k) break;
        } else {
          stale_guard = 0;
        }
      }
      break;
    }
  }

  FixedBudgetResult out;
  out.estimates.resize(k);
  for (ConfigId c = 0; c < k; ++c) {
    out.estimates[c] = est.Estimate(c, strat[c]);
  }
  out.best = ArgMin(out.estimates);
  uint64_t total = 0;
  for (ConfigId c = 0; c < k; ++c) total += est.TotalSamples(c);
  out.queries_sampled = total;
  out.optimizer_calls = source->num_calls() - calls_before;
  return out;
}

}  // namespace

FixedBudgetResult FixedBudgetSelect(CostSource* source, uint64_t query_budget,
                                    const FixedBudgetOptions& options,
                                    Rng* rng) {
  PDX_CHECK(source != nullptr && rng != nullptr);
  PDX_CHECK(query_budget >= 1);
  if (options.scheme == SamplingScheme::kDelta) {
    return RunDeltaFixed(source, query_budget, options, rng);
  }
  return RunIndependentFixed(source, query_budget, options, rng);
}

}  // namespace pdx
