#include "core/stratification.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/macros.h"
#include "core/pr_cs.h"

namespace pdx {

namespace {

StratumEstimate EstimateSpan(std::span<const TemplateId> templates,
                             const std::vector<TemplateStats>& stats) {
  StratumEstimate out;
  double weighted_mean = 0.0;
  for (TemplateId t : templates) {
    PDX_CHECK(t < stats.size());
    out.population += stats[t].population;
    out.observations += stats[t].observations;
    weighted_mean +=
        static_cast<double>(stats[t].population) * stats[t].mean;
  }
  if (out.population == 0) return out;
  double w = static_cast<double>(out.population);
  out.mean = weighted_mean / w;
  double var = 0.0;
  for (TemplateId t : templates) {
    double d = stats[t].mean - out.mean;
    var += static_cast<double>(stats[t].population) *
           (stats[t].variance + d * d);
  }
  out.variance = var / w;
  return out;
}

}  // namespace

StratumEstimate EstimateStratum(const std::vector<TemplateId>& templates,
                                const std::vector<TemplateStats>& stats) {
  return EstimateSpan(templates, stats);
}

Stratification::Stratification(
    const std::vector<uint64_t>& template_populations)
    : template_populations_(template_populations),
      stratum_of_(template_populations.size(), 0) {
  std::vector<TemplateId> all;
  for (TemplateId t = 0; t < template_populations_.size(); ++t) {
    total_population_ += template_populations_[t];
    if (template_populations_[t] > 0) all.push_back(t);
  }
  PDX_CHECK(!all.empty());
  strata_.push_back(std::move(all));
  strata_population_.push_back(total_population_);
}

uint32_t Stratification::StratumOf(TemplateId t) const {
  PDX_CHECK(t < stratum_of_.size());
  return stratum_of_[t];
}

const std::vector<TemplateId>& Stratification::TemplatesOf(
    uint32_t stratum) const {
  PDX_CHECK(stratum < strata_.size());
  return strata_[stratum];
}

uint64_t Stratification::PopulationOf(uint32_t stratum) const {
  PDX_CHECK(stratum < strata_.size());
  return strata_population_[stratum];
}

void Stratification::RecomputePopulation(uint32_t stratum) {
  uint64_t pop = 0;
  for (TemplateId t : strata_[stratum]) pop += template_populations_[t];
  strata_population_[stratum] = pop;
}

void Stratification::Split(uint32_t stratum,
                           const std::vector<TemplateId>& part1) {
  PDX_CHECK(stratum < strata_.size());
  PDX_CHECK(!part1.empty());
  std::vector<TemplateId> first;
  std::vector<TemplateId> rest;
  for (TemplateId t : strata_[stratum]) {
    if (std::find(part1.begin(), part1.end(), t) != part1.end()) {
      first.push_back(t);
    } else {
      rest.push_back(t);
    }
  }
  PDX_CHECK_MSG(first.size() == part1.size(),
                "part1 contains templates not in the stratum");
  PDX_CHECK_MSG(!rest.empty(), "split must leave a non-empty remainder");
  strata_[stratum] = std::move(first);
  RecomputePopulation(stratum);
  uint32_t new_id = static_cast<uint32_t>(strata_.size());
  strata_.push_back(std::move(rest));
  strata_population_.push_back(0);
  for (TemplateId t : strata_.back()) stratum_of_[t] = new_id;
  RecomputePopulation(new_id);
}

std::vector<double> NeymanAllocation(const std::vector<double>& populations,
                                     const std::vector<double>& stddevs,
                                     double n, const std::vector<double>& lo) {
  const size_t L = populations.size();
  PDX_CHECK(stddevs.size() == L && lo.size() == L);
  std::vector<double> alloc(L, 0.0);
  std::vector<bool> pinned(L, false);
  auto weight = [&](size_t h) {
    return populations[h] * std::max(0.0, stddevs[h]);
  };
  // One proportional pass over the unpinned strata: `remaining` is
  // recomputed from the pinned total each time. The historical version
  // decremented `remaining` mid-pass against a stale weight sum and could
  // over-commit the budget — caught by the neyman_allocation_feasible
  // property (generator seed 0x5eed0018: four strata where pinning the
  // largest at its population starved the lower bounds of the rest, total
  // 10 against a budget of 9.81).
  //
  // `violation` pins a stratum when its share crosses the given bound:
  // phase 1 pins scarcity (share < lo, pinned at lo), phase 2 pins
  // abundance (share > population, pinned at the population). Scarcity
  // must fully settle first: a lower-bound pin shrinks every other share,
  // so deciding population caps before all lo pins are known is what made
  // the old single-pass loop unsound. Cap pins in phase 2 only ever
  // *raise* the surviving shares, so they can never re-introduce a
  // lower-bound violation.
  auto distribute = [&](bool scarcity_phase) {
    for (size_t iter = 0; iter <= L; ++iter) {
      double remaining = n;
      double weight_sum = 0.0;
      size_t open = 0;
      for (size_t h = 0; h < L; ++h) {
        if (pinned[h]) {
          remaining -= alloc[h];
        } else {
          weight_sum += weight(h);
          ++open;
        }
      }
      if (open == 0) return;
      bool changed = false;
      for (size_t h = 0; h < L; ++h) {
        if (pinned[h]) continue;
        // Zero-variance strata (weight_sum == 0) split the remainder
        // evenly over the strata still open. A remainder driven negative
        // by lower bounds pins everything at lo via the scarcity phase.
        double share =
            weight_sum > 0.0
                ? remaining * weight(h) / weight_sum
                : std::max(0.0, remaining) / static_cast<double>(open);
        if (scarcity_phase && share < lo[h]) {
          alloc[h] = std::min(lo[h], populations[h]);
          pinned[h] = true;
          changed = true;
        } else if (!scarcity_phase && share > populations[h]) {
          alloc[h] = populations[h];
          pinned[h] = true;
          changed = true;
        } else if (!scarcity_phase) {
          alloc[h] = share;
        }
      }
      if (!changed) return;
    }
  };
  distribute(/*scarcity_phase=*/true);
  distribute(/*scarcity_phase=*/false);
  for (size_t h = 0; h < L; ++h) {
    alloc[h] = std::clamp(alloc[h], std::min(lo[h], populations[h]),
                          populations[h]);
  }
  return alloc;
}

double StratifiedVariance(const std::vector<double>& populations,
                          const std::vector<double>& variances,
                          const std::vector<double>& allocation) {
  const size_t L = populations.size();
  PDX_CHECK(variances.size() == L && allocation.size() == L);
  double var = 0.0;
  for (size_t h = 0; h < L; ++h) {
    if (populations[h] <= 0.0) continue;
    double n_h = std::max(1e-9, std::min(allocation[h], populations[h]));
    double fpc = std::max(0.0, 1.0 - n_h / populations[h]);
    var += populations[h] * populations[h] *
           (std::max(0.0, variances[h]) / n_h) * fpc;
  }
  return var;
}

uint64_t MinSamplesForTargetVariance(const std::vector<double>& populations,
                                     const std::vector<double>& variances,
                                     double target_variance,
                                     const std::vector<double>& lo) {
  const size_t L = populations.size();
  std::vector<double> stddevs(L);
  for (size_t h = 0; h < L; ++h) stddevs[h] = std::sqrt(std::max(0.0, variances[h]));

  double lo_total = 0.0;
  double pop_total = 0.0;
  for (size_t h = 0; h < L; ++h) {
    lo_total += std::min(lo[h], populations[h]);
    pop_total += populations[h];
  }

  auto variance_at = [&](double n) {
    return StratifiedVariance(populations, variances,
                              NeymanAllocation(populations, stddevs, n, lo));
  };

  if (variance_at(lo_total) <= target_variance) {
    return static_cast<uint64_t>(std::ceil(lo_total));
  }
  if (variance_at(pop_total) > target_variance) {
    return static_cast<uint64_t>(std::ceil(pop_total));
  }
  double lo_n = lo_total;
  double hi_n = pop_total;
  // Binary search; variance is monotone non-increasing in n under Neyman
  // allocation with bounds.
  while (hi_n - lo_n > 0.5) {
    double mid = 0.5 * (lo_n + hi_n);
    if (variance_at(mid) <= target_variance) {
      hi_n = mid;
    } else {
      lo_n = mid;
    }
  }
  return static_cast<uint64_t>(std::ceil(hi_n));
}

SplitDecision FindBestSplit(const Stratification& strat,
                            const std::vector<TemplateStats>& stats,
                            double target_variance, uint32_t n_min,
                            uint32_t min_template_obs) {
  SplitDecision out;
  const size_t L = strat.num_strata();

  // Current per-stratum aggregates.
  std::vector<double> populations(L);
  std::vector<double> variances(L);
  std::vector<double> lo(L);
  for (uint32_t h = 0; h < L; ++h) {
    StratumEstimate est = EstimateStratum(strat.TemplatesOf(h), stats);
    populations[h] = static_cast<double>(est.population);
    variances[h] = est.variance;
    lo[h] = std::max<double>(n_min, static_cast<double>(est.observations));
  }

  std::vector<double> stddevs(L);
  for (size_t h = 0; h < L; ++h) stddevs[h] = std::sqrt(std::max(0.0, variances[h]));

  uint64_t min_sam = MinSamplesForTargetVariance(populations, variances,
                                                 target_variance, lo);
  out.est_total_samples = min_sam;

  // Expected allocation at the #Samples solution.
  std::vector<double> expected = NeymanAllocation(
      populations, stddevs, static_cast<double>(min_sam), lo);

  // Candidate buffers, reused across strata and cuts: the ordered member
  // list (each cut's two parts are spans of it) and the per-stratum
  // aggregates with stratum j replaced by part 1 and part 2 appended.
  std::vector<TemplateId> ordered;
  std::vector<double> pops2, vars2, lo2;
  pops2.reserve(L + 1);
  vars2.reserve(L + 1);
  lo2.reserve(L + 1);
  for (uint32_t j = 0; j < L; ++j) {
    if (expected[j] < 2.0 * static_cast<double>(n_min)) continue;
    const std::vector<TemplateId>& members = strat.TemplatesOf(j);
    if (members.size() < 2) continue;

    // All member templates need cost estimates.
    bool all_observed = true;
    for (TemplateId t : members) {
      if (stats[t].observations < min_template_obs) {
        all_observed = false;
        break;
      }
    }
    if (!all_observed) continue;

    // Order member templates by estimated average cost.
    ordered.assign(members.begin(), members.end());
    std::sort(ordered.begin(), ordered.end(), [&](TemplateId a, TemplateId b) {
      return stats[a].mean < stats[b].mean;
    });

    // Evaluate every split point.
    const std::span<const TemplateId> all(ordered);
    for (size_t cut = 1; cut < ordered.size(); ++cut) {
      StratumEstimate e1 = EstimateSpan(all.first(cut), stats);
      StratumEstimate e2 = EstimateSpan(all.subspan(cut), stats);
      if (e1.population == 0 || e2.population == 0) continue;

      pops2.assign(populations.begin(), populations.end());
      vars2.assign(variances.begin(), variances.end());
      lo2.assign(lo.begin(), lo.end());
      pops2[j] = static_cast<double>(e1.population);
      vars2[j] = e1.variance;
      lo2[j] = std::max<double>(n_min, static_cast<double>(e1.observations));
      pops2.push_back(static_cast<double>(e2.population));
      vars2.push_back(e2.variance);
      lo2.push_back(
          std::max<double>(n_min, static_cast<double>(e2.observations)));

      uint64_t sam =
          MinSamplesForTargetVariance(pops2, vars2, target_variance, lo2);
      if (sam < out.est_total_samples) {
        out.beneficial = true;
        out.stratum = j;
        out.part1.assign(ordered.begin(), ordered.begin() + cut);
        out.est_total_samples = sam;
      }
    }
  }
  return out;
}

}  // namespace pdx
