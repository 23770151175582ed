// Copyright (c) the pdexplore authors.
// Progressive workload stratification (paper §5.1, Algorithms 1 & 2).
//
// Strata are unions of query templates: "we only consider stratifications
// in which all queries of one template are grouped into the same stratum".
// The stratification starts as a single stratum and is refined one split
// at a time; candidate splits cut a stratum in two at a boundary of the
// member templates ordered by estimated average cost, and are scored by
// the estimated total number of samples (#Samples) needed to reach a
// target estimator variance under Neyman allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "catalog/types.h"

namespace pdx {

/// Per-template running knowledge used to evaluate stratifications.
struct TemplateStats {
  /// |queries of this template| in the workload.
  uint64_t population = 0;
  /// Estimated average cost (or cost difference, for Delta Sampling).
  double mean = 0.0;
  /// Estimated within-template sample variance.
  double variance = 0.0;
  /// Number of sampled observations backing the estimates.
  uint64_t observations = 0;
};

/// Aggregated (population-weighted) stats of a set of templates.
struct StratumEstimate {
  uint64_t population = 0;
  double mean = 0.0;
  /// Population-weighted variance: within-template variance plus
  /// between-template-mean spread.
  double variance = 0.0;
  uint64_t observations = 0;
};

StratumEstimate EstimateStratum(const std::vector<TemplateId>& templates,
                                const std::vector<TemplateStats>& stats);

/// A partition of the template set into strata.
class Stratification {
 public:
  /// Starts with a single stratum containing all templates with non-zero
  /// population.
  explicit Stratification(const std::vector<uint64_t>& template_populations);

  size_t num_strata() const { return strata_.size(); }
  uint32_t StratumOf(TemplateId t) const;
  const std::vector<TemplateId>& TemplatesOf(uint32_t stratum) const;
  uint64_t PopulationOf(uint32_t stratum) const;
  uint64_t total_population() const { return total_population_; }

  /// Splits `stratum` into (part1, rest). `part1` must be a strict
  /// non-empty subset of the stratum's templates. part1 keeps the stratum
  /// id; the rest becomes a new stratum (id = num_strata()-1 after call).
  void Split(uint32_t stratum, const std::vector<TemplateId>& part1);

 private:
  void RecomputePopulation(uint32_t stratum);

  std::vector<uint64_t> template_populations_;
  std::vector<std::vector<TemplateId>> strata_;
  std::vector<uint64_t> strata_population_;
  std::vector<uint32_t> stratum_of_;  // indexed by TemplateId
  uint64_t total_population_ = 0;
};

/// Continuous Neyman allocation of `n` samples over strata with lower
/// bounds: minimizes eq. 5 subject to lo_h <= n_h <= N_h and sum n_h = n.
/// `stddevs` are the estimated stratum standard deviations. Bounds are
/// applied by iterative clamping of violators.
std::vector<double> NeymanAllocation(const std::vector<double>& populations,
                                     const std::vector<double>& stddevs,
                                     double n, const std::vector<double>& lo);

/// Stratified estimator variance (eq. 5) for a continuous allocation.
double StratifiedVariance(const std::vector<double>& populations,
                          const std::vector<double>& variances,
                          const std::vector<double>& allocation);

/// #Samples(C, ST, NT) (paper §5.1): the minimum total sample count whose
/// Neyman allocation (respecting lower bounds `lo`) achieves
/// `target_variance`, found by binary search [O(L log N)]. Returns the
/// full-population size if even exhaustive sampling misses the target
/// (fpc drives the variance to 0 there, so that cannot happen for
/// target >= 0; kept as a guard).
uint64_t MinSamplesForTargetVariance(const std::vector<double>& populations,
                                     const std::vector<double>& variances,
                                     double target_variance,
                                     const std::vector<double>& lo);

/// Outcome of the Algorithm-2 split search.
struct SplitDecision {
  bool beneficial = false;
  uint32_t stratum = 0;
  std::vector<TemplateId> part1;
  /// Estimated #Samples after applying the split.
  uint64_t est_total_samples = 0;
};

/// Observations a template needs before its average cost is trusted in
/// split scoring (below it the mean is a one- or two-draw guess and a
/// split on it chases noise). Shared by the selector and the fixed-budget
/// harnesses.
inline constexpr uint32_t kMinTemplateObservations = 3;

/// Algorithm 2: evaluates all single-stratum splits at template-cost
/// boundaries and returns the one minimizing estimated #Samples, or
/// beneficial=false. A stratum is only considered when (a) its expected
/// allocation is >= 2*n_min and (b) every member template has at least
/// `min_template_obs` observations (average-cost estimates exist).
SplitDecision FindBestSplit(const Stratification& strat,
                            const std::vector<TemplateStats>& stats,
                            double target_variance, uint32_t n_min,
                            uint32_t min_template_obs);

}  // namespace pdx
