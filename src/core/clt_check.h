// Copyright (c) the pdexplore authors.
// CLT applicability verification (paper §6).
//
// The Pr(CS) machinery assumes (i) the sample is large enough for the CLT
// and (ii) the sample variance estimates the true variance well. Both can
// fail silently under heavy skew. With per-query cost bounds (§6.1) we can
// verify them conservatively: bound the skew to derive a minimum sample
// size via the modified Cochran rule (eq. 9), and bound the variance to
// replace s^2 by sigma^2_max in the Pr(CS) computation.
#pragma once

#include <cstdint>
#include <vector>

#include "core/skew_bound.h"
#include "core/variance_bound.h"

namespace pdx {

/// Modified Cochran rule (paper eq. 9, after [Sugden et al. 2000]):
/// minimum sample size n > 28 + 25 * G1^2. Saturates at UINT64_MAX where
/// that size does not fit (huge or infinite G1).
uint64_t CochranRequiredSampleSize(double g1);

/// Full §6 validation bundle for one cost distribution.
struct CltValidation {
  /// Certified upper bound on the population variance.
  double sigma2_max = 0.0;
  /// Vertex-search skew estimate and certified upper bound.
  double g1_estimate = 0.0;
  double g1_upper = 0.0;
  /// Required minimum sample size from the skew estimate (what the bench
  /// experiments report) and from the certified bound (fully
  /// conservative).
  uint64_t n_min_estimate = 0;
  uint64_t n_min_certified = 0;
};

/// Runs the variance and skew bounds over per-query cost intervals.
/// `rho` controls the variance DP discretization.
CltValidation ValidateClt(const std::vector<CostInterval>& bounds, double rho);

/// Conservative pairwise Pr(CS): the standard error is computed from a
/// certified variance upper bound instead of the sample variance
/// (unstratified estimator, finite-population corrected).
///
/// `observed_gap` = X_j - X_l for the chosen l; `sigma2_max` bounds the
/// variance of the relevant distribution (per-config cost distribution for
/// Independent Sampling — pass the sum of both configs' bounds — or the
/// cost-difference distribution for Delta Sampling); `n` samples out of a
/// workload of `N`.
double ConservativePairwisePrCs(double observed_gap, double sigma2_max,
                                uint64_t n, uint64_t N, double delta);

}  // namespace pdx
