#include "core/clt_check.h"

#include <cmath>
#include <limits>

#include "common/macros.h"
#include "core/pr_cs.h"

namespace pdx {

uint64_t CochranRequiredSampleSize(double g1) {
  PDX_CHECK(g1 >= 0.0);
  double n = 28.0 + 25.0 * g1 * g1;
  // Saturate where the cast would overflow (g1 >~ 8.6e8, or +inf): both
  // callers clamp the result to the population size anyway.
  if (!(n < 0x1p64)) return std::numeric_limits<uint64_t>::max();
  return static_cast<uint64_t>(std::floor(n)) + 1;  // strict inequality
}

CltValidation ValidateClt(const std::vector<CostInterval>& bounds,
                          double rho) {
  CltValidation out;
  VarianceBoundResult var = MaxVarianceBound(bounds, rho);
  out.sigma2_max = var.upper;
  SkewBoundResult skew = MaxSkewBound(bounds);
  out.g1_estimate = skew.g1_estimate;
  out.g1_upper = skew.g1_upper;
  out.n_min_estimate = CochranRequiredSampleSize(skew.g1_estimate);
  out.n_min_certified = CochranRequiredSampleSize(skew.g1_upper);
  return out;
}

double ConservativePairwisePrCs(double observed_gap, double sigma2_max,
                                uint64_t n, uint64_t N, double delta) {
  PDX_CHECK(sigma2_max >= 0.0);
  // S^2 = sigma^2 * N / (N - 1) per the paper's notation.
  double s2 = N > 1 ? sigma2_max * static_cast<double>(N) /
                          (static_cast<double>(N) - 1.0)
                    : sigma2_max;
  double se = FpcStandardError(s2, n, N);
  return PairwisePrCs(observed_gap, se, delta);
}

}  // namespace pdx
