// Copyright (c) the pdexplore authors.
// Skew bounds for interval data (paper §6.2, "Bounding the skew").
//
// Fisher's G1 of the cost distribution feeds the Cochran-rule sample-size
// requirement (eq. 9). The paper maximizes G1 over the cost intervals with
// an approximation scheme analogous to the variance DP but omits its
// details; we provide:
//   (a) a vertex-search estimate — a threshold scan over midpoint-ordered
//       endpoint assignments followed by coordinate-ascent flips — exact
//       on small inputs (validated against brute force in tests);
//   (b) a certified conservative upper bound combining the exact
//       polynomial-time minimum variance with a third-moment majorant and
//       the universal bound |G1| <= (n-2)/sqrt(n-1).
// (b) alone is MaxSkewUpperBound — O(n) plus MinVariance, what the dynamic
// budget's slack needs; MaxSkewBound runs the (far costlier) search too.
#pragma once

#include <vector>

#include "core/variance_bound.h"

namespace pdx {

/// Result of skew maximization / bounding.
struct SkewBoundResult {
  /// Best |G1| found by the vertex search over both tails (a lower bound
  /// on the true maximum skew magnitude).
  double g1_estimate = 0.0;
  /// Certified upper bound on G1_max.
  double g1_upper = 0.0;
};

/// Maximizes Fisher's G1 over value vectors confined to `bounds`.
/// `g1_upper` is max(MaxSkewUpperBound(bounds), g1_estimate), so it never
/// undercuts the estimate.
SkewBoundResult MaxSkewBound(const std::vector<CostInterval>& bounds);

/// The certified half of MaxSkewBound alone: min of the universal bound
/// and the third-moment majorant over MinVariance. No vertex search.
double MaxSkewUpperBound(const std::vector<CostInterval>& bounds);

/// Exact maximum G1 by exhaustive vertex enumeration — O(2^n), for tests.
double MaxSkewBruteForce(const std::vector<CostInterval>& bounds);

}  // namespace pdx
