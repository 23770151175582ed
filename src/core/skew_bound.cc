#include "core/skew_bound.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/macros.h"
#include "common/rng.h"
#include "common/running_stats.h"

namespace pdx {

namespace {

// Incremental skew evaluation over a vertex assignment. Raw power sums in
// long double keep O(1) flip updates accurate enough for bench-scale n
// (the brute-force cross-checks in tests pin down small-n accuracy).
class SkewState {
 public:
  explicit SkewState(const std::vector<double>& v) : n_(v.size()) {
    for (double x : v) {
      long double lx = x;
      s1_ += lx;
      s2_ += lx * lx;
      s3_ += lx * lx * lx;
    }
  }

  // Skew after replacing `from` by `to` (state unchanged).
  double SkewIfReplaced(double from, double to) const {
    long double f = from, t = to;
    return SkewFromSums(s1_ - f + t, s2_ - f * f + t * t,
                        s3_ - f * f * f + t * t * t, n_);
  }

  double SkewIfReplaced2(double from_a, double to_a, double from_b,
                         double to_b) const {
    long double fa = from_a, ta = to_a, fb = from_b, tb = to_b;
    return SkewFromSums(s1_ - fa + ta - fb + tb,
                        s2_ - fa * fa + ta * ta - fb * fb + tb * tb,
                        s3_ - fa * fa * fa + ta * ta * ta - fb * fb * fb +
                            tb * tb * tb,
                        n_);
  }

  void Replace(double from, double to) {
    long double f = from, t = to;
    s1_ += t - f;
    s2_ += t * t - f * f;
    s3_ += t * t * t - f * f * f;
  }

  double Skew() const { return SkewFromSums(s1_, s2_, s3_, n_); }

 private:
  static double SkewFromSums(long double s1, long double s2, long double s3,
                             size_t n) {
    long double dn = static_cast<long double>(n);
    long double mu = s1 / dn;
    long double m2 = s2 / dn - mu * mu;
    // Below the power sums' rounding floor m2 is cancellation residue, not
    // spread: a zero-variance vertex would otherwise score G1 ~ 1e10.
    if (m2 <= 64.0L * LDBL_EPSILON * (s2 / dn)) return 0.0;
    long double m3 = s3 / dn - 3.0L * mu * s2 / dn + 2.0L * mu * mu * mu;
    return static_cast<double>(m3 / std::pow(m2, 1.5L));
  }

  size_t n_;
  long double s1_ = 0.0L;
  long double s2_ = 0.0L;
  long double s3_ = 0.0L;
};

// One pass of coordinate ascent: flip each value to the opposite endpoint
// if that increases G1. O(n) per pass. Returns true when a flip applied.
bool CoordinateAscentPass(const std::vector<CostInterval>& bounds,
                          std::vector<double>* v, SkewState* state,
                          double* best) {
  bool improved = false;
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (bounds[i].low == bounds[i].high) continue;
    double original = (*v)[i];
    double flipped =
        original == bounds[i].low ? bounds[i].high : bounds[i].low;
    double s = state->SkewIfReplaced(original, flipped);
    if (s > *best) {
      *best = s;
      state->Replace(original, flipped);
      (*v)[i] = flipped;
      improved = true;
    }
  }
  return improved;
}

// Inputs small enough for 2-flip neighborhoods (O(n^2) flip evaluations
// per pass) to stay cheap.
constexpr size_t kTwoFlipLimit = 300;

// One pass flipping pairs of coordinates jointly — escapes the single-flip
// local optima that plague skew maximization.
bool TwoFlipAscentPass(const std::vector<CostInterval>& bounds,
                       std::vector<double>* v, SkewState* state,
                       double* best) {
  const size_t n = bounds.size();
  bool improved = false;
  for (size_t i = 0; i < n; ++i) {
    if (bounds[i].low == bounds[i].high) continue;
    for (size_t j = i + 1; j < n; ++j) {
      if (bounds[j].low == bounds[j].high) continue;
      double oi = (*v)[i];
      double oj = (*v)[j];
      double fi = oi == bounds[i].low ? bounds[i].high : bounds[i].low;
      double fj = oj == bounds[j].low ? bounds[j].high : bounds[j].low;
      double s = state->SkewIfReplaced2(oi, fi, oj, fj);
      if (s > *best) {
        *best = s;
        state->Replace(oi, fi);
        state->Replace(oj, fj);
        (*v)[i] = fi;
        (*v)[j] = fj;
        improved = true;
      }
    }
  }
  return improved;
}

// Ascent to convergence from the given assignment.
double AscendFrom(const std::vector<CostInterval>& bounds,
                  std::vector<double>* v) {
  SkewState state(*v);
  double best = state.Skew();
  for (int pass = 0; pass < 16; ++pass) {
    bool moved = CoordinateAscentPass(bounds, v, &state, &best);
    if (!moved && bounds.size() <= kTwoFlipLimit) {
      moved = TwoFlipAscentPass(bounds, v, &state, &best);
    }
    if (!moved) break;
  }
  return best;
}

}  // namespace

namespace {

// Vertex search for the maximum (positive) G1 over the interval box.
double VertexSearchMaxSkew(const std::vector<CostInterval>& bounds) {
  const size_t n = bounds.size();
  // Positive skew wants most mass low with a small number of far-above
  // outliers. Scan vertex families — suffix-at-high under several natural
  // orderings, O(n) via incremental sums — refine the best of each family
  // by coordinate ascent, and add randomized restarts.
  double best = -std::numeric_limits<double>::infinity();

  auto scan_ordering = [&](const std::vector<size_t>& order) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = bounds[i].low;
    SkewState state(v);
    double family_best = state.Skew();
    size_t best_cut = 0;
    // cut = number of order-suffix values placed at high.
    for (size_t cut = 1; cut <= n; ++cut) {
      size_t idx = order[n - cut];
      state.Replace(bounds[idx].low, bounds[idx].high);
      double s = state.Skew();
      if (s > family_best) {
        family_best = s;
        best_cut = cut;
      }
    }
    // Rebuild the family's best vertex and refine locally.
    for (size_t i = 0; i < n; ++i) v[i] = bounds[i].low;
    for (size_t cut = 1; cut <= best_cut; ++cut) {
      v[order[n - cut]] = bounds[order[n - cut]].high;
    }
    best = std::max(best, AscendFrom(bounds, &v));
  };

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  // By midpoint: generic spread family.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return bounds[a].low + bounds[a].high < bounds[b].low + bounds[b].high;
  });
  scan_ordering(order);
  // By upper endpoint: the largest highs become the outliers.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return bounds[a].high < bounds[b].high;
  });
  scan_ordering(order);
  // By interval width: the widest intervals swing to high first.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return bounds[a].high - bounds[a].low < bounds[b].high - bounds[b].low;
  });
  scan_ordering(order);

  // Randomized restarts (deterministic seed) escape basins all ordered
  // families share.
  {
    Rng rng(0x5EEDULL ^ (static_cast<uint64_t>(n) << 17));
    const int restarts = n <= kTwoFlipLimit ? 24 : 4;
    for (int r = 0; r < restarts; ++r) {
      std::vector<double> v(n);
      for (size_t i = 0; i < n; ++i) {
        v[i] = rng.NextBernoulli(0.5) ? bounds[i].high : bounds[i].low;
      }
      best = std::max(best, AscendFrom(bounds, &v));
    }
  }

  return best;
}

// Degenerate inputs abort rather than silently skewing either bound: an
// inverted or NaN interval cannot have passed the validating CostInterval
// constructor, so it signals a corrupted caller. (NaN fails the <=
// comparison, so one check covers both.)
void CheckBounds(const std::vector<CostInterval>& bounds) {
  PDX_CHECK(!bounds.empty());
  for (const CostInterval& b : bounds) PDX_CHECK(b.low <= b.high);
}

}  // namespace

double MaxSkewUpperBound(const std::vector<CostInterval>& bounds) {
  CheckBounds(bounds);
  const size_t n = bounds.size();
  // Universal bound for any n-point distribution.
  double universal =
      n >= 2 ? (static_cast<double>(n) - 2.0) /
                   std::sqrt(static_cast<double>(n) - 1.0)
             : 0.0;

  // Third-moment majorant over minimum variance: for any assignment, the
  // mean lies in [mean(lows), mean(highs)], so |v_i - mean| <= d_i :=
  // max(high_i - mu_lo, mu_hi - low_i), giving m3 <= (1/n) sum d_i^3;
  // m2 >= sigma^2_min (exact polynomial-time minimum).
  double mu_lo = 0.0;
  double mu_hi = 0.0;
  for (const CostInterval& b : bounds) {
    mu_lo += b.low;
    mu_hi += b.high;
  }
  mu_lo /= static_cast<double>(n);
  mu_hi /= static_cast<double>(n);
  double m3_bound = 0.0;
  for (const CostInterval& b : bounds) {
    double d = std::max(b.high - mu_lo, mu_hi - b.low);
    d = std::max(d, 0.0);
    m3_bound += d * d * d;
  }
  m3_bound /= static_cast<double>(n);
  double sigma2_min = MinVariance(bounds);
  double ratio_bound = sigma2_min > 0.0
                           ? m3_bound / std::pow(sigma2_min, 1.5)
                           : std::numeric_limits<double>::infinity();
  return std::min(universal, ratio_bound);
}

SkewBoundResult MaxSkewBound(const std::vector<CostInterval>& bounds) {
  CheckBounds(bounds);
  SkewBoundResult out;
  // Cochran's rule consumes the skew magnitude, so both tails matter: the
  // mirrored problem (v -> -v flips every interval and negates G1) covers
  // left-skew maxima.
  double positive = VertexSearchMaxSkew(bounds);
  std::vector<CostInterval> mirrored(bounds.size());
  for (size_t i = 0; i < bounds.size(); ++i) {
    mirrored[i] = {-bounds[i].high, -bounds[i].low};
  }
  double negative = VertexSearchMaxSkew(mirrored);
  out.g1_estimate = std::max({positive, negative, 0.0});
  // The certified bound can never undercut a realized assignment: at the
  // universal bound the estimate's long-double G1 can round slightly above
  // the double-precision bound (~1e-10 relative), and the max keeps the
  // contract exact.
  out.g1_upper = std::max(MaxSkewUpperBound(bounds), out.g1_estimate);
  return out;
}

double MaxSkewBruteForce(const std::vector<CostInterval>& bounds) {
  const size_t n = bounds.size();
  PDX_CHECK(n >= 1 && n <= 24);
  double best = -std::numeric_limits<double>::infinity();
  for (uint64_t mask = 0; mask < (1ull << n); ++mask) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = (mask >> i) & 1 ? bounds[i].high : bounds[i].low;
    }
    best = std::max(best, ExactMoments::Compute(v).skewness);
  }
  return best;
}

}  // namespace pdx
