#include "core/skew_bound.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <set>
#include <string>

#include "common/rng.h"
#include "common/running_stats.h"
#include "validation/property.h"

namespace pdx {
namespace {

// MaxSkewBound estimates max |G1|; the brute-force vertex reference must
// cover both tails (mirroring the intervals negates G1).
double BruteForceAbsSkew(const std::vector<CostInterval>& bounds) {
  std::vector<CostInterval> mirrored(bounds.size());
  for (size_t i = 0; i < bounds.size(); ++i) {
    mirrored[i] = {-bounds[i].high, -bounds[i].low};
  }
  return std::max(MaxSkewBruteForce(bounds), MaxSkewBruteForce(mirrored));
}

std::vector<CostInterval> RandomIntervals(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<CostInterval> out(n);
  for (CostInterval& iv : out) {
    double a = rng.NextDouble(0.0, 10.0);
    double b = rng.NextDouble(0.0, 10.0);
    iv.low = std::min(a, b);
    iv.high = std::max(a, b);
  }
  return out;
}

TEST(SkewBoundTest, DegenerateIntervalsGiveExactSkew) {
  std::vector<double> values = {1, 1, 1, 1, 1, 50};
  std::vector<CostInterval> bounds;
  for (double v : values) bounds.push_back({v, v});
  SkewBoundResult r = MaxSkewBound(bounds);
  // Point intervals: |G1| is fixed; the estimate must be its magnitude.
  double exact = ExactMoments::Compute(values).skewness;
  EXPECT_NEAR(r.g1_estimate, std::abs(exact), 1e-9);
  EXPECT_GE(r.g1_upper + 1e-9, std::abs(exact));
}

TEST(SkewBoundTest, EstimateNearBruteForceVertexMax) {
  for (uint64_t seed = 300; seed < 310; ++seed) {
    auto bounds = RandomIntervals(8, seed);
    double brute = BruteForceAbsSkew(bounds);
    SkewBoundResult r = MaxSkewBound(bounds);
    // The vertex search must find at least 90% of the vertex maximum
    // (in practice it finds it exactly; slack guards degenerate ties).
    EXPECT_GE(r.g1_estimate, 0.9 * brute - 1e-6) << "seed " << seed;
    // And never report more than the certified bound.
    EXPECT_LE(r.g1_estimate, r.g1_upper + 1e-9);
  }
}

TEST(SkewBoundTest, UpperBoundDominatesBruteForce) {
  for (uint64_t seed = 320; seed < 330; ++seed) {
    auto bounds = RandomIntervals(10, seed);
    double brute = BruteForceAbsSkew(bounds);
    SkewBoundResult r = MaxSkewBound(bounds);
    EXPECT_GE(r.g1_upper + 1e-6, brute) << "seed " << seed;
  }
}

TEST(SkewBoundTest, UniversalBoundHolds) {
  auto bounds = RandomIntervals(20, 340);
  SkewBoundResult r = MaxSkewBound(bounds);
  double universal = (20.0 - 2.0) / std::sqrt(19.0);
  EXPECT_LE(r.g1_upper, universal + 1e-9);
}

TEST(SkewBoundTest, OutlierIntervalDrivesSkew) {
  // One interval reaching far above the rest: max skew configuration puts
  // it high and everything else low.
  std::vector<CostInterval> bounds(20, {1.0, 2.0});
  bounds.push_back({1.0, 1000.0});
  SkewBoundResult r = MaxSkewBound(bounds);
  EXPECT_GT(r.g1_estimate, 3.0);
}

TEST(SkewBoundTest, SymmetricPointsHaveZeroSkew) {
  std::vector<CostInterval> bounds = {{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  SkewBoundResult r = MaxSkewBound(bounds);
  EXPECT_NEAR(r.g1_estimate, 0.0, 1e-9);
}

TEST(SkewBoundTest, LeftSkewedIntervalsCovered) {
  // One interval reaching far BELOW the rest: |G1| is maximized on the
  // negative side, which the mirrored search must find.
  std::vector<CostInterval> bounds(20, {1000.0, 1001.0});
  bounds.push_back({1.0, 1000.0});
  SkewBoundResult r = MaxSkewBound(bounds);
  EXPECT_GT(r.g1_estimate, 3.0);
  EXPECT_GE(r.g1_upper, r.g1_estimate);
}

class SkewSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SkewSweep, HeuristicWithinBruteForce) {
  auto bounds = RandomIntervals(GetParam(), 400 + GetParam());
  double brute = BruteForceAbsSkew(bounds);
  SkewBoundResult r = MaxSkewBound(bounds);
  EXPECT_LE(r.g1_estimate, brute + 1e-6);  // estimate is a feasible point
  EXPECT_GE(r.g1_upper + 1e-6, brute);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SkewSweep, ::testing::Values(3, 5, 8, 12));

double UniversalBound(size_t n) {
  return (static_cast<double>(n) - 2.0) / std::sqrt(static_cast<double>(n) - 1.0);
}

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// The two properties tying the halves of MaxSkewBound together: g1_upper is
// exactly max(certified, estimate), and the estimate (a realized vertex)
// never exceeds the certified bound beyond rounding. A failure of the
// second means the certified bound is wrong, not the tolerance.
SkewBoundResult ExpectSkewHalvesAgree(const std::vector<CostInterval>& bounds,
                                      const std::string& what) {
  SkewBoundResult r = MaxSkewBound(bounds);
  const double certified = MaxSkewUpperBound(bounds);
  EXPECT_TRUE(BitEqual(r.g1_upper, std::max(certified, r.g1_estimate)))
      << what << ": g1_upper " << r.g1_upper << " certified " << certified
      << " estimate " << r.g1_estimate;
  EXPECT_LE(r.g1_estimate, certified * (1.0 + 1e-9) + 1e-12)
      << what << ": estimate " << r.g1_estimate << " certified " << certified;
  return r;
}

// Per-query [min, max] over the configurations, stride-subsampled to at
// most 64 intervals the way the budget subsamples a refinement chunk.
std::vector<CostInterval> QueryIntervals(const MatrixInstance& inst) {
  std::vector<CostInterval> out;
  const size_t stride = std::max<size_t>(1, inst.num_queries() / 64);
  for (size_t q = 0; q < inst.num_queries(); q += stride) {
    const auto& row = inst.costs[q];
    out.push_back({*std::min_element(row.begin(), row.end()),
                   *std::max_element(row.begin(), row.end())});
  }
  return out;
}

TEST(SkewBoundTest, ZeroVarianceVertexScoresNoSkew) {
  // Identical intervals: every vertex is a two-point distribution, or has
  // zero variance. The latter used to leave long-double residue in m2 and
  // score G1 ~ 1e10, far above the universal bound.
  for (size_t n = 3; n <= 130; ++n) {
    std::vector<CostInterval> bounds(n, {296.77, 389.21});
    SkewBoundResult r =
        ExpectSkewHalvesAgree(bounds, "all-equal n=" + std::to_string(n));
    EXPECT_LE(r.g1_estimate, UniversalBound(n) * (1.0 + 1e-9)) << "n " << n;
  }
}

TEST(SkewBoundTest, ZeroVarianceStrataInstance) {
  const MatrixInstance inst = GenerateMatrixInstance(0x5eed0045ull);
  ASSERT_EQ(inst.shape, MatrixShape::kZeroVarianceStrata);
  ExpectSkewHalvesAgree(QueryIntervals(inst), inst.Describe());
}

TEST(SkewBoundTest, HalvesAgreeOverGeneratorShapes) {
  std::set<MatrixShape> seen;
  for (uint64_t i = 0; i < 300; ++i) {
    const MatrixInstance inst = GenerateMatrixInstance(0x5EED0000ull + i);
    seen.insert(inst.shape);
    ExpectSkewHalvesAgree(QueryIntervals(inst), inst.Describe());
  }
  EXPECT_EQ(seen.size(), 7u) << "a MatrixShape went uncovered";
}

// The all-equal family is covered by ZeroVarianceVertexScoresNoSkew.
TEST(SkewBoundTest, HalvesAgreeOnPointOutlier) {
  for (size_t n = 3; n <= 130; ++n) {
    std::vector<CostInterval> bounds(n, {10.0, 10.0});
    bounds.back() = {5000.0, 5000.0};
    ExpectSkewHalvesAgree(bounds, "point-outlier n=" + std::to_string(n));
  }
}

TEST(SkewBoundTest, HalvesAgreeOnIntervalOutlier) {
  for (size_t n = 3; n <= 130; ++n) {
    std::vector<CostInterval> bounds(n, {1.0, 2.0});
    bounds.back() = {1.0, 1000.0};
    ExpectSkewHalvesAgree(bounds, "interval-outlier n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace pdx
