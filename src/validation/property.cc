#include "validation/property.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>

#include "common/macros.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "common/string_util.h"
#include "core/cost_source.h"
#include "core/estimators.h"
#include "core/fault.h"
#include "core/fixed_budget.h"
#include "core/pr_cs.h"
#include "core/selector.h"
#include "core/stratification.h"

namespace pdx {

namespace {

uint64_t EnvUint64(const char* name, uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  char* end = nullptr;
  unsigned long long v = std::strtoull(raw, &end, 0);
  PDX_CHECK_MSG(end != raw && *end == '\0',
                "malformed PDX_PROPERTY_* environment value");
  return static_cast<uint64_t>(v);
}

}  // namespace

PropertyOptions PropertyOptionsFromEnv(PropertyOptions defaults) {
  PropertyOptions opts = defaults;
  opts.seed_base = EnvUint64("PDX_PROPERTY_SEED", defaults.seed_base);
  opts.iterations = EnvUint64("PDX_PROPERTY_ITERS", defaults.iterations);
  PDX_CHECK_MSG(opts.iterations > 0, "PDX_PROPERTY_ITERS must be positive");
  return opts;
}

const char* MatrixShapeName(MatrixShape shape) {
  switch (shape) {
    case MatrixShape::kUniform:
      return "uniform";
    case MatrixShape::kNearTied:
      return "near_tied";
    case MatrixShape::kHeavyTail:
      return "heavy_tail";
    case MatrixShape::kZeroVarianceStrata:
      return "zero_variance_strata";
    case MatrixShape::kSingleQuery:
      return "single_query";
    case MatrixShape::kSparseAdvantage:
      return "sparse_advantage";
    case MatrixShape::kZipfPopularity:
      return "zipf_popularity";
  }
  return "unknown";
}

double MatrixInstance::TotalCost(size_t c) const {
  PDX_CHECK(c < num_configs);
  double total = 0.0;
  for (const auto& row : costs) total += row[c];
  return total;
}

std::string MatrixInstance::Describe() const {
  return StringFormat("seed=0x%llx shape=%s queries=%zu configs=%zu templates=%zu",
                      (unsigned long long)seed, MatrixShapeName(shape),
                      num_queries(), num_configs, num_templates);
}

MatrixInstance GenerateMatrixInstance(uint64_t seed) {
  Rng rng(seed);
  MatrixInstance inst;
  inst.seed = seed;
  inst.shape = static_cast<MatrixShape>(rng.NextBounded(7));

  size_t q = 0;
  switch (inst.shape) {
    case MatrixShape::kSingleQuery:
      q = 1;
      break;
    case MatrixShape::kSparseAdvantage:
    case MatrixShape::kZipfPopularity:
      q = static_cast<size_t>(rng.NextInt(20, 60));
      break;
    default:
      q = static_cast<size_t>(rng.NextInt(1, 60));
      break;
  }
  inst.num_configs = static_cast<size_t>(rng.NextInt(2, 6));
  inst.num_templates =
      std::min<size_t>(q, static_cast<size_t>(rng.NextInt(1, 8)));

  inst.templates.resize(q);
  // Ensure every template id < num_templates appears at least once where
  // the population allows it, then fill the rest randomly — uniformly, or
  // Zipf-weighted for the heavy-popularity shape (stratum sizes then span
  // orders of magnitude, the regime Algorithm 2's allocation must survive).
  std::optional<ZipfDistribution> popularity;
  if (inst.shape == MatrixShape::kZipfPopularity) {
    popularity.emplace(inst.num_templates, rng.NextDouble(0.8, 1.2));
  }
  for (size_t i = 0; i < q; ++i) {
    inst.templates[i] =
        i < inst.num_templates
            ? static_cast<TemplateId>(i)
            : static_cast<TemplateId>(
                  popularity ? popularity->Sample(&rng)
                             : rng.NextBounded(inst.num_templates));
  }
  rng.Shuffle(&inst.templates);

  // Per-template base scale; per-config multiplicative factor.
  std::vector<double> template_scale(inst.num_templates);
  for (auto& s : template_scale) s = rng.NextDouble(20.0, 400.0);
  std::vector<double> config_factor(inst.num_configs);
  for (auto& f : config_factor) f = rng.NextDouble(0.8, 1.3);

  inst.costs.assign(q, std::vector<double>(inst.num_configs, 0.0));
  switch (inst.shape) {
    case MatrixShape::kUniform:
    case MatrixShape::kSingleQuery: {
      for (size_t i = 0; i < q; ++i) {
        const double base =
            template_scale[inst.templates[i]] * rng.NextDouble(0.5, 1.5);
        for (size_t c = 0; c < inst.num_configs; ++c) {
          inst.costs[i][c] = base * config_factor[c];
        }
      }
      break;
    }
    case MatrixShape::kNearTied: {
      // All configuration totals within ~0.1%: common per-query base, a
      // tiny per-config tilt, and per-cell noise far below the tilt.
      for (size_t c = 0; c < inst.num_configs; ++c) {
        config_factor[c] = 1.0 + 1e-3 * rng.NextDouble();
      }
      for (size_t i = 0; i < q; ++i) {
        const double base =
            template_scale[inst.templates[i]] * rng.NextDouble(0.5, 1.5);
        for (size_t c = 0; c < inst.num_configs; ++c) {
          inst.costs[i][c] =
              base * config_factor[c] * (1.0 + 1e-5 * rng.NextDouble());
        }
      }
      break;
    }
    case MatrixShape::kHeavyTail: {
      for (size_t i = 0; i < q; ++i) {
        const double base = template_scale[inst.templates[i]] *
                            rng.NextLogNormal(0.0, 2.0);
        for (size_t c = 0; c < inst.num_configs; ++c) {
          inst.costs[i][c] = base * config_factor[c];
        }
      }
      break;
    }
    case MatrixShape::kZeroVarianceStrata: {
      // Every query of a template costs exactly the same in a given
      // configuration — within-template sample variance is identically 0.
      for (size_t i = 0; i < q; ++i) {
        for (size_t c = 0; c < inst.num_configs; ++c) {
          inst.costs[i][c] =
              template_scale[inst.templates[i]] * config_factor[c];
        }
      }
      break;
    }
    case MatrixShape::kSparseAdvantage: {
      // Configuration 0 wins, but its entire advantage hides in the
      // queries of one template (rare when num_templates is large).
      const TemplateId magic =
          static_cast<TemplateId>(rng.NextBounded(inst.num_templates));
      for (size_t i = 0; i < q; ++i) {
        const double base =
            template_scale[inst.templates[i]] * rng.NextDouble(0.9, 1.1);
        for (size_t c = 0; c < inst.num_configs; ++c) {
          inst.costs[i][c] = base;
        }
        if (inst.templates[i] == magic) inst.costs[i][0] *= 0.2;
      }
      break;
    }
    case MatrixShape::kZipfPopularity: {
      // Costs are benign (kUniform-like); the stress is the stratum-size
      // skew in the template map above.
      for (size_t i = 0; i < q; ++i) {
        const double base =
            template_scale[inst.templates[i]] * rng.NextDouble(0.5, 1.5);
        for (size_t c = 0; c < inst.num_configs; ++c) {
          inst.costs[i][c] = base * config_factor[c];
        }
      }
      break;
    }
  }
  for (auto& row : inst.costs) {
    for (double& v : row) {
      PDX_CHECK(std::isfinite(v));
      if (v <= 0.0) v = 1e-9;
    }
  }
  return inst;
}

namespace {

MatrixCostSource SourceOf(const MatrixInstance& inst) {
  return MatrixCostSource(inst.costs, inst.templates, inst.num_configs);
}

size_t ArgMinTotal(const MatrixInstance& inst) {
  size_t best = 0;
  double best_total = inst.TotalCost(0);
  for (size_t c = 1; c < inst.num_configs; ++c) {
    const double t = inst.TotalCost(c);
    if (t < best_total) {
      best_total = t;
      best = c;
    }
  }
  return best;
}

SelectorOptions DefaultSelectorOptions(const MatrixInstance& inst) {
  SelectorOptions opts;
  opts.alpha = 0.9;
  // Relative sensitivity keeps near-tied shapes from sampling forever.
  opts.delta = 0.02 * inst.TotalCost(ArgMinTotal(inst));
  opts.n_min = 5;
  opts.stratify = true;
  return opts;
}

bool SameResult(const SelectionResult& a, const SelectionResult& b,
                std::string* why) {
  if (a.best != b.best) {
    *why = StringFormat("best %llu vs %llu", (unsigned long long)a.best,
                        (unsigned long long)b.best);
    return false;
  }
  if (a.pr_cs != b.pr_cs) {
    *why = StringFormat("pr_cs %.17g vs %.17g", a.pr_cs, b.pr_cs);
    return false;
  }
  if (a.queries_sampled != b.queries_sampled ||
      a.optimizer_calls != b.optimizer_calls || a.rounds != b.rounds ||
      a.reached_target != b.reached_target ||
      a.active_configs != b.active_configs) {
    *why = "run-shape fields differ";
    return false;
  }
  if (a.estimates.size() != b.estimates.size()) {
    *why = "estimate vector sizes differ";
    return false;
  }
  for (size_t i = 0; i < a.estimates.size(); ++i) {
    // Bitwise comparison (NaN-safe): determinism means identical bits.
    if (std::memcmp(&a.estimates[i], &b.estimates[i], sizeof(double)) != 0) {
      *why = StringFormat("estimates[%zu] %.17g vs %.17g", i, a.estimates[i],
                          b.estimates[i]);
      return false;
    }
  }
  return true;
}

// --- Individual properties -------------------------------------------------

std::string CheckCensusEstimateExact(const MatrixInstance& inst) {
  MatrixCostSource source = SourceOf(inst);
  FixedBudgetOptions opts;
  opts.scheme = SamplingScheme::kDelta;
  opts.n_min = 5;
  Rng rng(inst.seed ^ 0xCE45);
  FixedBudgetResult res =
      FixedBudgetSelect(&source, inst.num_queries(), opts, &rng);
  for (size_t c = 0; c < inst.num_configs; ++c) {
    const double exact = inst.TotalCost(c);
    const double tol = 1e-9 * std::max(1.0, std::fabs(exact));
    if (std::fabs(res.estimates[c] - exact) > tol) {
      return StringFormat(
          "census estimate of config %zu is %.17g, exact total %.17g", c,
          res.estimates[c], exact);
    }
  }
  return "";
}

std::string CheckIndependentCensusUnbiased(const MatrixInstance& inst) {
  const std::vector<uint64_t> pops = [&] {
    std::vector<uint64_t> p(inst.num_templates, 0);
    for (TemplateId t : inst.templates) ++p[t];
    return p;
  }();
  IndependentEstimator est(inst.num_configs, inst.num_templates, pops);
  for (size_t q = 0; q < inst.num_queries(); ++q) {
    for (size_t c = 0; c < inst.num_configs; ++c) {
      est.Add(c, inst.templates[q], inst.costs[q][c]);
    }
  }
  Stratification strat(pops);
  for (size_t c = 0; c < inst.num_configs; ++c) {
    const double exact = inst.TotalCost(c);
    const double got = est.Estimate(c, strat);
    const double tol = 1e-9 * std::max(1.0, std::fabs(exact));
    if (std::fabs(got - exact) > tol) {
      return StringFormat("census IS estimate of config %zu is %.17g vs %.17g",
                          c, got, exact);
    }
    const double var = est.Variance(c, strat);
    if (!(var <= tol)) {
      return StringFormat("census IS variance of config %zu is %.17g, not 0",
                          c, var);
    }
  }
  return "";
}

std::string CheckVarianceNonNegative(const MatrixInstance& inst) {
  const std::vector<uint64_t> pops = [&] {
    std::vector<uint64_t> p(inst.num_templates, 0);
    for (TemplateId t : inst.templates) ++p[t];
    return p;
  }();
  Rng rng(inst.seed ^ 0x7A3);
  IndependentEstimator ind(inst.num_configs, inst.num_templates, pops);
  DeltaEstimator del(inst.num_configs, inst.num_templates, pops);
  // Random partial sample (possibly empty, possibly full).
  const size_t n = static_cast<size_t>(rng.NextBounded(inst.num_queries() + 1));
  const std::vector<uint32_t> picks =
      rng.SampleWithoutReplacement(inst.num_queries(), n);
  for (uint32_t q : picks) {
    std::vector<double> row = inst.costs[q];
    del.Add(q, inst.templates[q], row);
    for (size_t c = 0; c < inst.num_configs; ++c) {
      ind.Add(c, inst.templates[q], inst.costs[q][c]);
    }
  }
  Stratification strat(pops);
  for (size_t c = 0; c < inst.num_configs; ++c) {
    const double vi = ind.Variance(c, strat);
    if (std::isnan(vi) || vi < 0.0) {
      return StringFormat("IS variance of config %zu is %.17g after %zu samples",
                          c, vi, n);
    }
    const double vd = del.DiffVariance(c, strat);
    if (std::isnan(vd) || vd < 0.0) {
      return StringFormat(
          "Delta diff variance of config %zu is %.17g after %zu samples", c,
          vd, n);
    }
  }
  return "";
}

std::string CheckSelectorReachesAlpha(const MatrixInstance& inst) {
  MatrixCostSource source = SourceOf(inst);
  SelectorOptions opts = DefaultSelectorOptions(inst);
  ConfigurationSelector selector(&source, opts);
  Rng rng(inst.seed ^ 0xA1FA);
  SelectionResult res = selector.Run(&rng);
  if (res.best >= inst.num_configs) {
    return StringFormat("best config id %llu out of range",
                        (unsigned long long)res.best);
  }
  if (res.reached_target && !(res.pr_cs >= opts.alpha)) {
    return StringFormat("reached_target with pr_cs=%.17g < alpha=%.17g",
                        res.pr_cs, opts.alpha);
  }
  if (!(res.pr_cs >= 0.0 && res.pr_cs <= 1.0)) {
    return StringFormat("pr_cs=%.17g outside [0, 1]", res.pr_cs);
  }
  return "";
}

std::string CheckWinnerNeverEliminated(const MatrixInstance& inst) {
  MatrixCostSource source = SourceOf(inst);
  SelectorOptions opts = DefaultSelectorOptions(inst);
  ConfigurationSelector selector(&source, opts);
  Rng rng(inst.seed ^ 0xE1);
  SelectionResult res = selector.Run(&rng);
  if (res.eliminated_at.size() != inst.num_configs) {
    return "eliminated_at size mismatch";
  }
  if (res.eliminated_at[res.best] != 0) {
    return StringFormat("winner %llu carries elimination round %u",
                        (unsigned long long)res.best,
                        res.eliminated_at[res.best]);
  }
  if (res.active_configs < 1 || res.active_configs > inst.num_configs) {
    return StringFormat("active_configs=%u out of range", res.active_configs);
  }
  return "";
}

std::string CheckSelectorDeterministic(const MatrixInstance& inst) {
  SelectorOptions opts = DefaultSelectorOptions(inst);
  MatrixCostSource s1 = SourceOf(inst);
  MatrixCostSource s2 = SourceOf(inst);
  Rng r1(inst.seed ^ 0xD0);
  Rng r2(inst.seed ^ 0xD0);
  SelectionResult a = ConfigurationSelector(&s1, opts).Run(&r1);
  SelectionResult b = ConfigurationSelector(&s2, opts).Run(&r2);
  std::string why;
  if (!SameResult(a, b, &why)) return "re-run differs: " + why;
  return "";
}

std::string CheckCacheTierIdentity(const MatrixInstance& inst) {
  SelectorOptions opts = DefaultSelectorOptions(inst);
  MatrixCostSource raw = SourceOf(inst);
  MatrixCostSource inner = SourceOf(inst);
  CachingCostSource cached(&inner);
  Rng r1(inst.seed ^ 0xCAC);
  Rng r2(inst.seed ^ 0xCAC);
  SelectionResult a = ConfigurationSelector(&raw, opts).Run(&r1);
  SelectionResult b = ConfigurationSelector(&cached, opts).Run(&r2);
  std::string why;
  if (a.best != b.best || a.pr_cs != b.pr_cs ||
      a.queries_sampled != b.queries_sampled) {
    SameResult(a, b, &why);
    return "exact-cache tier diverges from uncached run: " + why;
  }
  for (size_t i = 0; i < a.estimates.size(); ++i) {
    if (std::memcmp(&a.estimates[i], &b.estimates[i], sizeof(double)) != 0) {
      return StringFormat("exact-cache estimates[%zu] differ bitwise", i);
    }
  }
  return "";
}

std::string CheckFaultFreeExecIdentity(const MatrixInstance& inst) {
  SelectorOptions base = DefaultSelectorOptions(inst);
  MatrixCostSource s1 = SourceOf(inst);
  MatrixCostSource s2 = SourceOf(inst);
  SelectorOptions with_exec = base;
  with_exec.exec.enabled = true;
  with_exec.exec.seed = inst.seed;
  Rng r1(inst.seed ^ 0xFA);
  Rng r2(inst.seed ^ 0xFA);
  SelectionResult a = ConfigurationSelector(&s1, base).Run(&r1);
  SelectionResult b = ConfigurationSelector(&s2, with_exec).Run(&r2);
  std::string why;
  if (!SameResult(a, b, &why)) {
    return "fault-free execution layer perturbs the run: " + why;
  }
  if (b.whatif_retries != 0 || b.whatif_failures != 0 ||
      b.whatif_timeouts != 0 || b.degraded_cells != 0) {
    return "fault-free execution layer reports nonzero fault counters";
  }
  return "";
}

/// Interval provider from the matrix's per-query min/max across configs —
/// guaranteed to contain every cell of the row.
class RowBoundsProvider : public CellBoundsProvider {
 public:
  explicit RowBoundsProvider(const MatrixInstance* inst) : inst_(inst) {}

  CostInterval BoundsFor(QueryId q, ConfigId /*c*/) override {
    const auto& row = inst_->costs[q];
    CostInterval iv;
    iv.low = *std::min_element(row.begin(), row.end());
    iv.high = *std::max_element(row.begin(), row.end());
    return iv;
  }

 private:
  const MatrixInstance* inst_;
};

std::string CheckFaultDegradationSane(const MatrixInstance& inst) {
  MatrixCostSource matrix = SourceOf(inst);
  FaultSpec spec;
  spec.p_fail = 0.3;
  spec.seed = inst.seed ^ 0xBAD;
  FaultInjectingCostSource faulty(&matrix, spec);
  RowBoundsProvider bounds(&inst);
  SelectorOptions opts = DefaultSelectorOptions(inst);
  opts.exec.enabled = true;
  opts.exec.retry.max_attempts = 2;
  opts.exec.seed = inst.seed;
  opts.bounds = &bounds;
  ConfigurationSelector selector(&faulty, opts);
  Rng rng(inst.seed ^ 0xDE6);
  SelectionResult res = selector.Run(&rng);
  if (res.best >= inst.num_configs) return "best config id out of range";
  if (res.reached_target && !(res.pr_cs >= opts.alpha)) {
    return StringFormat("degraded run claims reached_target with pr_cs=%.17g",
                        res.pr_cs);
  }
  for (double e : res.estimates) {
    if (!std::isfinite(e)) return "non-finite estimate under degradation";
  }
  if (faulty.injected_failures() > 0 && res.whatif_failures == 0) {
    // The injector fired but the run surfaced none of it: the execution
    // layer is silently swallowing failures. (Gating on the injector's own
    // counter, not instance size — a small instance can legitimately stop
    // before any fault fires.)
    return "injector fired yet no failures surfaced in the result";
  }
  return "";
}

std::string CheckBonferroniDominance(const MatrixInstance& inst) {
  Rng rng(inst.seed ^ 0xB0F);
  std::vector<double> pairwise;
  for (size_t c = 1; c < inst.num_configs; ++c) {
    const double gap = inst.TotalCost(c) - inst.TotalCost(0);
    const double se = rng.NextDouble(1e-6, 2.0 * (std::fabs(gap) + 1.0));
    pairwise.push_back(PairwisePrCs(gap, se, 0.0));
  }
  const double bonf = BonferroniPrCs(pairwise);
  if (!(bonf >= 0.0 && bonf <= 1.0)) {
    return StringFormat("Bonferroni bound %.17g outside [0, 1]", bonf);
  }
  double sum_miss = 0.0;
  double min_pair = 1.0;
  for (double p : pairwise) {
    sum_miss += 1.0 - p;
    min_pair = std::min(min_pair, p);
  }
  if (bonf > min_pair + 1e-12) {
    return StringFormat("Bonferroni %.17g exceeds min pairwise %.17g", bonf,
                        min_pair);
  }
  const double exact_lower = std::max(0.0, 1.0 - sum_miss);
  if (std::fabs(bonf - exact_lower) > 1e-12) {
    return StringFormat("Bonferroni %.17g != clamp(1 - sum misses) %.17g",
                        bonf, exact_lower);
  }
  return "";
}

std::string CheckNeymanFeasible(const MatrixInstance& inst) {
  Rng rng(inst.seed ^ 0x4E7);
  const size_t strata = 1 + rng.NextBounded(inst.num_templates);
  std::vector<double> pops(strata), sds(strata), lo(strata);
  double total_pop = 0.0;
  for (size_t h = 0; h < strata; ++h) {
    pops[h] = static_cast<double>(rng.NextInt(1, 50));
    // Some strata get exactly zero variance (the adversarial case that
    // used to leak allocation into pinned strata).
    sds[h] = rng.NextBounded(3) == 0 ? 0.0 : rng.NextDouble(0.1, 10.0);
    lo[h] = std::min(pops[h], static_cast<double>(rng.NextInt(0, 4)));
    total_pop += pops[h];
  }
  const double budget_lo = [&] {
    double s = 0.0;
    for (double v : lo) s += v;
    return s;
  }();
  const double n = rng.NextDouble(budget_lo, total_pop);
  const std::vector<double> alloc = NeymanAllocation(pops, sds, n, lo);
  if (alloc.size() != strata) return "allocation size mismatch";
  double sum = 0.0;
  for (size_t h = 0; h < strata; ++h) {
    if (alloc[h] < lo[h] - 1e-6) {
      return StringFormat("allocation %.17g below lower bound %.17g in stratum %zu",
                          alloc[h], lo[h], h);
    }
    if (alloc[h] > pops[h] + 1e-6) {
      return StringFormat("allocation %.17g exceeds population %.17g in stratum %zu",
                          alloc[h], pops[h], h);
    }
    sum += alloc[h];
  }
  if (sum > std::max(n, budget_lo) + 1e-6) {
    return StringFormat("allocation total %.17g exceeds budget %.17g", sum, n);
  }
  return "";
}

std::string CheckFpcSeDegenerate(const MatrixInstance& inst) {
  Rng rng(inst.seed ^ 0xF9C);
  const double s2 = rng.NextDouble(0.0, 100.0);
  const uint64_t N = 1 + rng.NextBounded(1000);
  // Census: exactly zero.
  if (FpcStandardError(s2, N, N) != 0.0) return "census SE is not exactly 0";
  // n < 2 with population left: +inf (no variance information).
  if (N >= 2 && !std::isinf(FpcStandardError(s2, 1, N))) {
    return "n=1 SE is not +inf";
  }
  // Interior: matches the closed form and the stratum term is its square.
  if (N >= 3) {
    const uint64_t n = 2 + rng.NextBounded(N - 2);
    const double se = FpcStandardError(s2, n, N);
    const double analytic =
        static_cast<double>(N) *
        std::sqrt(s2 / static_cast<double>(n) *
                  (1.0 - static_cast<double>(n) / static_cast<double>(N)));
    if (std::fabs(se - analytic) > 1e-9 * std::max(1.0, analytic)) {
      return StringFormat("SE %.17g != analytic %.17g (n=%llu N=%llu)", se,
                          analytic, (unsigned long long)n,
                          (unsigned long long)N);
    }
    const double term = StratumVarianceTerm(s2, n, N);
    if (std::fabs(term - se * se) > 1e-6 * std::max(1.0, se * se)) {
      return StringFormat("stratum term %.17g != SE^2 %.17g", term, se * se);
    }
  }
  return "";
}

std::string CheckSplitPreservesPartition(const MatrixInstance& inst) {
  std::vector<uint64_t> pops(inst.num_templates, 0);
  for (TemplateId t : inst.templates) ++pops[t];
  Stratification strat(pops);
  Rng rng(inst.seed ^ 0x591);
  // Apply a few random valid splits.
  for (int step = 0; step < 4; ++step) {
    const uint32_t h = static_cast<uint32_t>(rng.NextBounded(strat.num_strata()));
    const std::vector<TemplateId>& members = strat.TemplatesOf(h);
    if (members.size() < 2) continue;
    const size_t take = 1 + rng.NextBounded(members.size() - 1);
    std::vector<TemplateId> part1(members.begin(), members.begin() + take);
    strat.Split(h, part1);
  }
  // Every non-empty template lives in exactly one stratum and populations
  // are preserved.
  uint64_t covered = 0;
  for (uint32_t h = 0; h < strat.num_strata(); ++h) {
    for (TemplateId t : strat.TemplatesOf(h)) {
      if (strat.StratumOf(t) != h) {
        return StringFormat("template %u maps to stratum %u but lives in %u",
                            t, strat.StratumOf(t), h);
      }
      covered += pops[t];
    }
    if (strat.PopulationOf(h) == 0) return "empty stratum after splits";
  }
  if (covered != strat.total_population()) {
    return StringFormat("covered population %llu != total %llu",
                        (unsigned long long)covered,
                        (unsigned long long)strat.total_population());
  }
  return "";
}

std::string CheckIndependentMatchesDeltaAtCensus(const MatrixInstance& inst) {
  // At census both schemes' estimates collapse to the exact totals, so
  // they must agree with each other bit-for-near (both are sums of the
  // same cells, possibly in different order — tolerance, not bitwise).
  const std::vector<uint64_t> pops = [&] {
    std::vector<uint64_t> p(inst.num_templates, 0);
    for (TemplateId t : inst.templates) ++p[t];
    return p;
  }();
  IndependentEstimator ind(inst.num_configs, inst.num_templates, pops);
  DeltaEstimator del(inst.num_configs, inst.num_templates, pops);
  for (size_t q = 0; q < inst.num_queries(); ++q) {
    del.Add(q, inst.templates[q], inst.costs[q]);
    for (size_t c = 0; c < inst.num_configs; ++c) {
      ind.Add(c, inst.templates[q], inst.costs[q][c]);
    }
  }
  Stratification strat(pops);
  for (size_t c = 0; c < inst.num_configs; ++c) {
    const double a = ind.Estimate(c, strat);
    const double b = del.Estimate(c, strat);
    const double tol = 1e-9 * std::max(1.0, std::fabs(a));
    if (std::fabs(a - b) > tol) {
      return StringFormat("census IS estimate %.17g != Delta estimate %.17g",
                          a, b);
    }
  }
  return "";
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The per-round reuse paths of the Delta selector against their oracles,
// over a random Add stream: the §5.2 reduction read from DiffStats' stratum
// rows against the scalar re-merge for every stratum, and the
// incrementally maintained averaged template stats against a fresh
// estimator fed the same samples. The stream mixes NaN cells of
// eliminated configurations, degraded (uncertain) samples, reference
// switches, active-mask changes and splits.
std::string CheckRoundReuseMatchesOracles(const MatrixInstance& inst,
                                          const std::vector<uint64_t>& pops) {
  const size_t k = inst.num_configs;
  const size_t nq = inst.num_queries();
  Rng rng(inst.seed ^ 0x5EEB5);
  DeltaEstimator est(k, inst.num_templates, pops);
  Stratification strat(pops);
  EstimatorScratch scratch;
  std::vector<double> diffs(k, 0.0), vars(k, 0.0);
  std::vector<bool> eliminated(k, false);
  std::vector<bool> active(k, true);
  // The stream so far, for the fresh-estimator replay: flat k-wide cost
  // and uncertainty rows, and which samples arrived degraded.
  std::vector<double> costs_log, uncerts_log;
  std::vector<bool> uncertain_log;
  std::vector<double> costs(k, 0.0), uncerts(k, 0.0);
  for (QueryId q = 0; q < nq; ++q) {
    // Eliminate a non-reference configuration now and then: its cells are
    // NaN from here on, and it can never become the reference again.
    if (rng.NextBounded(6) == 0) {
      const ConfigId c = static_cast<ConfigId>(rng.NextBounded(k));
      if (c != est.reference()) eliminated[c] = true;
    }
    const bool uncertain = rng.NextBounded(4) == 0;
    for (ConfigId c = 0; c < k; ++c) {
      costs[c] = eliminated[c] ? std::numeric_limits<double>::quiet_NaN()
                               : inst.costs[q][c];
      uncerts[c] = uncertain && !eliminated[c] && rng.NextBounded(2) == 0
                       ? 0.02 * inst.costs[q][c]
                       : 0.0;
    }
    est.Add(q, inst.templates[q], costs,
            uncertain ? std::span<const double>(uncerts)
                      : std::span<const double>());
    costs_log.insert(costs_log.end(), costs.begin(), costs.end());
    uncerts_log.insert(uncerts_log.end(), uncerts.begin(), uncerts.end());
    uncertain_log.push_back(uncertain);
    if (est.RowsCurrent(strat, scratch)) return "stratum rows survived an Add";

    switch (rng.NextBounded(4)) {
      case 0: {  // reference switch among the live configurations
        const ConfigId c = static_cast<ConfigId>(rng.NextBounded(k));
        if (!eliminated[c] && c != est.reference()) {
          est.DiffStats(strat, &scratch, diffs, vars);
          est.SetReference(c);
          if (est.RowsCurrent(strat, scratch)) {
            return "stratum rows survived a reference switch";
          }
        }
        break;
      }
      case 1: {  // active-mask change (rows do not depend on the mask)
        const ConfigId c = static_cast<ConfigId>(rng.NextBounded(k));
        active[c] = !active[c];
        break;
      }
      case 2: {  // split a random stratum
        const uint32_t h =
            static_cast<uint32_t>(rng.NextBounded(strat.num_strata()));
        const std::vector<TemplateId>& members = strat.TemplatesOf(h);
        if (members.size() < 2) break;
        est.DiffStats(strat, &scratch, diffs, vars);
        strat.Split(h, std::vector<TemplateId>(
                           members.begin(),
                           members.begin() + 1 +
                               rng.NextBounded(members.size() - 1)));
        if (est.RowsCurrent(strat, scratch)) {
          return "stratum rows survived a split";
        }
        break;
      }
      default:
        break;
    }
    if (rng.NextBounded(3) != 0 && q + 1 < nq) continue;

    est.DiffStats(strat, &scratch, diffs, vars);
    for (uint32_t h = 0; h < strat.num_strata(); ++h) {
      const double rows = est.VarianceReductionFromRows(scratch, strat, h,
                                                        active);
      const double scalar = est.VarianceReductionForNext(strat, h, active);
      if (!SameBits(rows, scalar)) {
        return StringFormat(
            "row reduction %.17g != scalar %.17g (stratum %u, %u samples)",
            rows, scalar, h, q + 1);
      }
    }
    const std::vector<TemplateStats>& kept =
        est.AveragedDiffTemplateStats(active);
    DeltaEstimator fresh(k, inst.num_templates, pops);
    fresh.SetReference(est.reference());
    for (QueryId i = 0; i <= q; ++i) {
      fresh.Add(i, inst.templates[i],
                std::span<const double>(costs_log.data() + i * k, k),
                uncertain_log[i]
                    ? std::span<const double>(uncerts_log.data() + i * k, k)
                    : std::span<const double>());
    }
    const std::vector<TemplateStats>& full =
        fresh.AveragedDiffTemplateStats(active);
    for (TemplateId t = 0; t < inst.num_templates; ++t) {
      if (kept[t].population != full[t].population ||
          kept[t].observations != full[t].observations ||
          !SameBits(kept[t].mean, full[t].mean) ||
          !SameBits(kept[t].variance, full[t].variance)) {
        return StringFormat(
            "maintained template stats differ from a full recompute "
            "(template %u, %u samples)",
            t, q + 1);
      }
    }
  }
  return "";
}

std::string CheckBatchedMatchesScalarBitwise(const MatrixInstance& inst) {
  // The batched cost API (CostMany / CostAcross) and the batched estimator
  // kernels (Estimates / DiffStats) must be BIT-identical to their scalar
  // counterparts on every generator shape — batching is a layout/dispatch
  // optimization and may not move a single ulp. So must the per-round
  // reuse of the kernels' results (CheckRoundReuseMatchesOracles).
  std::vector<uint64_t> pops(inst.num_templates, 0);
  for (TemplateId t : inst.templates) ++pops[t];
  MatrixCostSource src(inst.costs, inst.templates,
                       inst.num_configs);
  const size_t k = inst.num_configs;
  const size_t nq = inst.num_queries();

  std::vector<QueryId> qids(nq);
  for (size_t q = 0; q < nq; ++q) qids[q] = static_cast<QueryId>(q);
  std::vector<ConfigId> cids(k);
  for (size_t c = 0; c < k; ++c) cids[c] = static_cast<ConfigId>(c);
  std::vector<double> buf(std::max(nq, k));

  for (ConfigId c = 0; c < k; ++c) {
    std::span<double> out(buf.data(), nq);
    src.CostMany(qids, c, out);
    for (size_t q = 0; q < nq; ++q) {
      if (!SameBits(out[q], src.Cost(static_cast<QueryId>(q), c))) {
        return StringFormat("CostMany(q=%zu, c=%u) differs from Cost", q, c);
      }
    }
  }
  for (QueryId q = 0; q < nq; ++q) {
    std::span<double> out(buf.data(), k);
    src.CostAcross(q, cids, out);
    for (size_t c = 0; c < k; ++c) {
      if (!SameBits(out[c], src.Cost(q, static_cast<ConfigId>(c)))) {
        return StringFormat("CostAcross(q=%u, c=%zu) differs from Cost", q, c);
      }
    }
  }

  // Estimator kernels: feed a random sample prefix, apply a random valid
  // stratification split and reference, then compare batched vs scalar.
  Rng rng(inst.seed ^ 0xBA7C4);
  DeltaEstimator est(k, inst.num_templates, pops);
  Stratification strat(pops);
  const size_t take = 1 + rng.NextBounded(nq);
  for (size_t q = 0; q < take; ++q) {
    est.Add(static_cast<QueryId>(q), inst.templates[q], inst.costs[q]);
  }
  for (int step = 0; step < 2; ++step) {
    const uint32_t h =
        static_cast<uint32_t>(rng.NextBounded(strat.num_strata()));
    const std::vector<TemplateId>& members = strat.TemplatesOf(h);
    if (members.size() < 2) continue;
    const size_t split_take = 1 + rng.NextBounded(members.size() - 1);
    strat.Split(h, std::vector<TemplateId>(members.begin(),
                                           members.begin() + split_take));
  }
  est.SetReference(static_cast<ConfigId>(rng.NextBounded(k)));

  EstimatorScratch scratch;
  std::vector<double> estimates(k, 0.0), diffs(k, 0.0), vars(k, 0.0);
  est.Estimates(strat, &scratch, estimates);
  est.DiffStats(strat, &scratch, diffs, vars);
  for (ConfigId c = 0; c < k; ++c) {
    if (!SameBits(estimates[c], est.Estimate(c, strat))) {
      return StringFormat("Estimates[%u] differs from Estimate", c);
    }
    if (!SameBits(diffs[c], est.DiffEstimate(c, strat))) {
      return StringFormat("DiffStats diff[%u] differs from DiffEstimate", c);
    }
    if (!SameBits(vars[c], est.DiffVariance(c, strat))) {
      return StringFormat("DiffStats var[%u] differs from DiffVariance", c);
    }
  }
  return CheckRoundReuseMatchesOracles(inst, pops);
}

std::string CheckDominanceEliminationSound(const MatrixInstance& inst) {
  // Dynamic budget reallocation (core/budget.h) may eliminate a
  // configuration only by interval dominance — UB(other) < LB(it) over the
  // full workload envelope — which is a certainty about the exact totals,
  // not a probabilistic claim. Cross-check against the ground-truth matrix:
  // an eliminated configuration must never be (or tie) the exact argmin,
  // the winner must never carry the mark, and the dynamic run's winner must
  // be the static run's winner or the exact argmin (eliminations can only
  // shift which *statistical* pick survives, never eliminate the truth).
  RowBoundsProvider bounds(&inst);
  SelectorOptions dyn = DefaultSelectorOptions(inst);
  dyn.budget_policy = BudgetPolicy::kDynamic;
  dyn.bounds = &bounds;
  MatrixCostSource s1 = SourceOf(inst);
  Rng r1(inst.seed ^ 0xD0B0);
  SelectionResult res = ConfigurationSelector(&s1, dyn).Run(&r1);

  const size_t truth = ArgMinTotal(inst);
  const double min_total = inst.TotalCost(truth);
  if (res.dominance_eliminated.size() != inst.num_configs &&
      !res.dominance_eliminated.empty()) {
    return "dominance_eliminated mask size mismatch";
  }
  if (!res.dominance_eliminated.empty()) {
    if (res.dominance_eliminated[res.best]) {
      return "winner carries a dominance elimination";
    }
    for (size_t c = 0; c < inst.num_configs; ++c) {
      if (!res.dominance_eliminated[c]) continue;
      if (inst.TotalCost(c) <= min_total) {
        return StringFormat(
            "config %zu dominance-eliminated but its exact total %.17g <= "
            "minimum total %.17g",
            c, inst.TotalCost(c), min_total);
      }
    }
  }

  MatrixCostSource s2 = SourceOf(inst);
  SelectorOptions stat = DefaultSelectorOptions(inst);
  Rng r2(inst.seed ^ 0xD0B0);
  SelectionResult base = ConfigurationSelector(&s2, stat).Run(&r2);
  if (res.best != base.best && res.best != truth) {
    return StringFormat(
        "dynamic best %llu is neither the static best %llu nor the exact "
        "argmin %zu",
        (unsigned long long)res.best, (unsigned long long)base.best, truth);
  }
  return "";
}

}  // namespace

const std::vector<PropertyDef>& BuiltinMatrixProperties() {
  static const std::vector<PropertyDef>* defs = new std::vector<PropertyDef>{
      {"census_estimate_exact", CheckCensusEstimateExact},
      {"independent_census_unbiased", CheckIndependentCensusUnbiased},
      {"variance_nonnegative", CheckVarianceNonNegative},
      {"selector_reaches_alpha", CheckSelectorReachesAlpha},
      {"winner_never_eliminated", CheckWinnerNeverEliminated},
      {"selector_deterministic", CheckSelectorDeterministic},
      {"cache_tier_identity", CheckCacheTierIdentity},
      {"fault_free_exec_identity", CheckFaultFreeExecIdentity},
      {"fault_degradation_sane", CheckFaultDegradationSane},
      {"bonferroni_dominance", CheckBonferroniDominance},
      {"neyman_allocation_feasible", CheckNeymanFeasible},
      {"fpc_se_degenerate_cases", CheckFpcSeDegenerate},
      {"split_preserves_partition", CheckSplitPreservesPartition},
      {"schemes_agree_at_census", CheckIndependentMatchesDeltaAtCensus},
      {"batched_matches_scalar_bitwise", CheckBatchedMatchesScalarBitwise},
      {"dominance_elimination_sound", CheckDominanceEliminationSound},
  };
  return *defs;
}

MatrixInstance ShrinkMatrixInstance(const MatrixInstance& failing,
                                    const MatrixProperty& check,
                                    std::string* message, uint32_t* steps) {
  MatrixInstance current = failing;
  std::string current_message = check(current);
  PDX_CHECK_MSG(!current_message.empty(),
                "ShrinkMatrixInstance requires a failing instance");
  uint32_t accepted = 0;

  auto try_candidate = [&](MatrixInstance candidate) {
    if (candidate.num_queries() == 0 || candidate.num_configs == 0) {
      return false;
    }
    const std::string msg = check(candidate);
    if (msg.empty()) return false;
    current = std::move(candidate);
    current_message = msg;
    ++accepted;
    return true;
  };

  auto renumber_templates = [](MatrixInstance* inst) {
    // Compact template ids to 0..k-1 preserving order of first appearance.
    std::vector<int64_t> remap(inst->num_templates, -1);
    TemplateId next = 0;
    for (TemplateId& t : inst->templates) {
      if (remap[t] < 0) remap[t] = next++;
      t = static_cast<TemplateId>(remap[t]);
    }
    inst->num_templates = next;
  };

  bool progressed = true;
  while (progressed) {
    progressed = false;

    // 1. Halve the query set (keep the first half).
    if (current.num_queries() > 1) {
      MatrixInstance cand = current;
      const size_t keep = (cand.num_queries() + 1) / 2;
      cand.costs.resize(keep);
      cand.templates.resize(keep);
      renumber_templates(&cand);
      if (try_candidate(std::move(cand))) progressed = true;
    }

    // 2. Drop the last configuration.
    if (current.num_configs > 2) {
      MatrixInstance cand = current;
      --cand.num_configs;
      for (auto& row : cand.costs) row.resize(cand.num_configs);
      if (try_candidate(std::move(cand))) progressed = true;
    }

    // 3. Collapse the template map to a single template.
    if (current.num_templates > 1) {
      MatrixInstance cand = current;
      std::fill(cand.templates.begin(), cand.templates.end(),
                static_cast<TemplateId>(0));
      cand.num_templates = 1;
      if (try_candidate(std::move(cand))) progressed = true;
    }

    // 4. Round costs to integers (at least 1).
    {
      MatrixInstance cand = current;
      bool changed = false;
      for (auto& row : cand.costs) {
        for (double& v : row) {
          const double r = std::max(1.0, std::round(v));
          if (r != v) changed = true;
          v = r;
        }
      }
      if (changed && try_candidate(std::move(cand))) progressed = true;
    }
  }

  if (message != nullptr) *message = current_message;
  if (steps != nullptr) *steps = accepted;
  return current;
}

PropertyRunResult CheckMatrixProperty(const PropertyDef& def,
                                      const PropertyOptions& opts) {
  PropertyRunResult result;
  result.name = def.name;
  result.iterations = opts.iterations;
  for (uint64_t i = 0; i < opts.iterations; ++i) {
    const uint64_t seed = opts.seed_base + i;
    const MatrixInstance inst = GenerateMatrixInstance(seed);
    const std::string msg = def.check(inst);
    if (msg.empty()) continue;
    result.passed = false;
    result.failing_seed = seed;
    std::string shrunk_msg = msg;
    uint32_t steps = 0;
    const MatrixInstance shrunk =
        ShrinkMatrixInstance(inst, def.check, &shrunk_msg, &steps);
    result.message = shrunk_msg;
    result.shrunk_instance = shrunk.Describe();
    result.shrink_steps = steps;
    result.repro = StringFormat(
        "PDX_PROPERTY_SEED=0x%llx PDX_PROPERTY_ITERS=1 ./tests/test_property "
        "--gtest_filter='*%s*'",
        (unsigned long long)seed, def.name.c_str());
    return result;
  }
  return result;
}

std::vector<PropertyRunResult> RunAllMatrixProperties(
    const PropertyOptions& opts) {
  std::vector<PropertyRunResult> results;
  results.reserve(BuiltinMatrixProperties().size());
  for (const PropertyDef& def : BuiltinMatrixProperties()) {
    results.push_back(CheckMatrixProperty(def, opts));
  }
  return results;
}

}  // namespace pdx
