// Selector golden: Algorithm 1 over a matrix of option combinations —
// both sampling schemes x stratification on/off x static budget, dynamic
// budget over stale-cache bounds (dominance fires) and dynamic budget over
// derivation-priced row bounds (refinement halts) — plus fault injection,
// overhead-aware sample choice and a max_samples cap. Each line records
// the run's outcome, its per-configuration arrays (doubles as hex floats,
// so any last-ulp change shows), the execution and budget counters, and
// an FNV-1a hash of the run's JSONL trace. Regenerate with
// PDX_REGEN_SELECTOR_GOLDEN=1 when a behaviour change is intended.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/budget.h"
#include "core/fault.h"
#include "core/selection_trace.h"
#include "core/selector.h"
#include "test_util.h"

namespace pdx {
namespace {

using testing::SyntheticMatrix;

class OverheadMatrix : public MatrixCostSource {
 public:
  explicit OverheadMatrix(MatrixCostSource m) : MatrixCostSource(std::move(m)) {}
  double OptimizeOverhead(QueryId q) const override {
    return 1.0 + 2.0 * static_cast<double>(TemplateOf(q));
  }
};

enum class Budget { kStatic, kStale, kRows };

struct Case {
  SamplingScheme scheme;
  bool stratify;
  Budget budget;
  bool faults = false;
  bool overhead_aware = false;
  uint64_t max_samples = 0;
};

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// FNV-1a over the trace's lines, skipping the timed event kinds (a
// selector run emits none of them itself).
uint64_t TraceHash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t h = 1469598103934665603ull;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ev\":\"span\"") != std::string::npos ||
        line.find("\"ev\":\"whatif_latency\"") != std::string::npos) {
      continue;
    }
    line += '\n';
    for (unsigned char ch : line) {
      h ^= ch;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string RunCase(const Case& cs) {
  // Each scheme races a problem that drives it through splits,
  // eliminations and a binding cap: Delta a 5-configuration 3% gap,
  // Independent (blind to the cross-configuration covariance) a wider
  // 4-configuration gap on a larger workload.
  const bool delta = cs.scheme == SamplingScheme::kDelta;
  OverheadMatrix matrix(delta ? SyntheticMatrix(900, 5, 8, 0.03, 2201)
                              : SyntheticMatrix(3000, 4, 8, 0.05, 93));
  std::vector<std::vector<double>> cols(matrix.num_configs());
  for (ConfigId c = 0; c < matrix.num_configs(); ++c) {
    cols[c] = matrix.Column(c);
  }
  // Stale cache: every cell within +-0.1% of the truth, trusted at 0.2%.
  std::vector<std::vector<double>> stale = cols;
  Rng drift(2202);
  for (std::vector<double>& col : stale) {
    for (double& v : col) v *= 1.0 + (drift.NextDouble() - 0.5) * 0.002;
  }
  StaleCostBoundsProvider stale_bounds(
      matrix.num_queries(), matrix.num_configs(),
      [&](QueryId q, ConfigId c) { return stale[c][q]; }, 0.002);
  MatrixRowBoundsProvider row_bounds(
      matrix.num_queries(), matrix.num_configs(),
      [&](QueryId q, ConfigId c) { return cols[c][q]; });

  SelectorOptions opts;
  opts.alpha = delta ? 0.95 : 0.9;
  opts.scheme = cs.scheme;
  opts.stratify = cs.stratify;
  opts.n_min = 10;
  opts.consecutive_to_stop = 5;
  opts.overhead_aware = cs.overhead_aware;
  opts.max_samples = cs.max_samples;
  opts.bounds = &row_bounds;
  if (cs.budget != Budget::kStatic) {
    opts.budget_policy = BudgetPolicy::kDynamic;
  }
  if (cs.budget == Budget::kStale) {
    opts.bounds = &stale_bounds;
    opts.budget_model = BudgetCostModel::ForLocalBounds();
  }
  CostSource* top = &matrix;
  std::unique_ptr<FaultInjectingCostSource> faults;
  if (cs.faults) {
    FaultSpec spec;
    spec.p_fail = 0.3;
    spec.p_slow = 0.05;
    spec.seed = 2203;
    faults = std::make_unique<FaultInjectingCostSource>(&matrix, spec);
    top = faults.get();
    opts.exec.enabled = true;
    opts.exec.retry.max_attempts = 2;
    opts.exec.seed = 2204;
  }

  // Per process, so concurrent runs from two build trees do not collide.
  const std::string trace_path = ::testing::TempDir() +
                                 "/pdx_selector_golden_" +
                                 std::to_string(getpid()) + ".jsonl";
  SelectionResult r;
  {
    auto sink = JsonlTraceSink::Open(trace_path);
    EXPECT_TRUE(sink.ok());
    if (!sink.ok()) return "";
    opts.trace = sink->get();
    Rng rng(delta ? 2205 : 94);
    r = ConfigurationSelector(top, opts).Run(&rng);
  }
  const uint64_t trace_hash = TraceHash(trace_path);
  std::remove(trace_path.c_str());

  const char* budget_name = cs.budget == Budget::kStatic  ? "static"
                            : cs.budget == Budget::kStale ? "stale"
                                                          : "rows";
  std::string out =
      std::string(cs.scheme == SamplingScheme::kDelta ? "delta" : "indep") +
      " stratify=" + (cs.stratify ? "1" : "0") + " budget=" + budget_name +
      " faults=" + (cs.faults ? "1" : "0") +
      " overhead=" + (cs.overhead_aware ? "1" : "0") +
      " cap=" + std::to_string(cs.max_samples) + " | best=" +
      std::to_string(r.best) + " pr_cs=" + Hex(r.pr_cs) +
      " reached=" + (r.reached_target ? "1" : "0") +
      " queries=" + std::to_string(r.queries_sampled) +
      " calls=" + std::to_string(r.optimizer_calls) +
      " rounds=" + std::to_string(r.rounds) +
      " active=" + std::to_string(r.active_configs) + " strata=";
  for (size_t i = 0; i < r.final_strata.size(); ++i) {
    out += (i > 0 ? "," : "") + std::to_string(r.final_strata[i]);
  }
  out += " eliminated_at=";
  for (size_t i = 0; i < r.eliminated_at.size(); ++i) {
    out += (i > 0 ? "," : "") + std::to_string(r.eliminated_at[i]);
  }
  out += " dominated=";
  for (size_t i = 0; i < r.dominance_eliminated.size(); ++i) {
    out += r.dominance_eliminated[i] ? "1" : "0";
  }
  out += " est=";
  for (size_t i = 0; i < r.estimates.size(); ++i) {
    out += (i > 0 ? "," : "") + Hex(r.estimates[i]);
  }
  out += " degraded=" + std::to_string(r.degraded_cells) +
         " retries=" + std::to_string(r.whatif_retries) +
         " timeouts=" + std::to_string(r.whatif_timeouts) +
         " failures=" + std::to_string(r.whatif_failures) +
         " refine_calls=" + std::to_string(r.bound_refinement_calls) +
         " dominance=" + std::to_string(r.dominance_eliminations) +
         " refined=" + std::to_string(r.refined_queries) +
         " halts=" + std::to_string(r.refine_halts);
  char hash[32];
  std::snprintf(hash, sizeof(hash), " trace=%016llx",
                static_cast<unsigned long long>(trace_hash));
  return out + hash + "\n";
}

std::string ProduceSelectorGolden() {
  std::vector<Case> cases;
  for (SamplingScheme scheme :
       {SamplingScheme::kDelta, SamplingScheme::kIndependent}) {
    for (bool stratify : {false, true}) {
      for (Budget budget : {Budget::kStatic, Budget::kStale, Budget::kRows}) {
        cases.push_back({scheme, stratify, budget});
      }
    }
    cases.push_back({scheme, true, Budget::kStatic, /*faults=*/true});
    cases.push_back({scheme, true, Budget::kStale, /*faults=*/true});
    cases.push_back(
        {scheme, true, Budget::kStatic, false, /*overhead_aware=*/true});
    cases.push_back({scheme, true, Budget::kStatic, false, false,
                     /*max_samples=*/scheme == SamplingScheme::kDelta ? 60u
                                                                      : 150u});
  }
  std::string out;
  for (const Case& cs : cases) out += RunCase(cs);
  return out;
}

TEST(SelectorGoldenTest, EveryOptionCombinationMatchesGolden) {
  const std::string path = PDX_SELECTOR_GOLDEN;
  const std::string produced = ProduceSelectorGolden();
  if (std::getenv("PDX_REGEN_SELECTOR_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << produced;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  std::istringstream want(golden.str()), got(produced);
  std::string w, g;
  for (int line = 1; std::getline(want, w); ++line) {
    ASSERT_TRUE(std::getline(got, g)) << "output ends before line " << line;
    ASSERT_EQ(w, g) << "first difference at line " << line;
  }
  EXPECT_FALSE(std::getline(got, g)) << "output has extra lines: " << g;
}

}  // namespace
}  // namespace pdx
