// Copyright (c) the pdexplore authors.
// Shared infrastructure for the experiment harness: paper-scale setups,
// configuration-pair search, Monte-Carlo loops and table formatting.
//
// Every bench binary reproduces one table or figure of the paper. Trial
// counts default to a fast setting and scale with --trials=N or the
// PDX_TRIALS environment variable (the paper used 5000).
#pragma once

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/crm_schema.h"
#include "catalog/tpcd_schema.h"
#include "common/obs.h"
#include "common/string_util.h"
#include "core/cost_source.h"
#include "core/fixed_budget.h"
#include "core/selection_trace.h"
#include "core/selector.h"
#include "tuner/enumerator.h"
#include "workload/crm_trace.h"
#include "workload/tpcd_qgen.h"

namespace pdx::bench {

/// Parses the whole of `text` as a decimal count in [1, INT_MAX]; nullopt
/// for anything else ("12abc", "0", "-3", "", out of range).
std::optional<int> ParsePositiveInt(std::string_view text);

/// Parses --trials=N from argv, falling back to PDX_TRIALS, then to
/// `default_trials`. Also applies --threads=N (falling back to
/// PDX_THREADS / hardware concurrency) to the global thread pool, so
/// every bench picks up both flags through its existing call. Like a bad
/// --threads, a --trials or PDX_TRIALS that ParsePositiveInt rejects is
/// ignored.
int TrialsFromArgs(int argc, char** argv, int default_trials);

/// Parses --cache=off|exact|signature from argv (falling back to
/// PDX_CACHE, then `fallback`). Selects the what-if memoization tier the
/// experiment's precompute runs under; results are bit-identical across
/// tiers, only the optimizer-call count changes.
WhatIfCacheMode CacheModeFromArgs(int argc, char** argv,
                                  WhatIfCacheMode fallback);

/// Seconds elapsed on a started stopwatch. Bench and library timing share
/// obs::NowNs(), so the two can never drift apart.
double SecondsSince(const obs::Stopwatch& start);

/// Parses --trace=PATH from argv (falling back to PDX_TRACE, matching the
/// PDX_CACHE/PDX_THREADS convention) and opens a JSONL trace sink; null
/// when neither is set. Enables obs timing when a sink is opened so the
/// what-if latency histograms fill.
std::unique_ptr<JsonlTraceSink> TraceSinkFromArgs(int argc, char** argv);

/// Parses --json=PATH from argv; empty string when absent. The table
/// benchmarks write a per-k throughput snapshot there (bench/snapshot.sh,
/// CI perf-smoke gate).
std::string JsonPathFromArgs(int argc, char** argv);

/// Shared observability tail, called once at the end of a bench main:
/// --metrics[=SPEC] dumps the metric registry (SPEC as in
/// obs::WriteMetricsDump — bare Prometheus, csv, csv:PATH, PATH) and
/// --ledger[=DIR] appends a run manifest (DIR defaults to runs/) with the
/// bench's wall-clock and per-phase span rollup. TrialsFromArgs enables
/// obs timing when either flag is present, so spans and latency
/// histograms fill from the start of the run.
void FinishBenchObs(const char* tool, int argc, char** argv,
                    const obs::Stopwatch& start);

/// Prints the standard bench header (binary name + trial count + scale +
/// thread count).
void PrintHeader(const std::string& title, int trials);

/// A fully-constructed experiment environment. Holds the schema by value;
/// workload/optimizer reference it, so the struct lives on the heap and is
/// immovable once built.
struct Environment {
  Schema schema;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<WhatIfOptimizer> optimizer;

  Environment() : schema("uninitialized") {}
  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;
};

/// Builds the paper's synthetic setup: ~1GB Zipf(1) TPC-D database and a
/// QGEN-style workload of `num_queries` statements (§7: 13K; §6.2: 131K;
/// §7.3: 2K).
std::unique_ptr<Environment> MakeTpcdEnvironment(uint32_t num_queries,
                                                 uint64_t seed = 20060406);

/// Builds the CRM setup: 520-table ~0.7GB schema, 6K-statement trace with
/// >120 templates including DML.
std::unique_ptr<Environment> MakeCrmEnvironment(uint32_t num_statements = 6000,
                                                uint32_t num_templates = 130,
                                                uint64_t seed = 19991231);

/// Flavour of candidate-configuration pool.
enum class PoolStyle {
  /// Greedy + randomized enumerations plus substitute-bearing neighborhood
  /// variants: structurally diverse candidates with a spread of costs —
  /// what the figure experiments' pair searches draw from.
  kDiverse,
  /// A merged reference design plus benefit-graded single ablations and
  /// drop-only variants: the near-optimal cloud (many near-ties, high
  /// overlap) the §7.2 multi-configuration selections rank. The pool is
  /// shuffled so order carries no information.
  kNearOptimalCloud,
};

/// Enumerates a candidate-configuration pool of the given style.
std::vector<Configuration> MakeConfigPool(
    const Environment& env, uint32_t num_configs, Rng* rng,
    bool include_views = true,
    PoolStyle style = PoolStyle::kNearOptimalCloud);

/// Exact workload totals of each configuration (|WL| * k optimizer calls,
/// fanned out over the global thread pool).
std::vector<double> ExactTotals(const Environment& env,
                                const std::vector<Configuration>& configs);

/// MatrixCostSource::Precompute plus a wall-clock report: prints the
/// matrix shape, precompute seconds and cells/sec so speedups from
/// --threads land in the recorded bench output. With kExact every cell is
/// one optimizer call (a single pass can't revisit a cell); with
/// kSignature cells sharing a (query, relevant-structure) signature share
/// one call, and the report adds cold calls, signature hits and the
/// resulting call-reduction factor. The matrix values are bit-identical
/// across modes.
MatrixCostSource TimedPrecompute(
    const Environment& env, const std::vector<Configuration>& configs,
    WhatIfCacheMode cache = WhatIfCacheMode::kOff);

/// Cumulative Monte-Carlo throughput (trials and wall-clock seconds spent
/// in MonteCarloAccuracy since process start). Benches print this as
/// their closing wall-clock report.
struct MonteCarloThroughput {
  uint64_t trials = 0;
  double seconds = 0.0;
  double TrialsPerSec() const { return seconds > 0.0 ? trials / seconds : 0.0; }
};
MonteCarloThroughput CumulativeMonteCarloThroughput();

/// Prints "[tag] done in S s (N MC trials, R trials/sec, T threads)".
void PrintWallClockReport(const char* tag, const obs::Stopwatch& start);

/// Scenario spec for the figure experiments' configuration pairs.
struct PairSpec {
  double target_gap = 0.07;
  double min_overlap = 0.0;
  double max_overlap = 1.0;
  /// Force the cheaper configuration to contain views (Fig. 1's C1) —
  /// 0 = don't care, 1 = require views, -1 = forbid views on both.
  int view_requirement = 0;
};

/// Result of a pair search: the two chosen configurations (cheaper first)
/// and their exact totals.
struct ConfigPair {
  Configuration cheap;
  Configuration dear;
  double cheap_total = 0.0;
  double dear_total = 0.0;

  double Gap() const { return (dear_total - cheap_total) / dear_total; }
  double Overlap() const { return cheap.StructureOverlap(dear); }
};

/// Searches a pool for a pair matching the spec.
ConfigPair FindPair(const Environment& env,
                    const std::vector<Configuration>& pool,
                    const std::vector<double>& totals, const PairSpec& spec);

/// One Monte-Carlo accuracy experiment: repeats fixed-budget selections
/// and returns the fraction that picked the true best configuration.
/// Trials fan out over the global thread pool; each trial's RNG is seeded
/// `seed_base + trial` exactly as in the serial loop, so the result is
/// bit-identical at every thread count.
double MonteCarloAccuracy(MatrixCostSource* source, ConfigId truth,
                          uint64_t query_budget,
                          const FixedBudgetOptions& options, int trials,
                          uint64_t seed_base);

/// Prints a markdown-style table row.
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);

}  // namespace pdx::bench
