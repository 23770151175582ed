// Shared types of the end-to-end benchmark: run options, one op's
// outcome, set-up phase timings, and the batch-workload interface the
// timed loop in main.cc drives.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pdx {
class Configuration;
class WhatIfOptimizer;
class Workload;
}  // namespace pdx

namespace perfbench {

class SpanAccumulator;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  /// Path of the pdx_tool binary (serve_mixed starts it as the daemon).
  std::string pdx_tool;
  /// Scratch directory for generated artifacts (serve catalog).
  std::string work_dir;
};

/// Global thread-pool size of the benchmark process and of the daemon:
/// set explicitly, never the hardware_concurrency default. One thread
/// keeps set-up and ops free of scheduling noise (GreedyTune on 13K TPC-D
/// measured 2.22-2.32 s/op at 1 thread, 2.45 s/op at 4, on 4 cores).
constexpr size_t kPoolThreads = 1;

/// Outcome of one timed op.
struct OpRecord {
  uint64_t seed = 0;
  double wall_ms = 0.0;
  /// Process CPU time of the op (diagnostic: tells time the process was
  /// descheduled from time it ran slower).
  double cpu_ms = 0.0;
  /// Real optimizer invocations the op caused.
  uint64_t whatif_calls = 0;
  /// Queries sampled (tune: summed over its rounds).
  uint64_t samples = 0;
  /// Compare ops: the chosen configuration, checked by the oracle.
  uint32_t best = 0;
  /// Quality check (compare: pick is the exact best; tune:
  /// final cost <= initial cost) and the design's cost reduction.
  bool quality_ok = false;
  double improvement_pct = 0.0;
  /// Threw, returned an error, or failed an output check.
  bool failed = false;
  std::string error;
};

/// Per-layer values summed over the traced ops (per-op means are taken
/// at the end), keyed by the per-layer metric name or an internal
/// "sum.*" name.
using LayerMap = std::map<std::string, double>;

/// One fresh set-up, split by phase.
struct SetupTiming {
  double total_s = 0.0;
  double workload_build_ms = 0.0;
  double enumerate_ms = 0.0;
  double pool_busy_ms = 0.0;
  double pool_jobs = 0.0;
};

/// A workload driven in-process: fresh set-ups, single ops, and an
/// exact-answer oracle run after the timed phase.
class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;
  /// The count metrics are taken over exactly the first CountOps() ops,
  /// so they repeat exactly for a seed; every untimed run times at least
  /// that many (and p90 thus has >= 10 samples beyond it).
  virtual size_t CountOps() const = 0;
  /// Builds the inputs from scratch (dropping any previous state first).
  virtual void Setup(SetupTiming* timing) = 0;
  /// Runs one op. With `layers` non-null the op runs with the timing
  /// decorators in place and adds its per-layer values to `layers`.
  virtual OpRecord RunOp(uint64_t op_seed, LayerMap* layers) = 0;
  /// Exact answers, computed once after the timed phase: fills
  /// quality_ok / improvement_pct of compare ops and marks failures.
  virtual void Check(std::vector<OpRecord>* ops) = 0;
  /// Per-call optimizer time (us) on this workload's catalog, measured
  /// by a fixed calibration loop; used where the optimizer cannot be
  /// timed apart from the cache in place.
  virtual double CalibrateUsPerCall() = 0;
};

/// Exact workload totals of `configs` and of the empty design, filled
/// through the signature tier (bit-identical to direct optimizer calls).
struct ExactTotals {
  std::vector<double> totals;
  double base_total = 0.0;
  double best_total = 0.0;
};
ExactTotals ComputeExactTotals(const pdx::WhatIfOptimizer& optimizer,
                               const pdx::Workload& workload,
                               const std::vector<pdx::Configuration>& configs);

/// Per-call optimizer time (us) of a fixed 4,000-call loop over a spread
/// of (query, configuration) cells.
double CalibrateOptimizer(const pdx::WhatIfOptimizer& optimizer,
                          const pdx::Workload& workload,
                          const std::vector<pdx::Configuration>& configs);

std::unique_ptr<BatchWorkload> MakeTpcdCompare();
std::unique_ptr<BatchWorkload> MakeCrmCompare();
std::unique_ptr<BatchWorkload> MakeTpcdTuneRw();

/// Runs the serve_mixed workload end to end (daemon, clients, oracle)
/// and prints the result line; returns the process exit code.
int RunServeMixed(const Options& options);

/// Seed `i` of stream `stream`, derived from the benchmark seed: timed
/// ops, warm-up ops and serve requests each draw from their own stream.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t i);

enum SeedStream : uint64_t {
  kOpStream = 1,
  kWarmupStream = 2,
};

/// Result-line helpers shared by the batch and serve workloads.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
/// Prints `name value unit` lines, then the one-line JSON result.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

/// The per-layer metrics, per op. Layers a workload does not exercise
/// keep 0.
struct LayerValues {
  double workload_build_ms = 0, enumerate_ms = 0;
  double whatif_calls = 0, whatif_ms = 0, us_per_call = 0;
  double exact_hit_ratio = 0, sig_hit_ratio = 0, cache_build_ms = 0,
         cache_self_ms = 0;
  double selector_self_ms = 0, selector_rounds = 0, selector_cells = 0,
         estimator_bytes = 0, kernel_ms = 0, split_search_ms = 0, splits = 0;
  double decide_ms = 0, bound_calls = 0, dominance_eliminations = 0;
  double tuner_rounds = 0, tuner_round_ms = 0, structures_added = 0;
  double server_ms = 0, framing_ms = 0, catalog_loads = 0, catalog_hits = 0,
         errors = 0;
  double pool_busy_ms = 0, pool_jobs = 0;
  double dropped_spans = 0, trace_overhead_pct = 0, spin_ms = 0;
  /// Cache misses per op (not printed; feeds the cache self time).
  double cache_misses = 0;
};

/// Fills the layers read from registry counters: `per_op(name)` is the
/// per-op delta of a pdx_* counter (histograms as <name>_sum in ns).
void FillCounterLayers(const std::function<double(const std::string&)>& per_op,
                       LayerValues* v);
/// Fills the layers read from spans, over `ops` ops: estimator kernels
/// (1-in-64 sampled, scaled up), budget decisions, and the selector's self
/// time net of the unsampled kernel calls and `split_search_ms`.
void FillSpanLayers(const SpanAccumulator& spans, double ops,
                    double split_search_ms, LayerValues* v);
std::vector<Metric> LayerTable(const LayerValues& v);

double Median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 1]).
double Percentile(std::vector<double> v, double p);

}  // namespace perfbench
