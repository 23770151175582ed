// pdx_tool: a miniature command-line physical design workbench built on
// the library's persistence layer. Demonstrates the full tool loop a DBA
// would run:
//
//   pdx_tool gen     --dir=/tmp/pdx [--queries=2000] [--configs=6]
//       generate a TPC-D database + QGEN workload, enumerate candidate
//       configurations, persist everything as .pdx files;
//   pdx_tool compare --dir=/tmp/pdx [--alpha=0.9] [--delta-pct=0]
//       reload the artifacts and run the probabilistic comparison
//       primitive across all saved configurations;
//   pdx_tool tune    --dir=/tmp/pdx
//       greedily tune the workload with the comparison primitive inside;
//   pdx_tool show    --dir=/tmp/pdx
//       print the saved artifacts' inventory.
//
// compare and tune accept --faults=p_fail,p_slow[,seed] to run against a
// deliberately unreliable what-if optimizer (deterministic injection) with
// the fault-tolerant executor — retries, deadlines, degradation to §6 cost
// bounds — engaged.
//
// Run without arguments for usage.
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "catalog/tpcd_schema.h"
#include "common/obs.h"
#include "common/run_ledger.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "core/cost_source.h"
#include "core/fault.h"
#include "core/selection_trace.h"
#include "core/selector.h"
#include "optimizer/cost_bounds.h"
#include "optimizer/serialization.h"
#include "service/server.h"
#include "tuner/enumerator.h"
#include "tuner/greedy_tuner.h"
#include "validation/calibration.h"
#include "validation/golden.h"
#include "validation/property.h"
#include "workload/scenario.h"
#include "workload/tpcd_qgen.h"

using namespace pdx;

namespace {

std::string FlagValue(int argc, char** argv, const char* name,
                      const std::string& fallback) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* name) {
  std::string flag = std::string("--") + name;
  for (int i = 2; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

// True when the flag appears at all — bare (--name) or with a value
// (--name=...), including an EMPTY value. FlagValue cannot make that
// distinction, and "--trace=" silently falling back to the default used to
// hide typos.
bool FlagPresent(int argc, char** argv, const char* name) {
  std::string eq = std::string("--") + name + "=";
  std::string bare = std::string("--") + name;
  for (int i = 2; i < argc; ++i) {
    if (bare == argv[i]) return true;
    if (std::strncmp(argv[i], eq.c_str(), eq.size()) == 0) return true;
  }
  return false;
}

// Strict numeric flag parsing: the whole value must parse (std::stoul
// accepted "12abc" and threw std::invalid_argument — an uncaught abort —
// on "abc"). Errors are reported and the command exits with status 1.
bool U64Flag(int argc, char** argv, const char* name, uint64_t fallback,
             uint64_t* out) {
  if (!FlagPresent(argc, argv, name)) {
    *out = fallback;
    return true;
  }
  std::string v = FlagValue(argc, argv, name, "");
  errno = 0;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || errno != 0 || end != v.c_str() + v.size()) {
    std::printf("error: --%s expects an unsigned integer, got '%s'\n", name,
                v.c_str());
    return false;
  }
  *out = parsed;
  return true;
}

bool DoubleFlag(int argc, char** argv, const char* name, double fallback,
                double* out) {
  if (!FlagPresent(argc, argv, name)) {
    *out = fallback;
    return true;
  }
  std::string v = FlagValue(argc, argv, name, "");
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(v.c_str(), &end);
  if (v.empty() || errno != 0 || end != v.c_str() + v.size()) {
    std::printf("error: --%s expects a number, got '%s'\n", name, v.c_str());
    return false;
  }
  *out = parsed;
  return true;
}

// --cache=off|exact|signature with --no-cache as an alias for off. Rejects
// unknown and empty values.
bool CacheFlag(int argc, char** argv, WhatIfCacheMode* out) {
  std::string flag = FlagValue(argc, argv, "cache", "exact");
  if (HasFlag(argc, argv, "no-cache")) flag = "off";
  if (flag == "off") {
    *out = WhatIfCacheMode::kOff;
  } else if (flag == "exact") {
    *out = WhatIfCacheMode::kExact;
  } else if (flag == "signature") {
    *out = WhatIfCacheMode::kSignature;
  } else {
    std::printf(
        "error: --cache expects off, exact or signature, got '%s'\n",
        flag.c_str());
    return false;
  }
  return true;
}

// Trace destination: --trace=PATH wins, PDX_TRACE is the fallback. An
// explicitly empty --trace= or a set-but-empty PDX_TRACE is an error (it
// used to silently disable tracing); an unset PDX_TRACE means "no trace".
bool TraceFlag(int argc, char** argv, std::string* out) {
  if (FlagPresent(argc, argv, "trace")) {
    std::string v = FlagValue(argc, argv, "trace", "");
    if (v.empty()) {
      std::printf("error: --trace= requires a non-empty path\n");
      return false;
    }
    *out = v;
    return true;
  }
  const char* env = std::getenv("PDX_TRACE");
  if (env != nullptr && *env == '\0') {
    std::printf(
        "error: PDX_TRACE is set but empty; unset it or point it at a "
        "path\n");
    return false;
  }
  *out = env != nullptr ? std::string(env) : std::string();
  return true;
}

// --budget=static|dynamic (core/budget.h). Rejects unknown and empty
// values; static is the default and is byte-identical to pre-budget runs.
bool BudgetFlag(int argc, char** argv, BudgetPolicy* out) {
  auto parsed = ParseBudgetPolicy(FlagValue(argc, argv, "budget", "static"));
  if (!parsed.ok()) {
    std::printf("error: %s\n", parsed.status().ToString().c_str());
    return false;
  }
  *out = *parsed;
  return true;
}

// --faults=p_fail,p_slow[,seed]. `engaged` is true whenever the flag was
// given — even p_fail=p_slow=0 runs through the executor (the byte-identity
// configuration bench_fault_tolerance pins down).
bool FaultsFlag(int argc, char** argv, FaultSpec* out, bool* engaged) {
  *engaged = false;
  if (!FlagPresent(argc, argv, "faults")) return true;
  auto parsed = ParseFaultSpec(FlagValue(argc, argv, "faults", ""));
  if (!parsed.ok()) {
    std::printf("error: %s\n", parsed.status().ToString().c_str());
    return false;
  }
  *out = *parsed;
  *engaged = true;
  return true;
}

// --workload=SPEC (e.g. "zipf:0.9,rw:0.8,n:2000,seed:7"): run against a
// generated scenario workload (workload/scenario.h) over the directory's
// saved schema instead of its workload.pdx. The saved config_*.pdx
// candidates still load from the directory, so the same designs can be
// priced under different traffic shapes.
bool WorkloadFlag(int argc, char** argv, std::optional<ScenarioOptions>* out) {
  out->reset();
  if (!FlagPresent(argc, argv, "workload")) return true;
  auto parsed = ParseScenarioSpec(FlagValue(argc, argv, "workload", ""));
  if (!parsed.ok()) {
    std::printf("error: %s\n", parsed.status().ToString().c_str());
    return false;
  }
  *out = *parsed;
  return true;
}

// The command line after the executable name, for the run-ledger
// manifest's `flags` field.
std::string JoinArgs(int argc, char** argv) {
  std::string joined;
  for (int i = 1; i < argc; ++i) {
    if (!joined.empty()) joined += ' ';
    joined += argv[i];
  }
  return joined;
}

// --ledger[=DIR]: write a run manifest under DIR (default runs/). Bare
// --ledger uses the default; --ledger= (explicitly empty) is an error.
bool LedgerFlag(int argc, char** argv, std::string* dir, bool* engaged) {
  *engaged = false;
  if (!FlagPresent(argc, argv, "ledger")) return true;
  *dir = FlagValue(argc, argv, "ledger", "");
  if (dir->empty()) {
    if (!HasFlag(argc, argv, "ledger")) {
      std::printf("error: --ledger= requires a non-empty directory\n");
      return false;
    }
    *dir = "runs";
  }
  *engaged = true;
  return true;
}

// Drains all spans (into the trace when one is attached) and appends the
// run manifest; shared by compare and tune.
int WriteLedgerEntry(const std::string& tool, const std::string& ledger_dir,
                     int argc, char** argv, uint64_t seed, double wall_ms,
                     TraceSink* sink) {
  obs::SpanSnapshot spans =
      sink != nullptr ? DrainSpansToSink(sink) : obs::DrainSpans();
  RunManifest m =
      BuildRunManifest(tool, JoinArgs(argc, argv), seed, wall_ms, spans);
  auto written = WriteManifest(m, ledger_dir);
  if (!written.ok()) {
    std::printf("error: %s\n", written.status().ToString().c_str());
    return 1;
  }
  std::printf("run manifest written to %s (pdx_tool runs diff)\n",
              written->c_str());
  return 0;
}

// Union of every structure appearing in any configuration — the `rich`
// bracket for §6 bound derivation.
Configuration UnionConfiguration(const std::vector<Configuration>& configs) {
  Configuration rich;
  rich.set_name("rich");
  std::unordered_set<uint64_t> seen;
  for (const Configuration& c : configs) {
    for (const Index& idx : c.indexes()) {
      if (seen.insert(idx.Hash()).second) rich.AddIndex(idx);
    }
    for (const MaterializedView& v : c.views()) {
      if (seen.insert(v.Hash()).second) rich.AddView(v);
    }
  }
  return rich;
}

int Usage() {
  std::printf(
      "usage:\n"
      "  pdx_tool gen     --dir=DIR [--queries=2000] [--configs=6] [--seed=1]\n"
      "  pdx_tool compare --dir=DIR [--alpha=0.9] [--delta-pct=0] [--scheme=delta|indep]\n"
      "                   [--cache=off|exact|signature] [--no-cache]\n"
      "                   [--budget=static|dynamic] [--workload=SPEC]\n"
      "                   [--faults=p_fail,p_slow[,seed]]\n"
      "                   [--trace=PATH] [--metrics[=SPEC]] [--ledger[=DIR]]\n"
      "  pdx_tool tune    --dir=DIR [--alpha=0.9] [--max-structures=8]\n"
      "                   [--budget-mb=0] [--cache=off|exact|signature]\n"
      "                   [--budget=static|dynamic] [--workload=SPEC]\n"
      "                   [--faults=p_fail,p_slow[,seed]] [--seed=42]\n"
      "                   [--metrics[=SPEC]] [--ledger[=DIR]]\n"
      "  pdx_tool report  --trace=PATH [--profile=OUT.json]\n"
      "  pdx_tool runs    list | diff A B   [--runs-dir=DIR]\n"
      "  pdx_tool serve   [--port=9464] [--max-sessions=0] [--workers=4]\n"
      "                   [--deadline-ms=5000] [--max-catalogs=4]\n"
      "                   [--ledger[=DIR]]\n"
      "  pdx_tool show    --dir=DIR\n"
      "  pdx_tool validate [--quick|--full] [--regen-golden] [--csv=PATH]\n"
      "\n"
      "  --threads=N (1..256) applies to every command (default: PDX_THREADS\n"
      "  or all hardware threads). compare memoizes what-if calls per --cache:\n"
      "  'exact' caches (query, configuration) cells (default), 'signature'\n"
      "  additionally shares calls across configurations that agree on the\n"
      "  query's relevant structures, 'off' disables memoization\n"
      "  (--no-cache is an alias for --cache=off).\n"
      "\n"
      "  --trace=PATH writes a JSONL selection trace (PDX_TRACE env is the\n"
      "  fallback, like PDX_CACHE/PDX_THREADS); tracing never changes the\n"
      "  run's sampling or optimizer-call decisions. --metrics dumps the\n"
      "  process metric registry after the run: bare for Prometheus text\n"
      "  on stdout, =csv for CSV on stdout, =csv:PATH or =PATH to write a\n"
      "  file instead of interleaving with the run's own output. report\n"
      "  reads a trace back and prints its convergence table plus the\n"
      "  per-phase span profile; --profile=OUT.json additionally exports\n"
      "  the trace's spans as a Chrome trace-event file (chrome://tracing,\n"
      "  ui.perfetto.dev).\n"
      "\n"
      "  --ledger[=DIR] appends a run manifest (git revision, flags, seed,\n"
      "  final counters, per-phase span rollup) under DIR (default runs/).\n"
      "  'runs list' enumerates recorded manifests; 'runs diff A B' prints\n"
      "  a regression-attribution table between two of them, ranked by\n"
      "  wall-clock delta.\n"
      "\n"
      "  serve runs the selection daemon: concurrent sessions over\n"
      "  newline-delimited JSON on 127.0.0.1 (one connection per session,\n"
      "  ops ping/stats/compare/tune/shutdown, 'dir' names a pdx_tool gen\n"
      "  directory), with the signature what-if cache and Section-6 bounds\n"
      "  held resident across sessions, per-connection read deadlines, and\n"
      "  GET /metrics (Prometheus) and /healthz answered on the same port.\n"
      "  Selections are byte-identical to the batch CLI at equal seeds.\n"
      "  --ledger[=DIR] appends one manifest per compare/tune session.\n"
      "\n"
      "  --budget=dynamic reallocates the what-if budget each selection\n"
      "  round (DESIGN.md Section 10): the run may spend cheap Section-6\n"
      "  bound derivations instead of full-price optimizer calls and\n"
      "  eliminates configurations by interval dominance once their cost\n"
      "  envelopes separate. The final selection is unchanged; only the\n"
      "  number of real optimizer calls drops. 'static' (the default) is\n"
      "  the paper-faithful behavior.\n"
      "\n"
      "  --workload=SPEC replaces the directory's workload.pdx with a\n"
      "  generated scenario workload over the saved TPC-D schema (the\n"
      "  saved configurations still load). SPEC is a comma list whose\n"
      "  first token picks the template-popularity law — uniform, zipf:T\n"
      "  (theta >= 0) or selfsim:H (hot fraction in [0.5, 1)) — followed\n"
      "  by optional rw:R (read fraction, default 1; the rest draws from\n"
      "  the DML bank), disp:D (parameter-dispersion scale, default 1),\n"
      "  n:N (statements, default 2000), seed:S and lookups:0|1. Example:\n"
      "  --workload=zipf:0.9,rw:0.8,n:4000,seed:7. Generation is seeded\n"
      "  and byte-identical at every thread count; serve sessions accept\n"
      "  the same spec as a \"workload\" field.\n"
      "\n"
      "  --faults=p_fail,p_slow[,seed] injects deterministic what-if\n"
      "  failures and latency spikes and engages the fault-tolerant\n"
      "  executor: bounded retries with backoff, a per-call deadline, and\n"
      "  degradation of exhausted cells to Section-6 cost bounds (widening\n"
      "  the reported standard errors, never treating a bound as exact).\n"
      "  Incompatible with --cache=signature, whose shared optimizer calls\n"
      "  bypass the injection point.\n"
      "\n"
      "  validate runs the statistical conformance harness: the seeded\n"
      "  property sweep, the closed-form estimator/interval checks, the\n"
      "  Monte-Carlo Pr(CS) calibration grid with Clopper-Pearson gates,\n"
      "  and the golden-trace regression. --quick (the default) runs the\n"
      "  4-cell grid; --full runs the 24-cell scheme x stratification x\n"
      "  cache x fault grid. Output is deterministic: byte-identical across\n"
      "  runs and thread counts. --csv=PATH additionally writes the grid as\n"
      "  CSV (the scheduled-CI artifact); --regen-golden rewrites the\n"
      "  golden files under tests/golden (or $PDX_GOLDEN_DIR) instead of\n"
      "  validating.\n");
  return 2;
}

int RunValidate(int argc, char** argv) {
  const bool full = HasFlag(argc, argv, "full");
  const bool quick = HasFlag(argc, argv, "quick");
  if (full && quick) {
    std::printf("error: --quick and --full are mutually exclusive\n");
    return 1;
  }

  if (HasFlag(argc, argv, "regen-golden")) {
    Status st = RegenerateGoldens();
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("regenerated %zu golden cases under %s\n",
                GoldenCaseNames().size(), GoldenDir().c_str());
    return 0;
  }

  bool ok = true;

  // 1. Property sweep. --quick trades instance count for latency; the
  // tier-1 ctest target (test_property) always runs the full 200.
  PropertyOptions popt;
  popt.iterations = full ? 200 : 60;
  popt = PropertyOptionsFromEnv(popt);
  std::printf("[properties] %llu instances per invariant, seed base 0x%llx\n",
              static_cast<unsigned long long>(popt.iterations),
              static_cast<unsigned long long>(popt.seed_base));
  for (const PropertyRunResult& r : RunAllMatrixProperties(popt)) {
    if (r.passed) {
      std::printf("  PASS %s\n", r.name.c_str());
    } else {
      ok = false;
      std::printf("  FAIL %s: %s\n       shrunk (%u steps): %s\n       %s\n",
                  r.name.c_str(), r.message.c_str(), r.shrink_steps,
                  r.shrunk_instance.c_str(), r.repro.c_str());
    }
  }

  // 2. Closed-form conformance checks (analytic answers, no ensembles).
  std::printf("[closed-form]\n");
  for (const ConformanceCheck& c : RunClosedFormChecks()) {
    if (c.passed) {
      std::printf("  PASS %s\n", c.name.c_str());
    } else {
      ok = false;
      std::printf("  FAIL %s: %s\n", c.name.c_str(), c.detail.c_str());
    }
  }

  // 3. Monte-Carlo calibration grid with Clopper-Pearson gates.
  CalibrationOptions copt;
  std::vector<CalibrationCellSpec> grid =
      full ? FullCalibrationGrid() : QuickCalibrationGrid();
  std::printf("[calibration] %zu cells, %llu trials each, alpha=%.2f, "
              "gate confidence %.2f\n",
              grid.size(), static_cast<unsigned long long>(copt.trials),
              copt.alpha, copt.gate_confidence);
  std::vector<CalibrationCellResult> cells = RunCalibrationGrid(grid, copt);
  std::printf("%s", FormatCalibrationTable(cells).c_str());
  for (const CalibrationCellResult& c : cells) ok = ok && c.passed;
  std::string csv_path = FlagValue(argc, argv, "csv", "");
  if (!csv_path.empty()) {
    std::FILE* f = std::fopen(csv_path.c_str(), "wb");
    if (f == nullptr) {
      std::printf("error: cannot open '%s' for writing\n", csv_path.c_str());
      return 1;
    }
    std::string csv = CalibrationGridCsv(cells);
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
    std::printf("grid CSV written to %s\n", csv_path.c_str());
  }

  // 4. Golden-trace regression.
  std::printf("[golden] dir %s\n", GoldenDir().c_str());
  for (const GoldenOutcome& g : CompareAllGoldenCases()) {
    if (g.passed) {
      std::printf("  PASS %s\n", g.name.c_str());
    } else {
      ok = false;
      std::printf("  FAIL %s: %s\n       (intended change? regenerate with "
                  "pdx_tool validate --regen-golden)\n",
                  g.name.c_str(), g.detail.c_str());
    }
  }

  std::printf("validate: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

std::string SchemaPath(const std::string& dir) { return dir + "/schema.pdx"; }
std::string WorkloadPath(const std::string& dir) {
  return dir + "/workload.pdx";
}
std::string ConfigPath(const std::string& dir, size_t i) {
  return dir + "/config_" + std::to_string(i) + ".pdx";
}

// Resolves the session workload: the generated scenario when --workload
// was given (TPC-D schemas only), else the directory's workload.pdx.
Result<Workload> ResolveWorkload(
    const std::string& dir, const Schema& schema,
    const std::optional<ScenarioOptions>& scenario) {
  if (!scenario.has_value()) return LoadWorkload(WorkloadPath(dir), schema);
  if (schema.name() != "tpcd") {
    return Status::InvalidArgument(
        "--workload scenarios instantiate the TPC-D template bank; schema '" +
        schema.name() + "' is not tpcd");
  }
  return GenerateScenarioWorkload(schema, *scenario);
}

int RunGen(int argc, char** argv) {
  std::string dir = FlagValue(argc, argv, "dir", "");
  if (dir.empty()) return Usage();
  uint64_t queries64, configs64, seed;
  if (!U64Flag(argc, argv, "queries", 2000, &queries64) ||
      !U64Flag(argc, argv, "configs", 6, &configs64) ||
      !U64Flag(argc, argv, "seed", 1, &seed)) {
    return 1;
  }
  uint32_t queries = static_cast<uint32_t>(queries64);
  uint32_t num_configs = static_cast<uint32_t>(configs64);

  Schema schema = MakeTpcdSchema();
  TpcdWorkloadOptions wopt;
  wopt.num_queries = queries;
  wopt.seed = 20060406 + seed;
  Workload workload = GenerateTpcdWorkload(schema, wopt);
  WhatIfOptimizer optimizer(schema);
  Rng rng(seed);
  EnumeratorOptions eopt;
  eopt.num_configs = num_configs;
  std::vector<Configuration> configs =
      EnumerateConfigurations(optimizer, workload, eopt, &rng);

  Status st = SaveSchema(schema, SchemaPath(dir));
  if (!st.ok()) {
    std::printf("error: %s\n", st.ToString().c_str());
    return 1;
  }
  st = SaveWorkload(workload, WorkloadPath(dir));
  if (!st.ok()) {
    std::printf("error: %s\n", st.ToString().c_str());
    return 1;
  }
  for (size_t c = 0; c < configs.size(); ++c) {
    st = SaveConfiguration(configs[c], schema, ConfigPath(dir, c));
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf(
      "wrote %s (%zu tables), %s (%zu queries, %zu templates), %zu "
      "configurations\n",
      SchemaPath(dir).c_str(), schema.num_tables(), WorkloadPath(dir).c_str(),
      workload.size(), workload.num_templates(), configs.size());
  return 0;
}

Result<std::vector<Configuration>> LoadAllConfigs(const std::string& dir,
                                                  const Schema& schema) {
  std::vector<Configuration> configs;
  for (size_t c = 0;; ++c) {
    auto loaded = LoadConfiguration(ConfigPath(dir, c), schema);
    if (!loaded.ok()) break;
    configs.push_back(std::move(*loaded));
  }
  if (configs.empty()) {
    return Status::NotFound("no config_*.pdx files in '" + dir + "'");
  }
  return configs;
}

int RunCompare(int argc, char** argv) {
  std::string dir = FlagValue(argc, argv, "dir", "");
  if (dir.empty()) return Usage();
  // Validate every flag before touching the artifacts: a malformed flag
  // should fail fast with a clear message, not after minutes of loading.
  double alpha, delta_pct;
  WhatIfCacheMode cache_mode;
  BudgetPolicy budget_policy;
  std::string trace_path;
  FaultSpec fault_spec;
  bool faults_on = false;
  std::string ledger_dir;
  bool ledger_on = false;
  std::optional<ScenarioOptions> scenario;
  if (!DoubleFlag(argc, argv, "alpha", 0.9, &alpha) ||
      !DoubleFlag(argc, argv, "delta-pct", 0.0, &delta_pct) ||
      !CacheFlag(argc, argv, &cache_mode) ||
      !BudgetFlag(argc, argv, &budget_policy) ||
      !TraceFlag(argc, argv, &trace_path) ||
      !FaultsFlag(argc, argv, &fault_spec, &faults_on) ||
      !LedgerFlag(argc, argv, &ledger_dir, &ledger_on) ||
      !WorkloadFlag(argc, argv, &scenario)) {
    return 1;
  }
  std::string scheme = FlagValue(argc, argv, "scheme", "delta");
  if (scheme != "delta" && scheme != "indep") {
    std::printf("error: --scheme expects delta or indep, got '%s'\n",
                scheme.c_str());
    return 1;
  }
  if (faults_on && cache_mode == WhatIfCacheMode::kSignature) {
    std::printf(
        "error: --faults is incompatible with --cache=signature (signature "
        "caching calls the optimizer directly, bypassing injection)\n");
    return 1;
  }

  auto schema = LoadSchema(SchemaPath(dir));
  if (!schema.ok()) {
    std::printf("error: %s\n", schema.status().ToString().c_str());
    return 1;
  }
  auto workload = ResolveWorkload(dir, *schema, scenario);
  if (!workload.ok()) {
    std::printf("error: %s\n", workload.status().ToString().c_str());
    return 1;
  }
  auto configs = LoadAllConfigs(dir, *schema);
  if (!configs.ok()) {
    std::printf("error: %s\n", configs.status().ToString().c_str());
    return 1;
  }
  if (scenario.has_value()) {
    std::printf("scenario workload %s: %zu queries, %zu templates, %.0f%% "
                "DML\n",
                FormatScenarioSpec(*scenario).c_str(), workload->size(),
                workload->num_templates(), 100.0 * workload->DmlFraction());
  }
  std::printf("loaded %zu queries, %zu configurations\n", workload->size(),
              configs->size());

  WhatIfOptimizer optimizer(*schema);
  WhatIfCostSource live_source(optimizer, *workload, *configs);
  // The deployed tool's what-if cache: a selection loop never pays for
  // re-costing a (query, configuration) pair it already sampled, and with
  // signature caching also shares one optimizer call across all
  // configurations agreeing on the query's relevant structures.
  CachingCostSource cached_source(&live_source);
  std::unique_ptr<SignatureCachingCostSource> sig_source;
  CostSource* source = &live_source;
  if (cache_mode == WhatIfCacheMode::kExact) {
    source = &cached_source;
  } else if (cache_mode == WhatIfCacheMode::kSignature) {
    sig_source = std::make_unique<SignatureCachingCostSource>(
        optimizer, *workload, *configs);
    source = sig_source.get();
  }
  // Observability surface: --trace (PDX_TRACE fallback) and --metrics.
  std::string metrics_fmt = FlagValue(argc, argv, "metrics", "");
  bool metrics = HasFlag(argc, argv, "metrics") || !metrics_fmt.empty();
  std::unique_ptr<JsonlTraceSink> trace_sink;
  if (!trace_path.empty()) {
    auto opened = JsonlTraceSink::Open(trace_path);
    if (!opened.ok()) {
      std::printf("error: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    trace_sink = std::move(*opened);
  }
  // The ledger's per-phase rollup is built from spans, so --ledger turns
  // timing on too (tracing/timing never changes the run's decisions).
  if (trace_sink != nullptr || metrics || ledger_on) {
    obs::SetTimingEnabled(true);
  }

  SelectorOptions sopt;
  sopt.alpha = alpha;
  sopt.trace = trace_sink.get();
  sopt.scheme = scheme == "indep" ? SamplingScheme::kIndependent
                                  : SamplingScheme::kDelta;
  if (delta_pct > 0.0) {
    // Anchor delta on a rough scale: the first configuration's estimated
    // total from a small pilot (cheap, documented approximation).
    Configuration& first = (*configs)[0];
    Rng pilot_rng(7);
    double pilot = 0.0;
    auto ids = pilot_rng.SampleWithoutReplacement(workload->size(), 50);
    for (uint32_t q : ids) pilot += optimizer.Cost(workload->query(q), first);
    double scale = pilot / 50.0 * static_cast<double>(workload->size());
    sopt.delta = delta_pct / 100.0 * scale;
  }
  // Fault injection + the fault-tolerant executor. The injector sits on
  // top of the cache so a cell that resolved once stays resolved; the
  // executor (interposed by the selector via sopt.exec) retries through it
  // and degrades exhausted cells to §6 bounds over all saved structures.
  std::unique_ptr<FaultInjectingCostSource> injector;
  std::unique_ptr<CostBoundsDeriver> bounds_deriver;
  std::unique_ptr<WorkloadBoundsCache> bounds_cache;
  if (faults_on) {
    injector = std::make_unique<FaultInjectingCostSource>(source, fault_spec);
    injector->set_deadline_ms(sopt.exec.retry.deadline_ms);
    source = injector.get();
    sopt.exec.enabled = true;
    sopt.exec.seed = fault_spec.seed;
  }
  if (faults_on || budget_policy == BudgetPolicy::kDynamic) {
    // Shared §6 interval service: fault degradation and dynamic budget
    // refinement draw from the same lazily-filled bounds cache.
    bounds_deriver = std::make_unique<CostBoundsDeriver>(
        optimizer, *workload, Configuration(), UnionConfiguration(*configs));
    bounds_cache =
        std::make_unique<WorkloadBoundsCache>(bounds_deriver.get(), &*configs);
    sopt.bounds = bounds_cache.get();
  }
  sopt.budget_policy = budget_policy;
  ConfigurationSelector selector(source, sopt);
  Rng rng(42);
  const uint64_t wall_t0 = obs::NowNs();
  SelectionResult r = selector.Run(&rng);
  const double wall_ms =
      static_cast<double>(obs::NowNs() - wall_t0) / 1e6;

  std::printf(
      "selected configuration %u with Pr(CS) = %.3f\n"
      "sampled %llu of %zu queries, %llu optimizer calls (exact: %zu)\n",
      r.best, r.pr_cs, static_cast<unsigned long long>(r.queries_sampled),
      workload->size(), static_cast<unsigned long long>(r.optimizer_calls),
      workload->size() * configs->size());
  if (cache_mode == WhatIfCacheMode::kExact) {
    std::printf(
        "what-if cache (exact): %llu cold calls, %llu served from cache\n",
        static_cast<unsigned long long>(cached_source.num_misses()),
        static_cast<unsigned long long>(cached_source.num_hits()));
  } else if (cache_mode == WhatIfCacheMode::kSignature) {
    std::printf(
        "what-if cache (signature): %llu cold calls, %llu signature hits, "
        "%llu exact hits (%llu distinct signatures)\n",
        static_cast<unsigned long long>(sig_source->num_cold_calls()),
        static_cast<unsigned long long>(sig_source->num_signature_hits()),
        static_cast<unsigned long long>(sig_source->num_exact_hits()),
        static_cast<unsigned long long>(sig_source->num_distinct_signatures()));
  }
  const Configuration& winner = (*configs)[r.best];
  std::printf("winner '%s': %zu indexes, %zu views, %.1f MB\n",
              winner.name().c_str(), winner.indexes().size(),
              winner.views().size(),
              static_cast<double>(winner.StorageBytes(*schema)) / 1e6);
  if (budget_policy == BudgetPolicy::kDynamic) {
    std::printf(
        "budget (dynamic): %llu bound-refinement calls (in the call total), "
        "%llu queries refined, %llu configurations dominance-eliminated\n",
        static_cast<unsigned long long>(r.bound_refinement_calls),
        static_cast<unsigned long long>(r.refined_queries),
        static_cast<unsigned long long>(r.dominance_eliminations));
  }
  if (faults_on) {
    std::printf(
        "faults: %llu failures, %llu latency spikes injected (%llu timed "
        "out)\n",
        static_cast<unsigned long long>(injector->injected_failures()),
        static_cast<unsigned long long>(injector->injected_slow_calls()),
        static_cast<unsigned long long>(injector->injected_timeouts()));
    std::printf(
        "executor: %llu retries, %llu timeouts, %llu failures, %llu cells "
        "degraded to bounds\n",
        static_cast<unsigned long long>(r.whatif_retries),
        static_cast<unsigned long long>(r.whatif_timeouts),
        static_cast<unsigned long long>(r.whatif_failures),
        static_cast<unsigned long long>(r.degraded_cells));
  }
  if (trace_sink != nullptr) EmitWhatIfLatencySummary(trace_sink.get());
  // Span drain order: spans land in the trace (when one is attached)
  // before the final flush; the ledger entry reuses the same snapshot.
  int ledger_rc = 0;
  if (ledger_on) {
    ledger_rc = WriteLedgerEntry("compare", ledger_dir, argc, argv, 42,
                                 wall_ms, trace_sink.get());
  } else if (trace_sink != nullptr) {
    DrainSpansToSink(trace_sink.get());
  }
  if (trace_sink != nullptr) {
    trace_sink->Flush();
    std::printf("trace written to %s (pdx_tool report --trace=%s)\n",
                trace_path.c_str(), trace_path.c_str());
  }
  if (metrics) {
    Status st = obs::WriteMetricsDump(metrics_fmt);
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  return ledger_rc;
}

int RunReport(int argc, char** argv) {
  std::string path;
  if (!TraceFlag(argc, argv, &path)) return 1;
  if (path.empty()) return Usage();
  auto report = ReadTraceReport(path);
  if (!report.ok()) {
    std::printf("error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("trace %s: scheme=%s k=%llu alpha=%.3f\n", path.c_str(),
              report->scheme.c_str(),
              static_cast<unsigned long long>(report->num_configs),
              report->alpha);
  std::printf("%8s %10s %10s %10s %7s %7s\n", "round", "samples", "calls",
              "Pr(CS)", "active", "strata");
  // Downsample long runs to ~40 evenly spaced rows (always keeping the
  // first and the last round).
  const size_t n = report->rounds.size();
  const size_t stride = n > 40 ? (n + 39) / 40 : 1;
  for (size_t i = 0; i < n; ++i) {
    if (i % stride != 0 && i + 1 != n) continue;
    const TraceConvergenceRow& row = report->rounds[i];
    std::printf("%8llu %10llu %10llu %10.6f %7u %7u\n",
                static_cast<unsigned long long>(row.round),
                static_cast<unsigned long long>(row.samples),
                static_cast<unsigned long long>(row.optimizer_calls),
                row.pr_cs, row.active_configs, row.num_strata);
  }
  if (stride > 1) {
    std::printf("(%zu rounds, showing every %zu-th)\n", n, stride);
  }
  for (const TraceElimination& e : report->eliminations) {
    std::printf("eliminated config %u at round %llu: Pr(CS)=%.6f > %.6f (%s)\n",
                e.config, static_cast<unsigned long long>(e.round), e.pr_cs,
                e.threshold, e.reason.c_str());
  }
  if (report->num_splits > 0 || report->num_incumbent_changes > 0) {
    std::printf("%llu stratification splits, %llu incumbent changes\n",
                static_cast<unsigned long long>(report->num_splits),
                static_cast<unsigned long long>(report->num_incumbent_changes));
  }
  if (report->has_run_end) {
    std::printf(
        "result: best=%u Pr(CS)=%.6f reached_target=%s rounds=%llu "
        "samples=%llu calls=%llu active=%u\n",
        report->end.best, report->end.pr_cs,
        report->end.reached_target ? "yes" : "no",
        static_cast<unsigned long long>(report->end.rounds),
        static_cast<unsigned long long>(report->end.samples),
        static_cast<unsigned long long>(report->end.optimizer_calls),
        report->end.active_configs);
  }
  for (const TraceWhatIfLatency& w : report->whatif) {
    std::printf(
        "what-if %-13s n=%-8llu mean=%.1fus p50=%.1fus p95=%.1fus "
        "p99=%.1fus\n",
        w.bucket.c_str(), static_cast<unsigned long long>(w.count),
        w.mean_ns / 1e3, w.p50_ns / 1e3, w.p95_ns / 1e3, w.p99_ns / 1e3);
  }
  if (report->whatif_failures + report->whatif_timeouts +
          report->whatif_degraded >
      0) {
    std::printf(
        "what-if errors: %llu failures, %llu timeouts, %llu cells degraded "
        "to bounds\n",
        static_cast<unsigned long long>(report->whatif_failures),
        static_cast<unsigned long long>(report->whatif_timeouts),
        static_cast<unsigned long long>(report->whatif_degraded));
  }
  // Budget-economics table: where the run's optimizer budget went — the
  // degradation counters (whatif_error events) and the dynamic-budget
  // counters (budget_decision events) side by side.
  if (report->budget_decisions > 0 ||
      report->whatif_failures + report->whatif_timeouts +
              report->whatif_degraded >
          0) {
    std::printf("economics:\n");
    std::printf("  %-32s %12llu\n", "what-if failures",
                static_cast<unsigned long long>(report->whatif_failures));
    std::printf("  %-32s %12llu\n", "what-if timeouts",
                static_cast<unsigned long long>(report->whatif_timeouts));
    std::printf("  %-32s %12llu\n", "cells degraded to bounds",
                static_cast<unsigned long long>(report->whatif_degraded));
    std::printf("  %-32s %12llu\n", "budget decision rounds",
                static_cast<unsigned long long>(report->budget_decisions));
    std::printf("  %-32s %12llu\n", "rounds choosing refinement",
                static_cast<unsigned long long>(report->budget_refine_rounds));
    std::printf(
        "  %-32s %12llu\n", "queries bound-refined",
        static_cast<unsigned long long>(report->budget_refined_queries));
    std::printf("  %-32s %12llu\n", "bound-refinement calls",
                static_cast<unsigned long long>(report->budget_bound_calls));
    std::printf("  %-32s %12llu\n", "dominance eliminations",
                static_cast<unsigned long long>(report->budget_dominated));
    std::printf("  %-32s %12llu\n", "refinement halts",
                static_cast<unsigned long long>(report->budget_halts));
  }
  // Per-phase profile: the span rollup, ranked by total wall-clock. The
  // aggregation is keyed, not positional, so interleaved multi-thread
  // span streams report identically however the lines landed in the file.
  if (report->num_spans > 0) {
    std::printf("profile: %llu spans\n",
                static_cast<unsigned long long>(report->num_spans));
    std::printf("  %-28s %10s %14s %14s\n", "phase", "count", "total_ms",
                "counter");
    for (const obs::SpanRollupRow& row : report->span_rollup) {
      std::string key = row.category + "/" + row.name;
      std::printf("  %-28s %10llu %14.3f %14llu\n", key.c_str(),
                  static_cast<unsigned long long>(row.count),
                  static_cast<double>(row.total_ns) / 1e6,
                  static_cast<unsigned long long>(row.counter_delta));
    }
  }
  std::string profile_path = FlagValue(argc, argv, "profile", "");
  if (!profile_path.empty()) {
    auto written = WriteChromeTrace(path, profile_path);
    if (!written.ok()) {
      std::printf("error: %s\n", written.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "chrome trace with %llu events written to %s (load via "
        "chrome://tracing or ui.perfetto.dev)\n",
        static_cast<unsigned long long>(*written), profile_path.c_str());
  }
  return 0;
}

int RunTune(int argc, char** argv) {
  std::string dir = FlagValue(argc, argv, "dir", "");
  if (dir.empty()) return Usage();
  double alpha;
  uint64_t max_structures, budget_mb, seed;
  WhatIfCacheMode cache_mode;
  BudgetPolicy budget_policy;
  FaultSpec fault_spec;
  bool faults_on = false;
  std::string ledger_dir;
  bool ledger_on = false;
  std::optional<ScenarioOptions> scenario;
  if (!DoubleFlag(argc, argv, "alpha", 0.9, &alpha) ||
      !U64Flag(argc, argv, "max-structures", 8, &max_structures) ||
      !U64Flag(argc, argv, "budget-mb", 0, &budget_mb) ||
      !U64Flag(argc, argv, "seed", 42, &seed) ||
      !CacheFlag(argc, argv, &cache_mode) ||
      !BudgetFlag(argc, argv, &budget_policy) ||
      !FaultsFlag(argc, argv, &fault_spec, &faults_on) ||
      !LedgerFlag(argc, argv, &ledger_dir, &ledger_on) ||
      !WorkloadFlag(argc, argv, &scenario)) {
    return 1;
  }
  if (faults_on && cache_mode == WhatIfCacheMode::kSignature) {
    std::printf(
        "error: --faults is incompatible with --cache=signature (signature "
        "caching calls the optimizer directly, bypassing injection)\n");
    return 1;
  }
  std::string metrics_fmt = FlagValue(argc, argv, "metrics", "");
  bool metrics = HasFlag(argc, argv, "metrics") || !metrics_fmt.empty();
  if (metrics || ledger_on) obs::SetTimingEnabled(true);

  auto schema = LoadSchema(SchemaPath(dir));
  if (!schema.ok()) {
    std::printf("error: %s\n", schema.status().ToString().c_str());
    return 1;
  }
  auto workload = ResolveWorkload(dir, *schema, scenario);
  if (!workload.ok()) {
    std::printf("error: %s\n", workload.status().ToString().c_str());
    return 1;
  }
  if (scenario.has_value()) {
    std::printf("scenario workload %s\n",
                FormatScenarioSpec(*scenario).c_str());
  }
  std::printf("loaded %zu queries, %zu templates\n", workload->size(),
              workload->num_templates());

  WhatIfOptimizer optimizer(*schema);
  std::vector<QueryId> ids(workload->size());
  std::iota(ids.begin(), ids.end(), 0);

  TunerOptions topt;
  topt.use_comparison_primitive = true;
  topt.cache = cache_mode;
  topt.max_structures = static_cast<uint32_t>(max_structures);
  topt.storage_budget_bytes = budget_mb * 1000000;
  topt.selector.alpha = alpha;
  topt.selector.budget_policy = budget_policy;
  topt.faults = fault_spec;
  Rng rng(seed);
  const uint64_t wall_t0 = obs::NowNs();
  TuneResult r =
      GreedyTune(optimizer, *workload, ids, {}, topt, &rng);
  const double wall_ms =
      static_cast<double>(obs::NowNs() - wall_t0) / 1e6;

  std::printf(
      "tuned: %zu indexes, %zu views, %.1f MB\n"
      "cost %.3e -> %.3e (%.1f%% improvement), %llu optimizer calls\n",
      r.config.indexes().size(), r.config.views().size(),
      static_cast<double>(r.config.StorageBytes(*schema)) / 1e6,
      r.initial_cost, r.final_cost, 100.0 * r.Improvement(),
      static_cast<unsigned long long>(r.optimizer_calls));
  if (budget_policy == BudgetPolicy::kDynamic) {
    std::printf(
        "budget (dynamic): %llu bound-refinement calls (in the call total), "
        "%llu queries refined, %llu configurations dominance-eliminated\n",
        static_cast<unsigned long long>(r.bound_refinement_calls),
        static_cast<unsigned long long>(r.refined_queries),
        static_cast<unsigned long long>(r.dominance_eliminations));
  }
  if (faults_on) {
    std::printf(
        "executor: %llu retries, %llu timeouts, %llu failures, %llu cells "
        "degraded to bounds\n",
        static_cast<unsigned long long>(r.whatif_retries),
        static_cast<unsigned long long>(r.whatif_timeouts),
        static_cast<unsigned long long>(r.whatif_failures),
        static_cast<unsigned long long>(r.degraded_cells));
  }
  int ledger_rc = 0;
  if (ledger_on) {
    ledger_rc = WriteLedgerEntry("tune", ledger_dir, argc, argv, seed,
                                 wall_ms, nullptr);
  }
  if (metrics) {
    Status st = obs::WriteMetricsDump(metrics_fmt);
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  return ledger_rc;
}

// pdx_tool runs list|diff A B: the run-ledger query side. `list` prints
// every manifest under the ledger directory; `diff` renders the
// regression-attribution table between two of them (path, exact file
// name, or unique name prefix).
int RunRuns(int argc, char** argv) {
  std::string dir = FlagValue(argc, argv, "runs-dir", "runs");
  std::vector<std::string> pos;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) pos.push_back(argv[i]);
  }
  if (pos.empty()) return Usage();
  if (pos[0] == "list") {
    auto files = ListManifestFiles(dir);
    if (!files.ok()) {
      std::printf("error: %s\n", files.status().ToString().c_str());
      return 1;
    }
    if (files->empty()) {
      std::printf("no run manifests under %s\n", dir.c_str());
      return 0;
    }
    std::printf("%-44s %-8s %10s %8s %-24s\n", "run", "tool", "wall_ms",
                "phases", "git");
    for (const std::string& f : *files) {
      auto m = ReadManifest(dir + "/" + f);
      if (!m.ok()) {
        std::printf("%-44s (unreadable: %s)\n", f.c_str(),
                    m.status().ToString().c_str());
        continue;
      }
      std::printf("%-44s %-8s %10.1f %8zu %-24s\n", f.c_str(),
                  m->tool.c_str(), m->wall_ms, m->phases.size(),
                  m->git.c_str());
    }
    return 0;
  }
  if (pos[0] == "diff") {
    if (pos.size() != 3) {
      std::printf("usage: pdx_tool runs diff A B [--runs-dir=DIR]\n");
      return 1;
    }
    auto path_a = ResolveManifestRef(pos[1], dir);
    auto path_b = ResolveManifestRef(pos[2], dir);
    if (!path_a.ok() || !path_b.ok()) {
      std::printf("error: %s\n", (!path_a.ok() ? path_a.status() :
                                                 path_b.status())
                                     .ToString()
                                     .c_str());
      return 1;
    }
    auto a = ReadManifest(*path_a);
    auto b = ReadManifest(*path_b);
    if (!a.ok() || !b.ok()) {
      std::printf("error: %s\n",
                  (!a.ok() ? a.status() : b.status()).ToString().c_str());
      return 1;
    }
    std::vector<LedgerDiffRow> rows = DiffManifests(*a, *b);
    std::printf("%s", FormatLedgerDiff(*a, *b, rows).c_str());
    return 0;
  }
  std::printf("error: unknown runs subcommand '%s' (list, diff)\n",
              pos[0].c_str());
  return 1;
}

// pdx_tool serve: the selection-as-a-service daemon (DESIGN.md §12).
// Long-lived loopback server for concurrent selection/tuning sessions
// over newline-delimited JSON, with the what-if and bounds caches held
// resident across sessions and /metrics scrapes on the same port.
int RunServe(int argc, char** argv) {
  uint64_t port, max_sessions, deadline_ms, workers, max_catalogs;
  std::string ledger_dir;
  bool ledger_on = false;
  if (!U64Flag(argc, argv, "port", 9464, &port) ||
      !U64Flag(argc, argv, "max-sessions", 0, &max_sessions) ||
      !U64Flag(argc, argv, "deadline-ms", 5000, &deadline_ms) ||
      !U64Flag(argc, argv, "workers", 4, &workers) ||
      !U64Flag(argc, argv, "max-catalogs", 4, &max_catalogs) ||
      !LedgerFlag(argc, argv, &ledger_dir, &ledger_on)) {
    return 1;
  }
  if (port > 65535) {
    std::printf("error: --port expects 0..65535\n");
    return 1;
  }
  if (workers == 0 || workers > 256) {
    std::printf("error: --workers expects 1..256\n");
    return 1;
  }
  // A deadline of 0 or one that wraps negative as an int would silently
  // turn off the per-connection deadline that keeps a stalled client from
  // wedging the daemon.
  if (deadline_ms == 0 || deadline_ms > INT_MAX) {
    std::printf("error: --deadline-ms expects 1..%d\n", INT_MAX);
    return 1;
  }
  service::ServeOptions sopt;
  sopt.port = static_cast<int>(port);
  sopt.max_sessions = max_sessions;
  sopt.read_deadline_ms = static_cast<int>(deadline_ms);
  sopt.num_workers = static_cast<size_t>(workers);
  sopt.max_catalogs = static_cast<size_t>(max_catalogs);
  if (ledger_on) sopt.ledger_dir = ledger_dir;
  Status st = service::ServeSelection(sopt);
  if (!st.ok()) {
    std::printf("error: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

int RunShow(int argc, char** argv) {
  std::string dir = FlagValue(argc, argv, "dir", "");
  if (dir.empty()) return Usage();
  auto schema = LoadSchema(SchemaPath(dir));
  if (!schema.ok()) {
    std::printf("error: %s\n", schema.status().ToString().c_str());
    return 1;
  }
  std::printf("schema '%s': %zu tables, %.2f GB\n", schema->name().c_str(),
              schema->num_tables(),
              static_cast<double>(schema->TotalHeapBytes()) / 1e9);
  auto workload = LoadWorkload(WorkloadPath(dir), *schema);
  if (workload.ok()) {
    std::printf("workload: %zu queries, %zu templates, %.0f%% DML\n",
                workload->size(), workload->num_templates(),
                100.0 * workload->DmlFraction());
  }
  auto configs = LoadAllConfigs(dir, *schema);
  if (configs.ok()) {
    for (size_t c = 0; c < configs->size(); ++c) {
      const Configuration& cfg = (*configs)[c];
      std::printf("config %zu '%s': %zu indexes, %zu views, %.1f MB\n", c,
                  cfg.name().c_str(), cfg.indexes().size(), cfg.views().size(),
                  static_cast<double>(cfg.StorageBytes(*schema)) / 1e6);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (FlagPresent(argc, argv, "threads")) {
    std::optional<size_t> n =
        ParseThreadCount(FlagValue(argc, argv, "threads", ""));
    if (!n) {
      std::printf("error: --threads expects 1..%zu\n", kMaxThreadCount);
      return 1;
    }
    SetGlobalThreadCount(*n);
  }
  std::string command = argv[1];
  if (command == "gen") return RunGen(argc, argv);
  if (command == "compare") return RunCompare(argc, argv);
  if (command == "tune") return RunTune(argc, argv);
  if (command == "report") return RunReport(argc, argv);
  if (command == "runs") return RunRuns(argc, argv);
  if (command == "serve") return RunServe(argc, argv);
  if (command == "show") return RunShow(argc, argv);
  if (command == "validate") return RunValidate(argc, argv);
  return Usage();
}
