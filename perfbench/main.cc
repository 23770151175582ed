// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --pdx-tool PATH --work-dir DIR
//
// Workloads: tpcd_compare, crm_compare, tpcd_tune_rw, serve_mixed (see
// README.md). --trace 0 prints the end-to-end metrics; --trace 1 runs the
// same ops untraced and then traced and prints the per-layer metrics and
// the span rollup. The last stdout line is the JSON result. The exit code
// is non-zero when an output check or a correctness gate fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "bench.h"
#include "common/binomial.h"
#include "common/obs.h"
#include "common/thread_pool.h"
#include "layers.h"

namespace perfbench {

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void FillCounterLayers(const std::function<double(const std::string&)>& per_op,
                       LayerValues* v) {
  const double exact_hit =
      per_op("pdx_cache_exact_hit_total") + per_op("pdx_cache_sig_exact_hit_total");
  const double sig_hit = per_op("pdx_cache_sig_signature_hit_total");
  v->cache_misses =
      per_op("pdx_cache_exact_cold_total") + per_op("pdx_cache_sig_cold_total");
  const double lookups = exact_hit + sig_hit + v->cache_misses;
  v->exact_hit_ratio = lookups > 0 ? exact_hit / lookups : 0.0;
  v->sig_hit_ratio = lookups > 0 ? sig_hit / lookups : 0.0;
  v->selector_cells = lookups;
  v->selector_rounds = per_op("pdx_selector_rounds_total");
  v->splits = per_op("pdx_selector_splits_total");
  v->split_search_ms = per_op("pdx_strat_split_search_ns_sum") / 1e6;
  v->bound_calls = per_op("pdx_budget_bound_calls_total");
  v->dominance_eliminations = per_op("pdx_budget_dominance_eliminations_total");
  v->tuner_rounds = per_op("pdx_tuner_rounds_total");
  v->tuner_round_ms = v->tuner_rounds > 0
                          ? per_op("pdx_tuner_round_ns_sum") / 1e6 / v->tuner_rounds
                          : 0.0;
  v->structures_added = per_op("pdx_tuner_structures_added_total");
}

void FillSpanLayers(const SpanAccumulator& spans, double ops,
                    double split_search_ms, LayerValues* v) {
  // Estimator kernels record every kSpanRoundInterval-th call; the other
  // calls run inside selector spans, so they come out of its self time,
  // as does the split search (inside the decimated stratify spans).
  const double interval = static_cast<double>(pdx::obs::kSpanRoundInterval);
  v->kernel_ms = interval *
                 (spans.TotalMs("estimator", "diff_stats") +
                  spans.TotalMs("estimator", "estimates")) /
                 ops;
  v->decide_ms = spans.TotalMs("budget", "decide_round") / ops;
  v->selector_self_ms =
      std::max(0.0, spans.CategorySelfMs("selector") / ops - split_search_ms -
                        v->kernel_ms * (interval - 1.0) / interval);
}

std::vector<Metric> LayerTable(const LayerValues& v) {
  return {
      {"workload.build_ms", v.workload_build_ms, "ms"},
      {"tuner.enumerate_ms", v.enumerate_ms, "ms"},
      {"optimizer.whatif_calls", v.whatif_calls, "count"},
      {"optimizer.whatif_ms", v.whatif_ms, "ms"},
      {"optimizer.us_per_call", v.us_per_call, "us"},
      {"core.cache.exact_hit_ratio", v.exact_hit_ratio, "ratio"},
      {"core.cache.sig_hit_ratio", v.sig_hit_ratio, "ratio"},
      {"core.cache.build_ms", v.cache_build_ms, "ms"},
      {"core.cache.self_ms", v.cache_self_ms, "ms"},
      {"core.selector.self_ms", v.selector_self_ms, "ms"},
      {"core.selector.rounds", v.selector_rounds, "count"},
      {"core.selector.cells", v.selector_cells, "count"},
      {"core.selector.estimator_bytes", v.estimator_bytes, "bytes"},
      {"core.estimators.kernel_ms", v.kernel_ms, "ms"},
      {"core.stratification.split_search_ms", v.split_search_ms, "ms"},
      {"core.stratification.splits", v.splits, "count"},
      {"core.budget.decide_ms", v.decide_ms, "ms"},
      {"core.budget.bound_calls", v.bound_calls, "count"},
      {"core.budget.dominance_eliminations", v.dominance_eliminations, "count"},
      {"tuner.rounds", v.tuner_rounds, "count"},
      {"tuner.round_ms", v.tuner_round_ms, "ms"},
      {"tuner.structures_added", v.structures_added, "count"},
      {"service.server_ms", v.server_ms, "ms"},
      {"service.framing_ms", v.framing_ms, "ms"},
      {"service.catalog_loads", v.catalog_loads, "count"},
      {"service.catalog_hits", v.catalog_hits, "count"},
      {"service.errors", v.errors, "count"},
      {"common.pool.busy_ms", v.pool_busy_ms, "ms"},
      {"common.pool.jobs", v.pool_jobs, "count"},
      {"harness.dropped_spans", v.dropped_spans, "count"},
      {"harness.trace_overhead_pct", v.trace_overhead_pct, "%"},
      {"harness.spin_ms", v.spin_ms, "ms"},
  };
}

namespace {

/// Fresh set-ups per run: enough to spend about kSetupBudgetS, between
/// kMinSetups and kMaxSetups; the reported setup_s is their median.
constexpr double kSetupBudgetS = 4.0;
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 50;
/// Untimed warm-up ops, at seeds outside the timed set.
constexpr int kWarmupOps = 3;
/// Op pairs (untraced, traced) of a traced run at least.
constexpr size_t kMinTraceOps = 20;
/// pdx_tool compare's default target Pr(CS) and the confidence of the
/// one-sided Clopper-Pearson gate on the realized correct share.
constexpr double kAlpha = 0.9;
constexpr double kGateConfidence = 0.999;

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      o->trace = v == "1";
    } else if (k == "--pdx-tool") {
      o->pdx_tool = v;
    } else if (k == "--work-dir") {
      o->work_dir = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", k.c_str());
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0;
}

/// Runs op `seed` once. With `layers` non-null the op runs with obs
/// timing on and the decorators in place, its registry deltas are added to
/// `layers` and the span rings are drained into `spans`.
OpRecord RunOneOp(BatchWorkload* wl, uint64_t seed, LayerMap* layers,
                  SpanAccumulator* spans) {
  const bool traced = layers != nullptr;
  pdx::obs::SetTimingEnabled(traced);
  RegistryReading before;
  if (traced) before = ReadRegistry();
  OpRecord rec;
  const double cpu0 = CpuMs();
  const double t0 = NowMs();
  try {
    rec = wl->RunOp(seed, layers);
  } catch (const std::exception& e) {
    rec = OpRecord();
    rec.failed = true;
    rec.error = e.what();
  }
  rec.wall_ms = NowMs() - t0;
  rec.cpu_ms = CpuMs() - cpu0;
  rec.seed = seed;
  pdx::obs::SetTimingEnabled(false);
  if (traced) {
    const RegistryReading after = ReadRegistry();
    for (const auto& kv : after) {
      (*layers)["reg." + kv.first] += Delta(before, after, kv.first);
    }
    spans->Drain();
  }
  return rec;
}

/// Set-ups a run makes, given the time of its first one.
size_t SetupsWanted(double first_s) {
  return std::clamp<size_t>(
      static_cast<size_t>(std::ceil(kSetupBudgetS / std::max(1e-6, first_s))),
      kMinSetups, kMaxSetups);
}

void AddSetup(BatchWorkload* wl, std::vector<SetupTiming>* setups) {
  SetupTiming t;
  wl->Setup(&t);
  setups->push_back(t);
}

/// The untraced timed phase: op seeds 0, 1, ... until `seconds` of op
/// time elapsed and at least CountOps() ran. The set-ups after the first
/// are spread evenly over it, so that setup_s samples the same stretch of
/// machine time as the ops (machine speed drifts over tens of seconds);
/// a set-up rebuilds identical inputs, and its time counts in no op.
struct Pass {
  std::vector<OpRecord> ops;
  /// Op time only, set-ups excluded.
  double wall_s = 0.0;
};

Pass RunPass(BatchWorkload* wl, const Options& o, size_t total_setups,
             std::vector<SetupTiming>* setups) {
  Pass pass;
  const double budget_ms = o.seconds * 1000.0;
  const double slots = static_cast<double>(total_setups);
  double op_ms = 0.0;
  for (size_t i = 0; i < wl->CountOps() || op_ms < budget_ms; ++i) {
    if (setups->size() < total_setups &&
        op_ms >= static_cast<double>(setups->size()) * budget_ms / slots) {
      AddSetup(wl, setups);
    }
    const double t0 = NowMs();
    pass.ops.push_back(
        RunOneOp(wl, DeriveSeed(o.seed, kOpStream, i), nullptr, nullptr));
    op_ms += NowMs() - t0;
  }
  while (setups->size() < total_setups) AddSetup(wl, setups);
  pass.wall_s = op_ms / 1000.0;
  return pass;
}

void PrintSetups(const std::vector<SetupTiming>& setups) {
  std::vector<double> v;
  for (const SetupTiming& t : setups) v.push_back(t.total_s);
  std::printf("set-ups: %zu, median %.4f s, min %.4f s, max %.4f s\n",
              v.size(), Median(v), Percentile(v, 0.0), Percentile(v, 1.0));
}

std::vector<double> WallMs(const std::vector<OpRecord>& ops) {
  std::vector<double> v;
  for (const OpRecord& op : ops) v.push_back(op.wall_ms);
  return v;
}

std::vector<double> CpuMsOf(const std::vector<OpRecord>& ops) {
  std::vector<double> v;
  for (const OpRecord& op : ops) v.push_back(op.cpu_ms);
  return v;
}

/// Span rows recorded only on every kSpanRoundInterval-th call.
bool Decimated(const pdx::obs::SpanRollupRow& r) {
  const std::string n = r.name;
  if (r.category == "estimator") return true;
  return r.category == "selector" &&
         (n == "whatif" || n == "estimate" || n == "pairwise" ||
          n == "termination" || n == "sample" || n == "stratify");
}

void PrintSpanRollup(const SpanAccumulator& spans, double op_ms_total) {
  std::printf("span rollup (share of traced op wall time; rows marked "
              "'sampled' are 1-in-%llu decimated, so their share is a "
              "sampled share):\n",
              static_cast<unsigned long long>(pdx::obs::kSpanRoundInterval));
  for (const auto& r : spans.Rows()) {
    const double ms = static_cast<double>(r.total_ns) / 1e6;
    std::printf("  %-12s %-18s %10llu spans %12.2f ms %7.2f%%%s\n",
                r.category.c_str(), r.name.c_str(),
                static_cast<unsigned long long>(r.count), ms,
                op_ms_total > 0.0 ? 100.0 * ms / op_ms_total : 0.0,
                Decimated(r) ? "  sampled" : "");
  }
}

/// The per-layer metrics of a traced in-process run, per op.
LayerValues BatchLayers(BatchWorkload* wl, const LayerMap& L,
                        const SpanAccumulator& spans,
                        const std::vector<SetupTiming>& setups,
                        const std::vector<OpRecord>& traced_ops) {
  const double dn = static_cast<double>(traced_ops.size());
  auto get = [&](const std::string& k) {
    auto it = L.find(k);
    return it == L.end() ? 0.0 : it->second / dn;
  };
  auto setup_median = [&](double SetupTiming::*field) {
    std::vector<double> v;
    for (const SetupTiming& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  LayerValues v;
  FillCounterLayers([&](const std::string& name) { return get("reg." + name); }, &v);
  FillSpanLayers(spans, dn, v.split_search_ms, &v);
  v.workload_build_ms = setup_median(&SetupTiming::workload_build_ms);
  v.enumerate_ms = setup_median(&SetupTiming::enumerate_ms);
  v.pool_busy_ms = setup_median(&SetupTiming::pool_busy_ms);
  v.pool_jobs = setup_median(&SetupTiming::pool_jobs);
  for (const OpRecord& op : traced_ops) v.whatif_calls += static_cast<double>(op.whatif_calls);
  v.whatif_calls /= dn;
  // Optimizer time: timed directly below the exact cache where the
  // benchmark builds that stack (tpcd_compare); elsewhere calls times the
  // per-call time of the calibration loop on the same catalog.
  if (get("sum.opt_timed_calls") > 0.0) {
    v.whatif_ms = get("sum.opt_ms");
    v.us_per_call = 1000.0 * get("sum.opt_ms") / get("sum.opt_timed_calls");
  } else {
    v.us_per_call = wl->CalibrateUsPerCall();
    v.whatif_ms = v.whatif_calls * v.us_per_call / 1000.0;
  }
  // Cache self time: the top decorator minus the optimizer where the
  // benchmark builds the stack, else the cache-tier spans' self time
  // minus the optimizer calls their misses made.
  const bool decorated = get("sum.cells") > 0.0;
  v.cache_self_ms = std::max(
      0.0, decorated ? get("sum.cost_ms") - v.whatif_ms
                     : (spans.SelfMs("cost", "exact_batch") + spans.SelfMs("cost", "sig_batch")) / dn -
                           v.cache_misses * v.us_per_call / 1000.0);
  if (decorated) v.selector_cells = get("sum.cells");
  v.cache_build_ms = get("sum.cache_build_ms");
  v.estimator_bytes = get("sum.estimator_bytes");
  v.dropped_spans = static_cast<double>(spans.dropped());
  return v;
}

int RunBatch(const Options& o, BatchWorkload* wl) {
  const double spin_ms = SpinMs();
  std::printf("spin %.2f ms, memory probe %.2f ms, load average %.2f\n",
              spin_ms, MemProbeMs(), LoadAverage1());

  // Fresh set-ups, median reported: the first before the warm-up ops; an
  // untraced run spreads the rest over its timed phase, a traced run makes
  // them all here.
  std::vector<SetupTiming> setups;
  AddSetup(wl, &setups);
  const size_t total_setups = SetupsWanted(setups[0].total_s);
  if (o.trace) {
    while (setups.size() < total_setups) AddSetup(wl, &setups);
    PrintSetups(setups);
  }
  for (int w = 0; w < kWarmupOps; ++w) {
    RunOneOp(wl, DeriveSeed(o.seed, kWarmupStream, w), nullptr, nullptr);
  }

  if (!o.trace) {
    Pass pass = RunPass(wl, o, total_setups, &setups);
    PrintSetups(setups);
    std::vector<double> setup_s;
    for (const SetupTiming& t : setups) setup_s.push_back(t.total_s);
    const double rss = PeakRssMb();
    wl->Check(&pass.ops);
    const size_t n = pass.ops.size();
    uint64_t failed = 0;
    uint64_t quality_ok = 0;
    for (const OpRecord& op : pass.ops) {
      if (op.failed) {
        if (++failed <= 3) std::printf("FAILED op seed %llu: %s\n",
                                       static_cast<unsigned long long>(op.seed),
                                       op.error.c_str());
      } else if (op.quality_ok) {
        ++quality_ok;
      }
    }
    // Count metrics over exactly the first CountOps() ops.
    const size_t counted = wl->CountOps();
    double calls = 0, samples = 0, correct = 0, improvement = 0;
    for (size_t i = 0; i < counted; ++i) {
      calls += static_cast<double>(pass.ops[i].whatif_calls);
      samples += static_cast<double>(pass.ops[i].samples);
      correct += pass.ops[i].quality_ok ? 1.0 : 0.0;
      improvement += pass.ops[i].improvement_pct;
    }
    // The realized correct share must not refute Pr(CS) >= alpha.
    const double cp_upper = pdx::ClopperPearsonUpper(quality_ok, n, kGateConfidence);
    const bool gate_ok = cp_upper >= kAlpha;
    std::printf("correctness: %llu/%zu ops pass the quality check; one-sided "
                "Clopper-Pearson %.3f upper bound %.4f %s alpha %.2f\n",
                static_cast<unsigned long long>(quality_ok), n, kGateConfidence,
                cp_upper, gate_ok ? ">=" : "<", kAlpha);
    const std::vector<double> wall = WallMs(pass.ops);
    std::printf("op_ms deciles:");
    for (int d = 1; d <= 9; ++d) std::printf(" %.1f", Percentile(wall, d / 10.0));
    std::printf("\nop CPU ms p50 %.3f p90 %.3f (wall p50 %.3f p90 %.3f)\n",
                Percentile(CpuMsOf(pass.ops), 0.5), Percentile(CpuMsOf(pass.ops), 0.9),
                Percentile(wall, 0.5), Percentile(wall, 0.9));
    const double p90 = Percentile(wall, 0.9);
    size_t beyond = 0;
    for (double w : wall) beyond += w > p90 ? 1 : 0;
    std::printf("timed ops: %zu in %.2f s of op time (counts over the first "
                "%zu); %zu samples beyond p90; spin after %.2f ms, memory probe "
                "%.2f ms, load average %.2f\n",
                n, pass.wall_s, counted, beyond, SpinMs(), MemProbeMs(),
                LoadAverage1());
    const double dn = static_cast<double>(counted);
    PrintResult(gate_ok && failed == 0, n, failed,
                {{"setup_s", Median(setup_s), "s"},
                 {"op_ms_p50", Percentile(wall, 0.5), "ms"},
                 {"op_ms_p90", p90, "ms"},
                 {"ops_per_s", static_cast<double>(n) / pass.wall_s, "1/s"},
                 {"whatif_calls_per_op", calls / dn, "count"},
                 {"samples_per_op", samples / dn, "count"},
                 {"correct_share", correct / dn, "fraction"},
                 {"improvement_pct", improvement / dn, "%"},
                 {"success_share",
                  static_cast<double>(n - failed) / static_cast<double>(n),
                  "fraction"},
                 {"peak_rss_mb", rss, "MB"}});
    return gate_ok && failed == 0 ? 0 : 1;
  }

  // Traced run: every op seed runs twice back to back, untraced and then
  // traced, for --seconds (at least kMinTraceOps pairs); the
  // paired medians give the tracing overhead.
  Pass plain, traced;
  LayerMap layers;
  SpanAccumulator spans;
  const double start = NowMs();
  for (size_t i = 0; i < kMinTraceOps || NowMs() - start < o.seconds * 1000.0; ++i) {
    const uint64_t seed = DeriveSeed(o.seed, kOpStream, i);
    plain.ops.push_back(RunOneOp(wl, seed, nullptr, nullptr));
    traced.ops.push_back(RunOneOp(wl, seed, &layers, &spans));
  }
  std::vector<OpRecord> all = plain.ops;
  all.insert(all.end(), traced.ops.begin(), traced.ops.end());
  wl->Check(&all);
  uint64_t failed = 0;
  for (const OpRecord& op : all) failed += op.failed ? 1 : 0;
  const double p50_plain = Percentile(WallMs(plain.ops), 0.5);
  const double p50_traced = Percentile(WallMs(traced.ops), 0.5);
  const double overhead_pct = 100.0 * (p50_traced / p50_plain - 1.0);
  std::printf("traced pass: %zu ops, op_ms_p50 %.3f traced vs %.3f untraced "
              "(overhead %.2f%%)\n",
              traced.ops.size(), p50_traced, p50_plain, overhead_pct);
  PrintSpanRollup(spans, [&] {
    double t = 0;
    for (const OpRecord& op : traced.ops) t += op.wall_ms;
    return t;
  }());
  LayerValues values = BatchLayers(wl, layers, spans, setups, traced.ops);
  values.trace_overhead_pct = overhead_pct;
  values.spin_ms = spin_ms;
  const bool ok = failed == 0 && spans.dropped() == 0;
  if (spans.dropped() != 0) {
    std::printf("FAILED: %llu spans dropped\n",
                static_cast<unsigned long long>(spans.dropped()));
  }
  PrintResult(ok, all.size(), failed, LayerTable(values));
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S --trace "
                 "0|1 --pdx-tool PATH --work-dir DIR\n");
    return 2;
  }
  pdx::SetGlobalThreadCount(kPoolThreads);
  std::printf("perfbench %s seed %llu seconds %d trace %d: pool threads %zu, "
              "%d processors\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, pdx::GlobalThreadCount(),
              NumProcessors());
  if (o.workload == "serve_mixed") return RunServeMixed(o);
  std::unique_ptr<BatchWorkload> wl;
  if (o.workload == "tpcd_compare") {
    wl = MakeTpcdCompare();
  } else if (o.workload == "crm_compare") {
    wl = MakeCrmCompare();
  } else if (o.workload == "tpcd_tune_rw") {
    wl = MakeTpcdTuneRw();
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  return RunBatch(o, wl.get());
}
