#include "common/obs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "common/string_util.h"

namespace pdx::obs {

namespace {

std::atomic<bool> g_timing_enabled{false};

/// Stable per-thread shard index: hashed once per thread.
size_t ThreadShard() {
  static thread_local const size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return shard;
}

/// Index of the power-of-two bucket holding `v`: floor(log2(v)), clamped.
size_t BucketOf(uint64_t v) {
  if (v <= 1) return 0;
  size_t b = 63 - static_cast<size_t>(__builtin_clzll(v));
  return std::min(b, Histogram::kNumBuckets - 1);
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool TimingEnabled() {
  return g_timing_enabled.load(std::memory_order_relaxed);
}

void SetTimingEnabled(bool on) {
  g_timing_enabled.store(on, std::memory_order_relaxed);
}

void Counter::Add(uint64_t v) {
  cells_[ThreadShard() % kShards].v.fetch_add(v, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::Reset() {
  for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
}

void Gauge::UpdateMax(int64_t v) {
  int64_t cur = v_.load(std::memory_order_relaxed);
  while (v > cur &&
         !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Histogram::Record(uint64_t value_ns) {
  buckets_[BucketOf(value_ns)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value_ns, std::memory_order_relaxed);
}

void Histogram::RecordBatch(uint64_t total_ns, uint64_t count) {
  if (count == 0) return;
  buckets_[BucketOf(total_ns / count)].fetch_add(count,
                                                 std::memory_order_relaxed);
  count_.fetch_add(count, std::memory_order_relaxed);
  sum_.fetch_add(total_ns, std::memory_order_relaxed);
}

uint64_t Histogram::BucketUpperNs(size_t b) {
  PDX_CHECK(b < kNumBuckets);
  return (b + 1 >= 64) ? UINT64_MAX : (uint64_t{1} << (b + 1)) - 1;
}

double Histogram::Quantile(double p) const {
  PDX_CHECK(p >= 0.0 && p <= 1.0);
  // Snapshot the buckets (relaxed: concurrent Record may shift the answer
  // by the in-flight observations, which is fine for reporting).
  std::array<uint64_t, kNumBuckets> snap;
  uint64_t total = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    snap[b] = buckets_[b].load(std::memory_order_relaxed);
    total += snap[b];
  }
  if (total == 0) return 0.0;
  double target = p * static_cast<double>(total);
  double below = 0.0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    double next = below + static_cast<double>(snap[b]);
    if (next >= target || b + 1 == kNumBuckets) {
      double lo = b == 0 ? 0.0 : static_cast<double>(uint64_t{1} << b);
      double hi = static_cast<double>(BucketUpperNs(b)) + 1.0;
      // All samples in this one bucket: the within-bucket rank carries no
      // information (frac would just replay p), so every quantile is the
      // bucket midpoint — p99 of one observation must not report the
      // bucket's upper edge.
      if (snap[b] == total) return lo + 0.5 * (hi - lo);
      double inside = static_cast<double>(snap[b]);
      double frac = inside > 0.0 ? (target - below) / inside : 0.0;
      frac = std::clamp(frac, 0.0, 1.0);
      return lo + frac * (hi - lo);
    }
    below = next;
  }
  return static_cast<double>(BucketUpperNs(kNumBuckets - 1));
}

double Histogram::MeanNs() const {
  uint64_t n = Count();
  return n > 0 ? static_cast<double>(SumNs()) / static_cast<double>(n) : 0.0;
}

void Histogram::MergeFrom(const Histogram& other) {
  for (size_t b = 0; b < kNumBuckets; ++b) {
    uint64_t v = other.buckets_[b].load(std::memory_order_relaxed);
    if (v > 0) buckets_[b].fetch_add(v, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // never destroyed: metric
  return *registry;  // handles outlive static-destruction order races
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

namespace {

/// Escapes a `# HELP` value per the Prometheus text exposition rules:
/// backslash and newline are the two characters with meaning there.
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string MetricHelp(const std::string& name) {
  static const std::map<std::string, std::string>* kHelp =
      new std::map<std::string, std::string>{
          {"pdx_whatif_calls_total", "Real what-if optimizer calls issued"},
          {"pdx_whatif_cold_ns", "Per-call latency of cold what-if calls"},
          {"pdx_whatif_signature_hit_ns",
           "Per-call latency of signature-cache hits"},
          {"pdx_whatif_exact_hit_ns",
           "Per-call latency of exact-cell cache hits"},
          {"pdx_whatif_retries_total", "What-if executor retry attempts"},
          {"pdx_whatif_timeouts_total", "What-if calls exceeding deadline"},
          {"pdx_whatif_failures_total", "What-if calls failing all retries"},
          {"pdx_whatif_degraded_cells_total",
           "Cells degraded to Section-6 cost bounds"},
          {"pdx_cache_exact_cold_total", "Exact-cell cache misses"},
          {"pdx_cache_exact_hit_total", "Exact-cell cache hits"},
          {"pdx_cache_sig_cold_total", "Signature cache cold fills"},
          {"pdx_cache_sig_signature_hit_total",
           "Signature cache structure-signature hits"},
          {"pdx_cache_sig_exact_hit_total", "Signature cache exact hits"},
          {"pdx_selector_runs_total", "Selection runs started"},
          {"pdx_selector_rounds_total", "Selection-loop rounds executed"},
          {"pdx_selector_eliminations_total",
           "Configurations frozen by elimination"},
          {"pdx_selector_splits_total", "Stratification splits accepted"},
          {"pdx_selector_run_ns", "End-to-end selection run latency"},
          {"pdx_strat_split_search_ns", "Algorithm-2 split-search latency"},
          {"pdx_estimator_samples_total", "Samples folded into estimators"},
          {"pdx_pool_jobs_total", "ThreadPool jobs executed"},
          {"pdx_pool_chunks_total", "ThreadPool chunks executed"},
          {"pdx_pool_busy_ns_total", "Cumulative worker busy time"},
          {"pdx_pool_queue_depth", "Current ThreadPool queue depth"},
          {"pdx_pool_threads", "Configured ThreadPool worker count"},
          {"pdx_pool_job_ns", "Per-job ThreadPool latency"},
          {"pdx_budget_bound_calls_total",
           "Section-6.1 bound-refinement derivations"},
          {"pdx_budget_refine_rounds_total", "Rounds choosing refinement"},
          {"pdx_budget_refined_queries_total", "Queries bound-refined"},
          {"pdx_budget_dominance_eliminations_total",
           "Configurations eliminated by interval dominance"},
          {"pdx_budget_refine_halts_total",
           "Runs halting refinement by the separability projection"},
          {"pdx_fault_injected_failures_total", "Injected what-if failures"},
          {"pdx_fault_injected_slow_total", "Injected what-if latency spikes"},
          {"pdx_tuner_rounds_total", "Greedy tuner rounds executed"},
          {"pdx_tuner_structures_added_total",
           "Structures accepted by the greedy tuner"},
          {"pdx_tuner_round_ns", "Per-round greedy tuner latency"},
      };
  auto it = kHelp->find(name);
  if (it != kHelp->end()) return it->second;
  return "pdexplore metric " + name + " (see src/common/obs.h)";
}

std::string Registry::DumpPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += StringFormat("# HELP %s %s\n# TYPE %s counter\n%s %llu\n",
                        name.c_str(), EscapeHelp(MetricHelp(name)).c_str(),
                        name.c_str(), name.c_str(),
                        static_cast<unsigned long long>(c->Value()));
  }
  for (const auto& [name, g] : gauges_) {
    out += StringFormat("# HELP %s %s\n# TYPE %s gauge\n%s %lld\n",
                        name.c_str(), EscapeHelp(MetricHelp(name)).c_str(),
                        name.c_str(), name.c_str(),
                        static_cast<long long>(g->Value()));
  }
  for (const auto& [name, h] : histograms_) {
    out += StringFormat("# HELP %s %s\n# TYPE %s summary\n", name.c_str(),
                        EscapeHelp(MetricHelp(name)).c_str(), name.c_str());
    for (double q : {0.5, 0.95, 0.99}) {
      out += StringFormat("%s{quantile=\"%.2f\"} %.0f\n", name.c_str(), q,
                          h->Quantile(q));
    }
    out += StringFormat("%s_sum %llu\n%s_count %llu\n", name.c_str(),
                        static_cast<unsigned long long>(h->SumNs()),
                        name.c_str(),
                        static_cast<unsigned long long>(h->Count()));
  }
  return out;
}

std::vector<Registry::Sample> Registry::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  for (const auto& [name, c] : counters_) {
    out.push_back({name, "counter", static_cast<double>(c->Value())});
  }
  for (const auto& [name, g] : gauges_) {
    out.push_back({name, "gauge", static_cast<double>(g->Value())});
  }
  for (const auto& [name, h] : histograms_) {
    out.push_back(
        {name + "_count", "histogram", static_cast<double>(h->Count())});
    out.push_back(
        {name + "_sum", "histogram", static_cast<double>(h->SumNs())});
  }
  return out;
}

std::string Registry::DumpCsv() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "name,kind,count,value,p50_ns,p95_ns,p99_ns\n";
  for (const auto& [name, c] : counters_) {
    out += StringFormat("%s,counter,,%llu,,,\n", name.c_str(),
                        static_cast<unsigned long long>(c->Value()));
  }
  for (const auto& [name, g] : gauges_) {
    out += StringFormat("%s,gauge,,%lld,,,\n", name.c_str(),
                        static_cast<long long>(g->Value()));
  }
  for (const auto& [name, h] : histograms_) {
    out += StringFormat("%s,histogram,%llu,%llu,%.0f,%.0f,%.0f\n",
                        name.c_str(),
                        static_cast<unsigned long long>(h->Count()),
                        static_cast<unsigned long long>(h->SumNs()),
                        h->Quantile(0.5), h->Quantile(0.95),
                        h->Quantile(0.99));
  }
  return out;
}

Status WriteMetricsDump(const std::string& spec) {
  std::string dump;
  std::string path;
  if (spec.empty() || spec == "prom") {
    dump = Registry::Global().DumpPrometheus();
  } else if (spec == "csv") {
    dump = Registry::Global().DumpCsv();
  } else if (spec.rfind("csv:", 0) == 0) {
    path = spec.substr(4);
    if (path.empty()) {
      return Status::InvalidArgument("--metrics=csv: requires a path");
    }
    dump = Registry::Global().DumpCsv();
  } else {
    path = spec;
    dump = Registry::Global().DumpPrometheus();
  }
  if (path.empty()) {
    std::fwrite(dump.data(), 1, dump.size(), stdout);
    return Status::OK();
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open metrics file '" + path +
                           "' for write");
  }
  std::fwrite(dump.data(), 1, dump.size(), f);
  const bool write_error = std::ferror(f) != 0;
  std::fclose(f);
  if (write_error) {
    return Status::IOError("write error on metrics file '" + path + "'");
  }
  std::printf("metrics written to %s\n", path.c_str());
  return Status::OK();
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  // In place: call sites cache the metric handles in static locals, so
  // the objects themselves must survive a reset.
  for (auto& [name, c] : counters_) {
    (void)name;
    c->Reset();
  }
  for (auto& [name, g] : gauges_) {
    (void)name;
    g->Set(0);
  }
  for (auto& [name, h] : histograms_) {
    (void)name;
    h->Reset();
  }
}

}  // namespace pdx::obs
