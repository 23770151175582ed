#include "common/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <memory>

#include "common/obs.h"
#include "common/span.h"

namespace pdx {

namespace {

// Interned pool metrics. busy_ns / job_ns need clock reads, so they are
// gated on obs::TimingEnabled() like every other timing site.
struct PoolMetricSet {
  obs::Counter* jobs;
  obs::Counter* chunks;
  obs::Counter* busy_ns;
  obs::Gauge* queue_depth;
  obs::Gauge* threads;
  obs::Histogram* job_ns;
};

PoolMetricSet& PoolMetrics() {
  static PoolMetricSet m = [] {
    obs::Registry& r = obs::Registry::Global();
    return PoolMetricSet{r.GetCounter("pdx_pool_jobs_total"),
                         r.GetCounter("pdx_pool_chunks_total"),
                         r.GetCounter("pdx_pool_busy_ns_total"),
                         r.GetGauge("pdx_pool_queue_depth"),
                         r.GetGauge("pdx_pool_threads"),
                         r.GetHistogram("pdx_pool_job_ns")};
  }();
  return m;
}

thread_local bool tls_in_worker = false;
// Depth of ParallelFor parallel-path invocations on this thread. A chunk
// body running on the *submitting* thread is not a worker, but a nested
// ParallelFor from it must still run serially: the outer call holds the
// pool's submit mutex.
thread_local int tls_parallel_depth = 0;

struct ParallelDepthScope {
  ParallelDepthScope() { ++tls_parallel_depth; }
  ~ParallelDepthScope() { --tls_parallel_depth; }
};

/// Configured-but-maybe-not-yet-built global pool state.
struct GlobalPoolState {
  std::mutex mu;
  std::unique_ptr<ThreadPool> pool;
  size_t configured = 0;  // 0 = not explicitly configured

  size_t ResolveSize() const {
    if (configured > 0) return configured;
    if (const char* env = std::getenv("PDX_THREADS")) {
      if (std::optional<size_t> n = ParseThreadCount(env)) return *n;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<size_t>(hw) : 1;
  }
};

GlobalPoolState& GlobalState() {
  static GlobalPoolState state;
  return state;
}

}  // namespace

std::optional<size_t> ParseThreadCount(std::string_view text) {
  size_t n = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc() || ptr != end || n < 1 || n > kMaxThreadCount) {
    return std::nullopt;
  }
  return n;
}

ThreadPool::ThreadPool(size_t num_threads) {
  PDX_CHECK(num_threads >= 1);
  workers_.reserve(num_threads - 1);
  for (size_t i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  PoolMetrics().threads->Set(static_cast<int64_t>(num_threads));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::InWorker() { return tls_in_worker; }

void ThreadPool::RunChunks() {
  // One span per participating thread per job — chunk granularity would
  // swamp the ring on fine-grained ParallelFor bodies.
  obs::SpanScope job_span("run_chunks", "pool");
  const uint64_t t0 = obs::TimerStart();
  uint64_t chunks_run = 0;
  while (true) {
    size_t start = cursor_.fetch_add(chunk_, std::memory_order_relaxed);
    if (start >= end_) break;
    size_t stop = std::min(start + chunk_, end_);
    ++chunks_run;
    try {
      (*fn_)(start, stop);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
      // Cancel remaining chunks; in-flight ones finish normally.
      cursor_.store(end_, std::memory_order_relaxed);
    }
  }
  if (chunks_run > 0) {
    PoolMetrics().chunks->Add(chunks_run);
    if (t0 != 0) {
      const uint64_t busy = obs::NowNs() - t0;
      PoolMetrics().busy_ns->Add(busy);
      PoolMetrics().job_ns->Record(busy);
    }
  }
}

void ThreadPool::WorkerLoop() {
  tls_in_worker = true;
  uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
    }
    RunChunks();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--workers_active_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t chunk,
                             const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  const size_t n = end - begin;
  if (chunk == 0) {
    chunk = std::max<size_t>(1, n / (4 * num_threads()));
  }
  // Serial fast paths: single-threaded pool, a range that fits in one
  // chunk, or a nested call — from inside a worker (which would deadlock
  // waiting for the pool it is running on) or from a chunk body running
  // on the submitting thread (which already holds submit_mu_).
  if (workers_.empty() || n <= chunk || InWorker() ||
      tls_parallel_depth > 0) {
    for (size_t start = begin; start < end; start += chunk) {
      fn(start, std::min(start + chunk, end));
    }
    return;
  }

  ParallelDepthScope depth_scope;
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  PoolMetrics().jobs->Add();
  // Depth of the chunk queue this job fans out (last-write-wins gauge;
  // reset to 0 once the job drains).
  PoolMetrics().queue_depth->Set(
      static_cast<int64_t>((n + chunk - 1) / chunk));
  {
    std::lock_guard<std::mutex> lock(mu_);
    end_ = end;
    chunk_ = chunk;
    fn_ = &fn;
    cursor_.store(begin, std::memory_order_relaxed);
    error_ = nullptr;
    workers_active_ = workers_.size();
    ++generation_;
  }
  cv_start_.notify_all();
  RunChunks();
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return workers_active_ == 0; });
  fn_ = nullptr;
  PoolMetrics().queue_depth->Set(0);
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

ThreadPool& GlobalThreadPool() {
  GlobalPoolState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!state.pool) {
    state.pool = std::make_unique<ThreadPool>(state.ResolveSize());
  }
  return *state.pool;
}

void SetGlobalThreadCount(size_t n) {
  GlobalPoolState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.configured = n;
  // Rebuild only if the live pool's size no longer matches.
  if (state.pool && state.pool->num_threads() != state.ResolveSize()) {
    state.pool.reset();
  }
}

size_t GlobalThreadCount() {
  GlobalPoolState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.pool) return state.pool->num_threads();
  return state.ResolveSize();
}

}  // namespace pdx
