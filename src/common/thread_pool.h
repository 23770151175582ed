// Copyright (c) the pdexplore authors.
// A fixed-size thread pool with a blocking parallel-for, used to fan out
// the embarrassingly-parallel hot paths of the experiment harness: dense
// cost-matrix precomputation, exact-total evaluation and Monte-Carlo
// trials. The pool is deliberately minimal — one job at a time, the
// submitting thread participates in the work, and nested ParallelFor calls
// degrade to serial execution instead of deadlocking.
//
// Determinism contract: ParallelFor only changes *which thread* executes an
// index range, never the work done for an index. Callers that write each
// result into its own slot (and derive any per-item RNG seed from the item
// index) therefore produce bit-identical output at every thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "common/macros.h"

namespace pdx {

/// Adds `v` to `*a` with a relaxed compare-exchange loop. Used for
/// floating-point counters (e.g. weighted optimizer calls) that are
/// accumulated from several threads. Note: the accumulation order — and
/// hence the last-ulp rounding — depends on thread interleaving.
inline void AtomicAddDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

/// Fixed-size pool of worker threads executing one blocking parallel-for
/// at a time. A pool of size N runs work on N threads total: N-1 workers
/// plus the thread that called ParallelFor.
class ThreadPool {
 public:
  /// `num_threads` is the total parallelism (>= 1). Size 1 spawns no
  /// workers; every ParallelFor runs inline on the calling thread.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  PDX_DISALLOW_COPY(ThreadPool);

  size_t num_threads() const { return workers_.size() + 1; }

  /// Invokes `fn(chunk_begin, chunk_end)` over a partition of
  /// [begin, end) into chunks of at most `chunk` indices, on up to
  /// num_threads() threads, and blocks until every chunk has run.
  /// `chunk` == 0 picks a chunk size automatically (~4 chunks per
  /// thread). The first exception thrown by `fn` is rethrown here after
  /// the remaining chunks have been cancelled.
  ///
  /// Nested-use guard: when called from inside a ParallelFor body — on a
  /// worker thread of any ThreadPool, or on the submitting thread while
  /// it executes its share of chunks — the loop runs serially inline
  /// (handing chunks back to a busy pool would deadlock). Concurrent
  /// calls from several non-worker threads are serialized internally.
  void ParallelFor(size_t begin, size_t end, size_t chunk,
                   const std::function<void(size_t, size_t)>& fn);

  /// True when the calling thread is a worker thread of some ThreadPool
  /// (i.e. a ParallelFor body is executing on it).
  static bool InWorker();

 private:
  void WorkerLoop();
  /// Pulls and runs chunks of the current job until the cursor passes
  /// `end_`; records the first exception and cancels the rest.
  void RunChunks();

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  uint64_t generation_ = 0;  // bumped per job, under mu_
  bool shutdown_ = false;
  size_t workers_active_ = 0;  // workers not yet done with the current job

  // Current job. Written under mu_ before the generation bump; read by
  // workers after they observe the new generation under mu_.
  size_t end_ = 0;
  size_t chunk_ = 1;
  const std::function<void(size_t, size_t)>* fn_ = nullptr;
  std::atomic<size_t> cursor_{0};
  std::exception_ptr error_;

  // Serializes submitters so only one job is in flight.
  std::mutex submit_mu_;
};

/// Largest thread count a tool accepts from --threads or PDX_THREADS (the
/// same bound as serve's --workers).
inline constexpr size_t kMaxThreadCount = 256;

/// Strictly parses a thread count: the whole of `text` must be a decimal
/// integer in 1..kMaxThreadCount ("12abc", "0", "-1" and overflow are
/// rejected). Pure — it builds no pool — so callers can validate a value
/// before anything is sized by it.
std::optional<size_t> ParseThreadCount(std::string_view text);

/// The process-wide pool the library's parallel paths use. Sized, in
/// order of precedence, by the last SetGlobalThreadCount() call, the
/// PDX_THREADS environment variable (ignored unless ParseThreadCount
/// accepts it), and std::thread::hardware_concurrency.
ThreadPool& GlobalThreadPool();

/// Re-sizes the global pool (0 = hardware concurrency). Must not be
/// called while a ParallelFor on the global pool is in flight. Tools
/// call this from a --threads=N flag before starting work.
void SetGlobalThreadCount(size_t n);

/// Thread count of the global pool (without instantiating workers early:
/// reports the configured size even before first use).
size_t GlobalThreadCount();

}  // namespace pdx
