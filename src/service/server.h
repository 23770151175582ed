// Copyright (c) the pdexplore authors.
// The selection-as-a-service daemon (`pdx_tool serve`, DESIGN.md §12):
// a long-lived loopback server accepting concurrent selection/tuning
// sessions over the newline-delimited JSON protocol (service/protocol.h)
// and Prometheus scrapes over HTTP on the same port.
//
// Shape: one accept thread + a small pool of session workers fed by a
// bounded queue. A session is one connection: the client sends request
// lines, the worker answers each with one response line, EOF ends the
// session. The first line is sniffed — an HTTP method ("GET ...") gets
// obs::MetricsHttpResponse (so `curl :PORT/metrics` and `:PORT/healthz`
// work on the service port); anything else is protocol JSON. Every
// connection runs under a read deadline and a request-size bound, so a
// stalled or hostile client occupies at most one worker for at most the
// deadline — it can never wedge the daemon.
//
// Sessions run per-session Selector/GreedyTuner state machines over the
// process-wide WarmStateRegistry: the shared SignatureCachingCostSource
// and WorkloadBoundsCache make every session after the first start warm.
// Results are byte-identical to the batch CLI at equal seeds (see
// SelectionFingerprint); shutdown ({"op":"shutdown"} or max_sessions)
// stops accepting, drains queued and in-flight sessions, and returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "service/protocol.h"
#include "service/warm_state.h"

namespace pdx::service {

struct ServeOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port.
  int port = 9464;
  /// Exit after this many sessions (connections); 0 serves until a
  /// shutdown request. Tests and the CI smoke use this for deterministic
  /// termination.
  uint64_t max_sessions = 0;
  /// Per-read deadline within a session, ms. 0 waits forever.
  int read_deadline_ms = 5000;
  /// Bound on one request line (and on an HTTP head).
  size_t max_request_bytes = 65536;
  /// Session worker threads. Sessions parallelize across workers; the
  /// numeric inner loops still run on the global ThreadPool.
  size_t num_workers = 4;
  /// WarmStateRegistry admission bound.
  size_t max_catalogs = 4;
  size_t max_resident_bytes = 0;
  /// When non-empty, every compare/tune session appends a run manifest
  /// (tool "serve-compare"/"serve-tune") under this directory.
  std::string ledger_dir;
};

/// The daemon's request dispatcher, socket-free: one request line in,
/// one response line out. Owns the warm-state registry and the session
/// counters; the socket loop and the tests (and bench_serve's in-process
/// mode) share it, exactly like MetricsHttpResponse.
class SelectionService {
 public:
  explicit SelectionService(const ServeOptions& options);

  /// Executes one protocol request. Never throws; malformed input and
  /// failed runs come back as {"ok":false,...} lines.
  std::string ExecuteRequestLine(const std::string& line);

  /// True once a shutdown request was executed.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }
  void request_shutdown() { shutdown_.store(true, std::memory_order_release); }

  WarmStateRegistry& registry() { return registry_; }
  uint64_t sessions_started() const {
    return sessions_.load(std::memory_order_relaxed);
  }
  void note_session_started() {
    sessions_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::string ExecuteCompare(const ServiceRequest& req);
  std::string ExecuteTune(const ServiceRequest& req);
  std::string ExecuteStats(const ServiceRequest& req);
  /// Appends a per-session run manifest when the ledger is enabled.
  void WriteSessionManifest(const char* tool, const std::string& line,
                            uint64_t seed, double wall_ms);

  ServeOptions options_;
  WarmStateRegistry registry_;
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> sessions_{0};
  /// `git describe` output, resolved once at startup: manifests are
  /// written per session and must not fork a subprocess each time.
  std::string git_;
};

/// Runs the daemon: binds 127.0.0.1:<port>, prints
/// "serving selections on 127.0.0.1:PORT", serves until shutdown /
/// max_sessions, drains, and returns. `bound_port` (when non-null)
/// receives the actual port before the first accept. `service` (when
/// non-null) receives the dispatcher for the caller to inspect after
/// the run — tests read the registry economics through it.
Status ServeSelection(const ServeOptions& options, int* bound_port = nullptr,
                      std::shared_ptr<SelectionService>* service = nullptr);

}  // namespace pdx::service
