#include "service/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "common/metrics_server.h"
#include "common/obs.h"
#include "common/run_ledger.h"
#include "common/string_util.h"
#include "core/fault.h"
#include "core/selector.h"
#include "tuner/greedy_tuner.h"

namespace pdx::service {

namespace {

using obs::ReadOutcome;

Status SocketError(const char* what) {
  return Status::IOError(StringFormat("%s: %s", what, std::strerror(errno)));
}

/// Incremental '\n'-framed reader over one connection, built on the
/// deadline-bounded ReadUntilDelimiter the metrics exporter uses. Bytes
/// past a line stay buffered for the next call.
class LineReader {
 public:
  LineReader(int fd, size_t max_bytes, int deadline_ms)
      : fd_(fd), max_bytes_(max_bytes), deadline_ms_(deadline_ms) {}

  /// kComplete: *line holds the next line (without '\n'). kEof: clean
  /// end of session. A final unterminated line is delivered as
  /// kComplete once, then kEof (so `printf '{...}' | nc` works).
  ReadOutcome Next(std::string* line) {
    while (true) {
      size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line->assign(buf_, pos_, nl - pos_);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        pos_ = nl + 1;
        return ReadOutcome::kComplete;
      }
      if (eof_) {
        if (pos_ < buf_.size()) {
          line->assign(buf_, pos_, buf_.size() - pos_);
          pos_ = buf_.size();
          return ReadOutcome::kComplete;
        }
        return ReadOutcome::kEof;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      if (buf_.size() >= max_bytes_) return ReadOutcome::kTooLarge;
      ReadOutcome out = obs::ReadUntilDelimiter(
          fd_, "\n", max_bytes_ - buf_.size(), deadline_ms_, &buf_);
      if (out == ReadOutcome::kEof) {
        eof_ = true;
        continue;  // deliver any final unterminated line
      }
      if (out != ReadOutcome::kComplete) return out;
    }
  }

  /// Unconsumed buffered bytes (the tail of an HTTP head read).
  std::string Remaining() const { return buf_.substr(pos_); }

 private:
  int fd_;
  size_t max_bytes_;
  int deadline_ms_;
  std::string buf_;
  size_t pos_ = 0;
  bool eof_ = false;
};

bool LooksLikeHttp(const std::string& line) {
  return line.rfind("GET ", 0) == 0 || line.rfind("HEAD ", 0) == 0 ||
         line.rfind("POST ", 0) == 0 || line.rfind("PUT ", 0) == 0;
}

uint64_t NowUnixMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// One session = one connection: answer protocol lines (or one HTTP
/// scrape) until EOF, deadline, oversize, or socket error.
void HandleConnection(int conn, SelectionService* service,
                      const ServeOptions& options) {
  obs::Registry& reg = obs::Registry::Global();
  reg.GetCounter("pdx_serve_sessions_total")->Add();
  obs::Gauge* active = reg.GetGauge("pdx_serve_active_sessions");
  active->Add(1);
  service->note_session_started();
  LineReader reader(conn, options.max_request_bytes,
                    options.read_deadline_ms);
  std::string line;
  bool first = true;
  while (true) {
    ReadOutcome out = reader.Next(&line);
    if (out == ReadOutcome::kEof) break;
    if (out == ReadOutcome::kDeadline) {
      reg.GetCounter("pdx_serve_deadline_drops_total")->Add();
      obs::SendAll(conn,
                   "{\"ok\":false,\"error\":\"read deadline exceeded\"}\n");
      break;
    }
    if (out == ReadOutcome::kTooLarge) {
      reg.GetCounter("pdx_serve_errors_total")->Add();
      obs::SendAll(conn,
                   "{\"ok\":false,\"error\":\"request exceeds size bound\"}\n");
      break;
    }
    if (out != ReadOutcome::kComplete) break;  // socket error
    if (first && LooksLikeHttp(line)) {
      // A scrape on the service port: the exporter's response, one
      // request per connection. The head past the request line is
      // irrelevant to dispatch and may still be in flight; don't wait
      // for it.
      reg.GetCounter("pdx_serve_http_requests_total")->Add();
      obs::SendAll(conn, obs::MetricsHttpResponse(line + "\r\n"));
      break;
    }
    first = false;
    if (line.empty()) continue;
    const std::string resp = service->ExecuteRequestLine(line);
    if (!obs::SendAll(conn, resp)) break;
    if (service->shutdown_requested()) break;
  }
  ::shutdown(conn, SHUT_WR);
  ::close(conn);
  active->Add(-1);
}

}  // namespace

SelectionService::SelectionService(const ServeOptions& options)
    : options_(options),
      registry_(WarmStateRegistry::Options{options.max_catalogs,
                                           options.max_resident_bytes}) {
  if (!options_.ledger_dir.empty()) git_ = GitDescribe();
}

void SelectionService::WriteSessionManifest(const char* tool,
                                            const std::string& line,
                                            uint64_t seed, double wall_ms) {
  if (options_.ledger_dir.empty()) return;
  // Built by hand rather than via BuildRunManifest: the git revision is
  // resolved once at startup (no popen per session), and the span
  // rollup is left empty — spans are process-global and concurrent
  // sessions would steal each other's drains (DESIGN.md §12).
  RunManifest m;
  m.tool = tool;
  m.flags = line;
  m.seed = seed;
  m.wall_ms = wall_ms;
  m.git = git_;
  m.started_unix_ms = NowUnixMs();
  m.counters = obs::Registry::Global().Samples();
  auto written = WriteManifest(m, options_.ledger_dir);
  if (!written.ok()) {
    obs::Registry::Global().GetCounter("pdx_serve_ledger_errors_total")->Add();
  }
}

std::string SelectionService::ExecuteCompare(const ServiceRequest& req) {
  auto catalog = registry_.Acquire(req.dir, req.workload);
  if (!catalog.ok()) return ErrorResponse(req, catalog.status().ToString());
  WarmCatalog& cat = **catalog;
  SelectorOptions sopt;
  sopt.alpha = req.alpha;
  sopt.scheme = req.scheme == "indep" ? SamplingScheme::kIndependent
                                      : SamplingScheme::kDelta;
  if (req.budget == "dynamic") {
    sopt.budget_policy = BudgetPolicy::kDynamic;
    sopt.bounds = cat.bounds.get();
  }
  // Per-session fault injection above the shared memo: the injector is
  // this session's private view of the catalog source, so concurrent
  // fault-free sessions never observe its failures, and the warm cache
  // only ever absorbs calls that survived injection. The policy fields a
  // request omits keep the RetryPolicy defaults (protocol.h) — "faults"
  // alone runs under the batch CLI's exact policy.
  CostSource* source = cat.source.get();
  std::optional<FaultInjectingCostSource> injector;
  if (!req.faults.empty()) {
    auto spec = ParseFaultSpec(req.faults);
    if (!spec.ok()) return ErrorResponse(req, spec.status().ToString());
    injector.emplace(cat.source.get(), *spec);
    injector->set_deadline_ms(req.deadline_ms);
    source = &*injector;
    sopt.exec.enabled = true;
    sopt.exec.retry.max_attempts = static_cast<uint32_t>(req.retry_attempts);
    sopt.exec.retry.deadline_ms = req.deadline_ms;
    sopt.exec.seed = spec->seed;
    sopt.bounds = cat.bounds.get();  // degrade-to-bounds fallback
  }
  const uint64_t calls_before = cat.source->num_calls();
  const uint64_t t0 = obs::NowNs();
  ConfigurationSelector selector(source, sopt);
  Rng rng(req.seed);
  SelectionResult r = selector.Run(&rng);
  const double wall_ms = static_cast<double>(obs::NowNs() - t0) / 1e6;
  // Under the shared source this delta includes concurrent sessions'
  // calls — economics only, never part of the fingerprint.
  const uint64_t calls_delta = cat.source->num_calls() - calls_before;
  obs::Registry::Global()
      .GetHistogram("pdx_serve_session_latency")
      ->Record(obs::NowNs() - t0);
  WriteSessionManifest(
      "serve-compare",
      StringFormat("compare dir=%s seed=%llu workload=%s faults=%s",
                   req.dir.c_str(),
                   static_cast<unsigned long long>(req.seed),
                   req.workload.empty() ? "-" : req.workload.c_str(),
                   req.faults.empty() ? "-" : req.faults.c_str()),
      req.seed, wall_ms);
  return CompareResponse(req, r, wall_ms, calls_delta);
}

std::string SelectionService::ExecuteTune(const ServiceRequest& req) {
  auto catalog = registry_.Acquire(req.dir, req.workload);
  if (!catalog.ok()) return ErrorResponse(req, catalog.status().ToString());
  WarmCatalog& cat = **catalog;
  std::vector<QueryId> ids(cat.workload->size());
  std::iota(ids.begin(), ids.end(), 0);
  TunerOptions topt;
  topt.use_comparison_primitive = true;
  // Signature caching for the per-round selections: bit-identical to
  // every other tier (the batch CLI's default is exact cells), maximal
  // cross-candidate sharing. Scoring reads no tier; it re-costs only the
  // queries each candidate can touch.
  topt.cache = WhatIfCacheMode::kSignature;
  topt.max_structures = static_cast<uint32_t>(req.max_structures);
  topt.storage_budget_bytes = req.budget_mb * 1000000;
  topt.selector.alpha = req.alpha;
  if (req.budget == "dynamic") {
    topt.selector.budget_policy = BudgetPolicy::kDynamic;
  }
  Rng rng(req.seed);
  const uint64_t t0 = obs::NowNs();
  TuneResult r =
      GreedyTune(*cat.optimizer, *cat.workload, ids, {}, topt, &rng);
  const double wall_ms = static_cast<double>(obs::NowNs() - t0) / 1e6;
  obs::Registry::Global()
      .GetHistogram("pdx_serve_session_latency")
      ->Record(obs::NowNs() - t0);
  WriteSessionManifest("serve-tune",
                       StringFormat("tune dir=%s seed=%llu", req.dir.c_str(),
                                    static_cast<unsigned long long>(req.seed)),
                       req.seed, wall_ms);
  return TuneResponse(req, r, wall_ms);
}

std::string SelectionService::ExecuteStats(const ServiceRequest& req) {
  auto catalog = registry_.Acquire(req.dir, req.workload);
  if (!catalog.ok()) return ErrorResponse(req, catalog.status().ToString());
  WarmCatalog& cat = **catalog;
  SharedCacheStats s;
  s.cold_calls = cat.source->num_cold_calls();
  s.signature_hits = cat.source->num_signature_hits();
  s.exact_hits = cat.source->num_exact_hits();
  s.distinct_signatures = cat.source->num_distinct_signatures();
  s.bound_derivation_calls = cat.bounds->derivation_calls();
  s.catalog_loads = registry_.loads();
  s.catalog_hits = registry_.hits();
  s.catalog_evictions = registry_.evictions();
  s.sessions = sessions_.load(std::memory_order_relaxed);
  return StatsResponse(req, s);
}

std::string SelectionService::ExecuteRequestLine(const std::string& line) {
  obs::Registry& reg = obs::Registry::Global();
  reg.GetCounter("pdx_serve_requests_total")->Add();
  auto parsed = ParseRequestLine(line);
  if (!parsed.ok()) {
    reg.GetCounter("pdx_serve_errors_total")->Add();
    ServiceRequest empty;
    return ErrorResponse(empty, parsed.status().ToString());
  }
  const ServiceRequest& req = *parsed;
  std::string resp;
  if (req.op == "ping") {
    resp = OkPingResponse(req);
  } else if (req.op == "shutdown") {
    request_shutdown();
    resp = ShutdownResponse(req);
  } else if (req.op == "stats") {
    resp = ExecuteStats(req);
  } else if (req.op == "compare") {
    resp = ExecuteCompare(req);
  } else {
    resp = ExecuteTune(req);
  }
  if (resp.rfind("{\"ok\":false", 0) == 0) {
    reg.GetCounter("pdx_serve_errors_total")->Add();
  }
  // Registry economics as gauges, refreshed per request so a /metrics
  // scrape sees current admission state without a stats session.
  reg.GetGauge("pdx_serve_catalogs_resident")
      ->Set(static_cast<int64_t>(registry_.size()));
  reg.GetGauge("pdx_serve_catalog_loads")
      ->Set(static_cast<int64_t>(registry_.loads()));
  reg.GetGauge("pdx_serve_catalog_evictions")
      ->Set(static_cast<int64_t>(registry_.evictions()));
  return resp;
}

Status ServeSelection(const ServeOptions& options, int* bound_port,
                      std::shared_ptr<SelectionService>* service_out) {
  auto service = std::make_shared<SelectionService>(options);
  if (service_out != nullptr) *service_out = service;
  // Latency histograms (what-if and session) need the timing clock.
  obs::SetTimingEnabled(true);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return SocketError("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = SocketError("bind");
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) != 0) {
    Status st = SocketError("listen");
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status st = SocketError("getsockname");
    ::close(fd);
    return st;
  }
  const int port = ntohs(addr.sin_port);
  if (bound_port != nullptr) *bound_port = port;
  std::printf("serving selections on 127.0.0.1:%d (%zu workers)\n", port,
              options.num_workers);
  std::fflush(stdout);

  // Bounded handoff queue: accept backpressures instead of queueing
  // unboundedly when every worker is busy.
  std::mutex qmu;
  std::condition_variable qcv;
  std::deque<int> queue;
  bool closed = false;
  const size_t queue_cap = options.num_workers * 4 + 4;

  const size_t num_workers = options.num_workers > 0 ? options.num_workers : 1;
  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    workers.emplace_back([&] {
      while (true) {
        int conn;
        {
          std::unique_lock<std::mutex> lock(qmu);
          qcv.wait(lock, [&] { return closed || !queue.empty(); });
          // Graceful drain: even after close, finish everything queued.
          if (queue.empty()) return;
          conn = queue.front();
          queue.pop_front();
        }
        qcv.notify_all();
        HandleConnection(conn, service.get(), options);
      }
    });
  }

  uint64_t accepted = 0;
  Status status = Status::OK();
  while (!service->shutdown_requested() &&
         (options.max_sessions == 0 || accepted < options.max_sessions)) {
    pollfd pfd{fd, POLLIN, 0};
    int pr = ::poll(&pfd, 1, 100);  // wake regularly to observe shutdown
    if (pr < 0) {
      if (errno == EINTR) continue;
      status = SocketError("poll");
      break;
    }
    if (pr == 0) continue;
    int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      status = SocketError("accept");
      break;
    }
    ++accepted;
    {
      std::unique_lock<std::mutex> lock(qmu);
      qcv.wait(lock, [&] { return queue.size() < queue_cap; });
      queue.push_back(conn);
    }
    qcv.notify_one();
  }
  // Stop accepting, drain queued + in-flight sessions, then return.
  ::close(fd);
  {
    std::lock_guard<std::mutex> lock(qmu);
    closed = true;
  }
  qcv.notify_all();
  for (std::thread& t : workers) t.join();
  std::printf("served %llu sessions, drained cleanly\n",
              static_cast<unsigned long long>(accepted));
  std::fflush(stdout);
  return status;
}

}  // namespace pdx::service
