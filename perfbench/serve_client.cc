// serve_mixed: a `pdx_tool serve` daemon in its own process, driven over
// its NDJSON socket by two closed-loop client connections. One op is one
// session. Every set-up starts a fresh daemon and warms it with one
// session of each kind (static, dynamic-budget and scenario compares, a
// tune), which loads all three catalogs. The timed phase is bench_serve's
// replay pattern: compare sessions at a fixed set of kReplaySeeds seeds,
// the whole set once per round, here all with the dynamic budget, so from
// the second round on every session is a warm repeat. Rounds are
// barrier-separated and the daemon's /metrics are scraped between rounds,
// which makes the per-round counter deltas (and so the count metrics)
// independent of how the two clients interleave.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/binomial.h"
#include "common/obs.h"
#include "layers.h"
#include "optimizer/serialization.h"
#include "service/server.h"
#include "service/warm_state.h"

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
/// Fresh daemon set-ups per run (start, catalog loads, warm-up round);
/// setup_s is their median and the last daemon serves the timed phase.
constexpr int kSetups = 15;
/// Seeds of the timed replay, derived from --seed. bench_serve runs
/// session i at seed 42 + (i mod 48); with 48 seeds here, samples_per_op
/// (a mean over the distinct requests) spread 12% across --seed values,
/// so the set is four times larger.
constexpr int kReplaySeeds = 192;
/// Every untraced run times at least this many rounds; the count metrics
/// are taken over exactly these rounds, so they repeat for a given seed.
constexpr int kCountRounds = 3;
constexpr uint64_t kReplayStream = 3;
/// Scenario workloads of the warm-up: a second catalog for compares, a
/// small read/write one for tunes (a third registry entry).
constexpr char kScenarioSpec[] = "zipf:0.9,n:2000,seed:7";
constexpr char kTuneSpec[] = "zipf:0.9,rw:0.8,n:500,seed:7";
constexpr int kTuneMaxStructures = 2;
constexpr double kAlpha = 0.9;
constexpr double kGateConfidence = 0.999;

enum class Kind { kStatic, kDynamic, kScenario, kTune };
const char* KindName(Kind k) {
  switch (k) {
    case Kind::kStatic: return "static compare";
    case Kind::kDynamic: return "dynamic compare";
    case Kind::kScenario: return "scenario compare";
    case Kind::kTune: return "tune";
  }
  return "";
}

struct Request {
  std::string line;
  Kind kind = Kind::kStatic;
};

/// One session as the client saw it.
struct Session {
  int request = 0;
  double rtt_ms = 0.0;
  std::string response;
};

std::string JsonString(const std::string& json, const std::string& key) {
  const size_t pos = json.find("\"" + key + "\":\"");
  if (pos == std::string::npos) return "";
  const size_t start = pos + key.size() + 4;
  return json.substr(start, json.find('"', start) - start);
}

double JsonNumber(const std::string& json, const std::string& key) {
  const size_t pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + pos + key.size() + 3, nullptr);
}

bool ResponseOk(const std::string& r) { return r.rfind("{\"ok\":true", 0) == 0; }

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  // A stuck daemon fails the session instead of hanging the run.
  timeval timeout{};
  timeout.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One connection: send `payload`, half-close, read to EOF.
std::string Exchange(int port, const std::string& payload) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  ::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL);
  ::shutdown(fd, SHUT_WR);
  std::string out;
  char buf[8192];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

/// The daemon's Prometheus exposition as name -> value (quantile lines
/// skipped; summaries keep their _sum and _count samples).
RegistryReading ScrapeMetrics(int port) {
  RegistryReading out;
  std::istringstream in(Exchange(port, "GET /metrics HTTP/1.0\r\n\r\n"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) {
      continue;
    }
    const size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

/// A `pdx_tool serve` child process; stopped and reaped on destruction.
class Daemon {
 public:
  Daemon(const Options& o, const std::string& log_path) {
    const std::string threads = "--threads=" + std::to_string(kPoolThreads);
    const std::string workers = "--workers=" + std::to_string(kWorkers);
    // A stale log from an earlier daemon must not be read for the port.
    std::filesystem::remove(log_path);
    pid_ = ::fork();
    if (pid_ == 0) {
      // The daemon must not outlive a benchmark that aborts.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::execl(o.pdx_tool.c_str(), o.pdx_tool.c_str(), "serve", "--port=0",
              workers.c_str(), threads.c_str(), "--deadline-ms=60000",
              "--max-catalogs=4", static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    // The daemon prints "serving selections on 127.0.0.1:PORT" once bound.
    for (int i = 0; i < 30000 && pid_ > 0 && port_ == 0; ++i) {
      std::ifstream in(log_path);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      const size_t pos = text.find("127.0.0.1:");
      if (pos != std::string::npos && text.find('\n', pos) != std::string::npos) {
        port_ = std::atoi(text.c_str() + pos + 10);
        break;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  int pid() const { return pid_; }

  /// Graceful shutdown request, then reap; SIGKILL after 30 s.
  void Stop() {
    if (pid_ <= 0) return;
    if (port_ > 0) Exchange(port_, "{\"op\":\"shutdown\"}\n");
    for (int i = 0; i < 3000; ++i) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// Writes the serve catalog with `pdx_tool gen`; false on failure.
bool GenerateCatalog(const Options& o, const std::string& dir,
                     const std::string& log_path) {
  std::filesystem::create_directories(dir);
  const std::string dir_flag = "--dir=" + dir;
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
    }
    ::execl(o.pdx_tool.c_str(), o.pdx_tool.c_str(), "gen", dir_flag.c_str(),
            "--queries=4000", "--configs=24", "--seed=1",
            static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  int status = 0;
  return pid > 0 && ::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

std::string RequestLine(const std::string& dir, Kind kind, uint64_t seed) {
  std::string line = std::string("{\"op\":\"") +
                     (kind == Kind::kTune ? "tune" : "compare") +
                     "\",\"dir\":\"" + dir + "\"";
  if (kind == Kind::kDynamic) line += ",\"budget\":\"dynamic\"";
  if (kind == Kind::kScenario) {
    line += std::string(",\"workload\":\"") + kScenarioSpec + "\"";
  }
  if (kind == Kind::kTune) {
    line += std::string(",\"workload\":\"") + kTuneSpec +
            "\",\"max_structures\":" + std::to_string(kTuneMaxStructures);
  }
  return line + ",\"seed\":" + std::to_string(seed % 1000000000) + "}\n";
}

/// The warm-up round of every set-up: one session of each kind, at seeds
/// outside the timed set.
std::vector<Request> WarmupRound(const std::string& dir, uint64_t seed) {
  std::vector<Request> out;
  uint64_t i = 0;
  for (Kind kind : {Kind::kStatic, Kind::kDynamic, Kind::kScenario, Kind::kTune}) {
    out.push_back({RequestLine(dir, kind, DeriveSeed(seed, kWarmupStream, i++)), kind});
  }
  return out;
}

/// Timed round `round` (from 1): every replay seed once, as a
/// dynamic-budget compare, in a per-round order.
std::vector<Request> ReplayRound(const std::string& dir, uint64_t seed,
                                 int round) {
  std::vector<Request> out;
  for (int i = 0; i < kReplaySeeds; ++i) {
    const uint64_t s = DeriveSeed(seed, kReplayStream, static_cast<uint64_t>(i));
    out.push_back({RequestLine(dir, Kind::kDynamic, s), Kind::kDynamic});
  }
  pdx::Rng rng(static_cast<uint64_t>(round));
  rng.Shuffle(&out);
  return out;
}

/// One barrier-separated round: the clients pull requests from a shared
/// cursor until the round is exhausted.
std::vector<Session> RunRound(int port, const std::vector<Request>& round) {
  std::vector<Session> sessions(round.size());
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (size_t i; (i = cursor.fetch_add(1)) < round.size();) {
        const double t0 = NowMs();
        sessions[i].response = Exchange(port, round[i].line);
        sessions[i].rtt_ms = NowMs() - t0;
        sessions[i].request = static_cast<int>(i);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return sessions;
}

/// Quality of one session's answer: a compare picked the exact best, a
/// tune's cost is not above the starting cost.
struct Verdict {
  bool ok = false;
  bool quality_ok = false;
  double improvement_pct = 0.0;
};

Verdict Judge(const Request& req, const std::string& resp,
              const ExactTotals& plain, const ExactTotals& scenario) {
  Verdict v;
  v.ok = ResponseOk(resp);
  if (!v.ok) return v;
  if (req.kind == Kind::kTune) {
    const double initial = JsonNumber(resp, "initial_cost");
    const double final_cost = JsonNumber(resp, "final_cost");
    v.quality_ok = final_cost <= initial;
    v.ok = v.quality_ok;
    v.improvement_pct = 100.0 * (1.0 - final_cost / initial);
    return v;
  }
  const ExactTotals& t = req.kind == Kind::kScenario ? scenario : plain;
  const double best = JsonNumber(resp, "best");
  if (!(best >= 0.0) || best >= static_cast<double>(t.totals.size())) {
    v.ok = false;
    return v;
  }
  const double total = t.totals[static_cast<size_t>(best)];
  v.quality_ok = total - t.best_total <= 1e-9 * t.best_total;
  v.improvement_pct = 100.0 * (t.base_total - total) / t.base_total;
  return v;
}

/// Per-layer values of the warm path that exist only as spans: the round
/// replayed in-process through the daemon's own dispatcher, once to warm,
/// once untraced and once traced with a span drain after every request
/// (the last two give the tracing overhead: the daemon always times).
struct Replay {
  SpanAccumulator spans;
  size_t sessions = 0;
  double workload_build_ms = 0.0;
  double cache_build_ms = 0.0;
  double split_search_ms = 0.0;
  /// Per-request wall ms of the untraced and the traced replay.
  std::vector<double> plain_ms, traced_ms;
};

void ReplayInProcess(const std::string& dir, const std::vector<Request>& round,
                     Replay* out) {
  // Catalog parse and shared-source build, timed apart.
  double t0 = NowMs();
  auto schema = pdx::LoadSchema(dir + "/schema.pdx");
  PDX_CHECK_MSG(schema.ok(), "cannot load the serve schema");
  auto workload = pdx::LoadWorkload(dir + "/workload.pdx", *schema);
  PDX_CHECK_MSG(workload.ok(), "cannot load the serve workload");
  out->workload_build_ms = NowMs() - t0;
  auto cat = pdx::service::LoadWarmCatalog(dir);
  PDX_CHECK_MSG(cat.ok(), "cannot load the serve catalog");
  pdx::WhatIfOptimizer optimizer(*schema);
  t0 = NowMs();
  pdx::SignatureCachingCostSource sig(optimizer, *workload, (*cat)->configs);
  out->cache_build_ms = NowMs() - t0;

  pdx::service::ServeOptions sopt;
  pdx::service::SelectionService service(sopt);
  for (const Request& r : round) service.ExecuteRequestLine(r.line);
  for (const Request& r : round) {
    const double start = NowMs();
    service.ExecuteRequestLine(r.line);
    out->plain_ms.push_back(NowMs() - start);
  }
  pdx::obs::SetTimingEnabled(true);
  out->spans.Drain();
  out->spans = SpanAccumulator();
  const RegistryReading before = ReadRegistry();
  for (const Request& r : round) {
    const double start = NowMs();
    service.ExecuteRequestLine(r.line);
    out->traced_ms.push_back(NowMs() - start);
    out->spans.Drain();
    ++out->sessions;
  }
  out->split_search_ms =
      Delta(before, ReadRegistry(), "pdx_strat_split_search_ns_sum") / 1e6;
  pdx::obs::SetTimingEnabled(false);
}

}  // namespace

int RunServeMixed(const Options& o) {
  if (o.pdx_tool.empty() || o.work_dir.empty()) {
    std::fprintf(stderr, "serve_mixed needs --pdx-tool and --work-dir\n");
    return 2;
  }
  std::printf("thread plan: %d client connections + %d daemon workers + %zu "
              "pool thread(s) (inline) on %d processors\n",
              kClients, kWorkers, kPoolThreads, NumProcessors());
  const double spin_ms = SpinMs();
  std::printf("spin %.2f ms, memory probe %.2f ms, load average %.2f\n",
              spin_ms, MemProbeMs(), LoadAverage1());
  const std::string dir =
      std::filesystem::absolute(o.work_dir + "/serve_catalog").string();
  const std::string log = o.work_dir + "/serve_daemon.log";
  if (!GenerateCatalog(o, dir, log)) {
    std::printf("FAILED: pdx_tool gen did not write the catalog (see %s)\n",
                log.c_str());
    return 1;
  }

  // Every round run, as (requests, sessions), for the output checks.
  struct Round {
    std::vector<Request> requests;
    std::vector<Session> sessions;
    RegistryReading before, after;  // daemon /metrics
  };
  std::vector<Round> history;

  // Fresh daemons: start, then the warm-up round (catalog loads).
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  const std::vector<Request> warmup = WarmupRound(dir, o.seed);
  for (int s = 0; s < kSetups; ++s) {
    if (daemon) daemon->Stop();
    const double t0 = NowMs();
    daemon = std::make_unique<Daemon>(o, log);
    if (daemon->port() == 0) {
      std::printf("FAILED: the serve daemon did not start (see %s)\n",
                  log.c_str());
      return 1;
    }
    history.push_back({warmup, RunRound(daemon->port(), warmup), {}, {}});
    setup_s.push_back((NowMs() - t0) / 1000.0);
    std::printf("setup %d: %.3f s\n", s, setup_s.back());
  }
  const int port = daemon->port();

  // Timed rounds 1, 2, ... until the time is up and kCountRounds ran.
  const size_t timed_begin = history.size();
  const double start = NowMs();
  for (int r = 1; r <= kCountRounds || NowMs() - start < o.seconds * 1000.0; ++r) {
    Round rd;
    rd.requests = ReplayRound(dir, o.seed, r);
    rd.before = ScrapeMetrics(port);
    rd.sessions = RunRound(port, rd.requests);
    rd.after = ScrapeMetrics(port);
    history.push_back(std::move(rd));
  }
  const double timed_s = (NowMs() - start) / 1000.0;
  const double rss = PeakRssMb(daemon->pid());
  const std::string stats =
      Exchange(port, "{\"op\":\"stats\",\"dir\":\"" + dir + "\"}\n");
  daemon->Stop();

  // Oracle: exact totals over both compare catalogs, outside every timed
  // phase.
  auto plain_cat = pdx::service::LoadWarmCatalog(dir);
  auto scen_cat = pdx::service::LoadWarmCatalog(dir, kScenarioSpec);
  PDX_CHECK_MSG(plain_cat.ok() && scen_cat.ok(), "cannot load the serve catalogs");
  const ExactTotals plain = ComputeExactTotals(
      *(*plain_cat)->optimizer, *(*plain_cat)->workload, (*plain_cat)->configs);
  const ExactTotals scenario = ComputeExactTotals(
      *(*scen_cat)->optimizer, *(*scen_cat)->workload, (*scen_cat)->configs);

  // Every session ok and correct; every repeat of a request byte-equal.
  // Failures of timed sessions count in `failed`; any failure, warm-up
  // rounds included, fails the run.
  uint64_t failed = 0, failed_any = 0;
  std::map<std::string, std::string> fingerprint;
  std::map<std::string, bool> compare_correct;  // distinct timed compares
  double correct = 0.0, improvement = 0.0, counted = 0.0;
  for (size_t h = 0; h < history.size(); ++h) {
    const Round& rd = history[h];
    for (const Session& s : rd.sessions) {
      const Request& req = rd.requests[s.request];
      const Verdict v = Judge(req, s.response, plain, scenario);
      const std::string fp = JsonString(s.response, "fingerprint");
      auto [it, fresh] = fingerprint.emplace(req.line, fp);
      const bool bad = !v.ok || fp.empty() || (!fresh && it->second != fp);
      if (bad) {
        failed += h >= timed_begin ? 1 : 0;
        if (++failed_any <= 3) {
          std::printf("FAILED session: %s -> %s", req.line.c_str(),
                      s.response.empty() ? "(no response)\n" : s.response.c_str());
        }
      }
      if (h >= timed_begin && req.kind != Kind::kTune) {
        compare_correct[req.line] = v.quality_ok;
      }
      if (h >= timed_begin && h < timed_begin + kCountRounds) {
        correct += v.quality_ok ? 1.0 : 0.0;
        improvement += v.improvement_pct;
        counted += 1.0;
      }
    }
  }
  uint64_t attempted = 0;
  for (size_t h = timed_begin; h < history.size(); ++h) {
    attempted += history[h].sessions.size();
  }
  uint64_t correct_compares = 0;
  for (const auto& kv : compare_correct) correct_compares += kv.second ? 1 : 0;
  const double cp_upper = pdx::ClopperPearsonUpper(
      correct_compares, compare_correct.size(), kGateConfidence);
  const bool gate_ok = cp_upper >= kAlpha;
  std::printf("correctness: %llu/%zu distinct compare requests picked the "
              "exact best; one-sided Clopper-Pearson %.3f upper bound %.4f "
              "%s alpha %.2f; %llu failed sessions\n",
              static_cast<unsigned long long>(correct_compares),
              compare_correct.size(), kGateConfidence, cp_upper,
              gate_ok ? ">=" : "<", kAlpha,
              static_cast<unsigned long long>(failed_any));
  const bool ok = gate_ok && failed_any == 0;

  if (!o.trace) {
    std::vector<double> rtt;
    for (size_t h = timed_begin; h < history.size(); ++h) {
      for (const Session& s : history[h].sessions) rtt.push_back(s.rtt_ms);
    }
    const double p90 = Percentile(rtt, 0.9);
    size_t beyond = 0;
    for (double v : rtt) beyond += v > p90 ? 1 : 0;
    // Latency per kind: the timed replay, and the warm-up sessions of the
    // fresh daemons (first requests of each kind, so cold).
    std::map<Kind, std::vector<double>> by_kind, warmup_by_kind;
    double calls = 0.0, samples = 0.0;
    for (size_t h = 0; h < history.size(); ++h) {
      const Round& rd = history[h];
      for (const Session& s : rd.sessions) {
        (h < timed_begin ? warmup_by_kind : by_kind)[rd.requests[s.request].kind]
            .push_back(s.rtt_ms);
      }
      if (h >= timed_begin && h < timed_begin + kCountRounds) {
        calls += Delta(rd.before, rd.after, "pdx_whatif_calls_total");
        samples += Delta(rd.before, rd.after, "pdx_estimator_samples_total");
      }
    }
    for (const auto& kv : by_kind) {
      std::printf("  timed %-16s %5zu sessions, p50 %.3f ms, p90 %.3f ms\n",
                  KindName(kv.first), kv.second.size(), Median(kv.second),
                  Percentile(kv.second, 0.9));
    }
    for (const auto& kv : warmup_by_kind) {
      std::printf("  warm-up %-16s %3zu sessions, median %.3f ms\n",
                  KindName(kv.first), kv.second.size(), Median(kv.second));
    }
    std::printf("timed sessions: %zu in %zu rounds, %.2f s; %zu samples beyond "
                "p90; spin after %.2f ms, memory probe %.2f ms, load average "
                "%.2f\n",
                rtt.size(), history.size() - timed_begin, timed_s, beyond, SpinMs(),
                MemProbeMs(), LoadAverage1());
    PrintResult(ok, attempted, failed,
                {{"setup_s", Median(setup_s), "s"},
                 {"op_ms_p50", Percentile(rtt, 0.5), "ms"},
                 {"op_ms_p90", p90, "ms"},
                 {"ops_per_s", static_cast<double>(rtt.size()) / timed_s, "1/s"},
                 {"whatif_calls_per_op", calls / counted, "count"},
                 {"samples_per_op", samples / counted, "count"},
                 {"correct_share", correct / counted, "fraction"},
                 {"improvement_pct", improvement / counted, "%"},
                 {"success_share",
                  static_cast<double>(attempted - failed) /
                      static_cast<double>(attempted),
                  "fraction"},
                 {"peak_rss_mb", rss, "MB"}});
    return ok ? 0 : 1;
  }

  // Traced: daemon counters summed over the timed rounds, client-side
  // session time split into server time and framing, and the spans of
  // the in-process replay.
  std::map<std::string, double> sum;
  std::vector<double> server_ms, framing_ms;
  for (size_t h = timed_begin; h < history.size(); ++h) {
    const Round& rd = history[h];
    for (const auto& kv : rd.after) sum[kv.first] += Delta(rd.before, rd.after, kv.first);
    for (const Session& s : rd.sessions) {
      const double wall = JsonNumber(s.response, "wall_ms");
      server_ms.push_back(wall);
      framing_ms.push_back(s.rtt_ms - wall);
    }
  }
  Replay replay;
  ReplayInProcess(dir, ReplayRound(dir, o.seed, 1), &replay);
  const double sessions = static_cast<double>(server_ms.size());
  auto per = [&](const std::string& k) { return sum[k] / sessions; };
  LayerValues v;
  FillCounterLayers(per, &v);
  FillSpanLayers(replay.spans, static_cast<double>(replay.sessions),
                 replay.split_search_ms / static_cast<double>(replay.sessions), &v);
  v.workload_build_ms = replay.workload_build_ms;
  v.cache_build_ms = replay.cache_build_ms;
  v.whatif_calls = per("pdx_whatif_calls_total");
  v.us_per_call = CalibrateOptimizer(*(*plain_cat)->optimizer,
                                     *(*plain_cat)->workload, (*plain_cat)->configs);
  v.whatif_ms = v.whatif_calls * v.us_per_call / 1000.0;
  // Cache-hit time as the daemon's hit-latency histograms attribute it.
  v.cache_self_ms =
      (per("pdx_whatif_signature_hit_ns_sum") + per("pdx_whatif_exact_hit_ns_sum")) / 1e6;
  v.server_ms = Median(server_ms);
  v.framing_ms = Median(framing_ms);
  v.catalog_loads = JsonNumber(stats, "catalog_loads");
  v.catalog_hits = JsonNumber(stats, "catalog_hits");
  v.errors = sum["pdx_serve_errors_total"];
  v.pool_busy_ms = per("pdx_pool_busy_ns_total") / 1e6;
  v.pool_jobs = per("pdx_pool_jobs_total");
  v.dropped_spans = static_cast<double>(replay.spans.dropped());
  v.trace_overhead_pct =
      100.0 * (Median(replay.traced_ms) / Median(replay.plain_ms) - 1.0);
  v.spin_ms = spin_ms;
  std::printf("timed rounds: %zu (%zu sessions); in-process replay median "
              "%.3f ms traced vs %.3f ms untraced (overhead %.2f%%); daemon "
              "stats: %s",
              history.size() - timed_begin, server_ms.size(),
              Median(replay.traced_ms), Median(replay.plain_ms),
              v.trace_overhead_pct, stats.c_str());
  std::printf("span rollup of the in-process replay (%zu sessions; estimator "
              "and round-phase rows are 1-in-%llu sampled shares):\n",
              replay.sessions,
              static_cast<unsigned long long>(pdx::obs::kSpanRoundInterval));
  for (const auto& r : replay.spans.Rows()) {
    std::printf("  %-12s %-18s %10llu spans %12.2f ms\n", r.category.c_str(),
                r.name.c_str(), static_cast<unsigned long long>(r.count),
                static_cast<double>(r.total_ns) / 1e6);
  }
  const bool traced_ok = ok && v.dropped_spans == 0;
  PrintResult(traced_ok, attempted, failed, LayerTable(v));
  return traced_ok ? 0 : 1;
}

}  // namespace perfbench
