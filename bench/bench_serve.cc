// Load-test harness of the selection daemon (`pdx_tool serve`,
// DESIGN.md §12): replays hundreds of interleaved compare sessions
// against a real socket server and reports per-session latency
// percentiles plus the shared-cache economics the daemon exists for.
//
// Setup: a small generated TPC-D catalog (ISSUE-9 scale: the harness
// measures session mechanics and cache warming, not selection
// statistics), one in-process ServeSelection on an ephemeral loopback
// port, 8 client threads replaying `--sessions` sessions (default 400,
// `--quick` 200) in four synchronized waves. Session i runs at seed
// 42 + (i mod 48); between waves a stats session snapshots the shared
// SignatureCachingCostSource's cold-call counter, giving deterministic
// per-quartile cold-call deltas.
//
// Acceptance gates (PDX_CHECK — this bench doubles as the ISSUE-9
// acceptance harness; CI additionally gates the snapshotted warm ratio
// in BENCH_serve.json against >20% regression):
//   * every session's selection fingerprint is byte-identical to a
//     fresh batch-CLI construction at the same seed (the daemon's
//     shared caches must be invisible in results), and
//   * the first-quartile/last-quartile cold what-if call ratio is
//     >= 1.5x — warm sessions must actually be warm.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench_common.h"
#include "service/protocol.h"
#include "service/server.h"
#include "optimizer/serialization.h"

using namespace pdx;
using namespace pdx::bench;

namespace {

constexpr int kClientThreads = 8;
constexpr int kWaves = 4;
constexpr int kDistinctSeeds = 48;
constexpr uint64_t kSeedBase = 42;

uint64_t SessionSeed(int session) {
  return kSeedBase + static_cast<uint64_t>(session % kDistinctSeeds);
}

/// --sessions=N, falling back to 400 (or 200 under --quick); a value
/// ParsePositiveInt rejects is ignored. Always a multiple of kWaves so the
/// quartile waves are equal-sized.
int SessionsFromArgs(int argc, char** argv) {
  int sessions = 400;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) sessions = 200;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sessions=", 11) == 0) {
      if (std::optional<int> v = ParsePositiveInt(argv[i] + 11)) sessions = *v;
    }
  }
  PDX_CHECK_MSG(sessions >= kWaves, "--sessions expects at least 4");
  return sessions - sessions % kWaves;
}

/// Writes the `pdx_tool gen` artifact layout for the harness catalog.
std::string GenCatalog() {
  std::string dir =
      (std::filesystem::temp_directory_path() / "pdx_bench_serve").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Schema schema = MakeTpcdSchema();
  TpcdWorkloadOptions wopt;
  wopt.num_queries = 300;
  wopt.seed = 20060406;
  Workload workload = GenerateTpcdWorkload(schema, wopt);
  WhatIfOptimizer optimizer(schema);
  Rng rng(1);
  EnumeratorOptions eopt;
  eopt.num_configs = 4;
  std::vector<Configuration> configs =
      EnumerateConfigurations(optimizer, workload, eopt, &rng);
  PDX_CHECK_MSG(SaveSchema(schema, dir + "/schema.pdx").ok(),
                "cannot write harness schema");
  PDX_CHECK_MSG(SaveWorkload(workload, dir + "/workload.pdx").ok(),
                "cannot write harness workload");
  for (size_t c = 0; c < configs.size(); ++c) {
    PDX_CHECK_MSG(
        SaveConfiguration(configs[c], schema,
                          dir + "/config_" + std::to_string(c) + ".pdx")
            .ok(),
        "cannot write harness configuration");
  }
  return dir;
}

/// Reference fingerprints: what the batch CLI computes per seed — fresh
/// artifacts, fresh uncached what-if source, fresh selector. Session
/// results must hash-match these byte for byte.
std::vector<std::string> BatchReferenceHashes(const std::string& dir) {
  auto schema = LoadSchema(dir + "/schema.pdx");
  PDX_CHECK_MSG(schema.ok(), "cannot load harness schema");
  auto workload = LoadWorkload(dir + "/workload.pdx", *schema);
  PDX_CHECK_MSG(workload.ok(), "cannot load harness workload");
  std::vector<Configuration> configs;
  for (size_t c = 0;; ++c) {
    auto loaded =
        LoadConfiguration(dir + "/config_" + std::to_string(c) + ".pdx",
                          *schema);
    if (!loaded.ok()) break;
    configs.push_back(std::move(*loaded));
  }
  WhatIfOptimizer optimizer(*schema);
  std::vector<std::string> hashes(kDistinctSeeds);
  for (int s = 0; s < kDistinctSeeds; ++s) {
    WhatIfCostSource source(optimizer, *workload, configs);
    SelectorOptions sopt;
    ConfigurationSelector selector(&source, sopt);
    Rng rng(kSeedBase + static_cast<uint64_t>(s));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(service::FingerprintHash(
                      service::SelectionFingerprint(selector.Run(&rng)))));
    hashes[s] = buf;
  }
  return hashes;
}

/// Reserves an ephemeral loopback port: bind :0, read the assignment,
/// close. ServeSelection sets SO_REUSEADDR, so rebinding it right away
/// is safe.
int ReserveLoopbackPort() {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  PDX_CHECK_MSG(fd >= 0, "cannot open a socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  PDX_CHECK_MSG(
      bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "cannot bind an ephemeral port");
  socklen_t len = sizeof(addr);
  PDX_CHECK_MSG(
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
      "getsockname failed");
  close(fd);
  return static_cast<int>(ntohs(addr.sin_port));
}

int ConnectLoopback(int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// One whole session: connect (retrying until the listener is up), send
/// the payload, half-close, read everything back.
std::string RunSession(int port, const std::string& payload) {
  int fd = -1;
  for (int i = 0; i < 10000 && fd < 0; ++i) {
    fd = ConnectLoopback(port);
    if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  PDX_CHECK_MSG(fd >= 0, "cannot reach the serve listener");
  send(fd, payload.data(), payload.size(), MSG_NOSIGNAL);
  shutdown(fd, SHUT_WR);
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return resp;
}

/// First-match extraction of a quoted / unsigned scalar, ledger-style.
std::string GetQuoted(const std::string& json, const std::string& key) {
  size_t pos = json.find("\"" + key + "\":\"");
  if (pos == std::string::npos) return "";
  pos += key.size() + 4;
  return json.substr(pos, json.find('"', pos) - pos);
}

uint64_t GetUint(const std::string& json, const std::string& key) {
  size_t pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + key.size() + 3, nullptr, 10);
}

double Percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * (sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const int sessions = SessionsFromArgs(argc, argv);
  TrialsFromArgs(argc, argv, 1);  // applies --threads to the global pool
  PrintHeader("Serve replay: interleaved sessions vs the batch CLI",
              sessions);
  obs::Stopwatch start;

  const std::string dir = GenCatalog();
  std::printf("catalog: %s (300 queries, 4 configs, %d distinct seeds)\n",
              dir.c_str(), kDistinctSeeds);
  const std::vector<std::string> reference = BatchReferenceHashes(dir);

  service::ServeOptions sopt;
  sopt.port = ReserveLoopbackPort();
  sopt.num_workers = kClientThreads;
  sopt.read_deadline_ms = 10000;
  std::shared_ptr<service::SelectionService> svc;
  std::thread server([&] {
    Status s = service::ServeSelection(sopt, nullptr, &svc);
    PDX_CHECK_MSG(s.ok(), "serve loop failed");
  });

  // Replay: `sessions` compare sessions across kClientThreads clients in
  // kWaves synchronized waves; between waves a stats session snapshots
  // the shared cache's cumulative cold-call counter.
  const int per_wave = sessions / kWaves;
  std::vector<double> latency_ms(static_cast<size_t>(sessions));
  std::vector<std::string> responses(static_cast<size_t>(sessions));
  std::vector<uint64_t> cold_after_wave(kWaves, 0);
  const std::vector<int> widths = {6, 10, 10, 12, 10, 10};
  // "cold" is the per-wave delta of real optimizer calls; "exact_hits"
  // the cumulative warm reads (cells served from the shared memo).
  PrintRow({"wave", "sessions", "cold", "exact_hits", "p50_ms", "p99_ms"},
           widths);
  for (int w = 0; w < kWaves; ++w) {
    std::vector<std::thread> clients;
    for (int t = 0; t < kClientThreads; ++t) {
      clients.emplace_back([&, w, t] {
        for (int i = t; i < per_wave; i += kClientThreads) {
          const int session = w * per_wave + i;
          const std::string req =
              "{\"op\":\"compare\",\"dir\":\"" + dir + "\",\"seed\":" +
              std::to_string(SessionSeed(session)) + "}\n";
          const auto t0 = std::chrono::steady_clock::now();
          responses[static_cast<size_t>(session)] = RunSession(sopt.port, req);
          latency_ms[static_cast<size_t>(session)] =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
        }
      });
    }
    for (auto& c : clients) c.join();
    const std::string stats = RunSession(
        sopt.port, "{\"op\":\"stats\",\"dir\":\"" + dir + "\"}\n");
    PDX_CHECK_MSG(stats.rfind("{\"ok\":true", 0) == 0,
                  "stats session failed");
    cold_after_wave[static_cast<size_t>(w)] = GetUint(stats, "cold_calls");
    std::vector<double> wave_ms(
        latency_ms.begin() + w * per_wave,
        latency_ms.begin() + (w + 1) * per_wave);
    std::sort(wave_ms.begin(), wave_ms.end());
    const uint64_t cold_delta =
        cold_after_wave[static_cast<size_t>(w)] -
        (w > 0 ? cold_after_wave[static_cast<size_t>(w - 1)] : 0);
    PrintRow({std::to_string(w + 1), std::to_string(per_wave),
              std::to_string(cold_delta),
              std::to_string(GetUint(stats, "exact_hits")),
              StringFormat("%.2f", Percentile(wave_ms, 0.50)),
              StringFormat("%.2f", Percentile(wave_ms, 0.99))},
             widths);
  }

  // Shut the daemon down and let it drain.
  RunSession(sopt.port, "{\"op\":\"shutdown\"}\n");
  server.join();

  // Gate 1: byte-identity against the batch CLI at every seed.
  int mismatches = 0;
  for (int s = 0; s < sessions; ++s) {
    const std::string& resp = responses[static_cast<size_t>(s)];
    const std::string got = GetQuoted(resp, "fingerprint");
    const std::string& want =
        reference[static_cast<size_t>(s % kDistinctSeeds)];
    if (resp.rfind("{\"ok\":true", 0) != 0 || got != want) {
      if (++mismatches <= 3) {
        std::printf("MISMATCH session %d seed %llu: want %s got %s\n", s,
                    static_cast<unsigned long long>(SessionSeed(s)),
                    want.c_str(), resp.c_str());
      }
    }
  }
  PDX_CHECK_MSG(mismatches == 0,
                "serve sessions diverged from the batch CLI");

  // Gate 2: warm-cache economics — the last quartile must pay >= 1.5x
  // fewer cold what-if calls than the first (in practice the shared
  // signature cache makes later quartiles fully warm: cold delta 0).
  const uint64_t cold_q1 = cold_after_wave[0];
  const uint64_t cold_q4 =
      cold_after_wave[kWaves - 1] - cold_after_wave[kWaves - 2];
  const double warm_ratio = static_cast<double>(cold_q1) /
                            static_cast<double>(std::max<uint64_t>(1, cold_q4));
  std::vector<double> all_ms = latency_ms;
  std::sort(all_ms.begin(), all_ms.end());
  const double p50 = Percentile(all_ms, 0.50);
  const double p99 = Percentile(all_ms, 0.99);
  std::printf(
      "totals: %d sessions, %d distinct seeds, p50 %.2f ms, p99 %.2f ms, "
      "cold calls q1 %llu -> q4 %llu (warm ratio %.1fx), catalog loads "
      "%llu, hits %llu\n",
      sessions, kDistinctSeeds, p50, p99,
      static_cast<unsigned long long>(cold_q1),
      static_cast<unsigned long long>(cold_q4), warm_ratio,
      static_cast<unsigned long long>(svc->registry().loads()),
      static_cast<unsigned long long>(svc->registry().hits()));
  PDX_CHECK_MSG(warm_ratio >= 1.5,
                "warm sessions did not get >= 1.5x cheaper in cold "
                "what-if calls");
  PDX_CHECK_MSG(svc->registry().loads() == 1,
                "the catalog was cold-loaded more than once");

  const std::string json_path = JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    PDX_CHECK_MSG(f != nullptr, "cannot write bench JSON");
    std::fprintf(
        f,
        "{\n  \"serve\": {\"sessions\": %d, \"distinct_seeds\": %d, "
        "\"workers\": %d, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"cold_calls_q1\": %llu, \"cold_calls_q4\": %llu, "
        "\"warm_ratio\": %.3f, \"catalog_loads\": %llu}\n}\n",
        sessions, kDistinctSeeds, kClientThreads, p50, p99,
        static_cast<unsigned long long>(cold_q1),
        static_cast<unsigned long long>(cold_q4), warm_ratio,
        static_cast<unsigned long long>(svc->registry().loads()));
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  PrintWallClockReport("serve", start);
  FinishBenchObs("bench_serve", argc, argv, start);
  return 0;
}
