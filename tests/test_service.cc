// Tests of the selection-as-a-service daemon (src/service, ISSUE 9):
// protocol framing, the warm-state registry's exactly-once loads and
// LRU admission, socketless request execution, concurrent-session
// determinism against the batch construction, and the socket server's
// deadline/drain behavior. The concurrency tests double as the TSan
// targets hammering the shared signature cache and bounds service.
#include "service/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/tpcd_schema.h"
#include "common/obs.h"
#include "common/rng.h"
#include "core/cost_source.h"
#include "core/selector.h"
#include "optimizer/serialization.h"
#include "service/protocol.h"
#include "service/warm_state.h"
#include "tuner/enumerator.h"
#include "workload/tpcd_qgen.h"

namespace pdx::service {
namespace {

// --- artifact fixture ----------------------------------------------------

/// The catalog dirs this process generated; removed when it exits.
struct CatalogDirs {
  std::vector<std::string> paths;
  ~CatalogDirs() {
    for (const std::string& dir : paths) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

/// Writes a small `pdx_tool gen`-layout catalog and returns its dir. The
/// dir is unique to this process: ctest runs every test as its own
/// process, in parallel under -j, and a shared path would be removed and
/// regenerated under another process still reading it.
std::string GenCatalog(const std::string& name, uint32_t queries,
                       uint32_t num_configs, uint64_t seed) {
  static CatalogDirs generated;
  std::string dir = ::testing::TempDir() + "/" + name + "_" +
                    std::to_string(::getpid());
  generated.paths.push_back(dir);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
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
  EXPECT_TRUE(SaveSchema(schema, dir + "/schema.pdx").ok());
  EXPECT_TRUE(SaveWorkload(workload, dir + "/workload.pdx").ok());
  for (size_t c = 0; c < configs.size(); ++c) {
    EXPECT_TRUE(SaveConfiguration(configs[c], schema,
                                  dir + "/config_" + std::to_string(c) +
                                      ".pdx")
                    .ok());
  }
  return dir;
}

/// The shared test catalog (one load for the whole binary).
const std::string& TestCatalogDir() {
  static const std::string dir = GenCatalog("pdx_service_cat", 120, 3, 1);
  return dir;
}

/// What the batch CLI computes for this catalog at `seed`: fresh
/// artifacts, a fresh uncached what-if source, a fresh selector. The
/// daemon's shared signature cache must reproduce this bit for bit.
std::string BatchFingerprint(const std::string& dir, uint64_t seed,
                             double alpha) {
  auto schema = LoadSchema(dir + "/schema.pdx");
  EXPECT_TRUE(schema.ok());
  auto workload = LoadWorkload(dir + "/workload.pdx", *schema);
  EXPECT_TRUE(workload.ok());
  std::vector<Configuration> configs;
  for (size_t c = 0;; ++c) {
    auto loaded = LoadConfiguration(
        dir + "/config_" + std::to_string(c) + ".pdx", *schema);
    if (!loaded.ok()) break;
    configs.push_back(std::move(*loaded));
  }
  WhatIfOptimizer optimizer(*schema);
  WhatIfCostSource source(optimizer, *workload, configs);
  SelectorOptions sopt;
  sopt.alpha = alpha;
  ConfigurationSelector selector(&source, sopt);
  Rng rng(seed);
  return SelectionFingerprint(selector.Run(&rng));
}

/// Extracts the quoted "fingerprint" field of a response line.
std::string FingerprintOf(const std::string& response) {
  size_t pos = response.find("\"fingerprint\":\"");
  if (pos == std::string::npos) return "";
  pos += 15;
  size_t end = response.find('"', pos);
  return response.substr(pos, end - pos);
}

// --- protocol ------------------------------------------------------------

TEST(ProtocolTest, ParsesFullRequestAndAppliesDefaults) {
  auto r = ParseRequestLine(
      "{\"op\":\"compare\",\"dir\":\"/tmp/x\",\"seed\":7,\"alpha\":0.95,"
      "\"scheme\":\"indep\",\"budget\":\"dynamic\",\"id\":\"s1\"}");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r->op, "compare");
  EXPECT_EQ(r->dir, "/tmp/x");
  EXPECT_EQ(r->seed, 7u);
  EXPECT_DOUBLE_EQ(r->alpha, 0.95);
  EXPECT_EQ(r->scheme, "indep");
  EXPECT_EQ(r->budget, "dynamic");
  EXPECT_EQ(r->id, "s1");

  auto d = ParseRequestLine("{\"op\":\"compare\",\"dir\":\"/tmp/x\"}");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->seed, 42u);  // the batch CLI's defaults
  EXPECT_DOUBLE_EQ(d->alpha, 0.9);
  EXPECT_EQ(d->scheme, "delta");
  EXPECT_EQ(d->budget, "static");
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequestLine("").ok());
  EXPECT_FALSE(ParseRequestLine("{}").ok());
  EXPECT_FALSE(ParseRequestLine("{\"op\":\"frobnicate\"}").ok());
  EXPECT_FALSE(ParseRequestLine("{\"op\":\"compare\"}").ok());  // no dir
  EXPECT_FALSE(
      ParseRequestLine("{\"op\":\"compare\",\"dir\":\"d\",\"seed\":\"x\"}")
          .ok());
  EXPECT_FALSE(ParseRequestLine(
                   "{\"op\":\"compare\",\"dir\":\"d\",\"scheme\":\"zeta\"}")
                   .ok());
  EXPECT_FALSE(ParseRequestLine(
                   "{\"op\":\"compare\",\"dir\":\"d\",\"budget\":\"loose\"}")
                   .ok());
  EXPECT_TRUE(ParseRequestLine("{\"op\":\"ping\"}").ok());  // no dir needed
}

// ISSUE-10 satellite: a session may set "faults" without restating the
// executor policy — omitted fields keep the RetryPolicy DEFAULTS (4
// attempts, 100 ms), never zero (a zero deadline would turn every
// injected slow call into a timeout and silently change semantics).
TEST(ProtocolTest, FaultPolicyDefaultsAreNeverSilentlyZero) {
  auto r = ParseRequestLine(
      "{\"op\":\"compare\",\"dir\":\"d\",\"faults\":\"0.3,0.1,7\"}");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r->faults, "0.3,0.1,7");
  EXPECT_EQ(r->retry_attempts, 4u);
  EXPECT_DOUBLE_EQ(r->deadline_ms, 100.0);

  auto o = ParseRequestLine(
      "{\"op\":\"compare\",\"dir\":\"d\",\"faults\":\"0.3,0\","
      "\"retry_attempts\":2,\"deadline_ms\":50}");
  ASSERT_TRUE(o.ok());
  EXPECT_EQ(o->retry_attempts, 2u);
  EXPECT_DOUBLE_EQ(o->deadline_ms, 50.0);

  // Explicit zeros are rejected, not silently honored.
  EXPECT_FALSE(
      ParseRequestLine(
          "{\"op\":\"compare\",\"dir\":\"d\",\"retry_attempts\":0}")
          .ok());
  EXPECT_FALSE(
      ParseRequestLine("{\"op\":\"compare\",\"dir\":\"d\",\"deadline_ms\":0}")
          .ok());
  EXPECT_FALSE(
      ParseRequestLine("{\"op\":\"compare\",\"dir\":\"d\",\"faults\":\"x\"}")
          .ok());
}

TEST(ProtocolTest, RejectsFaultsOnTuneSessions) {
  // Same rule as the batch CLI: tune runs on the shared signature cache,
  // whose cross-configuration sharing bypasses the injection point.
  auto r = ParseRequestLine(
      "{\"op\":\"tune\",\"dir\":\"d\",\"faults\":\"0.3,0.1\"}");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("tune"), std::string::npos);
}

TEST(ProtocolTest, CanonicalizesWorkloadSpecs) {
  // Equivalent spellings collapse to one canonical warm-catalog key.
  auto a = ParseRequestLine(
      "{\"op\":\"compare\",\"dir\":\"d\",\"workload\":\"zipf:0.9\"}");
  ASSERT_TRUE(a.ok()) << a.status().message();
  EXPECT_EQ(a->workload, "zipf:0.9,rw:1,disp:1,n:2000,seed:20060406");
  auto b = ParseRequestLine(
      "{\"op\":\"compare\",\"dir\":\"d\","
      "\"workload\":\"zipf:0.9,n:2000,rw:1\"}");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->workload, b->workload);
  EXPECT_FALSE(
      ParseRequestLine(
          "{\"op\":\"compare\",\"dir\":\"d\",\"workload\":\"selfsim:1.5\"}")
          .ok());
}

TEST(ProtocolTest, FingerprintCoversSelectionNotCallAccounting) {
  SelectionResult a;
  a.best = 2;
  a.pr_cs = 0.95;
  a.queries_sampled = 31;
  a.optimizer_calls = 100;
  a.estimates = {1.5, 2.5, 3.5};
  SelectionResult b = a;
  // Shared-counter deltas differ under interleaving: same fingerprint.
  b.optimizer_calls = 999;
  b.bound_refinement_calls = 17;
  EXPECT_EQ(SelectionFingerprint(a), SelectionFingerprint(b));
  // Any selection-visible change breaks it.
  b.estimates[1] = 2.5000000000000004;
  EXPECT_NE(SelectionFingerprint(a), SelectionFingerprint(b));
}

TEST(ProtocolTest, ResponsesAreSingleJsonLines) {
  ServiceRequest req;
  req.op = "ping";
  req.id = "x";
  std::string ping = OkPingResponse(req);
  EXPECT_EQ(ping, "{\"ok\":true,\"op\":\"ping\",\"id\":\"x\"}\n");
  std::string err = ErrorResponse(req, "boom \"quoted\"");
  EXPECT_EQ(err.find('\n'), err.size() - 1);
  EXPECT_NE(err.find("\\\"quoted\\\""), std::string::npos);
}

// --- warm-state registry -------------------------------------------------

TEST(WarmStateRegistryTest, LoadsOnceThenServesWarmHits) {
  WarmStateRegistry reg;
  auto a = reg.Acquire(TestCatalogDir());
  ASSERT_TRUE(a.ok()) << a.status().message();
  auto b = reg.Acquire(TestCatalogDir());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->get(), b->get());  // same resident catalog
  EXPECT_EQ(reg.loads(), 1u);
  EXPECT_EQ(reg.hits(), 1u);
  EXPECT_EQ((*a)->workload->size(), 120u);
  EXPECT_EQ((*a)->configs.size(), 3u);
}

TEST(WarmStateRegistryTest, FailedLoadIsNotCached) {
  WarmStateRegistry reg;
  EXPECT_FALSE(reg.Acquire("/nonexistent/catalog").ok());
  EXPECT_FALSE(reg.Acquire("/nonexistent/catalog").ok());
  EXPECT_EQ(reg.loads(), 2u);  // retried, not served from a cached failure
  EXPECT_EQ(reg.size(), 0u);
}

TEST(WarmStateRegistryTest, EvictsLeastRecentlyUsedAtAdmission) {
  std::string small_a = GenCatalog("pdx_service_evict_a", 30, 2, 2);
  std::string small_b = GenCatalog("pdx_service_evict_b", 30, 2, 3);
  WarmStateRegistry::Options opt;
  opt.max_catalogs = 1;
  WarmStateRegistry reg(opt);
  {
    auto a = reg.Acquire(small_a);
    ASSERT_TRUE(a.ok());
  }  // release the session's reference so A becomes evictable
  auto b = reg.Acquire(small_b);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(reg.evictions(), 1u);
  EXPECT_EQ(reg.size(), 1u);
  // Re-acquiring A is a cold load again.
  auto a2 = reg.Acquire(small_a);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(reg.loads(), 3u);
}

TEST(WarmStateRegistryTest, InUseCatalogIsNeverEvicted) {
  std::string small_a = GenCatalog("pdx_service_pin_a", 30, 2, 4);
  std::string small_b = GenCatalog("pdx_service_pin_b", 30, 2, 5);
  WarmStateRegistry::Options opt;
  opt.max_catalogs = 1;
  WarmStateRegistry reg(opt);
  auto a = reg.Acquire(small_a);  // held: simulates an in-flight session
  ASSERT_TRUE(a.ok());
  auto b = reg.Acquire(small_b);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(reg.evictions(), 0u);  // pinned: admitted over the bound
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ((*a)->dir, small_a);  // the held catalog stayed valid
}

TEST(WarmStateRegistryTest, ConcurrentColdAcquiresLoadExactlyOnce) {
  std::string dir = GenCatalog("pdx_service_race", 30, 2, 6);
  WarmStateRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<WarmCatalog>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto c = reg.Acquire(dir);
      ASSERT_TRUE(c.ok());
      got[t] = *c;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.loads(), 1u);  // one cold load, everyone else waited
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[t].get(), got[0].get());
}

// --- socketless dispatch + determinism -----------------------------------

ServeOptions TestServeOptions() {
  ServeOptions opt;
  opt.read_deadline_ms = 2000;
  return opt;
}

TEST(SelectionServiceTest, CompareMatchesBatchCliBitForBit) {
  SelectionService service(TestServeOptions());
  std::string resp = service.ExecuteRequestLine(
      "{\"op\":\"compare\",\"dir\":\"" + TestCatalogDir() +
      "\",\"seed\":42}");
  ASSERT_EQ(resp.rfind("{\"ok\":true", 0), 0u) << resp;
  const std::string batch = BatchFingerprint(TestCatalogDir(), 42, 0.9);
  char expect[32];
  std::snprintf(expect, sizeof(expect), "%016llx",
                static_cast<unsigned long long>(FingerprintHash(batch)));
  EXPECT_EQ(FingerprintOf(resp), expect);
}

TEST(SelectionServiceTest, ErrorsComeBackAsProtocolLinesNotCrashes) {
  SelectionService service(TestServeOptions());
  EXPECT_EQ(service
                .ExecuteRequestLine(
                    "{\"op\":\"compare\",\"dir\":\"/nonexistent\"}")
                .rfind("{\"ok\":false", 0),
            0u);
  EXPECT_EQ(service.ExecuteRequestLine("not json at all")
                .rfind("{\"ok\":false", 0),
            0u);
  EXPECT_EQ(service.ExecuteRequestLine("{\"op\":\"stats\"}")
                .rfind("{\"ok\":false", 0),
            0u);
}

TEST(SelectionServiceTest, ShutdownOpSetsTheFlag) {
  SelectionService service(TestServeOptions());
  EXPECT_FALSE(service.shutdown_requested());
  std::string resp = service.ExecuteRequestLine("{\"op\":\"shutdown\"}");
  EXPECT_EQ(resp.rfind("{\"ok\":true", 0), 0u);
  EXPECT_TRUE(service.shutdown_requested());
}

// ISSUE-9 satellite: N interleaved sessions over the SHARED signature
// cache and bounds service must each reproduce the batch CLI bit for
// bit, per seed, however the cache fills interleave. This test is also
// the TSan hammer for the shared warm state (compare sessions race on
// SignatureCachingCostSource; dynamic-budget sessions race on
// WorkloadBoundsCache).
TEST(SelectionServiceTest, ConcurrentSessionsAreByteIdenticalToBatch) {
  SelectionService service(TestServeOptions());
  constexpr int kSessions = 12;
  constexpr int kSeeds = 4;
  std::vector<std::string> responses(kSessions);
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      const uint64_t seed = 42 + s % kSeeds;
      const char* budget = s % 3 == 0 ? "dynamic" : "static";
      responses[s] = service.ExecuteRequestLine(
          "{\"op\":\"compare\",\"dir\":\"" + TestCatalogDir() +
          "\",\"seed\":" + std::to_string(seed) + ",\"budget\":\"" + budget +
          "\"}");
    });
  }
  for (auto& t : threads) t.join();
  // Reference fingerprints: fresh batch construction per seed. Note the
  // static-budget reference also covers the dynamic sessions — dynamic
  // reallocation never changes the selection (PR 7 invariant).
  for (int s = 0; s < kSessions; ++s) {
    const uint64_t seed = 42 + s % kSeeds;
    SCOPED_TRACE("session " + std::to_string(s) + " seed " +
                 std::to_string(seed));
    ASSERT_EQ(responses[s].rfind("{\"ok\":true", 0), 0u) << responses[s];
    const std::string batch =
        BatchFingerprint(TestCatalogDir(), seed, 0.9);
    char expect[32];
    std::snprintf(expect, sizeof(expect), "%016llx",
                  static_cast<unsigned long long>(FingerprintHash(batch)));
    EXPECT_EQ(FingerprintOf(responses[s]), expect);
  }
}

TEST(SelectionServiceTest, TuneIsDeterministicAtEqualSeeds) {
  SelectionService service(TestServeOptions());
  const std::string req = "{\"op\":\"tune\",\"dir\":\"" + TestCatalogDir() +
                          "\",\"seed\":42,\"max_structures\":2}";
  std::string a = service.ExecuteRequestLine(req);
  std::string b = service.ExecuteRequestLine(req);
  ASSERT_EQ(a.rfind("{\"ok\":true", 0), 0u) << a;
  EXPECT_EQ(FingerprintOf(a), FingerprintOf(b));
  EXPECT_NE(FingerprintOf(a), "");
}

// ISSUE-10: a "workload" spec swaps the saved workload.pdx for a
// generated scenario. Specs are part of the registry key — the scenario
// catalog is loaded once and shared by sessions naming the same
// canonical spec, while the saved-workload catalog stays separate.
TEST(SelectionServiceTest, ScenarioWorkloadSessionsShareOneWarmCatalog) {
  SelectionService service(TestServeOptions());
  const std::string req =
      "{\"op\":\"compare\",\"dir\":\"" + TestCatalogDir() +
      "\",\"seed\":42,\"workload\":\"zipf:0.9,n:80,seed:7\"}";
  std::string a = service.ExecuteRequestLine(req);
  ASSERT_EQ(a.rfind("{\"ok\":true", 0), 0u) << a;
  // Equivalent spelling, same canonical key: a warm hit, not a reload.
  std::string b = service.ExecuteRequestLine(
      "{\"op\":\"compare\",\"dir\":\"" + TestCatalogDir() +
      "\",\"seed\":42,\"workload\":\"zipf:0.9,seed:7,n:80\"}");
  EXPECT_EQ(FingerprintOf(a), FingerprintOf(b));
  EXPECT_NE(FingerprintOf(a), "");
  EXPECT_EQ(service.registry().loads(), 1u);
  EXPECT_EQ(service.registry().hits(), 1u);
  // The saved workload is a different catalog entirely.
  std::string saved = service.ExecuteRequestLine(
      "{\"op\":\"compare\",\"dir\":\"" + TestCatalogDir() +
      "\",\"seed\":42}");
  ASSERT_EQ(saved.rfind("{\"ok\":true", 0), 0u) << saved;
  EXPECT_NE(FingerprintOf(saved), FingerprintOf(a));
  EXPECT_EQ(service.registry().loads(), 2u);
}

// ISSUE-10 satellite: "faults" alone runs the session under the batch
// CLI's exact executor policy (RetryPolicy defaults), the injector is
// per-session (fault-free sessions on the same catalog are untouched),
// and equal seeds reproduce the same selection.
TEST(SelectionServiceTest, FaultSessionsDegradeDeterministically) {
  SelectionService service(TestServeOptions());
  const std::string req =
      "{\"op\":\"compare\",\"dir\":\"" + TestCatalogDir() +
      "\",\"seed\":42,\"faults\":\"0.3,0,7\"}";
  std::string a = service.ExecuteRequestLine(req);
  ASSERT_EQ(a.rfind("{\"ok\":true", 0), 0u) << a;
  EXPECT_NE(a.find("\"whatif_failures\":"), std::string::npos);
  std::string b = service.ExecuteRequestLine(req);
  EXPECT_EQ(FingerprintOf(a), FingerprintOf(b));
  // A fault-free session over the same warm catalog sees no injection.
  std::string clean = service.ExecuteRequestLine(
      "{\"op\":\"compare\",\"dir\":\"" + TestCatalogDir() +
      "\",\"seed\":42}");
  ASSERT_EQ(clean.rfind("{\"ok\":true", 0), 0u) << clean;
  EXPECT_NE(clean.find("\"whatif_failures\":0,"), std::string::npos) << clean;
}

// --- socket server -------------------------------------------------------

int ReserveLoopbackPort() {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
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
/// `payload`, half-close, read everything back.
std::string RunSession(int port, const std::string& payload) {
  int fd = -1;
  for (int i = 0; i < 5000 && fd < 0; ++i) {
    fd = ConnectLoopback(port);
    if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (fd < 0) return "";
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

TEST(ServeSelectionTest, ConcurrentSessionsHttpScrapeAndCleanDrain) {
  ServeOptions opt;
  opt.port = ReserveLoopbackPort();
  opt.max_sessions = 5;
  opt.num_workers = 3;
  opt.read_deadline_ms = 5000;
  Status served = Status::OK();
  std::shared_ptr<SelectionService> service;
  std::thread server([&] { served = ServeSelection(opt, nullptr, &service); });

  const std::string compare_req = "{\"op\":\"compare\",\"dir\":\"" +
                                  TestCatalogDir() + "\",\"seed\":42}\n";
  std::vector<std::string> got(3);
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back(
        [&, i] { got[i] = RunSession(opt.port, compare_req); });
  }
  for (auto& t : clients) t.join();
  // A /metrics scrape on the service port (query string and all). The
  // daemon counts it once; the response itself touches no counter.
  obs::Counter* http_requests = obs::Registry::Global().GetCounter(
      "pdx_serve_http_requests_total");
  const uint64_t http_before = http_requests->Value();
  std::string scrape = RunSession(
      opt.port, "GET /metrics?x=y HTTP/1.1\r\nHost: h\r\n\r\n");
  const uint64_t http_after = http_requests->Value();
  // A multi-request session spends the last slot; the server then
  // drains and returns on its own (max_sessions).
  std::string multi = RunSession(
      opt.port, "{\"op\":\"ping\",\"id\":\"p\"}\n{\"op\":\"stats\",\"dir\":\"" +
                    TestCatalogDir() + "\"}\n");
  server.join();

  ASSERT_TRUE(served.ok()) << served.message();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i].rfind("{\"ok\":true", 0), 0u) << got[i];
    // The selection fingerprint must agree across interleavings; wall_ms
    // and calls_delta are interleaving-dependent economics and may not.
    EXPECT_EQ(FingerprintOf(got[i]), FingerprintOf(got[0]))
        << "sessions at one seed must agree";
    EXPECT_NE(FingerprintOf(got[i]), "");
  }
  EXPECT_EQ(scrape.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(scrape.find("pdx_serve_sessions_total"), std::string::npos);
  EXPECT_EQ(http_after, http_before + 1);
  EXPECT_NE(multi.find("\"op\":\"ping\",\"id\":\"p\""), std::string::npos);
  EXPECT_NE(multi.find("\"sessions\":"), std::string::npos);
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->registry().loads(), 1u);  // one cold load for all
}

// A stalled (silent) client provably cannot delay a healthy session
// beyond the configured deadline — even with a single worker, the
// deadline frees it — and a /metrics scraper behind it is answered while
// the stalled client still holds its connection.
TEST(ServeSelectionTest, StalledClientCannotDelayHealthySessions) {
  ServeOptions opt;
  opt.port = ReserveLoopbackPort();
  opt.max_sessions = 3;
  opt.num_workers = 1;
  opt.read_deadline_ms = 200;
  Status served = Status::OK();
  std::thread server([&] { served = ServeSelection(opt); });

  int stalled = -1;
  for (int i = 0; i < 5000 && stalled < 0; ++i) {
    stalled = ConnectLoopback(opt.port);
    if (stalled < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_GE(stalled, 0);

  const auto t0 = std::chrono::steady_clock::now();
  std::string resp = RunSession(opt.port, "{\"op\":\"ping\"}\n");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  std::string scrape =
      RunSession(opt.port, "GET /metrics HTTP/1.1\r\nHost: h\r\n\r\n");
  server.join();
  close(stalled);

  ASSERT_TRUE(served.ok()) << served.message();
  EXPECT_EQ(resp.rfind("{\"ok\":true,\"op\":\"ping\"", 0), 0u) << resp;
  EXPECT_EQ(scrape.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << scrape;
  // Bounded by the stalled session's deadline + generous CI slack — not
  // by the stalled client's patience.
  EXPECT_LT(elapsed.count(), 5000);
}

TEST(ServeSelectionTest, ShutdownOpDrainsAndReturns) {
  ServeOptions opt;
  opt.port = ReserveLoopbackPort();
  opt.num_workers = 2;
  opt.read_deadline_ms = 2000;
  Status served = Status::OK();
  std::thread server([&] { served = ServeSelection(opt); });

  std::string ping = RunSession(opt.port, "{\"op\":\"ping\"}\n");
  EXPECT_EQ(ping.rfind("{\"ok\":true", 0), 0u);
  std::string bye = RunSession(opt.port, "{\"op\":\"shutdown\"}\n");
  EXPECT_NE(bye.find("\"draining\":true"), std::string::npos);
  server.join();  // no max_sessions: only the shutdown op ends the loop
  ASSERT_TRUE(served.ok()) << served.message();
}

}  // namespace
}  // namespace pdx::service
