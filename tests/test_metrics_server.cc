#include "common/metrics_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/obs.h"

namespace pdx::obs {
namespace {

TEST(MetricsHttpResponseTest, MetricsEndpointServesRegistry) {
  Registry::Global().GetCounter("pdx_test_http_total")->Add(7);
  std::string resp = MetricsHttpResponse("GET /metrics HTTP/1.1");
  EXPECT_EQ(resp.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(resp.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(resp.find("pdx_test_http_total 7"), std::string::npos);
  EXPECT_NE(resp.find("# HELP"), std::string::npos);
}

TEST(MetricsHttpResponseTest, HealthzIsOk) {
  std::string resp = MetricsHttpResponse("GET /healthz HTTP/1.1");
  EXPECT_EQ(resp.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(resp.find("ok\n"), std::string::npos);
}

TEST(MetricsHttpResponseTest, UnknownPathIs404AndNonGetIs405) {
  EXPECT_EQ(MetricsHttpResponse("GET /nope HTTP/1.1")
                .rfind("HTTP/1.1 404 Not Found\r\n", 0),
            0u);
  EXPECT_EQ(MetricsHttpResponse("POST /metrics HTTP/1.1")
                .rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0),
            0u);
}

TEST(MetricsHttpResponseTest, StripsQueryStringAndFragmentBeforeDispatch) {
  // Prometheus scrapers append query parameters; dispatch must ignore
  // them (this 404ed before the strip).
  EXPECT_EQ(MetricsHttpResponse("GET /metrics?x=y HTTP/1.1")
                .rfind("HTTP/1.1 200 OK\r\n", 0),
            0u);
  EXPECT_EQ(MetricsHttpResponse("GET /metrics? HTTP/1.1")
                .rfind("HTTP/1.1 200 OK\r\n", 0),
            0u);
  EXPECT_EQ(MetricsHttpResponse("GET /healthz#frag HTTP/1.1")
                .rfind("HTTP/1.1 200 OK\r\n", 0),
            0u);
  EXPECT_EQ(MetricsHttpResponse("GET /metrics?format=text#a HTTP/1.1")
                .rfind("HTTP/1.1 200 OK\r\n", 0),
            0u);
  // The query string must not rescue an unknown path.
  EXPECT_EQ(MetricsHttpResponse("GET /nope?x=/metrics HTTP/1.1")
                .rfind("HTTP/1.1 404 Not Found\r\n", 0),
            0u);
}

TEST(ReadUntilDelimiterTest, CompleteEofDeadlineAndSizeBound) {
  int sp[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  // Complete: delimiter present (split across writes).
  std::string out;
  std::thread writer([&] {
    send(sp[1], "ab\r", 3, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    send(sp[1], "\nrest", 5, 0);
  });
  EXPECT_EQ(ReadUntilDelimiter(sp[0], "\r\n", 8192, 5000, &out),
            ReadOutcome::kComplete);
  writer.join();
  EXPECT_EQ(out.rfind("ab\r\n", 0), 0u);

  // Deadline: nothing further arrives within the budget.
  out.clear();
  EXPECT_EQ(ReadUntilDelimiter(sp[0], "\r\n\r\n", 8192, 50, &out),
            ReadOutcome::kDeadline);

  // Size bound: bytes keep coming but never the delimiter.
  std::string big(4096, 'x');
  send(sp[1], big.data(), big.size(), 0);
  out.clear();
  EXPECT_EQ(ReadUntilDelimiter(sp[0], "\r\n\r\n", 1024, 1000, &out),
            ReadOutcome::kTooLarge);

  // EOF: peer closes with no delimiter.
  close(sp[1]);
  out.clear();
  EXPECT_EQ(ReadUntilDelimiter(sp[0], "\r\n\r\n", 8192, 1000, &out),
            ReadOutcome::kEof);
  close(sp[0]);
}

}  // namespace
}  // namespace pdx::obs
