#include "common/metrics_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/obs.h"
#include "common/string_util.h"

namespace pdx::obs {

namespace {

std::string HttpMessage(int code, const char* reason,
                        const char* content_type, const std::string& body) {
  return StringFormat(
             "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: "
             "%zu\r\nConnection: close\r\n\r\n",
             code, reason, content_type, body.size()) +
         body;
}

}  // namespace

ReadOutcome ReadUntilDelimiter(int fd, const char* delimiter,
                               size_t max_bytes, int deadline_ms,
                               std::string* out) {
  const size_t start = out->size();
  // The delimiter may straddle the boundary between pre-existing bytes
  // and the first read; back the scan window up by its length - 1.
  const size_t dlen = std::strlen(delimiter);
  const size_t scan_from = start >= dlen - 1 ? start - (dlen - 1) : 0;
  const int64_t deadline_ns =
      deadline_ms > 0 ? NowNs() + int64_t{deadline_ms} * 1'000'000 : 0;
  char buf[2048];
  while (out->find(delimiter, scan_from) == std::string::npos) {
    if (out->size() - start >= max_bytes) return ReadOutcome::kTooLarge;
    if (deadline_ns != 0) {
      const int64_t remaining_ms = (deadline_ns - NowNs()) / 1'000'000;
      if (remaining_ms <= 0) return ReadOutcome::kDeadline;
      pollfd pfd{fd, POLLIN, 0};
      int pr = ::poll(&pfd, 1, static_cast<int>(remaining_ms));
      if (pr < 0) {
        if (errno == EINTR) continue;
        return ReadOutcome::kError;
      }
      if (pr == 0) return ReadOutcome::kDeadline;
    }
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;  // a signal is not EOF
      return ReadOutcome::kError;
    }
    if (n == 0) return ReadOutcome::kEof;
    out->append(buf, static_cast<size_t>(n));
  }
  return ReadOutcome::kComplete;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a client that hung up must not SIGPIPE the tool.
    ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;  // a signal is not a broken pipe
      return false;
    }
    if (n == 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

std::string MetricsHttpResponse(const std::string& request_head) {
  size_t eol = request_head.find('\n');
  std::string line = request_head.substr(
      0, eol == std::string::npos ? request_head.size() : eol);
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
    line.pop_back();
  }
  if (line.rfind("GET ", 0) != 0) {
    return HttpMessage(405, "Method Not Allowed", "text/plain",
                       "method not allowed\n");
  }
  size_t sp = line.find(' ', 4);
  std::string path =
      sp == std::string::npos ? line.substr(4) : line.substr(4, sp - 4);
  // Dispatch ignores query strings and fragments: Prometheus scrapers
  // routinely append ?format=... and must still hit /metrics.
  size_t cut = path.find_first_of("?#");
  if (cut != std::string::npos) path.resize(cut);
  if (path == "/metrics") {
    return HttpMessage(200, "OK", "text/plain; version=0.0.4; charset=utf-8",
                       Registry::Global().DumpPrometheus());
  }
  if (path == "/healthz") {
    return HttpMessage(200, "OK", "text/plain", "ok\n");
  }
  return HttpMessage(404, "Not Found", "text/plain", "not found\n");
}

}  // namespace pdx::obs
