// Copyright (c) the pdexplore authors.
// HTTP and socket helpers of the selection daemon (src/service/server):
// the response to a Prometheus scrape (GET /metrics, straight from
// obs::Registry) or a health probe (GET /healthz), deadline-bounded
// reads, and EINTR-safe writes. The daemon sniffs HTTP on its own port.
#pragma once

#include <cstddef>
#include <string>

namespace pdx::obs {

/// Outcome of ReadUntilDelimiter: why the read loop stopped.
enum class ReadOutcome {
  kComplete,   // delimiter seen; *out holds everything read
  kEof,        // peer closed before the delimiter
  kDeadline,   // read_deadline_ms elapsed without the delimiter
  kTooLarge,   // max_bytes exceeded without the delimiter
  kError,      // read()/poll() failed (errno preserved)
};

/// Reads from `fd` until `delimiter` appears in the accumulated bytes,
/// EOF, `max_bytes`, or `deadline_ms` elapses (0 = no deadline).
/// Retries EINTR on both poll() and read(). The accumulated bytes —
/// including anything after the delimiter — are appended to *out.
/// The service daemon's line protocol reads with delimiter "\n".
ReadOutcome ReadUntilDelimiter(int fd, const char* delimiter,
                               size_t max_bytes, int deadline_ms,
                               std::string* out);

/// Writes all of `data` to the socket, retrying EINTR and short writes;
/// sends with MSG_NOSIGNAL so a peer hang-up cannot SIGPIPE the
/// process. Returns false on any other error.
bool SendAll(int fd, const std::string& data);

/// The full HTTP response for one request head (everything up to the
/// blank line). Pure function of the request and the registry — the
/// daemon and the tests share it; the daemon counts the scrape itself.
/// Query strings and fragments are stripped before dispatch
/// (`GET /metrics?x=y` serves /metrics).
std::string MetricsHttpResponse(const std::string& request_head);

}  // namespace pdx::obs
