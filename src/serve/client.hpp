// Blocking TCP client for the bgpintent query daemon.
//
// One request line out, one response line in (serve/protocol.hpp).  The
// raw request() call returns the response verbatim; the typed helpers
// parse the OK key=value form and throw ServeError on ERR responses, so
// library consumers never string-match the protocol themselves.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/aspath.hpp"
#include "bgp/community.hpp"
#include "dict/intent.hpp"
#include "serve/binary.hpp"
#include "serve/protocol.hpp"

namespace bgpintent::serve {

/// Connection failure carrying the socket errno, so callers can tell a
/// transient refusal (server still starting, restart in progress) from a
/// permanent one (bad address) and retry accordingly.
class ConnectError : public ServeError {
 public:
  ConnectError(const std::string& what, int error) noexcept
      : ServeError(what), errno_(error) {}

  [[nodiscard]] int error() const noexcept { return errno_; }

  /// True for the errno values a retry can plausibly fix: ECONNREFUSED,
  /// ETIMEDOUT, ECONNRESET, EHOSTUNREACH, ENETUNREACH, EAGAIN, EINTR.
  [[nodiscard]] bool transient() const noexcept;

 private:
  int errno_;
};

/// Capped exponential backoff with deterministic jitter for
/// Client::connect_with_retry.  Defaults suit a daemon restarting on the
/// same box: ~6 attempts spread over roughly two seconds.
struct RetryPolicy {
  unsigned max_attempts = 6;
  /// Delay before attempt k (0-based) is initial_delay_ms * 2^(k-1),
  /// capped at max_delay_ms, then jittered by up to +/- jitter of itself.
  unsigned initial_delay_ms = 50;
  unsigned max_delay_ms = 1000;
  /// Jitter fraction in [0, 1): spreads reconnect stampedes when many
  /// clients chase one restarting server.  Drawn from a seeded Rng so
  /// tests are reproducible.
  double jitter = 0.25;
  std::uint64_t jitter_seed = 0;
};

class Client {
 public:
  /// Connects to an IPv4 host ("127.0.0.1") and port; throws ConnectError
  /// (a ServeError) when the host is unreachable or not an IPv4 literal.
  [[nodiscard]] static Client connect(const std::string& host,
                                      std::uint16_t port);

  /// connect(), but transient failures (ConnectError::transient — e.g.
  /// ECONNREFUSED while the daemon is still binding, ETIMEDOUT across a
  /// flaky hop) are retried under `policy` with capped exponential
  /// backoff and jitter.  Non-transient failures and exhaustion of the
  /// attempt budget rethrow the last ConnectError.
  [[nodiscard]] static Client connect_with_retry(const std::string& host,
                                                 std::uint16_t port,
                                                 const RetryPolicy& policy = {});

  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request line and returns the one response line (without the
  /// newline).  Throws ServeError when the connection drops or the server
  /// answers with something longer than kMaxLineBytes.
  [[nodiscard]] std::string request(const std::string& line);

  // --- push-stream primitives (SUBSCRIBE, docs/STREAMING.md) ---

  /// Sends one request line without reading a response — the first half of
  /// request(), for protocols where the server answers with multiple lines
  /// (SUBSCRIBE) and the caller drains them via read_line().
  void send_line(const std::string& line);

  /// Reads one line, waiting up to `timeout_ms` (negative = forever) for
  /// bytes to arrive.  Returns nullopt on timeout; throws ServeError when
  /// the connection drops or a line exceeds kMaxLineBytes.
  [[nodiscard]] std::optional<std::string> read_line(int timeout_ms = -1);

  // --- binary protocol (serve/binary.hpp) ---

  /// Upgrades the connection to the binary protocol: sends the magic
  /// hello and waits for the server's acknowledgement.  Must be the first
  /// exchange on the connection (the server decides the protocol from the
  /// first byte).  Throws ServeError on version skew or a line-protocol
  /// server.  After this, label()/labels() speak frames transparently.
  void negotiate_binary();

  [[nodiscard]] bool binary() const noexcept { return binary_; }

  /// BATCH-LABEL: one round trip for many communities (binary mode); on a
  /// line-protocol connection this degrades to one LABEL per community.
  [[nodiscard]] std::vector<dict::Intent> labels(
      std::span<const bgp::Community> communities);

  /// Binary STATS frame (requires negotiate_binary()).
  [[nodiscard]] binary::StatsPayload binary_stats();

  // --- typed helpers; each throws ServeError on an ERR response ---

  /// LABEL: the server's current intent label for `community`.
  [[nodiscard]] dict::Intent label(bgp::Community community);

  /// INGEST: feeds one (path, communities) observation.  The path must be
  /// a pure AS_SEQUENCE (wire form limitation, serve/protocol.hpp).
  void ingest(const bgp::AsPath& path,
              std::span<const bgp::Community> communities);

  /// TOTALS: the server's global label counters.
  struct Totals {
    std::size_t communities = 0;  ///< communities with evidence
    std::size_t information = 0;
    std::size_t action = 0;
    std::size_t unclassified = 0;
  };
  [[nodiscard]] Totals totals();

  /// SNAPSHOT: asks the server to persist its state to a server-side path.
  void snapshot(const std::string& path);

  /// QUIT: polite close (the destructor just closes the socket).
  void quit();

 private:
  explicit Client(int fd) noexcept : fd_(fd) {}

  void send_raw(std::string_view bytes);
  /// Reads one complete binary frame into `frame_buf_` and returns its
  /// tag (status byte) + body; throws ServeError on close or oversize.
  [[nodiscard]] std::uint8_t read_frame(std::string& body);
  [[noreturn]] void throw_wire_error(std::string_view body);

  int fd_ = -1;
  bool binary_ = false;
  std::string buffer_;  // bytes received beyond the last returned line
  std::string scratch_;  // request encode arena (binary mode)
};

}  // namespace bgpintent::serve
