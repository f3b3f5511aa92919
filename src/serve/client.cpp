#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "dict/intent.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace bgpintent::serve {

namespace {

/// Fetches a key from an OK response or throws with the offending line.
std::string require_key(const std::string& line, const std::string& key) {
  const auto pairs = parse_ok_response(line);
  if (!pairs)
    throw ServeError(util::format("server error: %s", line.c_str()));
  const auto it = pairs->find(key);
  if (it == pairs->end())
    throw ServeError(
        util::format("response missing %s: %s", key.c_str(), line.c_str()));
  return it->second;
}

std::size_t require_size(const std::string& line, const std::string& key) {
  const auto parsed = util::parse_u64(require_key(line, key));
  if (!parsed)
    throw ServeError(
        util::format("response field %s is not a number: %s", key.c_str(),
                     line.c_str()));
  return static_cast<std::size_t>(*parsed);
}

}  // namespace

bool ConnectError::transient() const noexcept {
  switch (errno_) {
    case ECONNREFUSED:
    case ETIMEDOUT:
    case ECONNRESET:
    case EHOSTUNREACH:
    case ENETUNREACH:
    case EAGAIN:
    case EINTR:
      return true;
    default:
      return false;
  }
}

Client Client::connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw ConnectError(
        util::format("cannot create socket: %s", std::strerror(errno)),
        errno);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    // errno 0: an unparsable address is never transient.
    throw ConnectError(
        util::format("'%s' is not a valid IPv4 address", host.c_str()), 0);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int error = errno;
    ::close(fd);
    throw ConnectError(util::format("cannot connect to %s:%u: %s",
                                    host.c_str(), port, std::strerror(error)),
                       error);
  }
  // Request/response protocols on loopback want the write out now, not
  // Nagle-batched with the next one.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Client(fd);
}

Client Client::connect_with_retry(const std::string& host, std::uint16_t port,
                                  const RetryPolicy& policy) {
  util::Rng rng(policy.jitter_seed);
  const unsigned attempts = std::max(policy.max_attempts, 1u);
  for (unsigned attempt = 0;; ++attempt) {
    try {
      return connect(host, port);
    } catch (const ConnectError& error) {
      if (!error.transient() || attempt + 1 >= attempts) throw;
    }
    double delay_ms = static_cast<double>(policy.initial_delay_ms);
    for (unsigned k = 0; k < attempt; ++k) delay_ms *= 2.0;
    delay_ms = std::min(delay_ms, static_cast<double>(policy.max_delay_ms));
    const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
    // Symmetric jitter in [-j, +j] of the delay, never below zero.
    delay_ms *= 1.0 + jitter * (2.0 * rng.uniform01() - 1.0);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(std::max(delay_ms, 0.0)));
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      binary_(std::exchange(other.binary_, false)),
      buffer_(std::move(other.buffer_)),
      scratch_(std::move(other.scratch_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    binary_ = std::exchange(other.binary_, false);
    buffer_ = std::move(other.buffer_);
    scratch_ = std::move(other.scratch_);
  }
  return *this;
}

void Client::send_raw(std::string_view bytes) {
  if (fd_ < 0) throw ServeError("client is not connected");
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t wrote =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (wrote <= 0)
      throw ServeError(util::format("send failed: %s", std::strerror(errno)));
    sent += static_cast<std::size_t>(wrote);
  }
}

std::uint8_t Client::read_frame(std::string& body) {
  namespace bin = binary;
  for (;;) {
    bin::Frame frame;
    const auto result = bin::parse_frame(
        {reinterpret_cast<const unsigned char*>(buffer_.data()),
         buffer_.size()},
        frame);
    if (result == bin::ParseResult::kFrame) {
      body.assign(reinterpret_cast<const char*>(frame.body.data()),
                  frame.body.size());
      const std::uint8_t tag = frame.tag;
      buffer_.erase(0, frame.consumed);
      return tag;
    }
    if (result != bin::ParseResult::kNeedMore)
      throw ServeError("malformed frame from server");
    char chunk[16384];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got <= 0) throw ServeError("connection closed by server");
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

void Client::throw_wire_error(std::string_view body) {
  const auto error = binary::parse_err_body(
      {reinterpret_cast<const unsigned char*>(body.data()), body.size()});
  if (!error) throw ServeError("server error: unparseable ERR frame");
  throw ServeError(util::format("server error %u: %s",
                                static_cast<unsigned>(error->code),
                                error->message.c_str()));
}

void Client::negotiate_binary() {
  namespace bin = binary;
  if (binary_) return;
  scratch_.clear();
  bin::encode_hello(scratch_);
  send_raw(scratch_);
  std::string body;
  const std::uint8_t status = read_frame(body);
  if (status != static_cast<std::uint8_t>(bin::Status::kOk))
    throw_wire_error(body);
  if (body.size() != 3 ||
      body[0] != static_cast<char>(bin::Op::kHello))
    throw ServeError("unexpected handshake response");
  binary_ = true;
}

std::vector<dict::Intent> Client::labels(
    std::span<const bgp::Community> communities) {
  namespace bin = binary;
  std::vector<dict::Intent> out;
  out.reserve(communities.size());
  if (!binary_) {
    for (const bgp::Community community : communities)
      out.push_back(label(community));
    return out;
  }
  scratch_.clear();
  bin::encode_batch_label_request(scratch_, communities);
  send_raw(scratch_);
  std::string body;
  const std::uint8_t status = read_frame(body);
  if (status != static_cast<std::uint8_t>(bin::Status::kOk))
    throw_wire_error(body);
  const auto* bytes = reinterpret_cast<const unsigned char*>(body.data());
  if (body.size() < 4 ||
      body.size() != 4 + static_cast<std::size_t>(bin::get_u32(bytes)))
    throw ServeError("malformed batch response");
  const std::uint32_t count = bin::get_u32(bytes);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto intent = bin::intent_from_wire(bytes[4 + i]);
    if (!intent) throw ServeError("unknown intent code in batch response");
    out.push_back(*intent);
  }
  return out;
}

binary::StatsPayload Client::binary_stats() {
  namespace bin = binary;
  if (!binary_) throw ServeError("binary_stats requires negotiate_binary()");
  scratch_.clear();
  bin::encode_stats_request(scratch_);
  send_raw(scratch_);
  std::string body;
  const std::uint8_t status = read_frame(body);
  if (status != static_cast<std::uint8_t>(bin::Status::kOk))
    throw_wire_error(body);
  const auto stats = bin::parse_stats_body(
      {reinterpret_cast<const unsigned char*>(body.data()), body.size()});
  if (!stats) throw ServeError("malformed stats response");
  return *stats;
}

std::string Client::request(const std::string& line) {
  send_line(line);
  auto response = read_line(-1);
  // read_line can only return nullopt on a timeout, and -1 never times out.
  return std::move(*response);
}

void Client::send_line(const std::string& line) {
  if (fd_ < 0) throw ServeError("client is not connected");
  const std::string out = line + "\n";
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t wrote =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (wrote <= 0)
      throw ServeError(
          util::format("send failed: %s", std::strerror(errno)));
    sent += static_cast<std::size_t>(wrote);
  }
}

std::optional<std::string> Client::read_line(int timeout_ms) {
  if (fd_ < 0) throw ServeError("client is not connected");
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string response = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!response.empty() && response.back() == '\r') response.pop_back();
      return response;
    }
    if (buffer_.size() > kMaxLineBytes)
      throw ServeError("server response exceeds the line limit");
    if (timeout_ms >= 0) {
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready == 0) return std::nullopt;
      if (ready < 0)
        throw ServeError(
            util::format("poll failed: %s", std::strerror(errno)));
    }
    char chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got <= 0) throw ServeError("connection closed by server");
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

dict::Intent Client::label(bgp::Community community) {
  if (binary_) {
    namespace bin = binary;
    scratch_.clear();
    bin::encode_label_request(scratch_, community);
    send_raw(scratch_);
    std::string body;
    const std::uint8_t status = read_frame(body);
    if (status != static_cast<std::uint8_t>(bin::Status::kOk))
      throw_wire_error(body);
    if (body.size() != 1) throw ServeError("malformed label response");
    const auto intent =
        bin::intent_from_wire(static_cast<std::uint8_t>(body[0]));
    if (!intent) throw ServeError("unknown intent code in label response");
    return *intent;
  }
  const std::string response =
      request(util::format("LABEL %s", community.to_string().c_str()));
  const auto intent = dict::parse_intent(require_key(response, "label"));
  if (!intent)
    throw ServeError(
        util::format("unparseable label response: %s", response.c_str()));
  return *intent;
}

void Client::ingest(const bgp::AsPath& path,
                    std::span<const bgp::Community> communities) {
  const auto wire_path = format_path(path);
  if (!wire_path)
    throw ServeError(
        "INGEST requires a non-empty AS_SEQUENCE path (AS_SET aggregates "
        "cannot be expressed on the wire)");
  const std::string response =
      request(util::format("INGEST %s %s", wire_path->c_str(),
                           format_communities(communities).c_str()));
  (void)require_key(response, "ingested");
}

Client::Totals Client::totals() {
  const std::string response = request("TOTALS");
  Totals totals;
  totals.communities = require_size(response, "communities");
  totals.information = require_size(response, "information");
  totals.action = require_size(response, "action");
  totals.unclassified = require_size(response, "unclassified");
  return totals;
}

void Client::snapshot(const std::string& path) {
  const std::string response =
      request(util::format("SNAPSHOT %s", path.c_str()));
  (void)require_key(response, "saved");
}

void Client::quit() {
  if (fd_ < 0) return;
  try {
    (void)request("QUIT");
  } catch (const ServeError&) {
    // The server may close before the response is read; that is still a
    // clean shutdown from the client's point of view.
  }
  ::close(fd_);
  fd_ = -1;
}

}  // namespace bgpintent::serve
