// Binary protocol (serve/binary.hpp): wire primitives, framing, the
// negotiated fast path through Client, and — the part that earns its
// keep — corruption fuzzing with mrt::corrupt_spans over the frame
// layout and over the line protocol's lines.  A server facing a hostile
// or damaged byte stream must answer a framed error (or an ERR line) or
// close; it must never hang, over-read, or die.
#include "serve/binary.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bgp/community.hpp"
#include "mrt/fault.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/serve_engine.hpp"
#include "util/strings.hpp"

namespace bgpintent::serve {
namespace {

namespace bin = binary;
using dict::Intent;

bgp::RibEntry entry(std::uint32_t vp, std::vector<bgp::Asn> path,
                    std::vector<bgp::Community> communities) {
  bgp::RibEntry e;
  e.vantage_point.asn = vp;
  e.vantage_point.address = vp;
  e.route.prefix = *bgp::Prefix::parse("10.0.0.0/24");
  e.route.path = bgp::AsPath(std::move(path));
  e.route.communities = std::move(communities);
  return e;
}

ServerConfig loopback_config() {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.shards = 2;
  return cfg;
}

std::unique_ptr<stream::StreamEngine> primed_engine() {
  const std::vector<bgp::RibEntry> entries = {
      entry(61, {61, 100, 201}, {bgp::Community(100, 20000)}),
      entry(62, {62, 100, 202}, {bgp::Community(100, 20000)}),
      entry(61, {61, 100, 203}, {bgp::Community(100, 1)})};
  return test_support::serve_engine(entries);
}

// --- wire primitives ----------------------------------------------------

TEST(BinaryWire, PrimitivesRoundTrip) {
  std::string out;
  bin::put_u16(out, 0xBEEF);
  bin::put_u32(out, 0xDEADBEEFu);
  bin::put_u64(out, 0x0123456789ABCDEFull);
  bin::put_f64(out, 1234.5678);
  const auto* p = reinterpret_cast<const unsigned char*>(out.data());
  EXPECT_EQ(bin::get_u16(p), 0xBEEF);
  EXPECT_EQ(bin::get_u32(p + 2), 0xDEADBEEFu);
  EXPECT_EQ(bin::get_u64(p + 6), 0x0123456789ABCDEFull);
  EXPECT_EQ(bin::get_f64(p + 14), 1234.5678);
}

TEST(BinaryWire, IntentCodesRoundTrip) {
  EXPECT_EQ(bin::intent_from_wire(0), Intent::kAction);
  EXPECT_EQ(bin::intent_from_wire(1), Intent::kInformation);
  EXPECT_EQ(bin::intent_from_wire(2), Intent::kUnclassified);
  EXPECT_FALSE(bin::intent_from_wire(3).has_value());
  EXPECT_FALSE(bin::intent_from_wire(0xFF).has_value());
}

std::span<const unsigned char> as_bytes(const std::string& s) {
  return {reinterpret_cast<const unsigned char*>(s.data()), s.size()};
}

TEST(BinaryWire, ParseFrameNeedsTheWholeFrame) {
  std::string out;
  bin::encode_label_request(out, bgp::Community(100, 20000));
  bin::Frame frame;
  // Every strict prefix is kNeedMore; the full buffer yields the frame.
  for (std::size_t n = 0; n < out.size(); ++n)
    EXPECT_EQ(bin::parse_frame(as_bytes(out).first(n), frame),
              bin::ParseResult::kNeedMore)
        << n;
  ASSERT_EQ(bin::parse_frame(as_bytes(out), frame), bin::ParseResult::kFrame);
  EXPECT_EQ(frame.tag, static_cast<std::uint8_t>(bin::Op::kLabel));
  ASSERT_EQ(frame.body.size(), 4u);
  EXPECT_EQ(bin::get_u32(frame.body.data()),
            bgp::Community(100, 20000).wire());
  EXPECT_EQ(frame.consumed, out.size());
}

TEST(BinaryWire, OversizedLengthRejectedBeforeBodyArrives) {
  // Only the 4-byte length field is present — a liar's length must be
  // rejected immediately, not buffered toward.
  std::string out;
  bin::put_u32(out, static_cast<std::uint32_t>(bin::kMaxFramePayload + 1));
  bin::Frame frame;
  EXPECT_EQ(bin::parse_frame(as_bytes(out), frame),
            bin::ParseResult::kOversized);
}

TEST(BinaryWire, ZeroPayloadIsMalformed) {
  std::string out;
  bin::put_u32(out, 0);  // no room for even the tag byte
  bin::Frame frame;
  EXPECT_EQ(bin::parse_frame(as_bytes(out), frame),
            bin::ParseResult::kMalformed);
}

TEST(BinaryWire, ErrBodyRoundTrip) {
  std::string out;
  bin::encode_err(out, bin::ErrCode::kVersionSkew, "speak version 1");
  bin::Frame frame;
  ASSERT_EQ(bin::parse_frame(as_bytes(out), frame), bin::ParseResult::kFrame);
  EXPECT_EQ(frame.tag, static_cast<std::uint8_t>(bin::Status::kErr));
  const auto err = bin::parse_err_body(frame.body);
  ASSERT_TRUE(err);
  EXPECT_EQ(err->code, bin::ErrCode::kVersionSkew);
  EXPECT_EQ(err->message, "speak version 1");
}

TEST(BinaryWire, StatsBodyRoundTrip) {
  bin::StatsPayload stats;
  stats.connections = 7;
  stats.queries = 12345;
  stats.batch_queries = 42;
  stats.entries = 99;
  stats.label_epochs = 3;
  stats.p50_us = 1.5;
  stats.p99_us = 250.25;
  std::string out;
  bin::encode_stats_ok(out, stats);
  bin::Frame frame;
  ASSERT_EQ(bin::parse_frame(as_bytes(out), frame), bin::ParseResult::kFrame);
  EXPECT_EQ(frame.tag, static_cast<std::uint8_t>(bin::Status::kOk));
  const auto parsed = bin::parse_stats_body(frame.body);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(*parsed, stats);
}

// --- negotiated fast path through Client --------------------------------

TEST(BinaryServer, NegotiatedLabelMatchesLineProtocol) {
  const auto engine = primed_engine();
  Server server(*engine, loopback_config());
  server.start();

  auto line = Client::connect("127.0.0.1", server.port());
  auto wire = Client::connect("127.0.0.1", server.port());
  wire.negotiate_binary();
  EXPECT_TRUE(wire.binary());
  EXPECT_FALSE(line.binary());

  for (const auto community :
       {bgp::Community(100, 20000), bgp::Community(100, 1),
        bgp::Community(100, 9999), bgp::Community(5, 5)}) {
    EXPECT_EQ(wire.label(community), line.label(community))
        << community.to_string();
  }

  server.request_stop();
  server.wait();
}

TEST(BinaryServer, BatchLabelMatchesIndividualQueries) {
  const auto engine = primed_engine();
  Server server(*engine, loopback_config());
  server.start();

  auto client = Client::connect("127.0.0.1", server.port());
  client.negotiate_binary();

  const std::vector<bgp::Community> batch = {
      bgp::Community(100, 20000), bgp::Community(100, 1),
      bgp::Community(100, 203), bgp::Community(7, 7)};
  const auto labels = client.labels(batch);
  ASSERT_EQ(labels.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(labels[i], client.label(batch[i])) << batch[i].to_string();

  // One BATCH-LABEL frame counts every community as a query but only one
  // round trip.
  const auto stats = client.binary_stats();
  EXPECT_GE(stats.batch_queries, 1u);
  EXPECT_GE(stats.queries, batch.size());
  EXPECT_GE(stats.label_epochs, 1u);
  EXPECT_EQ(stats.entries, 3u);

  server.request_stop();
  server.wait();
}

TEST(BinaryServer, LineModeBatchHelperDegradesToLoop) {
  const auto engine = primed_engine();
  Server server(*engine, loopback_config());
  server.start();

  auto client = Client::connect("127.0.0.1", server.port());
  const std::vector<bgp::Community> batch = {bgp::Community(100, 20000),
                                             bgp::Community(100, 1)};
  const auto labels = client.labels(batch);  // line mode: N LABEL commands
  ASSERT_EQ(labels.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(labels[i], client.label(batch[i]));

  server.request_stop();
  server.wait();
}

// --- raw-socket abuse ---------------------------------------------------

/// Minimal blocking TCP connection with a receive deadline, for tests
/// that must send bytes Client would refuse to encode.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    timeval tv{};
    tv.tv_sec = 2;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  /// Best-effort send: the server may already have closed on us
  /// mid-stream (that is the point of these tests), so EPIPE/ECONNRESET
  /// are not failures.
  void send_bytes(std::span<const std::uint8_t> bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  }
  void send_str(const std::string& s) {
    send_bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until the server closes the connection or `deadline` passes.
  /// Returns everything received; sets `closed` when the server hung up.
  std::string drain(bool& closed,
                    std::chrono::milliseconds deadline =
                        std::chrono::milliseconds(5000)) {
    closed = false;
    std::string all;
    const auto until = std::chrono::steady_clock::now() + deadline;
    char buf[4096];
    while (std::chrono::steady_clock::now() < until) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n == 0) {
        closed = true;
        break;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
        closed = true;  // reset counts as a close for these tests
        break;
      }
      all.append(buf, static_cast<std::size_t>(n));
    }
    return all;
  }

 private:
  int fd_ = -1;
};

/// Parses every complete frame out of `bytes`; returns false if the
/// stream holds bytes that are neither a complete frame nor a prefix of
/// one (i.e. the server wrote garbage).
bool parse_all_frames(const std::string& bytes,
                      std::vector<bin::Frame>* frames = nullptr) {
  std::span<const unsigned char> rest = as_bytes(bytes);
  while (!rest.empty()) {
    bin::Frame frame;
    switch (bin::parse_frame(rest, frame)) {
      case bin::ParseResult::kFrame:
        if (frames != nullptr) frames->push_back(frame);
        rest = rest.subspan(frame.consumed);
        break;
      case bin::ParseResult::kNeedMore:
        return true;  // trailing prefix is fine: the server got closed on
      default:
        return false;
    }
  }
  return true;
}

std::string hello_bytes(std::uint16_t version = bin::kVersion) {
  std::string out;
  bin::encode_hello(out, version);
  return out;
}

void expect_server_alive(Server& server) {
  auto probe = Client::connect("127.0.0.1", server.port());
  (void)probe.label(bgp::Community(100, 20000));  // throws on a dead server
}

TEST(BinaryServer, VersionSkewGetsFramedErrorThenClose) {
  const auto engine = primed_engine();
  Server server(*engine, loopback_config());
  server.start();

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  conn.send_str(hello_bytes(/*version=*/2));
  bool closed = false;
  const std::string answer = conn.drain(closed);
  EXPECT_TRUE(closed);
  std::vector<bin::Frame> frames;
  ASSERT_TRUE(parse_all_frames(answer, &frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].tag, static_cast<std::uint8_t>(bin::Status::kErr));
  const auto err = bin::parse_err_body(frames[0].body);
  ASSERT_TRUE(err);
  EXPECT_EQ(err->code, bin::ErrCode::kVersionSkew);

  expect_server_alive(server);
  server.request_stop();
  server.wait();
}

TEST(BinaryServer, BadMagicGetsFramedErrorThenClose) {
  const auto engine = primed_engine();
  Server server(*engine, loopback_config());
  server.start();

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  // First byte 0xB6 routes to the binary path; the rest of the magic is
  // wrong.
  std::string hello = hello_bytes();
  hello[1] = 'X';
  conn.send_str(hello);
  bool closed = false;
  const std::string answer = conn.drain(closed);
  EXPECT_TRUE(closed);
  std::vector<bin::Frame> frames;
  ASSERT_TRUE(parse_all_frames(answer, &frames));
  ASSERT_EQ(frames.size(), 1u);
  const auto err = bin::parse_err_body(frames[0].body);
  ASSERT_TRUE(err);
  EXPECT_EQ(err->code, bin::ErrCode::kBadMagic);

  expect_server_alive(server);
  server.request_stop();
  server.wait();
}

TEST(BinaryServer, LengthLieAboveCapGetsOversizedThenClose) {
  const auto engine = primed_engine();
  Server server(*engine, loopback_config());
  server.start();

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  std::string stream = hello_bytes();
  bin::put_u32(stream, 0x7FFFFFFFu);  // length lie: ~2 GiB frame
  conn.send_str(stream);
  bool closed = false;
  const std::string answer = conn.drain(closed);
  EXPECT_TRUE(closed);
  std::vector<bin::Frame> frames;
  ASSERT_TRUE(parse_all_frames(answer, &frames));
  ASSERT_EQ(frames.size(), 2u);  // hello-ok, then the error
  const auto err = bin::parse_err_body(frames[1].body);
  ASSERT_TRUE(err);
  EXPECT_EQ(err->code, bin::ErrCode::kOversized);

  expect_server_alive(server);
  server.request_stop();
  server.wait();
}

TEST(BinaryServer, TruncatedFrameThenEofClosesCleanly) {
  const auto engine = primed_engine();
  Server server(*engine, loopback_config());
  server.start();

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  std::string request;
  bin::encode_label_request(request, bgp::Community(100, 20000));
  std::string stream = hello_bytes() + request.substr(0, request.size() - 2);
  conn.send_str(stream);
  conn.shutdown_write();
  bool closed = false;
  const std::string answer = conn.drain(closed);
  EXPECT_TRUE(closed);  // half a frame never blocks the connection open
  std::vector<bin::Frame> frames;
  ASSERT_TRUE(parse_all_frames(answer, &frames));
  ASSERT_EQ(frames.size(), 1u);  // just the hello-ok; no answer invented
  EXPECT_EQ(frames[0].tag, static_cast<std::uint8_t>(bin::Status::kOk));

  expect_server_alive(server);
  server.request_stop();
  server.wait();
}

TEST(BinaryServer, TruncatedHelloThenEofClosesCleanly) {
  const auto engine = primed_engine();
  Server server(*engine, loopback_config());
  server.start();

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  const std::string hello = hello_bytes();
  conn.send_str(hello.substr(0, 3));
  conn.shutdown_write();
  bool closed = false;
  (void)conn.drain(closed);
  EXPECT_TRUE(closed);

  expect_server_alive(server);
  server.request_stop();
  server.wait();
}

TEST(BinaryServer, UnknownOpcodeGetsBadOpcode) {
  const auto engine = primed_engine();
  Server server(*engine, loopback_config());
  server.start();

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  std::string stream = hello_bytes();
  bin::put_u32(stream, 1);
  stream.push_back(static_cast<char>(0x7F));  // no such opcode
  conn.send_str(stream);
  bool closed = false;
  const std::string answer = conn.drain(closed);
  EXPECT_TRUE(closed);
  std::vector<bin::Frame> frames;
  ASSERT_TRUE(parse_all_frames(answer, &frames));
  ASSERT_EQ(frames.size(), 2u);
  const auto err = bin::parse_err_body(frames[1].body);
  ASSERT_TRUE(err);
  EXPECT_EQ(err->code, bin::ErrCode::kBadOpcode);

  expect_server_alive(server);
  server.request_stop();
  server.wait();
}

TEST(BinaryServer, MismatchedBodyGetsMalformed) {
  const auto engine = primed_engine();
  Server server(*engine, loopback_config());
  server.start();

  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  std::string stream = hello_bytes();
  bin::put_u32(stream, 4);  // LABEL with a 3-byte community: wrong
  stream.push_back(static_cast<char>(bin::Op::kLabel));
  stream.append(3, '\0');
  conn.send_str(stream);
  bool closed = false;
  const std::string answer = conn.drain(closed);
  EXPECT_TRUE(closed);
  std::vector<bin::Frame> frames;
  ASSERT_TRUE(parse_all_frames(answer, &frames));
  ASSERT_EQ(frames.size(), 2u);
  const auto err = bin::parse_err_body(frames[1].body);
  ASSERT_TRUE(err);
  EXPECT_EQ(err->code, bin::ErrCode::kMalformed);

  expect_server_alive(server);
  server.request_stop();
  server.wait();
}

// --- corruption fuzz ----------------------------------------------------
//
// mrt::corrupt_spans was built for MRT records and journal frames; binary
// protocol frames are just a third layout: {4-byte header, length at
// offset 0, little-endian}.  Sweep every corruption kind over a valid
// request stream and assert the invariant that matters: the server
// answers only well-formed frames, eventually closes once we stop
// sending, and survives to serve the next connection.  It must never
// hang (drain() has a deadline) and never crash (expect_server_alive).

inline constexpr mrt::FrameLayout kBinaryFrameLayout{
    /*header_bytes=*/4, /*length_offset=*/0, /*length_big_endian=*/false};

struct RequestImage {
  std::vector<std::uint8_t> bytes;
  std::vector<mrt::RecordSpan> spans;
};

RequestImage build_request_image() {
  RequestImage image;
  std::string arena;
  const std::vector<bgp::Community> batch = {bgp::Community(100, 20000),
                                             bgp::Community(100, 1)};
  for (int i = 0; i < 6; ++i) {
    const std::size_t before = arena.size();
    switch (i % 3) {
      case 0:
        bin::encode_label_request(
            arena, bgp::Community(100, static_cast<std::uint16_t>(i)));
        break;
      case 1:
        bin::encode_batch_label_request(arena, batch);
        break;
      default:
        bin::encode_stats_request(arena);
        break;
    }
    image.spans.push_back({before, arena.size() - before});
  }
  image.bytes.assign(arena.begin(), arena.end());
  return image;
}

TEST(BinaryFuzz, CorruptedFrameStreamsNeverWedgeTheServer) {
  const auto engine = primed_engine();
  Server server(*engine, loopback_config());
  server.start();

  const RequestImage image = build_request_image();
  for (const mrt::CorruptionKind kind : mrt::kAllCorruptionKinds) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto corrupted = mrt::corrupt_spans(
          image.bytes, image.spans, kBinaryFrameLayout, kind, seed);
      SCOPED_TRACE(corrupted.description);

      RawConn conn(server.port());
      ASSERT_TRUE(conn.ok());
      conn.send_str(hello_bytes());
      conn.send_bytes(corrupted.bytes);
      conn.shutdown_write();

      bool closed = false;
      const std::string answer = conn.drain(closed);
      // The server stopped talking to us in bounded time — either it
      // closed on a protocol error or it drained to EOF and closed.
      EXPECT_TRUE(closed);
      // Whatever it said on the way out parses as frames: a corrupted
      // *request* stream must never produce a corrupted *response*
      // stream.
      EXPECT_TRUE(parse_all_frames(answer));
    }
  }

  // After 16 hostile connections the daemon still answers.
  expect_server_alive(server);
  const auto stats = server.stats();
  EXPECT_GE(stats.binary_connections, 16u);
  server.request_stop();
  server.wait();
}

// --- line protocol fuzz -------------------------------------------------
//
// The same sweep over the line protocol, now that every daemon takes
// SUBSCRIBE: valid LABEL, INGEST (AS paths and community lists), TOTALS
// and SUBSCRIBE lines, damaged by mrt::corrupt_spans.  Lines carry no
// length field, so a length lie stomps the line's first word.  Every
// reply line must be an answer (OK/ERR) or a push (EVENT, DATA, END);
// the server must close once we stop sending and keep serving STATS.

inline constexpr mrt::FrameLayout kLineLayout{0, 0, false};

RequestImage build_line_image() {
  RequestImage image;
  std::string arena;
  for (const char* line : {
           "LABEL 100:20000\n",
           "INGEST 61,100,201 100:20000 63,300,400 300:7,300:9\n",
           "TOTALS\n",
           "INGEST 64,100,205 100:1,100:2,100:20000\n",
           "LABEL 300:7\n",
           "SUBSCRIBE snapshot from=1\n",
       }) {
    const std::size_t before = arena.size();
    arena += line;
    image.spans.push_back({before, arena.size() - before});
  }
  image.bytes.assign(arena.begin(), arena.end());
  return image;
}

TEST(LineFuzz, CorruptedLineStreamsNeverWedgeTheServer) {
  const auto engine = primed_engine();
  Server server(*engine, loopback_config());
  server.start();

  const RequestImage image = build_line_image();
  std::size_t connections = 0;
  for (const mrt::CorruptionKind kind : mrt::kAllCorruptionKinds) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto corrupted =
          mrt::corrupt_spans(image.bytes, image.spans, kLineLayout, kind, seed);
      SCOPED_TRACE(corrupted.description);

      RawConn conn(server.port());
      ASSERT_TRUE(conn.ok());
      conn.send_bytes(corrupted.bytes);
      conn.shutdown_write();
      ++connections;

      bool closed = false;
      const std::string answer = conn.drain(closed);
      EXPECT_TRUE(closed);
      if (!corrupted.bytes.empty() && corrupted.bytes[0] == bin::kMagic[0]) {
        // The damage made it a binary connection: framed answers only.
        EXPECT_TRUE(parse_all_frames(answer));
        continue;
      }
      std::size_t start = 0;
      for (std::size_t end; (end = answer.find('\n', start)) !=
                            std::string::npos;
           start = end + 1) {
        const std::string line = answer.substr(start, end - start);
        EXPECT_TRUE(util::starts_with(line, "OK ") ||
                    util::starts_with(line, "ERR ") ||
                    util::starts_with(line, "EVENT ") ||
                    util::starts_with(line, "DATA ") ||
                    util::starts_with(line, "END snapshot "))
            << line;
      }
    }
  }

  // After the hostile connections a fresh one still gets STATS.
  auto probe = Client::connect("127.0.0.1", server.port());
  EXPECT_TRUE(util::starts_with(probe.request("STATS"), "OK "));
  EXPECT_GE(server.stats().connections_accepted, connections);
  server.request_stop();
  server.wait();
}

}  // namespace
}  // namespace bgpintent::serve
