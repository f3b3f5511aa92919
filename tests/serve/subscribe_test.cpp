// SUBSCRIBE protocol tests: every daemon answers every verb (a `serve`
// engine pushes events, a `stream` engine writes snapshots), the snapshot
// block, live EVENT push after an INGEST, and from= resumption with the
// automatic snapshot resync — docs/STREAMING.md end to end over a real
// socket.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "stream/engine.hpp"
#include "support/serve_engine.hpp"
#include "support/temp_path.hpp"
#include "util/strings.hpp"

namespace bgpintent::serve {
namespace {

constexpr int kPushTimeoutMs = 10000;

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

/// Reads a full SUBSCRIBE snapshot block after its OK line: DATA lines up
/// to "END snapshot seq=N".  Returns the DATA lines.
std::vector<std::string> read_snapshot_block(Client& client) {
  std::vector<std::string> data;
  for (;;) {
    const auto line = client.read_line(kPushTimeoutMs);
    if (!line) {
      ADD_FAILURE() << "timed out inside snapshot block";
      return data;
    }
    if (util::starts_with(*line, "END snapshot ")) return data;
    EXPECT_TRUE(util::starts_with(*line, "DATA ")) << *line;
    data.push_back(*line);
  }
}

// A daemon built like `bgpintent serve` — a primed non-expiring window —
// takes SUBSCRIBE, and an INGEST that flips a label pushes its EVENT.
TEST(Subscribe, ServeDaemonAnswersSubscribe) {
  const std::vector<bgp::RibEntry> rib = {
      entry(61, {61, 100, 201}, {bgp::Community(100, 1)})};
  const auto engine = test_support::serve_engine(rib);
  Server server(*engine, loopback_config());
  server.start();
  auto subscriber = Client::connect("127.0.0.1", server.port());
  subscriber.send_line("SUBSCRIBE");
  const auto ok = subscriber.read_line(kPushTimeoutMs);
  ASSERT_TRUE(ok);
  EXPECT_EQ(*ok, "OK subscribed seq=1");

  auto producer = Client::connect("127.0.0.1", server.port());
  EXPECT_EQ(producer.request("INGEST 62,300,400 300:7"),
            "OK ingested=1 errors=0 entries=2");
  const auto event = subscriber.read_line(kPushTimeoutMs);
  ASSERT_TRUE(event) << "no EVENT pushed";
  EXPECT_TRUE(util::starts_with(*event, "EVENT seq=2 community=300:7 "
                                        "old=unclassified new=information"))
      << *event;
  // The producer connection stays request/response.
  EXPECT_TRUE(util::starts_with(producer.request("STATS"), "OK "));

  server.request_stop();
  server.wait();
}

// A sliding-window engine (`bgpintent stream --listen`) answers SNAPSHOT
// with the same state image a `serve` daemon writes.
TEST(Subscribe, StreamServerWritesSnapshotsAndServesQueries) {
  stream::StreamEngine engine;
  engine.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}), 10);
  engine.reclassify();
  Server server(engine, loopback_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  const std::string path = test_support::unique_temp_path("stream.snap");
  EXPECT_EQ(client.request("SNAPSHOT " + path), "OK saved=" + path);
  const stream::StateImage image = load_snapshot(path);
  EXPECT_EQ(image.config.window_epochs, engine.config().window_epochs);
  stream::StreamEngine restored(image.config);
  restored.restore_state(image.state, image.paths);
  EXPECT_EQ(restored.export_state(), engine.export_state());
  std::remove(path.c_str());

  EXPECT_EQ(client.label(bgp::Community(100, 1)), dict::Intent::kInformation);
  const auto totals = client.totals();
  EXPECT_EQ(totals.information, 1u);

  // STATS carries the window counters.
  const auto pairs = parse_ok_response(client.request("STATS"));
  ASSERT_TRUE(pairs);
  for (const char* key : {"updates_ok", "updates_errors", "window_epochs",
                          "reclassified_communities"})
    EXPECT_TRUE(pairs->contains(key)) << key;

  server.request_stop();
  server.wait();
}

TEST(Subscribe, SnapshotThenLivePush) {
  stream::StreamEngine engine;
  engine.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}), 10);
  engine.reclassify();

  Server server(engine, loopback_config());
  server.start();
  auto subscriber = Client::connect("127.0.0.1", server.port());
  subscriber.send_line("SUBSCRIBE snapshot");
  const auto ok = subscriber.read_line(kPushTimeoutMs);
  ASSERT_TRUE(ok);
  EXPECT_TRUE(util::starts_with(*ok, "OK subscribed seq=")) << *ok;

  const auto data = read_snapshot_block(subscriber);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0], "DATA community=100:1 label=information");

  // A second connection ingests a fresh pure-on community: the engine
  // publishes a label-change event and the accept thread pushes it to the
  // parked subscriber without any further request.
  auto producer = Client::connect("127.0.0.1", server.port());
  const std::string response =
      producer.request("INGEST 62,300,400 300:7");
  EXPECT_TRUE(util::starts_with(response, "OK ")) << response;

  const auto event = subscriber.read_line(kPushTimeoutMs);
  ASSERT_TRUE(event) << "no EVENT pushed";
  EXPECT_TRUE(util::starts_with(*event, "EVENT seq=")) << *event;
  EXPECT_NE(event->find("community=300:7"), std::string::npos) << *event;
  EXPECT_NE(event->find("old=unclassified"), std::string::npos) << *event;
  EXPECT_NE(event->find("new=information"), std::string::npos) << *event;

  server.request_stop();
  server.wait();
}

TEST(Subscribe, FromResumesTheDelta) {
  stream::StreamEngine engine;
  engine.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}), 10);
  engine.announce(entry(62, {62, 300, 400}, {bgp::Community(300, 7)}), 11);
  engine.reclassify();
  ASSERT_EQ(engine.last_seq(), 2u);

  Server server(engine, loopback_config());
  server.start();

  // from=1: event 1 was seen, event 2 is the delta.
  auto client = Client::connect("127.0.0.1", server.port());
  client.send_line("SUBSCRIBE from=1");
  const auto ok = client.read_line(kPushTimeoutMs);
  ASSERT_TRUE(ok);
  EXPECT_EQ(*ok, "OK subscribed seq=1");
  const auto event = client.read_line(kPushTimeoutMs);
  ASSERT_TRUE(event);
  EXPECT_TRUE(util::starts_with(*event, "EVENT seq=2 ")) << *event;

  server.request_stop();
  server.wait();
}

TEST(Subscribe, FromBeyondLastSeqResyncsWithSnapshot) {
  stream::StreamEngine engine;
  engine.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}), 10);
  engine.reclassify();

  Server server(engine, loopback_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  // A subscriber claiming to be ahead of the log is stale (e.g. the
  // server restarted): it must be resynced with a full snapshot.
  client.send_line("SUBSCRIBE from=9999");
  const auto ok = client.read_line(kPushTimeoutMs);
  ASSERT_TRUE(ok);
  EXPECT_TRUE(util::starts_with(*ok, "OK subscribed seq=")) << *ok;
  const auto data = read_snapshot_block(client);
  EXPECT_EQ(data.size(), 1u);

  server.request_stop();
  server.wait();
}

TEST(Subscribe, LaggedSubscriberIsDroppedAndCounted) {
  stream::StreamEngine engine;
  engine.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}), 10);
  engine.reclassify();

  // Zero queue budget: the outbox counts as full the moment the engine's
  // event ring trims past the peer, so the laggard path fires
  // deterministically instead of depending on socket buffer sizes.
  ServerConfig cfg = loopback_config();
  cfg.max_subscriber_queue_bytes = 0;
  Server server(engine, cfg);
  server.start();

  auto subscriber = Client::connect("127.0.0.1", server.port());
  subscriber.send_line("SUBSCRIBE snapshot");
  const auto ok = subscriber.read_line(kPushTimeoutMs);
  ASSERT_TRUE(ok);
  ASSERT_TRUE(util::starts_with(*ok, "OK subscribed seq=")) << *ok;
  (void)read_snapshot_block(subscriber);

  // Push the event log more than kMaxBufferedEvents past the subscriber
  // while it reads nothing: its delta position falls off the ring.  Every
  // announce carries a fresh community, so each pass publishes one event
  // per announce since the previous pass.
  // A gap needs first_buffered > next_after + 1 = 2, i.e. the ring must
  // trim *past* the peer's resume point, not merely reach it.
  for (std::uint32_t i = 0; engine.first_buffered_seq() <= 2 && i < 90000;
       ++i) {
    engine.announce(
        entry(100000 + i, {100000 + i, 1000 + (i >> 12), 201},
              {bgp::Community(static_cast<std::uint16_t>(1000 + (i >> 12)),
                              static_cast<std::uint16_t>(i & 0xFFF))}),
        10);
    if ((i & 0xFFF) == 0xFFF) engine.reclassify();
  }
  engine.reclassify();
  ASSERT_GT(engine.first_buffered_seq(), 2u);

  // The push loop notices the gap, sends the final notice, and drops the
  // connection.
  bool lagged = false;
  for (;;) {
    const auto line = subscriber.read_line(kPushTimeoutMs);
    if (!line) break;  // connection closed
    if (*line == "ERR lagged") {
      lagged = true;
      break;
    }
  }
  EXPECT_TRUE(lagged);

  auto observer = Client::connect("127.0.0.1", server.port());
  const auto pairs = parse_ok_response(observer.request("STATS"));
  ASSERT_TRUE(pairs);
  EXPECT_EQ(pairs->at("subscribers_dropped"), "1");

  server.request_stop();
  server.wait();
}

// A sliding-window server whose published label epoch falls off the
// engine's event ring — the engine runs more than kMaxBufferedEvents
// events past it with no LABEL in between — resyncs the epoch from a
// full snapshot:
// afterwards every LABEL equals engine.label_snapshot(), including a
// label the epoch held that the window has since expired.
TEST(StreamServer, EpochResyncsFromSnapshotAfterRingGap) {
  stream::StreamEngine engine;
  const bgp::Community expiring(100, 1);
  engine.announce(entry(61, {61, 100, 201}, {expiring}), 10);
  engine.reclassify();

  Server server(engine, loopback_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  client.negotiate_binary();
  ASSERT_EQ(client.label(expiring), dict::Intent::kInformation);
  const std::uint64_t epochs_before = server.stats().label_epochs;
  const std::uint64_t as_of = engine.published_seq();

  // Past the window (168 hourly epochs), so the first announce expires
  // 100:1; every announce then carries a fresh community, one event each.
  const std::uint32_t later = 10 + 170 * 3600;
  for (std::uint32_t i = 0;
       engine.first_buffered_seq() <= as_of + 1 && i < 90000; ++i) {
    engine.announce(
        entry(100000 + i, {100000 + i, 1000 + (i >> 12), 201},
              {bgp::Community(static_cast<std::uint16_t>(1000 + (i >> 12)),
                              static_cast<std::uint16_t>(i & 0xFFF))}),
        later);
    if ((i & 0xFFF) == 0xFFF) engine.reclassify();
  }
  engine.reclassify();
  ASSERT_GT(engine.first_buffered_seq(), as_of + 1);
  EXPECT_EQ(server.stats().label_epochs, epochs_before);  // no LABEL yet

  std::uint64_t snapshot_seq = 0;
  const auto snapshot = engine.label_snapshot(snapshot_seq);
  ASSERT_GE(snapshot.size(), stream::StreamEngine::kMaxBufferedEvents);
  ASSERT_EQ(engine.label_of(expiring), dict::Intent::kUnclassified);

  std::vector<bgp::Community> communities{expiring};
  std::vector<dict::Intent> want{dict::Intent::kUnclassified};
  for (const auto& [community, intent] : snapshot) {
    communities.push_back(community);
    want.push_back(intent);
  }
  std::vector<dict::Intent> got;
  constexpr std::size_t kBatch = 4096;
  for (std::size_t at = 0; at < communities.size(); at += kBatch) {
    const std::size_t n = std::min(kBatch, communities.size() - at);
    const auto answers =
        client.labels(std::span(communities).subspan(at, n));
    got.insert(got.end(), answers.begin(), answers.end());
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << communities[i].to_string();
  // The whole resync is one epoch.
  EXPECT_EQ(server.stats().label_epochs, epochs_before + 1);

  server.request_stop();
  server.wait();
}

/// A line-oriented subscriber over a raw socket with a deliberately tiny
/// SO_RCVBUF, so the loopback pair holds only a few tens of KB and the
/// server's per-subscriber outbox genuinely retains unsent bytes across
/// service passes (serve::Client inherits default buffers large enough to
/// swallow whole outboxes, which hides partial-flush bugs).
class TinyBufferSubscriber {
 public:
  explicit TinyBufferSubscriber(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    int rcvbuf = 4096;  // kernel doubles it; still far below one outbox
    if (::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf) !=
        0)
      throw std::runtime_error("setsockopt(SO_RCVBUF) failed");
    // Advertise a small MSS: loopback's 64 KB segments let the server's
    // sndbuf auto-tune past the whole outbox, which would make every
    // flush complete and defeat the partial-flush regime this test needs.
    int mss = 536;
    if (::setsockopt(fd_, IPPROTO_TCP, TCP_MAXSEG, &mss, sizeof mss) != 0)
      throw std::runtime_error("setsockopt(TCP_MAXSEG) failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0)
      throw std::runtime_error("connect to loopback failed");
  }

  ~TinyBufferSubscriber() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_line(const std::string& line) {
    const std::string message = line + "\n";
    std::size_t sent = 0;
    while (sent < message.size()) {
      const ssize_t n = ::send(fd_, message.data() + sent,
                               message.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  std::optional<std::string> read_line(int timeout_ms) {
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready <= 0) return std::nullopt;  // timeout or poll error
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got <= 0) return std::nullopt;  // peer closed
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes received beyond the last returned line
};

TEST(Subscribe, SlowReaderEventuallyReceivesEveryEvent) {
  stream::StreamEngine engine;
  engine.announce(entry(61, {61, 100, 201}, {bgp::Community(100, 1)}), 10);
  engine.reclassify();

  Server server(engine, loopback_config());
  server.start();

  TinyBufferSubscriber subscriber(server.port());
  subscriber.send_line("SUBSCRIBE");
  const auto ok = subscriber.read_line(kPushTimeoutMs);
  ASSERT_TRUE(ok);
  ASSERT_TRUE(util::starts_with(*ok, "OK subscribed seq=")) << *ok;
  const auto subscribed_at = util::parse_u64(
      std::string_view(*ok).substr(std::string_view("OK subscribed seq=")
                                       .size()));
  ASSERT_TRUE(subscribed_at) << *ok;

  // Publish far more event bytes than the shrunken socket pair can hold
  // while the subscriber reads nothing, so flushes go partial and the
  // subscriber survives many service passes with unsent outbox bytes —
  // the regime where a compaction self-move used to wipe the outbox and
  // strand the peer.  Stay below the 65536-event ring so the peer is
  // never genuinely lagged.
  constexpr std::uint32_t kEvents = 6000;
  for (std::uint32_t i = 0; i < kEvents; ++i) {
    engine.announce(
        entry(100000 + i, {100000 + i, 1000 + (i >> 12), 201},
              {bgp::Community(static_cast<std::uint16_t>(1000 + (i >> 12)),
                              static_cast<std::uint16_t>(i & 0xFFF))}),
        10);
    if ((i & 0x1FF) == 0x1FF) engine.reclassify();
  }
  engine.reclassify();
  const std::uint64_t last = engine.last_seq();
  ASSERT_GE(last, kEvents);
  ASSERT_EQ(engine.first_buffered_seq(), 1u) << "ring trimmed; test invalid";

  // Stay idle across several service passes: the accept thread queues the
  // backlog, fills the tiny socket, and compacts the registry while most
  // of the outbox is still unsent — only then start reading.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  // A merely-slow subscriber (still on the ring) must receive every event
  // after its subscription point, in order, with no gap and no ERR lagged.
  for (std::uint64_t next = *subscribed_at + 1; next <= last; ++next) {
    const auto line = subscriber.read_line(kPushTimeoutMs);
    ASSERT_TRUE(line) << "push stream stalled waiting for seq=" << next;
    ASSERT_TRUE(util::starts_with(*line, "EVENT seq=")) << *line;
    const std::string_view rest =
        std::string_view(*line).substr(std::string_view("EVENT seq=").size());
    const auto seq = util::parse_u64(rest.substr(0, rest.find(' ')));
    ASSERT_TRUE(seq) << *line;
    ASSERT_EQ(*seq, next) << *line;
  }

  server.request_stop();
  server.wait();
}

TEST(Subscribe, MalformedSubscribeArgumentsGetErr) {
  stream::StreamEngine engine;
  Server server(engine, loopback_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  for (const char* bad :
       {"SUBSCRIBE bogus", "SUBSCRIBE from=notanumber",
        "SUBSCRIBE snapshot extra junk"}) {
    const std::string response = client.request(bad);
    EXPECT_TRUE(util::starts_with(response, "ERR ")) << bad << " -> "
                                                     << response;
  }
  server.request_stop();
  server.wait();
}

}  // namespace
}  // namespace bgpintent::serve
