#include "serve/server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "routing/scenario.hpp"
#include "serve/client.hpp"
#include "serve/snapshot.hpp"
#include "support/serve_engine.hpp"
#include "support/temp_path.hpp"
#include "util/strings.hpp"

namespace bgpintent::serve {
namespace {

using dict::Intent;
using test_support::serve_engine;

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
  cfg.port = 0;        // ephemeral
  cfg.shards = 2;      // independent of the host's core count
  return cfg;
}

// The acceptance integration test: a server started from a snapshot must
// answer LABEL queries identically to a batch Pipeline::run over the same
// tuples.
TEST(Server, SnapshotServerMatchesBatchPipeline) {
  routing::ScenarioConfig cfg;
  cfg.topology.seed = 103;
  cfg.topology.tier1_count = 4;
  cfg.topology.tier2_count = 12;
  cfg.topology.stub_count = 60;
  cfg.vantage_point_count = 12;
  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();

  core::Pipeline batch;
  batch.set_org_map(&scenario.topology().orgs);
  const auto batch_result = batch.run(entries);

  // Prime serve's engine, persist it, and start the server from the
  // loaded snapshot — the restart must be invisible to queries.
  const auto primed = serve_engine(entries, &scenario.topology().orgs);
  const std::string snap = test_support::unique_temp_path("snap.bin");
  save_snapshot(*primed, snap);
  stream::StateImage image = load_snapshot(snap);
  std::remove(snap.c_str());
  stream::StreamEngine loaded(image.config, &scenario.topology().orgs);
  loaded.restore_state(image.state, std::move(image.paths));

  Server server(loaded, loopback_config());
  server.start();
  ASSERT_NE(server.port(), 0);
  auto client = Client::connect("127.0.0.1", server.port());

  std::size_t compared = 0;
  for (const auto& stats : batch_result.observations.all()) {
    ++compared;
    EXPECT_EQ(client.label(stats.community),
              batch_result.inference.label_of(stats.community))
        << stats.community.to_string();
  }
  EXPECT_GT(compared, 100u);

  const auto totals = client.totals();
  EXPECT_EQ(totals.information, batch_result.inference.information_count);
  EXPECT_EQ(totals.action, batch_result.inference.action_count);

  client.quit();
  server.request_stop();
  server.wait();
}

TEST(Server, IngestViaProtocolMatchesDirectIngest) {
  const auto reference = serve_engine();
  const auto engine = serve_engine();
  Server server(*engine, loopback_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  const std::vector<bgp::RibEntry> feed{
      entry(61, {61, 100, 201}, {bgp::Community(100, 20000)}),
      entry(62, {62, 100, 201}, {bgp::Community(100, 20000)}),
      entry(70, {70, 999, 201}, {bgp::Community(100, 2569)}),
      entry(71, {71, 999, 201}, {bgp::Community(100, 2569)}),
      entry(61, {61, 64512, 201}, {bgp::Community(64512, 9)}),
  };
  for (const auto& e : feed) {
    reference->announce(e);
    client.ingest(e.route.path, e.route.communities);
  }

  const auto want = reference->totals();
  const auto got = client.totals();
  EXPECT_EQ(got.communities, want.communities);
  EXPECT_EQ(got.information, want.information);
  EXPECT_EQ(got.action, want.action);
  EXPECT_EQ(got.unclassified, want.unclassified);
  std::size_t classified = 0;
  for (const auto& e : feed) {
    for (const bgp::Community c : e.route.communities) {
      const Intent want_label = reference->label_of(c);
      EXPECT_EQ(client.label(c), want_label) << c.to_string();
      if (want_label != Intent::kUnclassified) ++classified;
    }
  }
  EXPECT_GT(classified, 0u);

  server.request_stop();
  server.wait();
}

// An INGEST publishes a label epoch only when it flips a label: the flip
// is visible to the next LABEL on the same connection (read-your-writes),
// and the same evidence again answers OK without a new epoch.
TEST(Server, IngestThatChangesNoLabelPublishesNoEpoch) {
  const bgp::Community community(100, 20000);
  const std::vector<bgp::RibEntry> evidence = {
      entry(61, {61, 100, 201}, {community})};
  const Intent want = serve_engine(evidence)->label_of(community);
  ASSERT_NE(want, Intent::kUnclassified);

  const auto engine = serve_engine();
  Server server(*engine, loopback_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  const auto label_epochs = [&client] {
    const auto pairs = parse_ok_response(client.request("STATS"));
    EXPECT_TRUE(pairs);
    return pairs ? std::stoull(pairs->at("label_epochs")) : 0ULL;
  };
  ASSERT_EQ(client.label(community), Intent::kUnclassified);
  const auto before = label_epochs();

  const std::string ingest = "INGEST 61,100,201 100:20000";
  EXPECT_EQ(client.request(ingest), "OK ingested=1 errors=0 entries=1");
  EXPECT_EQ(label_epochs(), before + 1);
  EXPECT_EQ(client.label(community), want);

  EXPECT_EQ(client.request(ingest), "OK ingested=1 errors=0 entries=2");
  EXPECT_EQ(label_epochs(), before + 1);
  EXPECT_EQ(client.label(community), want);

  server.request_stop();
  server.wait();
}

// Regression: a server handed an engine with unsettled evidence must
// answer the settled labels however the first requests are ordered.  A
// TOTALS arriving before the first LABEL once consumed the dirty set
// privately, so no epoch was published and every later LABEL answered
// from the stale initial epoch forever.
TEST(Server, TotalsBeforeFirstLabelStillPublishesSettledEpoch) {
  const std::vector<bgp::RibEntry> feed{
      entry(61, {61, 100, 201}, {bgp::Community(100, 20000)}),
      entry(62, {62, 100, 201}, {bgp::Community(100, 20000)}),
      entry(70, {70, 999, 201}, {bgp::Community(100, 2569)}),
      entry(71, {71, 999, 201}, {bgp::Community(100, 2569)}),
      entry(61, {61, 64512, 201}, {bgp::Community(64512, 9)}),
  };
  const auto reference = serve_engine(feed);
  stream::StreamEngine primed(test_support::serve_window());
  for (const auto& e : feed) primed.announce(e);
  ASSERT_TRUE(primed.has_pending_dirty());

  Server server(primed, loopback_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  // First command is TOTALS: it must settle through the epoch publisher.
  const auto want = reference->totals();
  const auto got = client.totals();
  EXPECT_EQ(got.communities, want.communities);
  EXPECT_EQ(got.information, want.information);
  EXPECT_EQ(got.action, want.action);
  EXPECT_EQ(got.unclassified, want.unclassified);

  // LABEL queries after that TOTALS must see the settled labels, not the
  // stale initial epoch.
  std::size_t classified = 0;
  for (const auto c : {bgp::Community(100, 20000), bgp::Community(100, 2569),
                       bgp::Community(64512, 9)}) {
    const Intent want_label = reference->label_of(c);
    EXPECT_EQ(client.label(c), want_label) << c.to_string();
    if (want_label != Intent::kUnclassified) ++classified;
  }
  EXPECT_GT(classified, 0u);

  client.quit();
  server.request_stop();
  server.wait();
}

// Regression for response-backlog backpressure: a peer that pipelines
// thousands of requests without reading must not grow the outbox without
// bound — the server pauses parsing at max_response_backlog_bytes — and
// once the peer starts draining, every pipelined request must still be
// answered: pause and resume are lossless across many cycles.
TEST(Server, PipelinedRequestsSurviveBacklogPauseAndResume) {
  const std::vector<bgp::RibEntry> rib = {
      entry(61, {61, 100, 201}, {bgp::Community(100, 1)})};
  const auto engine = serve_engine(rib);
  ServerConfig cfg = loopback_config();
  cfg.max_response_backlog_bytes = 2048;  // force many pause/resume cycles
  Server server(*engine, cfg);
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  (void)::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);

  constexpr std::size_t kRequests = 4000;
  std::string burst;
  for (std::size_t i = 0; i < kRequests; ++i) burst += "LABEL 100:1\n";

  // Interleave nonblocking sends with reads: once the server pauses, our
  // send window closes until we drain responses, so a blocking writer
  // would deadlock — exactly the flow-control regime under test.
  std::size_t sent = 0;
  std::string received;
  std::size_t answers = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (answers < kRequests) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "pause/resume wedged: sent=" << sent << " answers=" << answers;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = static_cast<short>(
        POLLIN | (sent < burst.size() ? POLLOUT : 0));
    if (::poll(&pfd, 1, 1000) <= 0) continue;
    if (sent < burst.size() && (pfd.revents & POLLOUT) != 0) {
      const ssize_t n = ::send(fd, burst.data() + sent, burst.size() - sent,
                               MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    if ((pfd.revents & (POLLIN | POLLHUP)) != 0) {
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      ASSERT_NE(n, 0) << "server closed after " << answers << " answers";
      if (n > 0) {
        received.append(chunk, static_cast<std::size_t>(n));
        answers = static_cast<std::size_t>(
            std::count(received.begin(), received.end(), '\n'));
      }
    }
  }
  EXPECT_EQ(answers, kRequests);
  std::size_t start = 0;
  while (start < received.size()) {
    const std::size_t newline = received.find('\n', start);
    ASSERT_NE(newline, std::string::npos);
    EXPECT_TRUE(util::starts_with(received.substr(start, newline - start),
                                  "OK community=100:1 label="))
        << received.substr(start, newline - start);
    start = newline + 1;
  }
  ::close(fd);
  server.request_stop();
  server.wait();
}

TEST(Server, StatsReportCountersAndLatency) {
  const std::vector<bgp::RibEntry> rib = {
      entry(61, {61, 100, 201}, {bgp::Community(100, 1)})};
  const auto engine = serve_engine(rib);
  Server server(*engine, loopback_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  (void)client.label(bgp::Community(100, 1));
  (void)client.label(bgp::Community(100, 2));

  const std::string response = client.request("STATS");
  const auto pairs = parse_ok_response(response);
  ASSERT_TRUE(pairs) << response;
  for (const char* key :
       {"uptime_s", "connections", "queries", "entries", "dirty",
        "decode_ok", "decode_errors", "p50_us", "p99_us"})
    EXPECT_TRUE(pairs->contains(key)) << key << " missing in " << response;
  EXPECT_EQ(pairs->at("queries"), "2");
  EXPECT_EQ(pairs->at("entries"), "1");
  EXPECT_EQ(pairs->at("connections"), "1");

  const auto stats = server.stats();
  EXPECT_EQ(stats.queries_served, 2u);
  EXPECT_EQ(stats.entries_ingested, 1u);
  EXPECT_GE(stats.p99_query_us, stats.p50_query_us);

  server.request_stop();
  server.wait();
}

TEST(Server, IngestBatchSkipsAndCountsMalformedPairs) {
  const auto engine = serve_engine();
  Server server(*engine, loopback_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  // Three pairs, the middle one torn: the good ones ingest, the bad one is
  // counted — mirroring a tolerant MRT decode of a batch.
  const std::string response = client.request(
      "INGEST 61,100,201 100:1 61,abc 100:2 62,100,201 100:3");
  EXPECT_EQ(response, "OK ingested=2 errors=1 entries=2") << response;

  // The per-batch outcome accumulates into the daemon-wide counters.
  const auto pairs = parse_ok_response(client.request("STATS"));
  ASSERT_TRUE(pairs);
  EXPECT_EQ(pairs->at("decode_ok"), "2");
  EXPECT_EQ(pairs->at("decode_errors"), "1");
  const auto stats = server.stats();
  EXPECT_EQ(stats.decode_records_ok, 2u);
  EXPECT_EQ(stats.decode_records_skipped, 1u);

  server.request_stop();
  server.wait();
}

TEST(Server, SnapshotCommandWritesLoadableFile) {
  const std::vector<bgp::RibEntry> rib = {
      entry(61, {61, 100, 201}, {bgp::Community(100, 20000)})};
  const auto engine = serve_engine(rib);
  const auto want_state = engine->export_state();

  Server server(*engine, loopback_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  const std::string path = test_support::unique_temp_path("snap.bin");
  client.snapshot(path);
  stream::StateImage image = load_snapshot(path);
  stream::StreamEngine restored(image.config);
  restored.restore_state(image.state, std::move(image.paths));
  EXPECT_EQ(restored.export_state(), want_state);
  std::remove(path.c_str());

  // Unwritable destination must produce an ERR, not kill the server.
  EXPECT_THROW(client.snapshot("/nonexistent-dir/snap.bin"), ServeError);
  (void)client.request("STATS");  // connection still alive

  server.request_stop();
  server.wait();
}

TEST(Server, MalformedCommandsGetErrResponses) {
  const auto engine = serve_engine();
  Server server(*engine, loopback_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  for (const char* bad : {
           "BOGUS",                  // unknown command
           "LABEL",                  // missing argument
           "LABEL notacommunity",    // unparsable community
           "LABEL 100:1 extra",      // trailing garbage
           "INGEST 61,100",          // missing communities
           "INGEST 61,abc 100:1",    // bad path
           "INGEST 61,100 100",      // bad community
           "SNAPSHOT",               // missing path
       }) {
    const std::string response = client.request(bad);
    EXPECT_TRUE(util::starts_with(response, "ERR ")) << bad << " -> "
                                                     << response;
  }
  // The connection survives every ERR.
  EXPECT_EQ(client.request("QUIT"), "OK bye");

  server.request_stop();
  server.wait();
}

TEST(Server, OverlongLineIsRejected) {
  const auto engine = serve_engine();
  Server server(*engine, loopback_config());
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  // Longer than kMaxLineBytes: the server must answer ERR and close (or
  // the connection drops mid-send once the server closes its end).
  const std::string huge(kMaxLineBytes + 16, 'A');
  try {
    const std::string response = client.request(huge);
    EXPECT_TRUE(util::starts_with(response, "ERR ")) << response;
  } catch (const ServeError&) {
    // Acceptable: server closed before we finished sending.
  }

  server.request_stop();
  server.wait();
}

TEST(Server, IdleConnectionTimesOut) {
  auto cfg = loopback_config();
  cfg.read_timeout_ms = 200;
  const auto engine = serve_engine();
  Server server(*engine, cfg);
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  // The server has sent "ERR read timeout" and closed; the next request
  // either reads that line or hits the closed socket.
  try {
    const std::string response = client.request("STATS");
    EXPECT_TRUE(util::starts_with(response, "ERR ")) << response;
  } catch (const ServeError&) {
    // Also acceptable.
  }

  server.request_stop();
  server.wait();
}

TEST(Server, GracefulDrainStopsAccepting) {
  const auto engine = serve_engine();
  Server server(*engine, loopback_config());
  server.start();
  const std::uint16_t port = server.port();
  {
    auto client = Client::connect("127.0.0.1", port);
    EXPECT_EQ(client.request("QUIT"), "OK bye");
  }
  server.request_stop();
  server.wait();
  EXPECT_THROW((void)Client::connect("127.0.0.1", port), ServeError);
}

TEST(Server, FinalSnapshotWrittenOnDrain) {
  const std::string path = test_support::unique_temp_path("snap.bin");
  auto cfg = loopback_config();
  cfg.snapshot_path = path;
  const std::vector<bgp::RibEntry> rib = {
      entry(61, {61, 100, 201}, {bgp::Community(100, 20000)})};
  const auto engine = serve_engine(rib);
  const auto want_state = engine->export_state();

  Server server(*engine, cfg);
  server.start();
  server.request_stop();
  server.wait();

  stream::StateImage image = load_snapshot(path);
  stream::StreamEngine restored(image.config);
  restored.restore_state(image.state, std::move(image.paths));
  EXPECT_EQ(restored.export_state(), want_state);
  std::remove(path.c_str());
}

TEST(Server, IdleLoopBlocksWithoutConnections) {
  // The event loop must park in epoll_wait while nothing is happening: no
  // timers armed, no connections, no subscribers.  The seed daemon span
  // spun a 100 ms poll slice per worker; this asserts the epoll rewrite
  // stays parked.  A handful of wakeups is tolerated (startup, the
  // stop eventfd), a polling loop would show hundreds.
  const auto engine = serve_engine();
  Server server(*engine, loopback_config());
  server.start();

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::uint64_t settled = server.stats().loop_wakeups;
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  const std::uint64_t after_idle = server.stats().loop_wakeups;
  EXPECT_LE(after_idle - settled, 4u)
      << "idle second burned " << (after_idle - settled) << " wakeups";

  server.request_stop();
  server.wait();
}

TEST(Server, ConcurrentLabelAndIngestSeeOnlyWholeEpochs) {
  // The RCU contract: a LABEL reader dereferences one published snapshot
  // and never observes a half-applied reclassification.  Readers hammer
  // LABEL while a writer INGESTs evidence that flips 100:20000 between
  // labels; every answer must be a value some epoch actually published —
  // the label may change between queries but may never be torn into a
  // value outside the intent enum, and the per-epoch batch answer must be
  // internally consistent.  Run under TSan (ctest preset tsan) this also
  // proves the swap itself is race-free.
  const auto engine = serve_engine();
  Server server(*engine, loopback_config());
  server.start();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(2);
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&server, &done, &reads] {
      auto client = Client::connect("127.0.0.1", server.port());
      while (!done.load(std::memory_order_relaxed)) {
        const Intent got = client.label(bgp::Community(100, 20000));
        ASSERT_TRUE(got == Intent::kAction || got == Intent::kInformation ||
                    got == Intent::kUnclassified);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  {
    auto writer = Client::connect("127.0.0.1", server.port());
    for (int round = 0; round < 40; ++round) {
      // Alternate evidence shape so reclassification keeps flipping the
      // label: sometimes on-path (action-ish), sometimes off-path.
      const std::uint32_t vp = 61 + static_cast<std::uint32_t>(round % 4);
      const std::string path = (round % 2 == 0)
                                   ? util::format("%u,100,201", vp)
                                   : util::format("%u,300,%u", vp, 400 + round);
      (void)writer.request(
          util::format("INGEST %s 100:20000", path.c_str()));
    }
  }

  // Let the readers observe the final epoch a little longer, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  done.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0u);

  // Epochs were actually swapped while the readers ran.
  EXPECT_GT(server.stats().label_epochs, 1u);

  server.request_stop();
  server.wait();
}

// --- connect_with_retry -------------------------------------------------

TEST(ClientRetry, TransientErrnoClassification) {
  EXPECT_TRUE(ConnectError("refused", ECONNREFUSED).transient());
  EXPECT_TRUE(ConnectError("timed out", ETIMEDOUT).transient());
  EXPECT_FALSE(ConnectError("bad address", 0).transient());
  EXPECT_FALSE(ConnectError("no such host", EACCES).transient());
}

TEST(ClientRetry, SucceedsAgainstRunningServer) {
  const auto engine = serve_engine();
  Server server(*engine, loopback_config());
  server.start();
  auto client = Client::connect_with_retry("127.0.0.1", server.port());
  EXPECT_TRUE(util::starts_with(client.request("STATS"), "OK "));
  server.request_stop();
  server.wait();
}

TEST(ClientRetry, BacksOffThenRethrowsAgainstClosedPort) {
  // A port that just stopped listening: connections are refused, which is
  // transient — the retry loop must spend its budget before rethrowing.
  const auto engine = serve_engine();
  Server server(*engine, loopback_config());
  server.start();
  const std::uint16_t port = server.port();
  server.request_stop();
  server.wait();

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_delay_ms = 20;
  policy.max_delay_ms = 40;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)Client::connect_with_retry("127.0.0.1", port, policy),
               ConnectError);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  // Two backoff sleeps of >= (1 - jitter) * {20, 40} ms happened.
  EXPECT_GE(elapsed.count(), 40);
}

TEST(ClientRetry, NonTransientFailureDoesNotRetry) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_delay_ms = 500;  // would be very visible if retried
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(
      (void)Client::connect_with_retry("not-an-ipv4-literal", 1, policy),
      ConnectError);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 400);
}

}  // namespace
}  // namespace bgpintent::serve
