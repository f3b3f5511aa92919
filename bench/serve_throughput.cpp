// Throughput of the serve daemon over loopback TCP, before and after the
// protocol matters: INGEST observations/sec, cold and warm LABEL rates
// through the line protocol, and the multi-connection pipelined binary
// load that the shard-per-core epoll tier exists for.  The daemon's engine
// is primed as `bgpintent serve <rib>` primes it — the first half of the
// RIB through StreamEngine::prime and one reclassification pass — and the
// INGEST burst writes the second half.
//
// Rows:
//   - "LABEL warm line 1-conn" is the seed-comparable baseline: one
//     synchronous line-protocol query per socket round trip, exactly the
//     per-query cost profile of the pre-epoll daemon.
//   - "LABEL warm binary N-conn" is the load-generator phase: N
//     connections, each pipelining P binary LABEL frames per batch, with
//     client-side p50/p95/p99 over per-response latencies.
//   - "BATCH-LABEL" amortizes framing further: one frame carrying P
//     communities.
//
// Knobs (env): BGPINTENT_SERVE_CONNS (default 8), BGPINTENT_SERVE_PIPELINE
// (64), BGPINTENT_SERVE_SHARDS (8), BGPINTENT_SERVE_QUERIES (total warm
// queries per phase, 20000), BGPINTENT_SERVE_MIN_SPEEDUP (gate, 10).
// BGPINTENT_BENCH_JSON writes the machine-readable report
// (BENCH_serve.json in-repo); the run exits 1 when the pipelined binary
// rate fails the >= 10x gate over the line baseline.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <sstream>

#include "bench/common.hpp"
#include "mrt/mrt_file.hpp"
#include "mrt/source.hpp"
#include "serve/binary.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/stats.hpp"

using namespace bgpintent;
namespace bin = serve::binary;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double rate(std::size_t count, double seconds) {
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

std::size_t env_u64(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const long long v = std::atoll(env);
  return v > 0 ? static_cast<std::size_t>(v) : fallback;
}

/// One pipelined binary load-generator connection: sends `pipeline` LABEL
/// frames per batch, then drains the batch's responses, recording one
/// client-side latency sample per response.
struct Worker {
  std::size_t queries = 0;
  std::vector<double> latencies_us;
  bool ok = true;

  void run(std::uint16_t port, const std::vector<bgp::Community>& communities,
           std::size_t target_queries, std::size_t pipeline,
           std::size_t offset) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      ok = false;
      return;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd);
      ok = false;
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    std::string out;
    bin::encode_hello(out);
    ok = send_all(fd, out) && read_responses(fd, 1, nullptr);
    latencies_us.reserve(target_queries);

    std::size_t cursor = offset;
    while (ok && queries < target_queries) {
      const std::size_t batch =
          std::min(pipeline, target_queries - queries);
      out.clear();
      for (std::size_t i = 0; i < batch; ++i) {
        bin::encode_label_request(out,
                                  communities[cursor % communities.size()]);
        ++cursor;
      }
      const auto sent_at = std::chrono::steady_clock::now();
      ok = send_all(fd, out) && read_responses(fd, batch, &sent_at);
      queries += batch;
    }
    ::close(fd);
  }

 private:
  static bool send_all(int fd, const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads until `want` complete frames arrive; per frame, records
  /// now - *sent_at as that response's latency.
  bool read_responses(int fd, std::size_t want,
                      const std::chrono::steady_clock::time_point* sent_at) {
    while (want > 0) {
      char chunk[16 * 1024];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      in_.append(chunk, static_cast<std::size_t>(n));
      std::size_t consumed = 0;
      while (want > 0) {
        bin::Frame frame;
        const auto result = bin::parse_frame(
            {reinterpret_cast<const unsigned char*>(in_.data()) + consumed,
             in_.size() - consumed},
            frame);
        if (result != bin::ParseResult::kFrame) break;
        if (frame.tag != static_cast<std::uint8_t>(bin::Status::kOk))
          return false;
        consumed += frame.consumed;
        --want;
        if (sent_at != nullptr)
          latencies_us.push_back(
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - *sent_at)
                  .count());
      }
      in_.erase(0, consumed);
    }
    return true;
  }

  std::string in_;
};

}  // namespace

int main() {
  auto cfg = bench::default_scenario_config();
  cfg.topology.stub_count = 400;
  cfg.vantage_point_count = 80;
  if (const char* scale = bench::apply_bench_scale(cfg))
    std::printf("scale preset: %s (BGPINTENT_BENCH_SCALE)\n", scale);
  bench::print_banner("serve_throughput — daemon ingest and query rates",
                      cfg);

  const std::size_t conns = env_u64("BGPINTENT_SERVE_CONNS", 8);
  const std::size_t pipeline = env_u64("BGPINTENT_SERVE_PIPELINE", 64);
  const std::size_t shards = env_u64("BGPINTENT_SERVE_SHARDS", 8);
  const std::size_t warm_queries = env_u64("BGPINTENT_SERVE_QUERIES", 20000);
  const double min_speedup = static_cast<double>(
      env_u64("BGPINTENT_SERVE_MIN_SPEEDUP", 10));

  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();
  const topo::OrgMap* orgs = &scenario.topology().orgs;
  stream::WindowConfig window;  // serve's: non-expiring
  window.window_epochs = UINT32_MAX;

  // The distinct communities to query.
  std::vector<bgp::Community> communities;
  for (const auto& entry : entries)
    communities.insert(communities.end(), entry.route.communities.begin(),
                       entry.route.communities.end());
  std::sort(communities.begin(), communities.end());
  communities.erase(std::unique(communities.begin(), communities.end()),
                    communities.end());
  std::printf(
      "workload: %zu RIB entries, %zu distinct communities; load gen: "
      "%zu conns x %zu pipelined, %zu shards, %zu warm queries/phase\n\n",
      entries.size(), communities.size(), conns, pipeline, shards,
      warm_queries);

  // In-process baseline (no protocol, no socket).
  double local_query_s = 0.0;
  {
    stream::StreamEngine local(window, orgs);
    for (const auto& entry : entries) local.announce(entry);
    local.reclassify();
    auto start = std::chrono::steady_clock::now();
    for (const bgp::Community community : communities)
      (void)local.label_of(community);
    local_query_s = seconds_since(start);
  }

  // Prime the daemon's engine from the first half as an MRT RIB dump.
  const std::size_t half = entries.size() / 2;
  stream::StreamEngine engine(window, orgs);
  {
    std::ostringstream rib;
    mrt::MrtWriter(rib).write_rib_snapshot(
        std::vector<bgp::RibEntry>(entries.begin(),
                                   entries.begin() +
                                       static_cast<std::ptrdiff_t>(half)),
        0x7f000001, 1684886400);
    const std::string bytes = rib.str();
    engine.prime(mrt::BufferSource{
        std::vector<std::uint8_t>(bytes.begin(), bytes.end())});
    engine.reclassify();
  }
  serve::ServerConfig server_cfg;
  server_cfg.shards = static_cast<unsigned>(shards);
  serve::Server server(engine, server_cfg);
  server.start();
  auto client = serve::Client::connect("127.0.0.1", server.port());

  // INGEST burst: the second half, one synchronous write per entry.
  auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  for (std::size_t i = half; i < entries.size(); ++i) {
    const auto& entry = entries[i];
    if (entry.route.communities.empty()) continue;
    client.ingest(entry.route.path, entry.route.communities);
    ++sent;
  }
  const double ingest_s = seconds_since(start);

  // Cold queries: the first pass over every community after the burst.
  start = std::chrono::steady_clock::now();
  for (const bgp::Community community : communities)
    (void)client.label(community);
  const double cold_s = seconds_since(start);

  // Warm line-protocol baseline: one query per socket round trip on one
  // connection — the pre-epoll daemon's cost profile.
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < warm_queries; ++i)
    (void)client.label(communities[i % communities.size()]);
  const double warm_line_s = seconds_since(start);
  const double warm_line_qps = rate(warm_queries, warm_line_s);

  // Warm binary multi-connection pipelined load.
  std::vector<Worker> workers(conns);
  {
    std::vector<std::thread> threads;
    threads.reserve(conns);
    const std::size_t per_conn = warm_queries;  // each conn runs the budget
    start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < conns; ++i)
      threads.emplace_back([&, i] {
        workers[i].run(server.port(), communities, per_conn, pipeline,
                       i * 37);
      });
    for (auto& thread : threads) thread.join();
  }
  const double warm_binary_s = seconds_since(start);
  std::size_t binary_queries = 0;
  std::vector<double> latencies;
  bool load_ok = true;
  for (const Worker& worker : workers) {
    binary_queries += worker.queries;
    load_ok = load_ok && worker.ok;
    latencies.insert(latencies.end(), worker.latencies_us.begin(),
                     worker.latencies_us.end());
  }
  const double warm_binary_qps = rate(binary_queries, warm_binary_s);
  const double p50 = util::percentile(latencies, 50.0);
  const double p95 = util::percentile(latencies, 95.0);
  const double p99 = util::percentile(latencies, 99.0);

  // BATCH-LABEL: one frame per `pipeline` communities, one connection.
  double warm_batch_qps = 0.0;
  {
    auto batch_client = serve::Client::connect("127.0.0.1", server.port());
    batch_client.negotiate_binary();
    std::vector<bgp::Community> batch(pipeline);
    std::size_t done = 0;
    start = std::chrono::steady_clock::now();
    while (done < warm_queries) {
      for (std::size_t i = 0; i < batch.size(); ++i)
        batch[i] = communities[(done + i) % communities.size()];
      (void)batch_client.labels(batch);
      done += batch.size();
    }
    warm_batch_qps = rate(done, seconds_since(start));
  }

  const auto stats = server.stats();
  client.quit();
  server.request_stop();
  server.wait();

  const double speedup =
      warm_line_qps > 0.0 ? warm_binary_qps / warm_line_qps : 0.0;

  util::TextTable table({"metric", "count", "seconds", "rate/s"});
  table.add_row({"INGEST observations", std::to_string(sent),
                 util::fixed(ingest_s, 3),
                 util::fixed(rate(sent, ingest_s), 0)});
  table.add_row({"LABEL cold", std::to_string(communities.size()),
                 util::fixed(cold_s, 3),
                 util::fixed(rate(communities.size(), cold_s), 0)});
  table.add_row({"LABEL warm line 1-conn", std::to_string(warm_queries),
                 util::fixed(warm_line_s, 3), util::fixed(warm_line_qps, 0)});
  table.add_row(
      {"LABEL warm binary " + std::to_string(conns) + "-conn",
       std::to_string(binary_queries), util::fixed(warm_binary_s, 3),
       util::fixed(warm_binary_qps, 0)});
  table.add_row({"BATCH-LABEL warm", std::to_string(warm_queries), "-",
                 util::fixed(warm_batch_qps, 0)});
  table.add_row({"local label_of", std::to_string(communities.size()),
                 util::fixed(local_query_s, 3),
                 util::fixed(rate(communities.size(), local_query_s), 0)});
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "client-side pipelined latency: p50=%.1fus p95=%.1fus p99=%.1fus\n",
      p50, p95, p99);
  std::printf("server-side latency: p50=%.1fus p99=%.1fus over %llu queries "
              "(%llu wakeups, %llu epochs)\n",
              stats.p50_query_us, stats.p99_query_us,
              static_cast<unsigned long long>(stats.queries_served),
              static_cast<unsigned long long>(stats.loop_wakeups),
              static_cast<unsigned long long>(stats.label_epochs));
  std::printf("binary vs line speedup: %.1fx (gate: >= %.0fx)\n\n", speedup,
              min_speedup);

  if (const char* out_path = std::getenv("BGPINTENT_BENCH_JSON")) {
    if (std::FILE* out = std::fopen(out_path, "w")) {
      std::fprintf(
          out,
          "{\n"
          "  \"bench\": \"serve_throughput\",\n"
          "  \"workload\": {\"entries\": %zu, \"primed_entries\": %zu, "
          "\"communities\": %zu, \"conns\": %zu, \"pipeline\": %zu, "
          "\"shards\": %zu, \"warm_queries\": %zu},\n"
          "  \"results\": {\n"
          "    \"ingest_obs_per_sec\": %.1f,\n"
          "    \"local_label_qps\": %.1f,\n"
          "    \"cold_label_qps\": %.1f,\n"
          "    \"warm_line_single_qps\": %.1f,\n"
          "    \"warm_binary_mc_qps\": %.1f,\n"
          "    \"warm_batch_qps\": %.1f,\n"
          "    \"binary_vs_line_speedup\": %.2f,\n"
          "    \"client_p50_us\": %.1f,\n"
          "    \"client_p95_us\": %.1f,\n"
          "    \"client_p99_us\": %.1f,\n"
          "    \"server_p50_us\": %.1f,\n"
          "    \"server_p99_us\": %.1f,\n"
          "    \"loop_wakeups\": %llu,\n"
          "    \"label_epochs\": %llu\n"
          "  }\n"
          "}\n",
          entries.size(), half, communities.size(), conns, pipeline, shards,
          warm_queries, rate(sent, ingest_s),
          rate(communities.size(), local_query_s),
          rate(communities.size(), cold_s), warm_line_qps, warm_binary_qps,
          warm_batch_qps, speedup, p50, p95, p99, stats.p50_query_us,
          stats.p99_query_us,
          static_cast<unsigned long long>(stats.loop_wakeups),
          static_cast<unsigned long long>(stats.label_epochs));
      std::fclose(out);
    } else {
      std::fprintf(stderr, "could not write %s\n", out_path);
      return 1;
    }
  }

  if (!load_ok) {
    std::fprintf(stderr, "FAIL: a load-generator connection errored out\n");
    return 1;
  }
  if (speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: pipelined binary rate is %.1fx the line baseline "
                 "(gate: >= %.0fx)\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
