// Route anomaly detection with intent labels — use case (3) from §1 of the
// paper: "whether a route is anomalous (e.g., sudden absence of information
// communities)".
//
// Compares two RIB snapshots of the same collector (base day vs. a churn
// day), classifies every community, and flags per-prefix anomalies:
//   - a vantage point's route LOST its information communities entirely
//     (possible path hijack or community-stripping change upstream), and
//   - a route GAINED action communities it did not carry before
//     (someone started steering that prefix).
//
// Two classification backends:
//   anomaly_watch               — in-process batch Pipeline (default)
//   anomaly_watch <host>:<port> — a running daemon: the tuples are
//     streamed over INGEST, then labels arrive in one SUBSCRIBE snapshot
//     round (docs/STREAMING.md).  A daemon that answers ERR to SUBSCRIBE
//     makes the watcher fall back to per-community LABEL polling, so
//     several watchers can share one long-lived classifier either way.
//
// A third mode watches live label transitions and survives daemon
// restarts (the CommunityWatch use case a journaled daemon enables):
//   anomaly_watch <host>:<port> watch [N] — SUBSCRIBE to the event
//     stream and print label-change transitions until N events were seen
//     (0 = forever).  On connection loss the watcher reconnects with
//     Client::connect_with_retry and re-SUBSCRIBEs `from=<last seen
//     seq>`; a daemon recovered from its journal resumes the sequence
//     gap-free, and when the resume point is genuinely gone (no journal,
//     or the ring trimmed past it) the daemon answers with a fresh
//     snapshot block that rebuilds the label cache before events resume.
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "core/pipeline.hpp"
#include "dict/intent.hpp"
#include "routing/scenario.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/strings.hpp"

using namespace bgpintent;

namespace {

using RouteKey = std::pair<bgp::Prefix, bgp::Asn>;  // (prefix, vantage point)
using Labeler = std::function<dict::Intent(bgp::Community)>;

std::map<RouteKey, std::set<bgp::Community>> index_routes(
    const std::vector<bgp::RibEntry>& entries) {
  std::map<RouteKey, std::set<bgp::Community>> by_route;
  for (const auto& entry : entries)
    by_route[{entry.route.prefix, entry.vantage_point.asn}] =
        std::set<bgp::Community>(entry.route.communities.begin(),
                                 entry.route.communities.end());
  return by_route;
}

// Streams the tuples to a serve daemon over INGEST.
void stream_observations(serve::Client& client,
                         const std::vector<bgp::RibEntry>& entries) {
  std::size_t sent = 0;
  std::size_t skipped = 0;
  for (const auto& entry : entries) {
    if (entry.route.communities.empty()) continue;
    // The wire form carries pure AS_SEQUENCE paths only.
    if (!serve::format_path(entry.route.path)) {
      ++skipped;
      continue;
    }
    client.ingest(entry.route.path, entry.route.communities);
    ++sent;
  }
  std::printf("streamed %zu observations to the daemon (%zu skipped)\n",
              sent, skipped);
}

// Labels from the daemon.  One "SUBSCRIBE snapshot" round trip fetches
// every current label at once; a daemon that answers ERR (an older build
// without SUBSCRIBE on `serve`) makes the labeler fall back to memoised
// per-community LABEL polling on the same connection (SUBSCRIBE only
// upgrades to a push stream on an OK response).
Labeler remote_labeler(serve::Client& client) {
  auto cache = std::make_shared<std::map<bgp::Community, dict::Intent>>();
  bool snapshot = false;
  try {
    client.send_line("SUBSCRIBE snapshot");
    auto line = client.read_line(10000);
    if (line && util::starts_with(*line, "OK")) {
      snapshot = true;
      while ((line = client.read_line(10000))) {
        if (util::starts_with(*line, "END")) break;
        // DATA community=<a:b> label=<l>
        std::optional<bgp::Community> community;
        std::optional<dict::Intent> intent;
        for (const auto field : util::split_whitespace(*line)) {
          if (field.starts_with("community="))
            community = bgp::Community::parse(field.substr(10));
          else if (field.starts_with("label="))
            intent = dict::parse_intent(field.substr(6));
        }
        if (community && intent) cache->emplace(*community, *intent);
      }
      std::printf("fetched %zu labels in one SUBSCRIBE snapshot\n",
                  cache->size());
    }
  } catch (const serve::ServeError&) {
    snapshot = false;  // treat a dropped probe like an ERR answer
  }
  if (snapshot) {
    return [cache](bgp::Community community) {
      const auto it = cache->find(community);
      return it == cache->end() ? dict::Intent::kUnclassified : it->second;
    };
  }
  std::printf("daemon has no event stream; polling labels over LABEL\n");
  return [&client, cache](bgp::Community community) {
    const auto it = cache->find(community);
    if (it != cache->end()) return it->second;
    const dict::Intent intent = client.label(community);
    cache->emplace(community, intent);
    return intent;
  };
}

// Live transition watcher: the restart-surviving SUBSCRIBE loop.  Exits
// after `max_events` transitions (0 = run until the connection budget is
// spent).  Every reconnect resumes `from=<last seen seq>`; the daemon
// decides whether that is servable as a delta (journaled restart) or
// needs a snapshot resync (lost resume point), and the watcher handles
// both answers.
int watch_daemon(const std::string& host, std::uint16_t port,
                 std::uint64_t max_events) {
  std::uint64_t last_seq = 0;
  bool have_seq = false;
  std::uint64_t seen = 0;
  std::map<bgp::Community, dict::Intent> labels;
  bool in_snapshot = false;

  for (;;) {
    std::optional<serve::Client> client;
    try {
      client = serve::Client::connect_with_retry(host, port);
    } catch (const serve::ServeError& e) {
      std::fprintf(stderr, "error: daemon unreachable: %s\n", e.what());
      return 1;
    }
    try {
      client->send_line(have_seq
                            ? util::format("SUBSCRIBE from=%llu",
                                           static_cast<unsigned long long>(
                                               last_seq))
                            : std::string("SUBSCRIBE snapshot"));
      auto line = client->read_line(10000);
      if (!line || !util::starts_with(*line, "OK subscribed")) {
        std::fprintf(stderr, "error: SUBSCRIBE rejected: %s\n",
                     line ? line->c_str() : "(timeout)");
        return 1;
      }
      if (have_seq)
        std::printf("resubscribed from=%llu\n",
                    static_cast<unsigned long long>(last_seq));
      while ((line = client->read_line(/*timeout_ms=*/-1))) {
        if (util::starts_with(*line, "ERR lagged")) {
          // Dropped as a laggard: the resume point is stale, so the next
          // SUBSCRIBE from= will be answered with a snapshot resync.
          std::printf("dropped as laggard; reconnecting\n");
          break;
        }
        if (util::starts_with(*line, "DATA ")) {
          // First DATA line of a resync block: the delta we asked for is
          // gone, start the cache over from the fresh snapshot.
          if (!in_snapshot) {
            in_snapshot = true;
            labels.clear();
          }
          std::optional<bgp::Community> community;
          std::optional<dict::Intent> intent;
          for (const auto field : util::split_whitespace(*line)) {
            if (field.starts_with("community="))
              community = bgp::Community::parse(field.substr(10));
            else if (field.starts_with("label="))
              intent = dict::parse_intent(field.substr(6));
          }
          if (community && intent) labels[*community] = *intent;
          continue;
        }
        if (util::starts_with(*line, "END snapshot seq=")) {
          in_snapshot = false;
          if (const auto seq = util::parse_u64(
                  std::string_view(*line).substr(17))) {
            last_seq = *seq;
            have_seq = true;
          }
          std::printf("snapshot resync: %zu labels, seq=%llu\n",
                      labels.size(),
                      static_cast<unsigned long long>(last_seq));
          continue;
        }
        if (util::starts_with(*line, "EVENT ")) {
          std::optional<std::uint64_t> seq;
          std::optional<bgp::Community> community;
          for (const auto field : util::split_whitespace(*line)) {
            if (field.starts_with("seq="))
              seq = util::parse_u64(field.substr(4));
            else if (field.starts_with("community="))
              community = bgp::Community::parse(field.substr(10));
          }
          if (seq) {
            last_seq = *seq;
            have_seq = true;
          }
          std::printf("%s\n", line->c_str());
          if (community) {
            // Keep the cache current so a resync diff stays meaningful.
            for (const auto field : util::split_whitespace(*line))
              if (field.starts_with("new="))
                if (const auto intent = dict::parse_intent(field.substr(4)))
                  labels[*community] = *intent;
          }
          if (max_events > 0 && ++seen >= max_events) {
            std::printf("saw %llu events; done\n",
                        static_cast<unsigned long long>(seen));
            return 0;
          }
        }
      }
    } catch (const serve::ServeError&) {
      // Connection dropped mid-stream: the daemon crashed or restarted.
      // Loop around: connect_with_retry rides out the restart window and
      // the re-SUBSCRIBE resumes from last_seq.
      std::printf("connection lost at seq=%llu; reconnecting\n",
                  static_cast<unsigned long long>(last_seq));
      in_snapshot = false;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  routing::ScenarioConfig cfg;
  cfg.topology.seed = 99;
  cfg.topology.tier1_count = 6;
  cfg.topology.tier2_count = 30;
  cfg.topology.stub_count = 200;
  cfg.vantage_point_count = 30;
  cfg.day_churn = 0.4;
  const auto scenario = routing::Scenario::build(cfg);

  const auto before = scenario.day_entries(0);
  auto after = scenario.day_entries(1);

  // Fault injection for the demo: overnight, the upstream of a handful of
  // prefixes starts stripping all communities (a real failure mode the
  // intent labels let us notice).
  std::set<bgp::Prefix> stripped;
  for (const auto& entry : before) {
    if (stripped.size() >= 4) break;
    if (entry.route.communities.size() >= 2)
      stripped.insert(entry.route.prefix);
  }
  for (auto& entry : after)
    if (stripped.contains(entry.route.prefix)) entry.route.communities.clear();

  // Classify once over both days (more data, stabler labels).
  std::vector<bgp::RibEntry> combined = before;
  combined.insert(combined.end(), after.begin(), after.end());

  Labeler label_of;
  std::size_t information_count = 0;
  std::size_t action_count = 0;
  std::optional<core::PipelineResult> batch;  // kept alive for the labeler
  std::optional<serve::Client> client;        // likewise, daemon mode

  if (argc > 1) {
    const std::string target = argv[1];
    const auto colon = target.rfind(':');
    const auto port = colon == std::string::npos
                          ? std::nullopt
                          : util::parse_u64(target.substr(colon + 1));
    if (!port || *port > 65535) {
      std::fprintf(stderr, "usage: %s [host:port [watch [events]]]\n",
                   argv[0]);
      return 2;
    }
    if (argc > 2 && std::string(argv[2]) == "watch") {
      std::uint64_t max_events = 0;
      if (argc > 3) {
        const auto parsed = util::parse_u64(argv[3]);
        if (!parsed) {
          std::fprintf(stderr, "usage: %s host:port watch [events]\n",
                       argv[0]);
          return 2;
        }
        max_events = *parsed;
      }
      return watch_daemon(target.substr(0, colon),
                          static_cast<std::uint16_t>(*port), max_events);
    }
    try {
      // Retry with backoff so the watcher survives the daemon's startup
      // window or a quick restart (serve/client.hpp RetryPolicy).
      client = serve::Client::connect_with_retry(
          target.substr(0, colon), static_cast<std::uint16_t>(*port));
      stream_observations(*client, combined);
      // TOTALS must precede the SUBSCRIBE probe: an OK response upgrades
      // the connection to a push stream with no request/response left.
      const auto totals = client->totals();
      information_count = totals.information;
      action_count = totals.action;
      label_of = remote_labeler(*client);
    } catch (const serve::ServeError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  } else {
    core::Pipeline pipeline;
    pipeline.set_org_map(&scenario.topology().orgs);
    batch = pipeline.run(combined);
    label_of = [&batch](bgp::Community community) {
      return batch->inference.label_of(community);
    };
    information_count = batch->inference.information_count;
    action_count = batch->inference.action_count;
  }

  std::printf("labels from %zu entries: %zu information / %zu action\n\n",
              combined.size(), information_count, action_count);

  const auto routes_before = index_routes(before);
  const auto routes_after = index_routes(after);

  std::size_t lost_info = 0;
  std::size_t gained_action = 0;
  for (const auto& [key, communities_after] : routes_after) {
    const auto it = routes_before.find(key);
    if (it == routes_before.end()) continue;
    const auto& communities_before = it->second;

    auto count_of = [&label_of](const std::set<bgp::Community>& communities,
                                dict::Intent intent) {
      std::size_t n = 0;
      for (const bgp::Community community : communities)
        if (label_of(community) == intent) ++n;
      return n;
    };
    const std::size_t info_before =
        count_of(communities_before, dict::Intent::kInformation);
    const std::size_t info_after =
        count_of(communities_after, dict::Intent::kInformation);
    if (info_before >= 2 && info_after == 0) {
      if (++lost_info <= 5)
        std::printf("ANOMALY  %s @ vp %u: %zu information communities "
                    "disappeared\n",
                    key.first.to_string().c_str(), key.second, info_before);
    }
    std::size_t new_actions = 0;
    for (const bgp::Community community : communities_after)
      if (!communities_before.contains(community) &&
          label_of(community) == dict::Intent::kAction)
        ++new_actions;
    if (new_actions > 0) {
      if (++gained_action <= 5)
        std::printf("steering %s @ vp %u: %zu new action communities "
                    "attached\n",
                    key.first.to_string().c_str(), key.second, new_actions);
    }
  }
  std::printf("\nsummary: %zu routes lost all information communities, "
              "%zu routes gained action communities\n",
              lost_info, gained_action);
  return 0;
}
