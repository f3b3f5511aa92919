// Wire conventions shared by the query server, the client, and their tests.
//
// The protocol is line-based text over TCP (docs/SERVING.md): one request
// line in, one response line out.  Responses start with "OK" followed by
// space-separated key=value pairs, or "ERR <message>".  Requests:
//
//   LABEL <alpha:beta>              current intent label of one community
//   INGEST <as-path> <communities> [<as-path> <communities> ...]
//                                   feed (path, communities) observations;
//                                   in a multi-pair batch malformed pairs
//                                   are skipped and counted in the
//                                   response's errors= field (a single
//                                   malformed pair still answers ERR)
//   TOTALS                          global label counters
//   STATS                           server counters, cumulative decode
//                                   counters (decode_ok / decode_errors),
//                                   and query latency
//   SNAPSHOT <file>                 persist the engine's state image
//                                   server-side (stream/image.hpp)
//   SUBSCRIBE [snapshot] [from=<seq>]
//                                   upgrade the connection to a push
//                                   stream of label changes.  The
//                                   response's first line is
//                                   "OK subscribed seq=<s>"; with
//                                   `snapshot` (or when `from=` points
//                                   before the buffered event log) it is
//                                   followed by "DATA community=<a:b>
//                                   label=<l>" lines and "END snapshot
//                                   seq=<s>".  Afterwards the server
//                                   pushes "EVENT seq=<n>
//                                   community=<a:b> old=<l> new=<l>
//                                   epoch=<e>" lines as labels change
//                                   (docs/STREAMING.md)
//   QUIT                            close the connection
//
// AS paths travel comma-separated ("61,100,201" — AS_SEQUENCE only, AS_SET
// aggregates cannot be expressed); community lists comma-separated
// ("100:1,200:2") with "-" encoding the empty list.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/aspath.hpp"
#include "bgp/community.hpp"

namespace bgpintent::serve {

/// Thrown by the client and server on connection, IO, or protocol failures.
class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Request lines longer than this are rejected and the connection closed.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

/// "61,100,201" form of a pure AS_SEQUENCE path; nullopt when the path
/// contains an AS_SET (the wire form cannot express aggregates) or is empty.
[[nodiscard]] std::optional<std::string> format_path(const bgp::AsPath& path);

/// Inverse of format_path; nullopt on malformed ASNs or empty input.
[[nodiscard]] std::optional<bgp::AsPath> parse_path(std::string_view text);

/// "100:1,200:2" form; "-" for an empty list.
[[nodiscard]] std::string format_communities(
    std::span<const bgp::Community> communities);

/// Inverse of format_communities; nullopt on malformed values.
[[nodiscard]] std::optional<std::vector<bgp::Community>> parse_communities(
    std::string_view text);

/// Splits an "OK key=value ..." response line into its pairs; nullopt when
/// the line is not an OK response (including "ERR ..." lines).
[[nodiscard]] std::optional<std::map<std::string, std::string>>
parse_ok_response(std::string_view line);

}  // namespace bgpintent::serve
