// Long-running query daemon over a stream::StreamEngine — the
// shard-per-core epoll serve tier behind `bgpintent serve` (a non-expiring
// window primed from RIB dumps) and `bgpintent stream --listen` (a sliding
// window fed by update files).  Both answer the same verbs.
//
// Architecture (docs/SERVING.md):
//
//   * N shards, each one thread owning an edge-triggered epoll instance,
//     its own SO_REUSEPORT listener on the shared address, and a private
//     connection table — the kernel spreads accepts across shards and no
//     lock is shared on the accept or read path.  When SO_REUSEPORT is
//     unavailable, shard 0 owns the single listener and hands accepted
//     fds to the other shards round-robin over eventfd-signalled queues.
//   * Classification state is published RCU-style (serve/labels.hpp): a
//     warm LABEL query reads the shard's cached epoch after one atomic
//     load and probes one flat array — it takes no lock, the engine mutex
//     included.  The engine's label-change events fold into
//     LabelView::publish_changes, which publishes a copy-on-write epoch
//     with a single pointer swap only when a label actually changed or
//     the engine sequence advanced.  INGEST folds them before it answers,
//     so a LABEL after its OK sees the labels it implies.
//   * Two wire protocols share the port: the line protocol of
//     serve/protocol.hpp (unchanged, first byte is printable ASCII) and
//     the length-prefixed binary protocol of serve/binary.hpp (first
//     byte 0xB6), with responses encoded into a per-connection arena
//     buffer that is reused across requests.
//   * Idle shards block in epoll_wait indefinitely: periodic snapshots
//     tick on a timerfd (armed only when configured), stop and engine
//     publish notifications arrive on per-shard eventfds, and the
//     loop_wakeups counter in STATS proves an idle server wakes ~never.
//   * SUBSCRIBE turns a connection into a push stream of label-change
//     EVENT lines with delta/snapshot resumption; the engine's publish
//     hook wakes every shard, so events reach parked subscribers without
//     polling.  SNAPSHOT writes the engine's state image
//     (stream/image.hpp), the same file a journal checkpoint is.
//   * A server handed a MappedSnapshot answers LABEL from the image's
//     label columns and restores the engine from the mapping on the first
//     request that needs it (INGEST, TOTALS, SUBSCRIBE, SNAPSHOT, STATS).
//
// Robustness guarantees (unchanged from the poll-slice daemon):
//   * per-connection idle timeout (ServerConfig::read_timeout_ms),
//     enforced by deadline scans on the shard loop — a dead peer cannot
//     pin a shard; subscribed push streams are exempt;
//   * max-line / max-frame guards — a garbage peer cannot balloon memory,
//     and a lying binary length field is rejected before any body byte
//     is buffered;
//   * bounded subscriber outboxes flushed by EPOLLOUT readiness — a
//     stalled subscriber cannot block its shard, and one that stays full
//     past the engine's event ring is disconnected with a final
//     `ERR lagged` (counted as subscribers_dropped in STATS);
//   * response-backlog backpressure on request/response connections — a
//     peer that pipelines requests without reading answers is paused
//     (its socket stops being drained, so TCP flow control pushes back)
//     once unsent responses reach max_response_backlog_bytes, instead of
//     growing the outbox without bound; EPOLLOUT progress resumes it;
//   * request_stop() is async-signal-safe (atomic store + eventfd
//     writes), so SIGINT/SIGTERM handlers can trigger a graceful drain:
//     stop accepting, flush pending responses, write a final snapshot.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/labels.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "stream/engine.hpp"

namespace bgpintent::serve {

struct ServerConfig {
  /// IPv4 address to bind; loopback by default (the protocol has no auth).
  std::string listen_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (query it back via port()).
  std::uint16_t port = 0;
  /// Event-loop shards (0 = one per core).
  unsigned shards = 0;
  /// Close a connection after this long without a complete request line.
  int read_timeout_ms = 30000;
  /// Write a snapshot to `snapshot_path` every this many seconds (0 = only
  /// via the SNAPSHOT command and on graceful shutdown).
  unsigned snapshot_interval_s = 0;
  /// Snapshot destination; empty disables automatic snapshots, the
  /// periodic one and the final one written on drain.
  std::string snapshot_path;
  /// Per-subscriber outbox cap: once a subscriber's unsent bytes reach
  /// this, no further events are queued for it (backpressure falls to the
  /// engine's event ring); a capped subscriber that also falls off the
  /// ring is dropped with `ERR lagged`.
  std::size_t max_subscriber_queue_bytes = 1 << 20;
  /// Per-connection response-backlog cap for plain request/response
  /// connections: once unsent response bytes reach this, the server stops
  /// parsing further requests from the connection (and stops reading its
  /// socket, so TCP flow control backpressures the peer) until the
  /// backlog drains below the cap.  A single oversized response (e.g. a
  /// large BATCH-LABEL answer) may overshoot transiently.
  std::size_t max_response_backlog_bytes = 4 << 20;
};

/// Counters reported by STATS (and readable in-process).
struct ServerStats {
  double uptime_seconds = 0.0;
  std::uint64_t connections_accepted = 0;
  std::uint64_t queries_served = 0;  ///< LABEL lookups (batch items count)
  std::uint64_t batch_queries = 0;   ///< binary BATCH-LABEL frames answered
  std::uint64_t entries_ingested = 0;  ///< announcements applied
  std::uint64_t dirty_alphas = 0;
  /// Cumulative decode outcome across every input path — MRT records of
  /// RIB dumps and update files, INGEST pairs, and what a restored image
  /// carried (docs/ROBUSTNESS.md).  STATS reports it twice, as
  /// decode_ok/decode_errors and as updates_ok/updates_errors.
  std::uint64_t decode_records_ok = 0;
  std::uint64_t decode_records_skipped = 0;
  double p50_query_us = 0.0;  ///< over a window of recent LABEL queries
  double p99_query_us = 0.0;
  /// RCU label epochs published so far (serve/labels.hpp version): one
  /// per publish that changed a label or advanced the stream sequence.
  std::uint64_t label_epochs = 0;
  /// epoll_wait returns summed over every shard — the idle-burn
  /// regression counter: an idle server must keep this near zero.
  std::uint64_t loop_wakeups = 0;
  std::uint64_t binary_connections = 0;  ///< connections that sent the magic
  // Window counters (docs/STREAMING.md).
  std::uint64_t updates_ok = 0;
  std::uint64_t updates_errors = 0;
  std::uint64_t window_epochs = 0;
  std::uint64_t reclassified_communities = 0;
  std::uint64_t subscribers_dropped = 0;  ///< laggards closed with ERR lagged
  // Durability counters (docs/STREAMING.md §6); zero without --journal.
  std::uint64_t journal_appends = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t recovered_events = 0;
  std::uint64_t torn_tail_truncated = 0;
};

class Server {
 public:
  /// Serves (and subscribes to) a borrowed StreamEngine that the caller
  /// may keep feeding; the engine must outlive the server.  With `image`,
  /// the engine must be empty and constructed under the image's config:
  /// the first label epoch is the image's label columns, and the engine
  /// is restored from the mapping when a request first needs it (at
  /// start() when the image is not settled).  Does not touch the network
  /// until start().
  explicit Server(stream::StreamEngine& engine, ServerConfig config = {},
                  std::shared_ptr<const MappedSnapshot> image = nullptr);

  /// Joins everything; equivalent to request_stop() + wait().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the shard listeners, publishes the initial label epoch, and
  /// spawns the shard threads.  Throws ServeError when the address or
  /// port cannot be bound.
  void start();

  /// The actually bound port (resolves port 0); valid after start().
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }

  /// Asks every shard to drain and exit.  Async-signal-safe: one atomic
  /// store plus eventfd writes.
  void request_stop() noexcept;

  /// Blocks until every shard exited and every connection is closed;
  /// writes the final snapshot when one is configured.
  void wait();

  [[nodiscard]] ServerStats stats() const;

 private:
  /// Wire protocol of one connection, decided by its first byte.
  enum class ConnMode : std::uint8_t { kUndecided, kLine, kBinary };

  /// One connection, owned by exactly one shard (no cross-shard access).
  struct Conn {
    int fd = -1;
    /// Generation tag carried in epoll_event.data (fd | gen<<32): a close
    /// during an epoll batch can recycle the fd number for a fresh accept
    /// within the same batch, and a still-queued stale event (EPOLLHUP for
    /// the old connection) must not be applied to the new one.  Never 0 —
    /// 0 is reserved for the listener/eventfd/timerfd registrations.
    std::uint32_t gen = 0;
    ConnMode mode = ConnMode::kUndecided;
    bool hello_done = false;  ///< binary: handshake frame validated
    /// SUBSCRIBE upgraded this connection to a push stream; `next_after`
    /// is the last event sequence it has seen.
    bool subscribed = false;
    std::uint64_t next_after = 0;
    /// Close once `out` drains (framed protocol errors, QUIT, timeouts).
    bool close_after_flush = false;
    bool want_epollout = false;  ///< EPOLLOUT currently registered
    std::string in;   ///< unparsed request bytes
    /// Response arena: encoded replies append here and `out_sent` marks
    /// the flushed prefix; the buffer is compacted, never reallocated per
    /// request, so warm responses allocate nothing.
    std::string out;
    std::size_t out_sent = 0;
    std::chrono::steady_clock::time_point last_activity;
  };

  /// One event-loop shard: thread + epoll + listener + connection table.
  struct Shard {
    std::size_t index = 0;
    int epoll_fd = -1;
    /// Own SO_REUSEPORT listener, or -1 when running in fd-handoff
    /// fallback mode (only shard 0 listens then).
    int listen_fd = -1;
    /// Wake channel: stop requests, stream publish notifications, and
    /// handed-off fds all signal this.
    int event_fd = -1;
    /// Periodic snapshot tick (shard 0, interval and path set); -1 — and
    /// the loop blocks forever — otherwise.
    int timer_fd = -1;
    std::thread thread;
    std::unordered_map<int, Conn> conns;
    /// Next Conn::gen to hand out; skips 0 (reserved for non-conn fds).
    std::uint32_t next_gen = 1;
    /// Fds accepted by shard 0 for this shard (fallback mode only).
    std::mutex handoff_mutex;
    std::vector<int> handoff;
    /// epoll_wait returns on this shard (idle-burn regression counter).
    std::atomic<std::uint64_t> wakeups{0};
    /// Recent LABEL latencies, ring-buffered per shard.
    std::vector<double> latency_us;
    std::size_t latency_next = 0;
    mutable std::mutex latency_mutex;
    /// Scratch for BATCH-LABEL answers, reused across requests.
    std::vector<dict::Intent> batch_scratch;
    /// This shard's cached label epoch (LabelView::read).
    LabelView::Reader labels;
  };

  void shard_loop(Shard& shard);
  void accept_ready(Shard& shard);
  void adopt_connection(Shard& shard, int fd);
  /// Drains readable bytes and serves every complete request buffered;
  /// returns false when the connection must close now.
  [[nodiscard]] bool conn_readable(Shard& shard, Conn& conn);
  [[nodiscard]] bool process_buffered(Shard& shard, Conn& conn);
  [[nodiscard]] bool process_line_input(Shard& shard, Conn& conn);
  [[nodiscard]] bool process_binary_input(Shard& shard, Conn& conn);
  /// One request line -> one response (possibly multi-line, e.g. the
  /// SUBSCRIBE snapshot); false closes the connection after the flush.
  [[nodiscard]] bool handle_command(Shard& shard, const std::string& line,
                                    Conn& conn);
  void dispatch_binary(Shard& shard, Conn& conn, std::uint8_t op,
                       std::span<const unsigned char> body);
  /// The RCU fast path: the current epoch through the shard's cached
  /// reader, refreshing it first when the engine published past it (or
  /// holds unsettled dirty state).  Lock-free whenever the snapshot is
  /// warm; valid until the shard's next query.
  [[nodiscard]] const LabelTable& query_snapshot(Shard& shard);
  [[nodiscard]] dict::Intent query_label(Shard& shard,
                                         bgp::Community community);
  /// Non-blocking flush of conn.out; updates EPOLLOUT registration.
  /// Returns false on a dead socket.
  [[nodiscard]] bool flush_conn(Shard& shard, Conn& conn);
  void close_conn(Shard& shard, int fd);
  /// Appends buffered events past conn.next_after to the outbox up to the
  /// queue cap (snapshot resync on a trimmed gap); sets `lagged` when the
  /// peer can no longer be caught up.
  void queue_events(Conn& conn, bool& lagged);
  /// Pushes pending events to this shard's subscribers (on publish-hook
  /// wakeups) and reaps the dead ones.
  void service_subscribers(Shard& shard);
  /// Marks a subscriber uncatchable: truncates its unsent backlog at the
  /// end of the line currently in flight (a partial send can leave the
  /// peer holding half an EVENT line), appends the final `ERR lagged` at
  /// that line boundary, and schedules the close once it drains.
  void drop_lagged(Conn& conn);
  /// Closes connections idle past read_timeout_ms; returns the epoll
  /// timeout (ms) until the next deadline, or -1 to block forever.
  [[nodiscard]] int sweep_idle(Shard& shard);
  void notify_all_shards() noexcept;

  // --- label epochs (RCU write side) ---
  /// Folds engine deltas (or, on a ring gap, a full snapshot diffed
  /// against the epoch) into a fresh epoch when the current one is stale.
  void refresh_epoch();

  /// Restores the engine from `image_` unless that already happened.
  /// Throws SnapshotError when the image does not decode.
  void ensure_restored();

  void record_query_latency(Shard& shard, double microseconds);
  void write_snapshot_file(const std::string& path);

  stream::StreamEngine* engine_;
  ServerConfig config_;
  std::shared_ptr<const MappedSnapshot> image_;
  /// True until the engine is restored from `image_`.
  std::atomic<bool> restore_pending_{false};
  std::mutex restore_mutex_;

  /// RCU label publication point shared by every shard (serve/labels.hpp).
  LabelView labels_;
  /// Writer-side ordering for refresh_epoch.
  std::mutex refresh_mutex_;

  static constexpr std::size_t kLatencyWindow = 4096;

  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> queries_served_{0};
  std::atomic<std::uint64_t> batch_queries_{0};
  std::atomic<std::uint64_t> binary_connections_{0};
  std::atomic<std::uint64_t> subscribers_dropped_{0};

  std::chrono::steady_clock::time_point started_at_;
  std::uint16_t bound_port_ = 0;
  bool reuseport_ = true;  ///< false: fd-handoff fallback
  std::size_t handoff_next_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace bgpintent::serve
