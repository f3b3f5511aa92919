#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "serve/binary.hpp"
#include "serve/snapshot.hpp"
#include "util/file.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace bgpintent::serve {

namespace {

/// One epoll_wait batch; shards loop until EAGAIN anyway (edge-triggered),
/// so the size only bounds per-wakeup work, not correctness.
constexpr int kEpollBatch = 64;
/// Events pulled from the engine ring per queue_events iteration.
constexpr std::size_t kEventBatch = 1024;
/// Flushed-prefix size that triggers outbox compaction.
constexpr std::size_t kCompactThreshold = 64 * 1024;

/// epoll_event.data payload: fd in the low half, the connection
/// generation in the high half (0 for listener/eventfd/timerfd).  The
/// generation guards against an fd number closed and recycled within a
/// single epoll_wait batch — see Server::Conn::gen.
[[nodiscard]] std::uint64_t epoll_tag(int fd, std::uint32_t gen = 0) {
  return (static_cast<std::uint64_t>(gen) << 32) |
         static_cast<std::uint32_t>(fd);
}

void wake_eventfd(int fd) noexcept {
  if (fd < 0) return;
  const std::uint64_t one = 1;
  // eventfd writes only block at counter overflow, which 1-per-wake never
  // reaches; EAGAIN on a nonblocking fd means a wake is already pending.
  [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof one);
}

[[nodiscard]] std::string label_name(core::Intent label) {
  return std::string(dict::to_string(label));
}

/// "DATA ...\nEND snapshot seq=N" (newline-separated, no trailing newline):
/// the full-snapshot block of the SUBSCRIBE protocol (docs/STREAMING.md).
[[nodiscard]] std::string snapshot_block(stream::StreamEngine& engine,
                                         std::uint64_t& seq) {
  std::string block;
  for (const auto& [community, label] : engine.label_snapshot(seq)) {
    block += util::format("DATA community=%s label=%s\n",
                          community.to_string().c_str(),
                          label_name(label).c_str());
  }
  block += util::format("END snapshot seq=%llu",
                        static_cast<unsigned long long>(seq));
  return block;
}

[[nodiscard]] std::string format_event(const stream::Event& event) {
  return util::format(
      "EVENT seq=%llu community=%s old=%s new=%s epoch=%llu",
      static_cast<unsigned long long>(event.seq),
      event.change.community.to_string().c_str(),
      label_name(event.change.previous).c_str(),
      label_name(event.change.current).c_str(),
      static_cast<unsigned long long>(event.change.epoch));
}

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

[[nodiscard]] int make_listener(const std::string& address,
                                std::uint16_t port, bool reuseport,
                                std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0)
    throw ServeError(
        util::format("cannot create socket: %s", std::strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
    ::close(fd);
    return -1;  // caller falls back to fd handoff
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw ServeError(util::format("'%s' is not a valid IPv4 listen address",
                                  address.c_str()));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 256) != 0) {
    const int error = errno;
    ::close(fd);
    if (reuseport && port != 0) return -1;  // secondary listener: fall back
    throw ServeError(util::format("cannot listen on %s:%u: %s",
                                  address.c_str(), port,
                                  std::strerror(error)));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  bound_port = ntohs(bound.sin_port);
  return fd;
}

}  // namespace

Server::Server(core::IncrementalClassifier classifier, ServerConfig config)
    : classifier_(std::move(classifier)), config_(std::move(config)) {}

Server::Server(stream::StreamEngine& engine, ServerConfig config)
    : engine_(&engine), config_(std::move(config)) {}

Server::~Server() {
  request_stop();
  wait();
}

void Server::start() {
  unsigned n = config_.shards;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  n = std::min(n, 64u);

  shards_.clear();
  shards_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shards_.push_back(std::move(shard));
  }

  // Shard 0 binds first (resolving port 0), the rest join it on the same
  // port via SO_REUSEPORT so the kernel spreads accepts with no shared
  // lock.  Any failure to stand up a secondary listener demotes the whole
  // server to fd-handoff mode: shard 0 accepts and round-robins fds.
  reuseport_ = true;
  shards_[0]->listen_fd = make_listener(config_.listen_address, config_.port,
                                        /*reuseport=*/n > 1, bound_port_);
  if (shards_[0]->listen_fd < 0) {
    reuseport_ = false;
    shards_[0]->listen_fd = make_listener(config_.listen_address, config_.port,
                                          /*reuseport=*/false, bound_port_);
  }
  if (reuseport_ && n > 1) {
    for (unsigned i = 1; i < n; ++i) {
      std::uint16_t ignored = 0;
      shards_[i]->listen_fd = make_listener(
          config_.listen_address, bound_port_, /*reuseport=*/true, ignored);
      if (shards_[i]->listen_fd < 0) {
        reuseport_ = false;
        for (unsigned j = 1; j <= i; ++j) close_quietly(shards_[j]->listen_fd);
        break;
      }
    }
  }

  for (auto& shard : shards_) {
    shard->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    shard->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (shard->epoll_fd < 0 || shard->event_fd < 0)
      throw ServeError(util::format("cannot create event loop: %s",
                                    std::strerror(errno)));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = epoll_tag(shard->event_fd);
    ::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->event_fd, &ev);
    if (shard->listen_fd >= 0) {
      ev.events = EPOLLIN;
      ev.data.u64 = epoll_tag(shard->listen_fd);
      ::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->listen_fd, &ev);
    }
  }

  // Periodic snapshots tick on a timerfd owned by shard 0 — armed only
  // when actually configured, so an idle server blocks in epoll_wait
  // forever instead of polling on a slice.
  if (engine_ == nullptr && config_.snapshot_interval_s > 0 &&
      !config_.snapshot_path.empty()) {
    Shard& shard = *shards_[0];
    shard.timer_fd = ::timerfd_create(CLOCK_MONOTONIC,
                                      TFD_NONBLOCK | TFD_CLOEXEC);
    if (shard.timer_fd >= 0) {
      itimerspec spec{};
      spec.it_interval.tv_sec = config_.snapshot_interval_s;
      spec.it_value.tv_sec = config_.snapshot_interval_s;
      ::timerfd_settime(shard.timer_fd, 0, &spec, nullptr);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = epoll_tag(shard.timer_fd);
      ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_ADD, shard.timer_fd, &ev);
    }
  }

  // The initial label epoch.  Built from the classifier's *cached* labels
  // without reclassifying — preloaded-but-dirty state must round-trip
  // through SNAPSHOT byte-identically — so the first query settles any
  // leftover dirty alphas lazily (classic_stale_).
  if (engine_ == nullptr) {
    const std::lock_guard<std::mutex> lock(classifier_mutex_);
    auto table = std::make_shared<LabelTable>();
    table->version = 1;
    if (const auto view = classifier_.view()) {
      // Borrowed columnar state (--snapshot-mmap): the snapshot's serve
      // columns ARE the epoch — no decode, no hashing, pages fault in as
      // queries touch them.  The view handle keeps the mapping alive even
      // if a later INGEST detaches the classifier.
      table->wires = view->columns().serve_wires;
      table->intents = view->columns().serve_intents;
      table->backing = view;
    } else {
      for (const auto& [community, intent] : classifier_.label_snapshot())
        table->labels.assign(community.wire(), intent);
    }
    labels_.publish(std::move(table));
    classic_stale_.store(classifier_.dirty_alpha_count() > 0,
                         std::memory_order_release);
  } else {
    auto table = std::make_shared<LabelTable>();
    table->version = 1;
    std::uint64_t as_of = 0;
    for (const auto& [community, intent] : engine_->label_snapshot(as_of))
      table->labels.assign(community.wire(), intent);
    table->as_of_seq = as_of;
    labels_.publish(std::move(table));
  }

  started_at_ = std::chrono::steady_clock::now();
  stop_.store(false, std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);
  if (engine_ != nullptr)
    engine_->set_publish_hook([this] { notify_all_shards(); });
  for (auto& shard : shards_)
    shard->thread = std::thread([this, s = shard.get()] { shard_loop(*s); });
}

void Server::request_stop() noexcept {
  stop_.store(true, std::memory_order_relaxed);
  notify_all_shards();
}

void Server::notify_all_shards() noexcept {
  for (const auto& shard : shards_) wake_eventfd(shard->event_fd);
}

void Server::wait() {
  for (auto& shard : shards_)
    if (shard->thread.joinable()) shard->thread.join();
  if (engine_ != nullptr && running_.load(std::memory_order_acquire))
    engine_->set_publish_hook(nullptr);
  for (auto& shard : shards_) {
    close_quietly(shard->listen_fd);
    close_quietly(shard->timer_fd);
    close_quietly(shard->event_fd);
    close_quietly(shard->epoll_fd);
  }
  if (running_.exchange(false, std::memory_order_acq_rel) &&
      engine_ == nullptr && !config_.snapshot_path.empty()) {
    try {
      write_snapshot_file(config_.snapshot_path);
    } catch (const std::exception& error) {
      util::log_warn(util::format("final snapshot failed: %s", error.what()));
    }
  }
}

void Server::shard_loop(Shard& shard) {
  epoll_event events[kEpollBatch];
  while (!stop_.load(std::memory_order_relaxed)) {
    const int timeout_ms = sweep_idle(shard);
    const int ready =
        ::epoll_wait(shard.epoll_fd, events, kEpollBatch, timeout_ms);
    shard.wakeups.fetch_add(1, std::memory_order_relaxed);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const int fd = static_cast<int>(static_cast<std::uint32_t>(tag));
      if (fd == shard.listen_fd) {
        accept_ready(shard);
        continue;
      }
      if (fd == shard.event_fd) {
        std::uint64_t drained = 0;
        while (::read(shard.event_fd, &drained, sizeof drained) > 0) {
        }
        if (!reuseport_) {
          std::vector<int> adopted;
          {
            const std::lock_guard<std::mutex> lock(shard.handoff_mutex);
            adopted.swap(shard.handoff);
          }
          for (const int handed : adopted) adopt_connection(shard, handed);
        }
        if (engine_ != nullptr) service_subscribers(shard);
        continue;
      }
      if (fd == shard.timer_fd) {
        std::uint64_t expirations = 0;
        while (::read(shard.timer_fd, &expirations, sizeof expirations) > 0) {
        }
        try {
          write_snapshot_file(config_.snapshot_path);
        } catch (const std::exception& error) {
          util::log_warn(
              util::format("periodic snapshot failed: %s", error.what()));
        }
        continue;
      }
      const auto it = shard.conns.find(fd);
      if (it == shard.conns.end() ||
          it->second.gen != static_cast<std::uint32_t>(tag >> 32))
        continue;  // stale event for a recycled fd number
      Conn& conn = it->second;
      bool ok = (events[i].events & (EPOLLHUP | EPOLLERR)) == 0;
      if (ok && (events[i].events & EPOLLIN) != 0)
        ok = conn_readable(shard, conn);
      if (ok && (events[i].events & EPOLLOUT) != 0) {
        ok = flush_conn(shard, conn);
        // A subscriber that just regained socket room refills its outbox
        // from the engine ring — this is how a slow reader drains the
        // full event history chunk by chunk.
        if (ok && conn.subscribed) {
          bool lagged = false;
          queue_events(conn, lagged);
          if (lagged) drop_lagged(conn);
          ok = flush_conn(shard, conn);
        } else if (ok && !conn.close_after_flush &&
                   conn.out.size() - conn.out_sent <
                       config_.max_response_backlog_bytes) {
          // Backlog drained below the cap: resume the paused request
          // stream — buffered requests first, then whatever stayed
          // queued in the kernel while reads were suspended.
          ok = conn_readable(shard, conn);
        }
      }
      if (ok && conn.close_after_flush && conn.out_sent >= conn.out.size())
        ok = false;
      if (!ok) close_conn(shard, fd);
    }
  }
  // Drain: flush whatever is already queued (best effort, non-blocking)
  // and close.  Unreached subscriber events stay recoverable via
  // SUBSCRIBE from=<last seen seq>.
  for (auto& [fd, conn] : shard.conns) {
    (void)flush_conn(shard, conn);
    ::close(fd);
  }
  shard.conns.clear();
  // Fallback mode: fds shard 0 dealt to this shard but that were never
  // adopted (the stop request can beat the eventfd drain) must not leak.
  {
    const std::lock_guard<std::mutex> lock(shard.handoff_mutex);
    for (const int fd : shard.handoff) ::close(fd);
    shard.handoff.clear();
  }
}

void Server::accept_ready(Shard& shard) {
  for (;;) {
    const int fd = ::accept4(shard.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN: accepted everything pending
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (reuseport_ || shards_.size() == 1) {
      adopt_connection(shard, fd);
      continue;
    }
    // Fallback mode: shard 0 owns the only listener and deals fds out
    // round-robin (including to itself).
    const std::size_t target = handoff_next_++ % shards_.size();
    if (target == shard.index) {
      adopt_connection(shard, fd);
    } else {
      Shard& other = *shards_[target];
      {
        const std::lock_guard<std::mutex> lock(other.handoff_mutex);
        other.handoff.push_back(fd);
      }
      wake_eventfd(other.event_fd);
    }
  }
}

void Server::adopt_connection(Shard& shard, int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const std::uint32_t gen = shard.next_gen++;
  if (shard.next_gen == 0) shard.next_gen = 1;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
  ev.data.u64 = epoll_tag(fd, gen);
  if (::epoll_ctl(shard.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  Conn conn;
  conn.fd = fd;
  conn.gen = gen;
  conn.last_activity = std::chrono::steady_clock::now();
  shard.conns.emplace(fd, std::move(conn));
}

bool Server::conn_readable(Shard& shard, Conn& conn) {
  bool peer_closed = false;
  for (;;) {
    // Drain the socket — unless the peer's unread responses sit at the
    // backlog cap: then stop pulling requests off the wire, let the
    // kernel receive buffer fill, and TCP flow control pushes back on
    // the sender.
    bool paused = false;
    while (!peer_closed) {
      if (!conn.subscribed &&
          conn.out.size() - conn.out_sent >=
              config_.max_response_backlog_bytes) {
        paused = true;
        break;
      }
      char chunk[16384];
      const ssize_t got = ::recv(conn.fd, chunk, sizeof chunk, 0);
      if (got > 0) {
        conn.in.append(chunk, static_cast<std::size_t>(got));
        conn.last_activity = std::chrono::steady_clock::now();
        continue;
      }
      if (got == 0) {
        peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    const std::size_t in_before = conn.in.size();
    if (!process_buffered(shard, conn)) return false;
    if (!flush_conn(shard, conn)) return false;
    if (peer_closed || conn.close_after_flush) break;
    // A fully successful flush can reopen the response window while
    // requests are still buffered (or still queued in the kernel during
    // a pause): keep draining and processing as long as progress is
    // made.  When the backlog stays at the cap the pause holds, and
    // EPOLLOUT progress resumes this loop instead (shard_loop).
    if (conn.out.size() - conn.out_sent >=
        config_.max_response_backlog_bytes)
      break;
    if (conn.in.size() >= in_before && !paused) break;  // no progress
  }
  // EOF: answer what was pipelined before the close, then drop.
  return !peer_closed;
}

bool Server::process_buffered(Shard& shard, Conn& conn) {
  if (conn.mode == ConnMode::kUndecided) {
    if (conn.in.empty()) return true;
    if (static_cast<unsigned char>(conn.in.front()) == binary::kMagic[0]) {
      conn.mode = ConnMode::kBinary;
      binary_connections_.fetch_add(1, std::memory_order_relaxed);
    } else {
      conn.mode = ConnMode::kLine;
    }
  }
  if (conn.subscribed) {
    // Push-only after SUBSCRIBE: inbound bytes are drained, not parsed.
    conn.in.clear();
    return true;
  }
  return conn.mode == ConnMode::kLine ? process_line_input(shard, conn)
                                      : process_binary_input(shard, conn);
}

bool Server::process_line_input(Shard& shard, Conn& conn) {
  std::size_t start = 0;
  while (!conn.close_after_flush) {
    if (conn.out.size() - conn.out_sent >=
        config_.max_response_backlog_bytes)
      break;  // paused: queued responses must drain before more are made
    const std::size_t newline = conn.in.find('\n', start);
    if (newline == std::string::npos) break;
    std::string line = conn.in.substr(start, newline - start);
    start = newline + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!handle_command(shard, line, conn)) conn.close_after_flush = true;
    if (conn.subscribed) {
      // The rest of the buffer belongs to a push stream now: discard.
      start = conn.in.size();
      break;
    }
  }
  conn.in.erase(0, start);
  // The overlong-line guard applies only to a single unfinished line; a
  // backlog-paused connection may legitimately hold many complete lines.
  const bool paused =
      conn.out.size() - conn.out_sent >= config_.max_response_backlog_bytes;
  if (!conn.subscribed && !conn.close_after_flush && !paused &&
      conn.in.size() > kMaxLineBytes) {
    conn.out.append("ERR line too long\n");
    conn.close_after_flush = true;
    conn.in.clear();
  }
  return true;
}

bool Server::process_binary_input(Shard& shard, Conn& conn) {
  namespace bin = binary;
  std::size_t off = 0;
  if (!conn.hello_done) {
    const std::size_t have = std::min(conn.in.size(), sizeof bin::kMagic);
    if (std::memcmp(conn.in.data(), bin::kMagic, have) != 0) {
      bin::encode_err(conn.out, bin::ErrCode::kBadMagic, "bad magic");
      conn.close_after_flush = true;
      conn.in.clear();
      return true;
    }
    if (conn.in.size() < bin::kHelloBytes) return true;
    const std::uint16_t version = bin::get_u16(
        reinterpret_cast<const unsigned char*>(conn.in.data()) + 4);
    if (version != bin::kVersion) {
      bin::encode_err(
          conn.out, bin::ErrCode::kVersionSkew,
          util::format("server speaks version %u",
                       static_cast<unsigned>(bin::kVersion)));
      conn.close_after_flush = true;
      conn.in.clear();
      return true;
    }
    bin::encode_hello_ok(conn.out);
    conn.hello_done = true;
    off = bin::kHelloBytes;
  }
  while (!conn.close_after_flush) {
    if (conn.out.size() - conn.out_sent >=
        config_.max_response_backlog_bytes)
      break;  // paused: queued responses must drain before more are made
    const std::span<const unsigned char> rest(
        reinterpret_cast<const unsigned char*>(conn.in.data()) + off,
        conn.in.size() - off);
    bin::Frame frame;
    const bin::ParseResult result = bin::parse_frame(rest, frame);
    if (result == bin::ParseResult::kNeedMore) break;
    if (result == bin::ParseResult::kOversized) {
      bin::encode_err(conn.out, bin::ErrCode::kOversized,
                      "frame exceeds the payload limit");
      conn.close_after_flush = true;
      off = conn.in.size();
      break;
    }
    if (result == bin::ParseResult::kMalformed) {
      bin::encode_err(conn.out, bin::ErrCode::kMalformed, "empty frame");
      conn.close_after_flush = true;
      off = conn.in.size();
      break;
    }
    dispatch_binary(shard, conn, frame.tag, frame.body);
    off += frame.consumed;
  }
  conn.in.erase(0, off);
  return true;
}

void Server::dispatch_binary(Shard& shard, Conn& conn, std::uint8_t op,
                             std::span<const unsigned char> body) {
  namespace bin = binary;
  switch (static_cast<bin::Op>(op)) {
    case bin::Op::kLabel: {
      if (body.size() != 4) break;
      const auto begin = std::chrono::steady_clock::now();
      const core::Intent label =
          query_label(shard,
                      bgp::Community::from_wire(bin::get_u32(body.data())));
      const std::chrono::duration<double, std::micro> elapsed =
          std::chrono::steady_clock::now() - begin;
      queries_served_.fetch_add(1, std::memory_order_relaxed);
      record_query_latency(shard, elapsed.count());
      bin::encode_label_ok(conn.out, label);
      return;
    }
    case bin::Op::kBatchLabel: {
      if (body.size() < 4) break;
      const std::uint32_t count = bin::get_u32(body.data());
      if (body.size() != 4 + 4 * static_cast<std::size_t>(count)) break;
      const auto begin = std::chrono::steady_clock::now();
      const LabelTable& snapshot = query_snapshot(shard);
      shard.batch_scratch.clear();
      shard.batch_scratch.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const bgp::Community community =
            bgp::Community::from_wire(bin::get_u32(body.data() + 4 + 4 * i));
        shard.batch_scratch.push_back(lookup(snapshot, community));
      }
      const std::chrono::duration<double, std::micro> elapsed =
          std::chrono::steady_clock::now() - begin;
      queries_served_.fetch_add(count, std::memory_order_relaxed);
      batch_queries_.fetch_add(1, std::memory_order_relaxed);
      record_query_latency(shard, elapsed.count());
      bin::encode_batch_label_ok(conn.out, shard.batch_scratch);
      return;
    }
    case bin::Op::kStats: {
      if (!body.empty()) break;
      const ServerStats s = stats();
      bin::StatsPayload payload;
      payload.connections = s.connections_accepted;
      payload.queries = s.queries_served;
      payload.batch_queries = s.batch_queries;
      payload.entries = s.entries_ingested;
      payload.label_epochs = s.label_epochs;
      payload.p50_us = s.p50_query_us;
      payload.p99_us = s.p99_query_us;
      bin::encode_stats_ok(conn.out, payload);
      return;
    }
    case bin::Op::kHello:
      bin::encode_err(conn.out, bin::ErrCode::kBadOpcode,
                      "HELLO is response-only");
      conn.close_after_flush = true;
      return;
    default:
      bin::encode_err(conn.out, bin::ErrCode::kBadOpcode, "unknown opcode");
      conn.close_after_flush = true;
      return;
  }
  // A frame whose body does not match its opcode desynchronizes the
  // stream permanently: answer once, then close.
  bin::encode_err(conn.out, bin::ErrCode::kMalformed, "malformed request");
  conn.close_after_flush = true;
}

const LabelTable& Server::query_snapshot(Shard& shard) {
  if (engine_ != nullptr) {
    // Unsettled window state could change any answer: settle it (one
    // engine-mutex pass that publishes the resulting events), then fold
    // the events into a fresh epoch.  Warm path — no dirty state, no new
    // events — touches no lock at all.
    if (engine_->has_pending_dirty()) engine_->reclassify();
    if (labels_.read(shard.labels).as_of_seq < engine_->published_seq())
      refresh_stream_epoch();
    return labels_.read(shard.labels);
  }
  // Classic mode: the epoch only goes stale when the server started with
  // preloaded-but-dirty state (INGEST publishes eagerly).  Settle once.
  if (classic_stale_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(classifier_mutex_);
    publish_classic_epoch_locked();
  }
  return labels_.read(shard.labels);
}

dict::Intent Server::query_label(Shard& shard, bgp::Community community) {
  return lookup(query_snapshot(shard), community);
}

void Server::publish_classic_epoch_locked() {
  std::vector<std::pair<core::Community, core::Intent>> settled;
  classifier_.settle_dirty(settled);
  classic_stale_.store(false, std::memory_order_release);
  // Classic epochs carry no stream sequence: a settle that flips no label
  // publishes nothing.
  labels_.publish_changes(settled, 0);
}

void Server::refresh_stream_epoch() {
  const std::lock_guard<std::mutex> lock(refresh_mutex_);
  const auto current = labels_.load();
  if (current->as_of_seq >= engine_->published_seq()) return;  // raced ahead
  std::vector<LabelView::Change> changes;
  std::uint64_t after = current->as_of_seq;
  for (;;) {
    bool gap = false;
    const std::vector<stream::Event> events =
        engine_->events_since(after, kEventBatch, gap);
    if (gap) {
      // The ring trimmed past this epoch (possible after a long all-warm
      // stretch): diff a full snapshot against the epoch instead of a
      // broken delta.  A label the snapshot no longer names falls back to
      // unclassified; the snapshot's own pairs come later and win.
      changes.clear();
      current->labels.for_each([&](std::uint32_t wire, core::Intent) {
        changes.emplace_back(core::Community::from_wire(wire),
                             core::Intent::kUnclassified);
      });
      std::uint64_t as_of = 0;
      const auto snapshot = engine_->label_snapshot(as_of);
      changes.insert(changes.end(), snapshot.begin(), snapshot.end());
      after = as_of;
      continue;
    }
    if (events.empty()) break;
    for (const stream::Event& event : events)
      changes.emplace_back(event.change.community, event.change.current);
    after = events.back().seq;
  }
  // Publishes even when the events cancel out, as long as `after`
  // advanced: a stale as_of_seq would send every LABEL back here.
  labels_.publish_changes(changes, after);
}

bool Server::flush_conn(Shard& shard, Conn& conn) {
  while (conn.out_sent < conn.out.size()) {
    const ssize_t wrote =
        ::send(conn.fd, conn.out.data() + conn.out_sent,
               conn.out.size() - conn.out_sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (wrote < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    if (wrote == 0) break;
    conn.out_sent += static_cast<std::size_t>(wrote);
  }
  if (conn.out_sent == conn.out.size()) {
    // clear() keeps the capacity: this is the response arena's reuse.
    conn.out.clear();
    conn.out_sent = 0;
  } else if (conn.out_sent >= kCompactThreshold) {
    conn.out.erase(0, conn.out_sent);
    conn.out_sent = 0;
  }
  const bool want = conn.out_sent < conn.out.size();
  if (want != conn.want_epollout) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP | (want ? EPOLLOUT : 0u);
    ev.data.u64 = epoll_tag(conn.fd, conn.gen);
    ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.want_epollout = want;
  }
  return true;
}

void Server::close_conn(Shard& shard, int fd) {
  ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  shard.conns.erase(fd);
}

void Server::queue_events(Conn& conn, bool& lagged) {
  const std::size_t cap = config_.max_subscriber_queue_bytes;
  for (;;) {
    if (conn.out.size() - conn.out_sent >= cap) {
      // Outbox full: stop queuing and let the engine's event ring hold the
      // backlog.  Only when the ring has also trimmed past this peer is it
      // truly lagged — a delta can no longer be served and a snapshot
      // would have nowhere to go.
      bool gap = false;
      (void)engine_->events_since(conn.next_after, 0, gap);
      lagged = gap;
      return;
    }
    bool gap = false;
    const std::vector<stream::Event> events =
        engine_->events_since(conn.next_after, kEventBatch, gap);
    if (gap) {
      // The peer fell more than kMaxBufferedEvents behind: resync it with
      // a fresh full snapshot instead of a silently incomplete delta.
      std::uint64_t seq = 0;
      conn.out += snapshot_block(*engine_, seq) + "\n";
      conn.next_after = seq;
      continue;
    }
    if (events.empty()) return;
    for (const stream::Event& event : events)
      conn.out += format_event(event) + "\n";
    conn.next_after = events.back().seq;
    if (events.size() < kEventBatch) return;
  }
}

void Server::drop_lagged(Conn& conn) {
  // The outbox is full and the engine's event ring has already cycled
  // past this peer — it cannot be caught up.  A partial send can leave
  // conn.out_sent mid-line, so the notice must not be injected at the
  // flush point: complete the line currently in flight, drop the rest of
  // the unsent backlog, and finish with the ERR at that line boundary so
  // the peer never sees a torn EVENT line spliced with the error.
  const std::size_t boundary = conn.out.find('\n', conn.out_sent);
  conn.out.resize(boundary == std::string::npos ? conn.out_sent
                                                : boundary + 1);
  conn.out += "ERR lagged\n";
  conn.subscribed = false;  // no more events; the idle sweep may reap it
  conn.close_after_flush = true;
  subscribers_dropped_.fetch_add(1, std::memory_order_relaxed);
}

void Server::service_subscribers(Shard& shard) {
  std::vector<int> dead;
  for (auto& [fd, conn] : shard.conns) {
    if (!conn.subscribed) continue;
    bool lagged = false;
    bool ok = flush_conn(shard, conn);  // make room before queuing more
    if (ok) queue_events(conn, lagged);
    if (ok && lagged) drop_lagged(conn);
    if (ok) ok = flush_conn(shard, conn);
    if (ok && conn.close_after_flush && conn.out_sent >= conn.out.size())
      ok = false;
    if (!ok) dead.push_back(fd);
  }
  for (const int fd : dead) close_conn(shard, fd);
}

int Server::sweep_idle(Shard& shard) {
  if (config_.read_timeout_ms <= 0) return -1;
  const auto now = std::chrono::steady_clock::now();
  const auto timeout = std::chrono::milliseconds(config_.read_timeout_ms);
  std::vector<int> expired;
  auto next_deadline = std::chrono::steady_clock::time_point::max();
  for (const auto& [fd, conn] : shard.conns) {
    if (conn.subscribed) continue;  // parked push streams never time out
    const auto deadline = conn.last_activity + timeout;
    if (deadline <= now) {
      if (conn.mode != ConnMode::kBinary)
        (void)::send(fd, "ERR read timeout\n", 17,
                     MSG_NOSIGNAL | MSG_DONTWAIT);
      expired.push_back(fd);
    } else {
      next_deadline = std::min(next_deadline, deadline);
    }
  }
  for (const int fd : expired) close_conn(shard, fd);
  if (next_deadline == std::chrono::steady_clock::time_point::max())
    return -1;  // nothing to time out: block until a fd wakes us
  const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
      next_deadline - now);
  return static_cast<int>(std::max<std::int64_t>(wait.count(), 1));
}

bool Server::handle_command(Shard& shard, const std::string& line,
                            Conn& conn) {
  std::string response;
  const bool keep_open = [&] {
    const auto fields = util::split_whitespace(line);
    if (fields.empty()) return true;  // stray blank line: nothing to answer
    const std::string_view command = fields.front();

    if (command == "LABEL") {
      if (fields.size() != 2) {
        response = "ERR usage: LABEL <alpha:beta>";
        return true;
      }
      const auto community = bgp::Community::parse(fields[1]);
      if (!community) {
        response = util::format("ERR '%.*s' is not alpha:beta",
                                static_cast<int>(fields[1].size()),
                                fields[1].data());
        return true;
      }
      const auto begin = std::chrono::steady_clock::now();
      const core::Intent label = query_label(shard, *community);
      const std::chrono::duration<double, std::micro> elapsed =
          std::chrono::steady_clock::now() - begin;
      queries_served_.fetch_add(1, std::memory_order_relaxed);
      record_query_latency(shard, elapsed.count());
      response = util::format("OK community=%s label=%s",
                              community->to_string().c_str(),
                              std::string(dict::to_string(label)).c_str());
      return true;
    }

    if (command == "INGEST") {
      if (fields.size() < 3 || fields.size() % 2 != 1) {
        response =
            "ERR usage: INGEST <as-path> <communities> "
            "[<as-path> <communities> ...]";
        return true;
      }
      const std::size_t pairs = (fields.size() - 1) / 2;
      std::uint64_t errors = 0;
      std::size_t ingested = 0;
      std::size_t entries = 0;
      // Single pass, one scratch row: each valid pair is parsed into the
      // scratch and ingested immediately — the streaming-sink idiom of the
      // MRT path (docs/PERFORMANCE.md), with no batch vector in between.
      // The classifier mutex guards classic mode only; the stream engine
      // synchronizes internally.
      bgp::RibEntry scratch;
      {
        std::unique_lock<std::mutex> lock(classifier_mutex_, std::defer_lock);
        if (engine_ == nullptr) lock.lock();
        for (std::size_t i = 0; i < pairs; ++i) {
          const std::string_view path_field = fields[1 + 2 * i];
          const std::string_view communities_field = fields[2 + 2 * i];
          auto path = parse_path(path_field);
          if (!path) {
            // A single-pair request keeps the historical hard ERR; in a
            // batch a malformed pair is skipped and counted, like a torn
            // MRT record.  Nothing has been ingested yet in the
            // single-pair case, so the early return mutates no state.
            if (pairs == 1) {
              response =
                  util::format("ERR '%.*s' is not a comma-separated AS path",
                               static_cast<int>(path_field.size()),
                               path_field.data());
              return true;
            }
            ++errors;
            continue;
          }
          auto communities = parse_communities(communities_field);
          if (!communities) {
            if (pairs == 1) {
              response = util::format(
                  "ERR '%.*s' is not a comma-separated community list",
                  static_cast<int>(communities_field.size()),
                  communities_field.data());
              return true;
            }
            ++errors;
            continue;
          }
          scratch.route.path = std::move(*path);
          scratch.route.communities = std::move(*communities);
          if (engine_ != nullptr) {
            engine_->announce(scratch);
          } else {
            classifier_.ingest(scratch);
          }
          ++ingested;
        }
        if (engine_ != nullptr) {
          // Publish label changes now so subscribers see protocol-driven
          // evidence without waiting for the next decode batch boundary.
          engine_->reclassify();
          entries = static_cast<std::size_t>(engine_->stats().announces);
        } else {
          classifier_.record_decode_outcome(ingested, errors);
          entries = classifier_.entries_ingested();
          // Settle the new evidence before the response commits: a LABEL
          // that observes this OK observes the labels it implies — from
          // a new epoch when a label flipped, from the current one (which
          // already answers them) when none did.
          publish_classic_epoch_locked();
        }
      }
      response = util::format("OK ingested=%zu errors=%llu entries=%zu",
                              ingested,
                              static_cast<unsigned long long>(errors),
                              entries);
      return true;
    }

    if (command == "TOTALS") {
      std::size_t communities = 0;
      std::size_t information = 0;
      std::size_t action = 0;
      std::size_t unclassified = 0;
      if (engine_ != nullptr) {
        const stream::WindowClassifier::Totals totals = engine_->totals();
        communities = totals.communities;
        information = totals.information;
        action = totals.action;
        unclassified = totals.unclassified;
      } else {
        const std::lock_guard<std::mutex> lock(classifier_mutex_);
        // Settle through the epoch publisher, not classifier_.totals()
        // alone: totals() consumes the dirty set privately, which would
        // strand the published RCU epoch on pre-settle labels forever
        // (classic_stale_ clears with nothing ever published).
        publish_classic_epoch_locked();
        const core::IncrementalClassifier::Totals totals =
            classifier_.totals();
        communities = totals.communities;
        information = totals.information;
        action = totals.action;
        unclassified = totals.unclassified;
      }
      response = util::format(
          "OK communities=%zu information=%zu action=%zu unclassified=%zu",
          communities, information, action, unclassified);
      return true;
    }

    if (command == "STATS") {
      const ServerStats s = stats();
      response = util::format(
          "OK uptime_s=%.1f connections=%llu queries=%llu entries=%llu "
          "dirty=%llu decode_ok=%llu decode_errors=%llu p50_us=%.1f "
          "p99_us=%.1f updates_ok=%llu updates_errors=%llu "
          "window_epochs=%llu reclassified_communities=%llu "
          "subscribers_dropped=%llu journal_appends=%llu journal_bytes=%llu "
          "recovered_events=%llu torn_tail_truncated=%llu label_epochs=%llu "
          "loop_wakeups=%llu batch_queries=%llu binary_connections=%llu",
          s.uptime_seconds,
          static_cast<unsigned long long>(s.connections_accepted),
          static_cast<unsigned long long>(s.queries_served),
          static_cast<unsigned long long>(s.entries_ingested),
          static_cast<unsigned long long>(s.dirty_alphas),
          static_cast<unsigned long long>(s.decode_records_ok),
          static_cast<unsigned long long>(s.decode_records_skipped),
          s.p50_query_us, s.p99_query_us,
          static_cast<unsigned long long>(s.updates_ok),
          static_cast<unsigned long long>(s.updates_errors),
          static_cast<unsigned long long>(s.window_epochs),
          static_cast<unsigned long long>(s.reclassified_communities),
          static_cast<unsigned long long>(s.subscribers_dropped),
          static_cast<unsigned long long>(s.journal_appends),
          static_cast<unsigned long long>(s.journal_bytes),
          static_cast<unsigned long long>(s.recovered_events),
          static_cast<unsigned long long>(s.torn_tail_truncated),
          static_cast<unsigned long long>(s.label_epochs),
          static_cast<unsigned long long>(s.loop_wakeups),
          static_cast<unsigned long long>(s.batch_queries),
          static_cast<unsigned long long>(s.binary_connections));
      return true;
    }

    if (command == "SUBSCRIBE") {
      if (engine_ == nullptr) {
        response =
            "ERR SUBSCRIBE requires a stream-mode server (bgpintent stream "
            "--listen)";
        return true;
      }
      bool want_snapshot = false;
      std::uint64_t from = 0;
      bool have_from = false;
      for (std::size_t i = 1; i < fields.size(); ++i) {
        const std::string_view field = fields[i];
        if (field == "snapshot") {
          want_snapshot = true;
          continue;
        }
        if (field.starts_with("from=")) {
          const auto parsed = util::parse_u64(field.substr(5));
          if (parsed) {
            from = *parsed;
            have_from = true;
            continue;
          }
        }
        response = "ERR usage: SUBSCRIBE [snapshot] [from=<seq>]";
        return true;
      }
      // A resumption point that is no longer buffered (or never existed)
      // cannot be served as a delta: fall back to a full snapshot.
      bool resync = false;
      if (have_from) {
        bool gap = false;
        (void)engine_->events_since(from, 0, gap);
        resync = gap || from > engine_->last_seq();
      }
      std::uint64_t seq = 0;
      std::string push;
      if (want_snapshot || resync) {
        push = snapshot_block(*engine_, seq) + "\n";
      } else {
        seq = have_from ? from : engine_->last_seq();
      }
      conn.subscribed = true;
      conn.next_after = seq;
      conn.out += util::format("OK subscribed seq=%llu\n",
                               static_cast<unsigned long long>(seq));
      conn.out += push;
      // Queue whatever delta already exists so a from= resumption is
      // delivered without waiting for the next publish wakeup.
      bool lagged = false;
      queue_events(conn, lagged);
      if (lagged) drop_lagged(conn);  // sets close_after_flush itself
      return true;
    }

    if (command == "SNAPSHOT") {
      if (engine_ != nullptr) {
        response =
            "ERR SNAPSHOT is not supported in stream mode (window state is "
            "transient; see docs/STREAMING.md)";
        return true;
      }
      if (fields.size() != 2) {
        response = "ERR usage: SNAPSHOT <file>";
        return true;
      }
      const std::string path(fields[1]);
      try {
        write_snapshot_file(path);
      } catch (const std::exception& error) {
        response = util::format("ERR snapshot failed: %s", error.what());
        return true;
      }
      response = util::format("OK saved=%s", path.c_str());
      return true;
    }

    if (command == "QUIT") {
      response = "OK bye";
      return false;
    }

    response = util::format("ERR unknown command '%.*s'",
                            static_cast<int>(command.size()), command.data());
    return true;
  }();
  if (!response.empty()) {
    conn.out += response;
    conn.out += '\n';
  }
  return keep_open;
}

void Server::record_query_latency(Shard& shard, double microseconds) {
  const std::lock_guard<std::mutex> lock(shard.latency_mutex);
  if (shard.latency_us.size() < kLatencyWindow) {
    shard.latency_us.push_back(microseconds);
  } else {
    shard.latency_us[shard.latency_next] = microseconds;
  }
  shard.latency_next = (shard.latency_next + 1) % kLatencyWindow;
}

void Server::write_snapshot_file(const std::string& path) {
  if (engine_ != nullptr)
    throw ServeError("snapshots are not supported in stream mode");
  std::vector<std::uint8_t> bytes;
  {
    const std::lock_guard<std::mutex> lock(classifier_mutex_);
    bytes = encode_snapshot(classifier_);
  }
  util::write_file_durably<SnapshotError>(path, bytes);
}

ServerStats Server::stats() const {
  ServerStats s;
  if (running_.load(std::memory_order_acquire)) {
    const std::chrono::duration<double> uptime =
        std::chrono::steady_clock::now() - started_at_;
    s.uptime_seconds = uptime.count();
  }
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.queries_served = queries_served_.load(std::memory_order_relaxed);
  s.batch_queries = batch_queries_.load(std::memory_order_relaxed);
  s.binary_connections = binary_connections_.load(std::memory_order_relaxed);
  s.subscribers_dropped = subscribers_dropped_.load(std::memory_order_relaxed);
  s.label_epochs = labels_.load()->version;
  for (const auto& shard : shards_)
    s.loop_wakeups += shard->wakeups.load(std::memory_order_relaxed);
  if (engine_ != nullptr) {
    const stream::EngineStats es = engine_->stats();
    s.entries_ingested = es.announces;
    s.dirty_alphas = es.dirty_alphas;
    s.decode_records_ok = es.updates_ok;
    s.decode_records_skipped = es.updates_errors;
    s.updates_ok = es.updates_ok;
    s.updates_errors = es.updates_errors;
    s.window_epochs = es.window_epochs;
    s.reclassified_communities = es.reclassified_communities;
    s.journal_appends = es.journal_appends;
    s.journal_bytes = es.journal_bytes;
    s.recovered_events = es.recovered_events;
    s.torn_tail_truncated = es.torn_tail_truncated;
  } else {
    const std::lock_guard<std::mutex> lock(classifier_mutex_);
    s.entries_ingested = classifier_.entries_ingested();
    s.dirty_alphas = classifier_.dirty_alpha_count();
    s.decode_records_ok = classifier_.decode_records_ok();
    s.decode_records_skipped = classifier_.decode_records_skipped();
  }
  std::vector<double> window;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->latency_mutex);
    window.insert(window.end(), shard->latency_us.begin(),
                  shard->latency_us.end());
  }
  if (!window.empty()) {
    s.p50_query_us = util::percentile(window, 50.0);
    s.p99_query_us = util::percentile(std::move(window), 99.0);
  }
  return s;
}

}  // namespace bgpintent::serve
