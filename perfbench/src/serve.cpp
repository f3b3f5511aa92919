// serve_mixed: `bgpintent serve <rib files> --port 0 --shards 1` as a child
// process, driven over the wire: a pipelined INGEST burst, then one
// generator thread running pipelined binary LABELs and line INGESTs in
// lockstep on one shard.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bgp/route.hpp"
#include "core/pipeline.hpp"
#include "gen.hpp"
#include "mrt/mrt_file.hpp"
#include "mrt/source.hpp"
#include "serve/binary.hpp"
#include "serve/protocol.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

namespace bin = serve::binary;

constexpr int kSetups = 9;                // daemon starts per run
constexpr std::size_t kBurstWrites = 2000;
constexpr std::size_t kBurstWindow = 16;  // outstanding INGESTs
constexpr std::size_t kStepLabels = 256;  // pipelined LABELs per step
constexpr std::size_t kWriteEvery = 4;    // one INGEST every k-th step
constexpr std::size_t kBlockSteps = 4096; // steps per reported block
// The daemon's peak is read after this many mix steps, not at the end: its
// table grows with every acknowledged INGEST, so a faster run would end
// with a larger table (its RSS stepped up 3 MiB near 21K INGESTs, which
// only the fastest runs reached).  Every run gets this far.
constexpr std::uint64_t kPeakSteps = 32768;
constexpr int kIoTimeoutMs = 30000;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + (errno != 0 ? std::string(": ") + std::strerror(errno) : ""));
}

/// The daemon child.  Destruction stops it and waits for it to end.
class Daemon {
 public:
  Daemon(const Options& options) {
    std::vector<std::string> args = {options.cli, "serve"};
    for (int i = 0; i < kServeRibFiles; ++i)
      args.push_back(options.dir + "/" + serve_rib_name(i));
    for (const char* a : {"--port", "0", "--shards", "1"}) args.emplace_back(a);
    const std::string log = options.dir + "/serve.log";
    int out[2];
    if (::pipe(out) != 0) fail("pipe");
    pid_ = ::fork();
    if (pid_ < 0) fail("fork");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (err >= 0) ::dup2(err, STDERR_FILENO);
      ::close(out[0]);
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    stdout_ = out[0];
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the "LISTENING <port>" line; returns the port.
  std::uint16_t wait_listening() {
    std::string text;
    for (;;) {
      pollfd p{stdout_, POLLIN, 0};
      if (::poll(&p, 1, 120000) <= 0) fail("daemon did not report LISTENING");
      char buf[256];
      const ssize_t n = ::read(stdout_, buf, sizeof buf);
      if (n <= 0) fail("daemon exited before LISTENING");
      text.append(buf, static_cast<std::size_t>(n));
      const std::size_t at = text.find("LISTENING ");
      const std::size_t eol = text.find('\n', at);
      if (at != std::string::npos && eol != std::string::npos)
        return static_cast<std::uint16_t>(std::stoul(text.substr(at + 10, eol - at - 10)));
    }
  }

  [[nodiscard]] int pid() const { return pid_; }

  /// SIGTERM (the daemon drains and exits), SIGKILL after 10 s.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 1000; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (stdout_ >= 0) ::close(stdout_);
    stdout_ = -1;
  }

 private:
  int pid_ = -1;
  int stdout_ = -1;
};

/// One blocking loopback connection with a receive buffer.
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) fail("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
      fail("connect");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  void send(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) fail("send");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads whatever is available (blocking until at least one byte).
  void fill() {
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, kIoTimeoutMs) <= 0) fail("read timed out");
    if (!try_fill()) fail("connection closed by the daemon");
  }

  /// Reads whatever is available without blocking; false once the daemon
  /// closed the connection.
  bool try_fill() {
    char chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n > 0) {
      in_.erase(0, head_);  // drop what was consumed, once per read
      head_ = 0;
      in_.append(chunk, static_cast<std::size_t>(n));
    }
    return n > 0 || (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
  }

  /// Pops one complete binary frame, if buffered.
  bool pop_frame(std::uint8_t& tag, std::string& body) {
    bin::Frame frame;
    const auto r = bin::parse_frame(
        {reinterpret_cast<const unsigned char*>(in_.data()) + head_, in_.size() - head_},
        frame);
    if (r == bin::ParseResult::kNeedMore) return false;
    if (r != bin::ParseResult::kFrame) fail("malformed response frame");
    tag = frame.tag;
    body.assign(reinterpret_cast<const char*>(frame.body.data()), frame.body.size());
    head_ += frame.consumed;
    return true;
  }

  /// Pops one complete response line, if buffered.
  bool pop_line(std::string& line) {
    const std::size_t eol = in_.find('\n', head_);
    if (eol == std::string::npos) return false;
    line.assign(in_, head_, eol - head_);
    head_ = eol + 1;
    return true;
  }

  std::string frame() {
    std::uint8_t tag = 0;
    std::string body;
    while (!pop_frame(tag, body)) fill();
    if (tag != static_cast<std::uint8_t>(bin::Status::kOk)) fail("ERR frame");
    return body;
  }

  std::string line() {
    std::string out;
    while (!pop_line(out)) fill();
    return out;
  }

  /// Binary handshake.
  void hello() {
    std::string out;
    bin::encode_hello(out);
    send(out);
    (void)frame();
  }

 private:
  int fd_ = -1;
  std::string in_;
  std::size_t head_ = 0;  // bytes of in_ already consumed
};

struct Inputs {
  std::vector<std::string> writes;  // "path communities"
  std::vector<bgp::Community> reads;
};

Inputs load_inputs(const Options& options) {
  Inputs in;
  std::ifstream writes(options.dir + "/writes.txt");
  for (std::string line; std::getline(writes, line);) in.writes.push_back(line);
  std::ifstream reads(options.dir + "/reads.txt");
  for (std::string line; std::getline(reads, line);) {
    const auto c = bgp::Community::parse(line);
    if (!c) throw std::runtime_error("bad community in reads.txt: " + line);
    in.reads.push_back(*c);
  }
  if (in.writes.empty() || in.reads.empty()) throw std::runtime_error("serve inputs missing");
  return in;
}

std::map<std::string, std::string> stats(Conn& conn) {
  conn.send("STATS\n");
  const auto fields = serve::parse_ok_response(conn.line());
  if (!fields) fail("STATS answered ERR");
  return *fields;
}

/// The binary STATS frame, which carries the server-side LABEL
/// percentiles at full precision (the line reply rounds them to 0.1 µs).
bin::StatsPayload binary_stats(Conn& conn) {
  std::string out;
  bin::encode_stats_request(out);
  conn.send(out);
  const std::string body = conn.frame();
  const auto fields = bin::parse_stats_body(
      {reinterpret_cast<const unsigned char*>(body.data()), body.size()});
  if (!fields) fail("malformed STATS frame");
  return *fields;
}

double stat(const std::map<std::string, std::string>& fields, const char* key) {
  const auto it = fields.find(key);
  return it == fields.end() ? 0.0 : std::stod(it->second);
}

class RowSink final : public mrt::EntrySink {
 public:
  void on_entry(bgp::RibEntry& entry) override { rows.push_back(entry); }
  std::vector<bgp::RibEntry> rows;
};

/// Final BATCH-LABEL sweep against the batch pipeline over the RIB rows
/// plus every acknowledged INGEST.
bool sweep_matches(const Options& options, Conn& reader, const Inputs& in,
                   const std::vector<std::size_t>& acked) {
  RowSink sink;
  for (int i = 0; i < kServeRibFiles; ++i)
    mrt::decode_rib_stream(*mrt::open_source(options.dir + "/" + serve_rib_name(i)), sink);
  std::set<std::uint32_t> communities;
  for (const bgp::RibEntry& row : sink.rows)
    for (const bgp::Community c : row.route.communities) communities.insert(c.wire());
  for (const std::size_t w : acked) {
    const std::string& line = in.writes[w];
    const std::size_t space = line.find(' ');
    bgp::RibEntry row;
    row.route.path = *serve::parse_path(line.substr(0, space));
    row.route.communities = *serve::parse_communities(line.substr(space + 1));
    for (const bgp::Community c : row.route.communities) communities.insert(c.wire());
    sink.rows.push_back(std::move(row));
  }
  for (const bgp::Community c : in.reads) communities.insert(c.wire());
  const core::PipelineResult oracle = core::Pipeline().run(sink.rows);

  std::vector<bgp::Community> all;
  for (const std::uint32_t w : communities) all.push_back(bgp::Community::from_wire(w));
  std::size_t mismatches = 0;
  for (std::size_t at = 0; at < all.size(); at += 16384) {
    const std::size_t n = std::min<std::size_t>(16384, all.size() - at);
    std::string out;
    bin::encode_batch_label_request(out, {all.data() + at, n});
    reader.send(out);
    const std::string body = reader.frame();
    const auto* p = reinterpret_cast<const unsigned char*>(body.data());
    if (body.size() != 4 + n || bin::get_u32(p) != n) return false;
    for (std::size_t i = 0; i < n; ++i) {
      const auto served = bin::intent_from_wire(p[4 + i]);
      if (!served || *served != oracle.inference.label_of(all[at + i])) ++mismatches;
    }
  }
  if (mismatches != 0)
    std::fprintf(stderr, "serve sweep: %zu of %zu labels differ\n", mismatches, all.size());
  return mismatches == 0;
}

/// Sends one INGEST line for write `w`.
void send_write(Conn& writer, const Inputs& in, std::size_t w) {
  writer.send("INGEST " + in.writes[w % in.writes.size()] + "\n");
}

bool write_ok(const std::string& line) { return line.rfind("OK ingested=1 ", 0) == 0; }

}  // namespace

int run_serve(const Options& options, Result& result) {
  const Inputs in = load_inputs(options);

  // Set-up: spawn -> LISTENING -> first LABEL answered, several times.
  std::vector<double> setup_s;
  std::vector<double> start_s;
  std::vector<double> first_answer_s;
  std::unique_ptr<Daemon> daemon;
  std::uint16_t port = 0;
  for (int k = 0; k < kSetups; ++k) {
    daemon.reset();
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(options);
    port = daemon->wait_listening();
    const auto t1 = Clock::now();
    Conn probe(port);
    probe.hello();
    std::string out;
    bin::encode_label_request(out, in.reads.front());
    probe.send(out);
    (void)probe.frame();
    const auto t2 = Clock::now();
    setup_s.push_back(seconds_between(t0, t2));
    start_s.push_back(seconds_between(t0, t1));
    first_answer_s.push_back(seconds_between(t1, t2));
    ++result.attempted;
  }

  Conn reader(port);
  reader.hello();
  Conn writer(port);
  std::vector<std::size_t> acked;
  std::size_t next_write = 0;

  // Phase 1: write burst, a fixed window of pipelined INGEST lines.
  const double burst_cpu0 = process_cpu_seconds(daemon->pid());
  const double burst_gen0 = thread_cpu_seconds();
  const auto b0 = Clock::now();
  {
    std::size_t sent = 0;
    std::size_t done = 0;
    while (done < kBurstWrites) {
      std::string batch;
      while (sent < kBurstWrites && sent - done < kBurstWindow)
        batch += "INGEST " + in.writes[next_write + sent++] + "\n";
      if (!batch.empty()) writer.send(batch);
      std::string line;
      while (!writer.pop_line(line)) writer.fill();
      do {
        ++result.attempted;
        if (write_ok(line)) {
          acked.push_back(next_write + done);
        } else {
          result.check(false, "INGEST answered: " + line);
        }
        ++done;
      } while (done < kBurstWrites && writer.pop_line(line));
    }
    next_write += kBurstWrites;
  }
  const double burst_s = seconds_between(b0, Clock::now());
  const double burst_daemon_cpu = process_cpu_seconds(daemon->pid()) - burst_cpu0;
  const double burst_gen_cpu = thread_cpu_seconds() - burst_gen0;

  // Phase 2: lockstep mix on one generator thread.
  const auto before = stats(writer);
  Tracer tracer(options.trace ? 1 << 20 : 0);
  std::vector<double> step_s;
  std::vector<double> read_step_s;    // steps without a write
  std::vector<double> traced_read_step_s;
  std::vector<double> write_s;
  std::uint64_t labels = 0;
  std::vector<double> block_rate;  // LABEL answers per second per block
  std::size_t cursor = 0;
  std::string out;
  std::string body;
  std::string line;
  const double mix_cpu0 = process_cpu_seconds(daemon->pid());
  const double mix_gen0 = thread_cpu_seconds();
  const auto m0 = Clock::now();
  auto block_start = m0;
  std::uint64_t step = 0;
  double peak_mb = 0.0;
  for (; seconds_between(m0, Clock::now()) < options.seconds; ++step) {
    if (step == kPeakSteps) peak_mb = peak_rss_mb(daemon->pid());
    if (step > 0 && step % kBlockSteps == 0) {
      const auto now = Clock::now();
      block_rate.push_back(static_cast<double>(kBlockSteps * kStepLabels) /
                           seconds_between(block_start, now));
      block_start = now;
    }
    // The traced run records a span on every other step, so traced and
    // untraced read-only steps give the tracing overhead.
    const bool traced = options.trace && step % 2 == 0;
    const int span = traced ? tracer.open("serve.step", step) : -1;
    const bool writes = step % kWriteEvery == 0;
    out.clear();
    for (std::size_t i = 0; i < kStepLabels; ++i)
      bin::encode_label_request(out, in.reads[cursor++ % in.reads.size()]);
    const auto s0 = Clock::now();
    reader.send(out);
    if (writes) send_write(writer, in, next_write);
    std::size_t frames = 0;
    bool write_done = !writes;
    std::uint8_t tag = 0;
    while (frames < kStepLabels || !write_done) {
      while (frames < kStepLabels && reader.pop_frame(tag, body)) {
        ++frames;
        if (tag != static_cast<std::uint8_t>(bin::Status::kOk) || body.size() != 1)
          result.check(false, "LABEL answered ERR");
      }
      if (!write_done && writer.pop_line(line)) {
        write_s.push_back(seconds_between(s0, Clock::now()));
        if (write_ok(line)) {
          acked.push_back(next_write % in.writes.size());
        } else {
          result.check(false, "INGEST answered: " + line);
        }
        ++next_write;
        ++result.attempted;
        write_done = true;
        continue;
      }
      if (frames == kStepLabels && write_done) break;
      // The generator spins rather than sleeping in poll(): a sleeping
      // generator adds its own wake-up, whose cost on a shared VM
      // swung the step p50 by a third between periods.
      if ((frames < kStepLabels && !reader.try_fill()) ||
          (!write_done && !writer.try_fill()))
        fail("connection closed by the daemon");
      if (seconds_between(s0, Clock::now()) * 1e3 > kIoTimeoutMs) fail("step timed out");
    }
    const double s = seconds_between(s0, Clock::now());
    if (traced) tracer.close(span);
    step_s.push_back(s);
    if (!writes) (traced ? traced_read_step_s : read_step_s).push_back(s);
    labels += kStepLabels;
    result.attempted += kStepLabels;
  }
  const double mix_s = seconds_between(m0, Clock::now());
  const double mix_daemon_cpu = process_cpu_seconds(daemon->pid()) - mix_cpu0;
  const double mix_gen_cpu = thread_cpu_seconds() - mix_gen0;
  const auto after = stats(writer);
  const bin::StatsPayload service = binary_stats(reader);

  result.check(sweep_matches(options, reader, in, acked),
               "served labels differ from the batch pipeline", labels);
  if (step <= kPeakSteps) peak_mb = peak_rss_mb(daemon->pid());
  daemon.reset();

  const double write_per_s = static_cast<double>(kBurstWrites) / burst_s;
  const double write_p50_ms = median(write_s) * 1e3;
  if (!options.trace) {
    result.set("setup_s", median(setup_s), "s");
    result.set("peak_rss_mb", peak_mb, "MiB");
    result.set("work_per_s", median(block_rate), "1/s");
    result.set("latency_p50_ms", block_quantile(step_s, kBlockSteps, 0.5) * 1e3, "ms");
    result.set("latency_p99_ms", block_quantile(step_s, kBlockSteps, 0.99) * 1e3, "ms");
    std::printf("serve_mixed: %llu steps, %zu writes in the mix; "
                "write burst %.0f obs/s, write p50 %.3f ms\n",
                static_cast<unsigned long long>(step), write_s.size(), write_per_s,
                write_p50_ms);
    return 0;
  }
  const double service_p50_us = service.p50_us;
  result.set("serve.start_s", median(start_s), "s");
  result.set("serve.first_answer_ms", median(first_answer_s) * 1e3, "ms");
  result.set("serve.write_per_s", write_per_s, "1/s");
  result.set("serve.write_p50_ms", write_p50_ms, "ms");
  result.set("serve.service_p50_us", service_p50_us, "us");
  result.set("serve.service_p99_us", service.p99_us, "us");
  result.set("serve.wire_p50_us",
             median(read_step_s) * 1e6 - static_cast<double>(kStepLabels) * service_p50_us,
             "us");
  result.set("serve.epochs_per_write",
             (stat(after, "label_epochs") - stat(before, "label_epochs")) /
                 static_cast<double>(write_s.size()),
             "count");
  result.set("serve.wakeups_per_step",
             (stat(after, "loop_wakeups") - stat(before, "loop_wakeups")) /
                 static_cast<double>(step),
             "count");
  result.set("serve.daemon_busy", mix_daemon_cpu / mix_s, "ratio");
  result.set("serve.generator_busy", mix_gen_cpu / mix_s, "ratio");
  result.set("serve.write_daemon_busy", burst_daemon_cpu / burst_s, "ratio");
  result.set("serve.write_generator_busy", burst_gen_cpu / burst_s, "ratio");
  result.set("trace.work_per_s", static_cast<double>(labels) / mix_s, "1/s");
  result.set("trace.overhead_pct",
             (median(traced_read_step_s) / median(read_step_s) - 1.0) * 100.0, "%");
  tracer.write(options.dir + "/spans.txt");
  return 0;
}

}  // namespace perfbench
