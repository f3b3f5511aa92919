// Shared helpers of the perfbench binary: clocks, order statistics,
// /proc readers, the seeded RNG, input digests, and the result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bgpintent::bgp {}
namespace bgpintent::core {}
namespace bgpintent::dict {}
namespace bgpintent::mrt {}
namespace bgpintent::serve {}
namespace bgpintent::stream {}
namespace bgpintent::topo {}

namespace perfbench {

namespace bgp = bgpintent::bgp;
namespace core = bgpintent::core;
namespace dict = bgpintent::dict;
namespace mrt = bgpintent::mrt;
namespace serve = bgpintent::serve;
namespace stream = bgpintent::stream;
namespace topo = bgpintent::topo;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Splits `samples` (in the order taken) into consecutive blocks of at
/// least `block` samples and returns the median of the blocks'
/// q-quantiles, so a burst of interference from other tenants of the
/// machine moves one block, not the reported figure.  A p99 needs blocks
/// of at least 1010 samples to keep ten samples beyond it.
[[nodiscard]] double block_quantile(const std::vector<double>& samples,
                                    std::size_t block, double q);

/// Allocations made by the calling thread so far (alloc_count.cpp counts
/// every global operator new of this binary).
[[nodiscard]] std::uint64_t thread_allocs() noexcept;

/// CPU seconds the calling thread has used.
[[nodiscard]] double thread_cpu_seconds();

/// utime + stime of process `pid` in seconds, from /proc/<pid>/stat.
[[nodiscard]] double process_cpu_seconds(int pid);

/// VmHWM (peak resident set) of process `pid` in MiB; 0 when unreadable.
/// `pid` 0 reads this process.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// Resets this process's VmHWM to its current RSS (/proc/self/clear_refs
/// "5"), so a peak read later covers only what ran in between.  False
/// when the kernel refused.
bool reset_peak_rss();

/// splitmix64: the generator's only randomness, so inputs depend on the
/// seed and on nothing the library under test may change.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
  /// Uniform in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + below(hi - lo + 1);
  }
  bool chance(double p) noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  std::uint64_t state_;
};

/// Stateless mix of several words, for per-key decisions that must not
/// depend on generation order.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0,
                                       std::uint64_t c = 0) noexcept {
  Rng r(a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL) * 31 ^
        (c + 0x8cb92ba72f3d8dd7ULL) * 131);
  r.next();
  return r.next();
}

/// FNV-1a 64 of a file's bytes ("" when unreadable).
[[nodiscard]] std::string file_digest(const std::string& path);

/// What one run reports: the operation counts and named metrics, printed
/// as the run's single JSON result line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records one self-check of an output; when it fails, the `ops`
  /// operations that produced the output count as failed.
  void check(bool ok, const std::string& what, std::uint64_t ops = 1);
  [[nodiscard]] std::string json() const;
};

struct Options {
  std::string workload;
  std::string dir;  ///< generated inputs and scratch space
  std::string cli;  ///< path of the bgpintent binary (serve_mixed)
  double seconds = 10.0;
  bool trace = false;
};

int run_batch(const Options& options, Result& result);
int run_stream(const Options& options, Result& result);
int run_serve(const Options& options, Result& result);

}  // namespace perfbench
