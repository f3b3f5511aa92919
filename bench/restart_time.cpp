// Restart-to-first-query latency and cross-process page sharing for the
// state image (docs/SERVING.md §3, docs/PERFORMANCE.md §9).
//
// Two restart paths over the same saved file:
//   heap  — load_snapshot() + StreamEngine::restore_state(): decode the
//           image and rebuild the engine (the default `serve --snapshot`
//           restore).
//   mmap  — MappedSnapshot::open(): no decode, the image's label columns
//           ARE the first label epoch; the first query binary-searches them
//           (`serve --snapshot-mmap`, which restores the engine only when
//           a request needs it).
// Each is timed end to end through the first LABEL answer; both verify
// every checksum.  The speedup claim self-gates on identity: the
// heap-restored engine must export exactly the never-serialized engine's
// state, and both paths must answer every label and TOTALS as it does.
//
// The sharing experiment forks two children per path which restore the
// same snapshot simultaneously and label every community; each child
// reports the Pss growth of its address space (/proc/self/smaps_rollup).
// Two heap children each build a private heap; two mmap children split the
// snapshot's file-backed pages between them, so their combined growth
// must come in well under the heap pair's.
//
// BGPINTENT_WORLD_SCALE=smoke shrinks the world for CI;
// BGPINTENT_BENCH_SCALE swaps in a topo preset rung;
// BGPINTENT_BENCH_REPEATS repeats the timed phases (best-of);
// BGPINTENT_BENCH_JSON overrides the BENCH_restart.json report path.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "serve/labels.hpp"
#include "serve/snapshot.hpp"

using namespace bgpintent;
namespace fs = std::filesystem;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Proportional-set-size of this process in kB; Pss (unlike RSS) divides
/// shared pages among their mappers, which is exactly the sharing this
/// bench wants to observe.  Returns 0 when the kernel lacks smaps_rollup.
double pss_kb() {
  std::ifstream in("/proc/self/smaps_rollup");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Pss:", 0) != 0) continue;
    return std::atof(line.c_str() + 4);
  }
  return 0.0;
}

struct ChildReport {
  double pss_growth_kb = 0.0;
  std::uint64_t label_checksum = 0;
};

enum class RestorePath { kHeap, kMmap };

/// The heap restart: decode the image and rebuild the engine.
std::unique_ptr<stream::StreamEngine> heap_restore(const std::string& snap,
                                                   const topo::OrgMap* orgs) {
  stream::StateImage image = serve::load_snapshot(snap);
  auto engine = std::make_unique<stream::StreamEngine>(image.config, orgs);
  engine->restore_state(image.state, std::move(image.paths));
  return engine;
}

/// The mmap restart's first label epoch: the image's label columns,
/// exactly as Server::start() publishes them.
serve::LabelTable mapped_epoch(
    const std::shared_ptr<const serve::MappedSnapshot>& mapped) {
  serve::LabelTable table;
  table.wires = mapped->label_wires();
  table.intents = mapped->label_intents();
  table.backing = mapped;
  return table;
}

/// Child body for the sharing experiment: restore, label every community,
/// report Pss growth, then hold the state alive until the parent releases
/// us — both children must be resident at once or the pages have no one
/// to share with.
[[noreturn]] void sharing_child(RestorePath path, const std::string& snap,
                                const topo::OrgMap* orgs,
                                const std::vector<bgp::Community>& communities,
                                int report_fd, int release_fd) {
  ChildReport report;
  const double before_kb = pss_kb();
  std::unique_ptr<stream::StreamEngine> engine;
  serve::LabelTable epoch;  // pins the mapping
  if (path == RestorePath::kHeap)
    engine = heap_restore(snap, orgs);
  else
    epoch = mapped_epoch(serve::MappedSnapshot::open(snap));
  for (const bgp::Community community : communities)
    report.label_checksum =
        report.label_checksum * 31 +
        static_cast<std::uint64_t>(engine ? engine->label_of(community)
                                          : serve::lookup(epoch, community));
  report.pss_growth_kb = pss_kb() - before_kb;

  if (::write(report_fd, &report, sizeof report) != sizeof report) _exit(3);
  char go = 0;
  (void)!::read(release_fd, &go, 1);  // parent releases after both report
  _exit(0);
}

/// Runs the two-process sharing experiment; returns the pair's combined
/// Pss growth in kB (and checks both children agreed on every label).
double sharing_pair_kb(RestorePath path, const std::string& snap,
                       const topo::OrgMap* orgs,
                       const std::vector<bgp::Community>& communities,
                       bool& identical) {
  int report_pipe[2], release_pipe[2];
  if (::pipe(report_pipe) != 0 || ::pipe(release_pipe) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  pid_t pids[2];
  for (pid_t& pid : pids) {
    pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      std::exit(1);
    }
    if (pid == 0) {
      ::close(report_pipe[0]);
      ::close(release_pipe[1]);
      sharing_child(path, snap, orgs, communities, report_pipe[1],
                    release_pipe[0]);
    }
  }
  ::close(report_pipe[1]);
  ::close(release_pipe[0]);

  ChildReport reports[2];
  double combined_kb = 0.0;
  for (ChildReport& report : reports) {
    if (::read(report_pipe[0], &report, sizeof report) !=
        static_cast<ssize_t>(sizeof report)) {
      std::fprintf(stderr, "FAIL: sharing child died before reporting\n");
      std::exit(1);
    }
    combined_kb += report.pss_growth_kb;
  }
  identical = identical && reports[0].label_checksum == reports[1].label_checksum;

  const char go[2] = {1, 1};
  (void)!::write(release_pipe[1], go, 2);
  for (const pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "FAIL: sharing child exited abnormally\n");
      std::exit(1);
    }
  }
  ::close(report_pipe[0]);
  ::close(release_pipe[1]);
  return combined_kb;
}

double best_of_ms(int repeats, const std::function<void()>& body) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const double ms = ms_since(start);
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main() {
  const char* mode_env = std::getenv("BGPINTENT_WORLD_SCALE");
  const bool smoke =
      mode_env != nullptr && std::strcmp(mode_env, "smoke") == 0;
  int repeats = 5;
  if (const char* env = std::getenv("BGPINTENT_BENCH_REPEATS")) {
    repeats = std::atoi(env);
    if (repeats < 1) repeats = 1;
  }

  routing::ScenarioConfig cfg = bench::default_scenario_config(20230517);
  if (smoke) {
    cfg.topology.tier1_count = 6;
    cfg.topology.tier2_count = 40;
    cfg.topology.stub_count = 150;
    cfg.vantage_point_count = 30;
  }
  const char* scale = bench::apply_bench_scale(cfg);
  bench::print_banner("restart_time — snapshot restart-to-first-query", cfg);
  if (smoke || scale != nullptr)
    std::printf("mode:%s%s%s\n", smoke ? " smoke" : "",
                scale != nullptr ? " scale preset " : "",
                scale != nullptr ? scale : "");

  const auto scenario = routing::Scenario::build(cfg);
  const auto entries = scenario.entries();
  const topo::OrgMap* orgs = &scenario.topology().orgs;
  // serve's engine: a non-expiring window.
  stream::WindowConfig window;
  window.window_epochs = UINT32_MAX;
  stream::StreamEngine original(window, orgs);
  for (const auto& entry : entries) original.announce(entry);
  std::vector<bgp::Community> communities;
  for (const auto& epoch : original.export_state().window.ring)
    for (const auto& [key, count] : epoch.tuples)
      communities.push_back(
          bgp::Community::from_wire(static_cast<std::uint32_t>(key)));
  std::sort(communities.begin(), communities.end());
  communities.erase(std::unique(communities.begin(), communities.end()),
                    communities.end());
  std::printf("workload: %zu entries, %zu communities\n\n", entries.size(),
              communities.size());

  const std::string scratch =
      (fs::temp_directory_path() /
       ("bgpintent_bench_restart_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const std::string path = scratch + "/state.snap";
  serve::save_snapshot(original, path);  // settles, as serve does
  const stream::EngineState expected = original.export_state();
  const auto snapshot_bytes = fs::file_size(path);
  const bgp::Community probe = communities.front();

  // --- Restart-to-first-query, two paths. ---
  volatile int sink = 0;
  const double heap_restart_ms = best_of_ms(repeats, [&] {
    const auto engine = heap_restore(path, orgs);
    sink = static_cast<int>(engine->label_of(probe));
  });
  const double mmap_restart_ms = best_of_ms(repeats, [&] {
    const serve::LabelTable epoch =
        mapped_epoch(serve::MappedSnapshot::open(path));
    sink = static_cast<int>(serve::lookup(epoch, probe));
  });
  (void)sink;

  // --- The identity gate: neither restore may change one answer. ---
  bool identical = true;
  {
    const auto from_heap = heap_restore(path, orgs);
    const auto mapped = serve::MappedSnapshot::open(path);
    const serve::LabelTable from_mmap = mapped_epoch(mapped);
    if (from_heap->export_state() != expected) identical = false;
    for (const bgp::Community community : communities) {
      const core::Intent label = original.label_of(community);
      if (from_heap->label_of(community) != label ||
          serve::lookup(from_mmap, community) != label)
        identical = false;
    }
    // TOTALS on a mapped daemon restores its engine from the mapping.
    stream::StateImage image = mapped->decode();
    stream::StreamEngine restored(image.config, orgs);
    restored.restore_state(image.state, std::move(image.paths));
    if (restored.export_state() != expected) identical = false;
    const auto o = original.totals();
    for (const auto& t : {from_heap->totals(), restored.totals()})
      if (t.communities != o.communities || t.information != o.information ||
          t.action != o.action || t.unclassified != o.unclassified)
        identical = false;
  }

  // --- Cross-process sharing: two restarts of each path at once. ---
  const double heap_pair_kb = sharing_pair_kb(RestorePath::kHeap, path, orgs,
                                              communities, identical);
  const double mmap_pair_kb = sharing_pair_kb(RestorePath::kMmap, path, orgs,
                                              communities, identical);

  const double speedup =
      mmap_restart_ms > 0.0 ? heap_restart_ms / mmap_restart_ms : 0.0;
  const double pss_ratio =
      heap_pair_kb > 0.0 ? mmap_pair_kb / heap_pair_kb : 0.0;
  const bool pss_measured = heap_pair_kb > 0.0 && mmap_pair_kb > 0.0;

  const auto json_line = [](const char* metric, double value) {
    std::printf(
        "{\"bench\": \"restart_time\", \"metric\": \"%s\", "
        "\"value\": %.3f}\n",
        metric, value);
  };
  json_line("snapshot_bytes", static_cast<double>(snapshot_bytes));
  json_line("heap_restart_ms", heap_restart_ms);
  json_line("mmap_restart_ms", mmap_restart_ms);
  json_line("restart_speedup", speedup);
  json_line("heap_pair_pss_kb", heap_pair_kb);
  json_line("mmap_pair_pss_kb", mmap_pair_kb);
  json_line("pair_pss_ratio", pss_ratio);
  json_line("identical", identical ? 1.0 : 0.0);

  const char* out_path = std::getenv("BGPINTENT_BENCH_JSON");
  if (out_path == nullptr) out_path = "BENCH_restart.json";
  if (std::FILE* out = std::fopen(out_path, "w")) {
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"restart_time\",\n"
        "  \"workload\": {\"entries\": %zu, \"communities\": %zu, "
        "\"snapshot_bytes\": %llu, \"mode\": \"%s\"},\n"
        "  \"results\": {\n"
        "    \"heap_restart_ms\": %.3f,\n"
        "    \"mmap_restart_ms\": %.3f,\n"
        "    \"restart_speedup\": %.2f,\n"
        "    \"heap_pair_pss_kb\": %.1f,\n"
        "    \"mmap_pair_pss_kb\": %.1f,\n"
        "    \"pair_pss_ratio\": %.3f,\n"
        "    \"identical\": %s\n"
        "  }\n"
        "}\n",
        entries.size(), communities.size(),
        static_cast<unsigned long long>(snapshot_bytes),
        smoke ? "smoke" : (scale != nullptr ? scale : "default"),
        heap_restart_ms, mmap_restart_ms, speedup, heap_pair_kb,
        mmap_pair_kb, pss_ratio, identical ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path);
    fs::remove_all(scratch);
    return 1;
  }
  fs::remove_all(scratch);

  if (!identical) {
    std::printf(
        "FAIL: restored answers diverged from the never-serialized state\n");
    return 1;
  }
  // Perf gates (skipped in smoke mode, where timer noise dominates): the
  // mapped restart answers its first query 10x faster than the heap
  // decode, and a process pair pays well under two private heaps.
  if (!smoke) {
    if (speedup < 10.0) {
      std::printf("FAIL: restart speedup %.1fx is under the 10x gate\n",
                  speedup);
      return 1;
    }
    if (pss_measured && pss_ratio > 0.75) {
      std::printf("FAIL: pair Pss ratio %.2f exceeds the 0.75 sharing gate\n",
                  pss_ratio);
      return 1;
    }
  }
  return 0;
}
