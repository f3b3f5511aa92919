// perfbench: the benchmark's own binary (see DESIGN.md).
//
//   perfbench generate --workload W --seed N --dir D
//       writes W's seeded inputs into D/W and prints their digests.
//   perfbench run --workload W --dir D --seconds S --trace 0|1 [--cli PATH]
//       runs W over the inputs in D/W and prints the JSON result line last.
//       A traced run measures every layer, each on its own workload's
//       inputs, so it needs every workload's inputs in D.
//
// run.py builds this binary and chains the two steps in separate
// processes, so the generator's memory never shows in peak_rss_mb.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <string>

#include "gen.hpp"
#include "util.hpp"

namespace {

using Runner = int (*)(const perfbench::Options&, perfbench::Result&);

struct Workload {
  const char* name;
  Runner run;
};

constexpr Workload kWorkloads[] = {
    {"batch_infer", perfbench::run_batch},
    {"stream_journal", perfbench::run_stream},
    {"serve_mixed", perfbench::run_serve},
};

/// Options for one workload's pass: its inputs sit in a directory of
/// their own.
perfbench::Options pass_options(const perfbench::Options& options,
                                const char* workload) {
  perfbench::Options pass = options;
  pass.workload = workload;
  pass.dir = options.dir + "/" + workload;
  return pass;
}

/// The traced run: every workload's traced pass, one after another, each
/// given an equal share of the time, so every traced run reports every
/// per-layer metric, each measured on the workload whose layer it is.
/// The named workload's pass supplies the tracing overhead
/// (trace.work_per_s, trace.overhead_pct).
int run_traced(const perfbench::Options& options, perfbench::Result& result) {
  for (const Workload& workload : kWorkloads) {
    perfbench::Options pass = pass_options(options, workload.name);
    pass.seconds = options.seconds / static_cast<double>(std::size(kWorkloads));
    perfbench::Result part;
    const int rc = workload.run(pass, part);
    if (rc != 0) return rc;
    result.attempted += part.attempted;
    result.failed += part.failed;
    result.correct = result.correct && part.correct;
    const bool named = options.workload == workload.name;
    for (const auto& [key, metric] : part.metrics)
      if (named || key.rfind("trace.", 0) != 0) result.metrics[key] = metric;
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench generate --workload W --seed N --dir D\n"
               "       perfbench run --workload W --dir D --seconds S "
               "--trace 0|1 [--cli PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  perfbench::Options options;
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--dir") {
      options.dir = value;
    } else if (key == "--cli") {
      options.cli = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (options.workload.empty() || options.dir.empty()) return usage();

  try {
    if (mode == "generate") {
      if (!have_seed) return usage();
      return perfbench::generate(options.workload, seed,
                                 options.dir + "/" + options.workload);
    }
    if (mode != "run" || options.seconds <= 0) return usage();
    const Workload* named = nullptr;
    for (const Workload& workload : kWorkloads)
      if (options.workload == workload.name) named = &workload;
    if (named == nullptr) {
      std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
      return 2;
    }
    perfbench::Result result;
    const int rc = options.trace
                       ? run_traced(options, result)
                       : named->run(pass_options(options, named->name), result);
    if (rc != 0) return rc;
    std::printf("%s\n", result.json().c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
