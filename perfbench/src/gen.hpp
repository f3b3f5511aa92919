// Seeded input generator.  It builds rows from bgp value types over a
// small synthetic AS hierarchy and writes MRT only through mrt::MrtWriter;
// no simulator, stream synthesiser or topology generator of the library is
// involved, so later changes to those cannot move the benchmark.  The same
// seed gives byte-identical files.  DESIGN.md states the traffic model.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Writes the inputs of `workload` into `dir`, plus inputs.txt (one
/// "name bytes fnv64" line per file) and traffic.txt (the measured
/// traffic properties); prints both to stdout.  Returns 0 on success.
int generate(const std::string& workload, std::uint64_t seed,
             const std::string& dir);

// File layout shared by the generator and the workloads.
inline constexpr int kBatchFiles = 84;        ///< 6 collectors x a week of 12-hourly RIBs
inline constexpr int kServeRibFiles = 4;      ///< collectors priming serve
inline constexpr int kStreamFiles = 2200;     ///< 15-minute update dumps
inline constexpr std::uint32_t kStreamFileSeconds = 900;

[[nodiscard]] std::string batch_rib_name(int index);
[[nodiscard]] std::string serve_rib_name(int index);
[[nodiscard]] std::string stream_file_name(int index);

}  // namespace perfbench
