// Streaming interned MRT ingest: decode -> intern -> packed tuples in one
// pass, with no materialized RibEntry vector in between.
//
// Materializing every decoded row (a RibEntry vector, then
// bgp::intern_entries) holds every prefix, full AsPath and community vector
// live at once before collapsing them into the interned representation.
// MrtIngest streams instead: each decoded row flows through an
// mrt::UpdateSink that interns its path into one bgp::PathTable and appends
// 8-byte (PathId, community) records, so peak memory is proportional to
// the number of *unique* paths plus one tuple record per (row, community),
// never to the total row count (docs/PERFORMANCE.md).
//
// add_parallel is the library's one chunked-parallel MRT decoder.
//
// Multiple sources accumulate into one table (the CLI feeds every input
// file through one MrtIngest); DecodeReports merge across add() calls.
//
// add_parallel keeps the output bit-identical to sequential add at any
// pool size: chunk workers intern into chunk-local PathTables, and the
// caller's thread merges chunks in submission order by re-interning each
// local path into the global table — global PathIds come out in
// first-appearance order, exactly as the sequential pass assigns them.
// In-flight memory stays bounded at ~2x the pool size in chunks.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "bgp/path_table.hpp"
#include "mrt/decode.hpp"
#include "mrt/source.hpp"

namespace bgpintent::util {
class ThreadPool;
}

namespace bgpintent::core {

class MrtIngest {
 public:
  explicit MrtIngest(mrt::DecodeOptions options = {}) noexcept
      : options_(options) {}

  /// Decodes one source straight into the accumulator (zero-copy record
  /// bodies when the source is mmap-backed).  Strict/tolerant behavior and
  /// error budgets follow the constructor's DecodeOptions; on throw, the
  /// partial decode outcome is still merged into report().
  void add(const mrt::ByteSource& source);

  /// istream variant: strict mode streams record-by-record (bounded memory
  /// on pipes); tolerant mode buffers the stream for resync.
  void add(std::istream& in);

  /// Parallel variant of add(source): chunked decode+intern on `pool`,
  /// merged on the calling thread in submission order.  paths(), tuples(),
  /// entries(), and report() end up identical to sequential add() at any
  /// pool size.
  void add_parallel(const mrt::ByteSource& source, util::ThreadPool& pool);

  /// Parallel variant of add(istream): strict mode frames records off the
  /// stream with owned bodies (memory bounded by the in-flight chunk cap);
  /// tolerant mode buffers the stream first.
  void add_parallel(std::istream& in, util::ThreadPool& pool);

  [[nodiscard]] const bgp::PathTable& paths() const noexcept { return paths_; }
  [[nodiscard]] std::span<const bgp::InternedTuple> tuples() const noexcept {
    return tuples_;
  }
  /// Decode outcomes merged across every add() call.
  [[nodiscard]] const mrt::DecodeReport& report() const noexcept {
    return report_;
  }
  /// Total decoded rows (including rows without communities, which
  /// contribute no tuples) — what the materializing path's entries.size()
  /// would have been.
  [[nodiscard]] std::size_t entries() const noexcept { return entries_; }

  /// Bytes held by the interned representation: the path table's arenas
  /// plus the tuple vector's capacity.  The streaming-vs-materializing
  /// bench reports this against the RibEntry-vector figure.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return paths_.memory_bytes() +
           tuples_.capacity() * sizeof(bgp::InternedTuple);
  }

 private:
  mrt::DecodeOptions options_;
  bgp::PathTable paths_;
  std::vector<bgp::InternedTuple> tuples_;
  mrt::DecodeReport report_;
  std::size_t entries_ = 0;
};

}  // namespace bgpintent::core
