// End-to-end inference pipeline: BGP data in (RIB entries or MRT streams),
// coarse-grained intent labels out.  This is the library's main
// entry point — the programmatic equivalent of running the paper's released
// tool over one week of RouteViews/RIS data.
//
// With threads != 1 the three hot stages run on one work-stealing pool:
// chunked MRT decode, alpha-sharded observation indexing, and per-alpha
// clustering + classification.  Output is identical for every thread
// count; threads == 1 takes the sequential reference implementation
// end-to-end (docs/THREADING.md).
#pragma once

#include <iosfwd>

#include "core/classifier.hpp"
#include "core/evaluation.hpp"
#include "core/observations.hpp"
#include "mrt/decode.hpp"

namespace bgpintent::mrt {
class ByteSource;
}

namespace bgpintent::core {

class MrtIngest;

struct PipelineConfig {
  ObservationConfig observation;
  ClassifierConfig classifier;
  /// Worker threads for ingest, indexing, and classification.
  /// 1 = the sequential reference path (default); 0 = hardware
  /// concurrency; N = exactly N workers.  Results do not depend on this.
  unsigned threads = 1;
  /// MRT decode behavior for run_mrt (strict by default; tolerant mode
  /// skips malformed records within an error budget — docs/ROBUSTNESS.md).
  mrt::DecodeOptions decode;
};

/// Inference output bundled with the index it was computed from (the index
/// is needed for evaluation and for the figure-level statistics).
struct PipelineResult {
  ObservationIndex observations;
  InferenceResult inference;
  /// Decode outcome of run_mrt (default-constructed for the non-MRT
  /// entry points): records decoded/skipped, resync histogram, captured
  /// errors.  Reports from multiple files can be merge()d by the caller.
  mrt::DecodeReport decode_report;
  /// RIB rows that flowed into the run: decoded rows for the MRT entry
  /// points (including rows without communities), entries.size() for the
  /// RibEntry one.
  std::size_t entries_ingested = 0;

  [[nodiscard]] Evaluation score(const dict::DictionaryStore& truth) const {
    return evaluate(observations, inference, truth);
  }
};

class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config = {}) : config_(config) {}

  /// Optional context: organizations for sibling-aware matching and
  /// relationships for the customer:peer feature.  Pointers must outlive
  /// run() calls; pass nullptr to disable.
  void set_org_map(const topo::OrgMap* orgs) noexcept { orgs_ = orgs; }
  void set_relationships(const rel::RelationshipDataset* rels) noexcept {
    relationships_ = rels;
  }

  [[nodiscard]] const PipelineConfig& config() const noexcept {
    return config_;
  }

  /// Runs over RIB entries.
  [[nodiscard]] PipelineResult run(
      std::span<const bgp::RibEntry> entries) const;

  /// Runs over an MRT stream (TABLE_DUMP_V2 snapshots and/or BGP4MP
  /// updates).  Strict decode (the default) throws mrt::MrtError on
  /// malformed input; tolerant decode skips damaged records and throws
  /// mrt::DecodeBudgetError only past the error budget.  The decode
  /// outcome lands in PipelineResult::decode_report.
  ///
  /// Both overloads stream decoded rows straight into the interned core
  /// (core::MrtIngest): no RibEntry vector is ever materialized, so peak
  /// memory follows unique paths + packed tuples, not total rows
  /// (docs/PERFORMANCE.md).  The ByteSource overload additionally decodes
  /// zero-copy out of an mmap'd file when the source is one.
  [[nodiscard]] PipelineResult run_mrt(std::istream& in) const;
  [[nodiscard]] PipelineResult run_mrt(const mrt::ByteSource& source) const;

  /// Runs the back half over an already-accumulated streaming ingest —
  /// for callers that fed several sources into one MrtIngest.  The
  /// ingest's merged decode report and row count carry into the result.
  [[nodiscard]] PipelineResult run(const MrtIngest& ingest) const;

 private:
  /// Shared back half: interned tuples -> index -> labels.  `pool` null
  /// selects the sequential reference implementation.
  [[nodiscard]] PipelineResult run_interned(
      const bgp::PathTable& paths, std::span<const bgp::InternedTuple> tuples,
      util::ThreadPool* pool) const;

  PipelineConfig config_;
  const topo::OrgMap* orgs_ = nullptr;
  const rel::RelationshipDataset* relationships_ = nullptr;
};

}  // namespace bgpintent::core
