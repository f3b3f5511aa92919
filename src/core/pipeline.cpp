#include "core/pipeline.hpp"

#include "core/ingest.hpp"
#include "mrt/mrt_file.hpp"
#include "util/thread_pool.hpp"

namespace bgpintent::core {

// Every entry point funnels through the same shape: intern paths once
// (bgp::PathTable), expand routes into 8-byte (PathId, community) records,
// then hand the interned stream to the observation/classification stages.
// Interning is a single sequential pass — it is bound by the same memory
// stream as reading the input, and it is what makes the later stages cheap
// (docs/PERFORMANCE.md).

PipelineResult Pipeline::run_interned(
    const bgp::PathTable& paths, std::span<const bgp::InternedTuple> tuples,
    util::ThreadPool* pool) const {
  PipelineResult result;
  if (pool == nullptr) {
    // Sequential reference path: no pool, no sharding.
    result.observations = ObservationIndex::build_interned(
        paths, tuples, orgs_, relationships_, config_.observation);
    result.inference = classify(result.observations, config_.classifier);
    return result;
  }
  result.observations = ObservationIndex::build_parallel_interned(
      paths, tuples, *pool, orgs_, relationships_, config_.observation);
  result.inference = classify(result.observations, config_.classifier, pool);
  return result;
}

PipelineResult Pipeline::run(std::span<const bgp::RibEntry> entries) const {
  bgp::PathTable paths;
  const std::vector<bgp::InternedTuple> tuples =
      bgp::intern_entries(paths, entries);
  PipelineResult result;
  if (util::ThreadPool::resolve(config_.threads) <= 1) {
    result = run_interned(paths, tuples, nullptr);
  } else {
    util::ThreadPool pool(config_.threads);
    result = run_interned(paths, tuples, &pool);
  }
  result.entries_ingested = entries.size();
  return result;
}

PipelineResult Pipeline::run(const MrtIngest& ingest) const {
  PipelineResult result;
  if (util::ThreadPool::resolve(config_.threads) <= 1) {
    result = run_interned(ingest.paths(), ingest.tuples(), nullptr);
  } else {
    util::ThreadPool pool(config_.threads);
    result = run_interned(ingest.paths(), ingest.tuples(), &pool);
  }
  result.decode_report = ingest.report();
  result.entries_ingested = ingest.entries();
  return result;
}

PipelineResult Pipeline::run_mrt(std::istream& in) const {
  MrtIngest ingest(config_.decode);
  if (util::ThreadPool::resolve(config_.threads) <= 1) {
    ingest.add(in);
    PipelineResult result = run_interned(ingest.paths(), ingest.tuples(),
                                         nullptr);
    result.decode_report = ingest.report();
    result.entries_ingested = ingest.entries();
    return result;
  }
  // One pool serves all three stages: chunked decode+intern, sharded
  // indexing, per-alpha classification.
  util::ThreadPool pool(config_.threads);
  ingest.add_parallel(in, pool);
  PipelineResult result = run_interned(ingest.paths(), ingest.tuples(), &pool);
  result.decode_report = ingest.report();
  result.entries_ingested = ingest.entries();
  return result;
}

PipelineResult Pipeline::run_mrt(const mrt::ByteSource& source) const {
  MrtIngest ingest(config_.decode);
  if (util::ThreadPool::resolve(config_.threads) <= 1) {
    ingest.add(source);
    PipelineResult result = run_interned(ingest.paths(), ingest.tuples(),
                                         nullptr);
    result.decode_report = ingest.report();
    result.entries_ingested = ingest.entries();
    return result;
  }
  util::ThreadPool pool(config_.threads);
  ingest.add_parallel(source, pool);
  PipelineResult result = run_interned(ingest.paths(), ingest.tuples(), &pool);
  result.decode_report = ingest.report();
  result.entries_ingested = ingest.entries();
  return result;
}

}  // namespace bgpintent::core
