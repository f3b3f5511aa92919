// Streaming decode of a BGP4MP update firehose.
//
// A live collector stream carries *withdrawn* prefixes alongside
// announcements, and consumers like the sliding-window classifier
// (src/stream/) need both, each stamped with the record's collector
// timestamp so the window can advance.  decode_update_stream hands both to
// an UpdateSink (framing.hpp).  It is the same decode as decode_rib_stream
// (mrt_file.hpp), whose EntrySink is an UpdateSink that drops withdrawals:
// one record decoder, one loop per framer, the same DecodeReport outcome
// (also written on throw) and the same strict/tolerant semantics
// (docs/ROBUSTNESS.md, docs/STREAMING.md).  RIB snapshot rows a collector
// interleaves, or a priming TABLE_DUMP_V2 dump concatenated in front of
// the updates, surface as announcements, so a stream source accepts
// exactly the record mix real archives contain.
#pragma once

#include <iosfwd>

#include "mrt/decode.hpp"
#include "mrt/framing.hpp"
#include "mrt/source.hpp"

namespace bgpintent::mrt {

/// Streams a whole update source into `sink`.  Strict/tolerant semantics,
/// error budgets, and the DecodeReport outcome (also written on throw)
/// are decode_rib_stream's: the two run the same decode loops.
void decode_update_stream(const ByteSource& source, UpdateSink& sink,
                          const DecodeOptions& options = {},
                          DecodeReport* report = nullptr);

/// istream variant: strict mode streams record-by-record through one
/// scratch body buffer (bounded memory on an endless pipe — the firehose
/// case); tolerant mode buffers first, because resync needs random access.
void decode_update_stream(std::istream& in, UpdateSink& sink,
                          const DecodeOptions& options = {},
                          DecodeReport* report = nullptr);

}  // namespace bgpintent::mrt
