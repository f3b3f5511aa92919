// Fault-tolerant MRT decoding: options, per-record error capture, and the
// report that survives the whole ingest path.
//
// Real RouteViews / RIPE RIS archives routinely contain truncated
// transfers, torn records, and collector quirks.  Strict mode (the
// default) preserves the historical behavior: the first malformed record
// aborts the batch with MrtError.  Tolerant mode instead captures each
// record-level failure as a structured DecodeError, resynchronizes by
// scanning forward for the next plausible MRT header, and keeps decoding —
// subject to an error budget (absolute and as a fraction of records)
// beyond which it degrades to a hard DecodeBudgetError.  The algorithm and
// its guarantees are documented in docs/ROBUSTNESS.md.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mrt/buffer.hpp"

namespace bgpintent::mrt {

enum class DecodeMode : std::uint8_t {
  kStrict,    ///< first malformed record throws MrtError (historical)
  kTolerant,  ///< skip + resync around malformed records, within budget
};

/// Knobs for mrt::decode_rib_stream and core::MrtIngest (sequential and
/// parallel).
struct DecodeOptions {
  DecodeMode mode = DecodeMode::kStrict;
  /// Tolerant mode: hard-fail once more than this many records were
  /// skipped.  The count includes resync scans that each consumed a
  /// would-be record.  Checked after every failure — this is the
  /// mid-stream bail-out against pathological files.
  std::uint64_t max_errors = 1000;
  /// Tolerant mode: hard-fail when skipped/(ok+skipped) exceeds this
  /// fraction, evaluated once at end of stream.  The denominator is only
  /// meaningful over the whole stream — a mid-stream check would make the
  /// outcome depend on *where* errors cluster and would let the sequential
  /// and parallel readers disagree; the absolute budget bounds mid-stream
  /// damage instead.
  double max_error_frac = 0.5;

  [[nodiscard]] bool tolerant() const noexcept {
    return mode == DecodeMode::kTolerant;
  }
};

/// One captured record-level failure (tolerant mode).
struct DecodeError {
  std::uint64_t byte_offset = 0;   ///< stream offset of the failed record
  std::uint64_t record_index = 0;  ///< zero-based index among framed records
  std::uint32_t raw_length = 0;    ///< header length field (0 if unreadable)
  std::string reason;

  friend bool operator==(const DecodeError&, const DecodeError&) = default;
};

/// Outcome summary of one tolerant (or strict) decode pass.  merge() makes
/// reports additive across files and across parallel chunks.
struct DecodeReport {
  /// Details are capped here so a pathological file cannot balloon memory;
  /// the counters keep counting past the cap.
  static constexpr std::size_t kMaxStoredErrors = 64;

  std::uint64_t records_ok = 0;       ///< framed and decoded cleanly
  std::uint64_t records_skipped = 0;  ///< framed-or-scanned past on error
  std::uint64_t bytes_skipped = 0;    ///< bytes consumed by failed records
  std::uint64_t resyncs = 0;          ///< forward scans for a new header
  /// resync_distance_log2[i] counts resyncs whose forward scan covered
  /// [2^i, 2^(i+1)) bytes (bucket 15 also holds everything larger).
  std::array<std::uint64_t, 16> resync_distance_log2{};
  std::vector<DecodeError> errors;  ///< first kMaxStoredErrors failures
  bool budget_exhausted = false;

  void add_error(DecodeError error);
  void add_resync(std::uint64_t distance_bytes);
  void merge(const DecodeReport& other);

  /// skipped / (ok + skipped); 0 when nothing was framed.
  [[nodiscard]] double error_fraction() const noexcept;

  /// True when the absolute budget is already violated (the only check
  /// that is monotone mid-stream).
  [[nodiscard]] bool over_budget(const DecodeOptions& options) const noexcept;

  /// End-of-stream check: absolute budget plus the fractional budget.
  [[nodiscard]] bool over_final_budget(
      const DecodeOptions& options) const noexcept;

  /// One-line human-readable summary ("ok=… skipped=… resyncs=…").
  [[nodiscard]] std::string summary() const;
};

/// Raised when tolerant decoding gives up because the error budget was
/// exceeded; carries the partial report for diagnostics.  Derives from
/// MrtError so callers that only handle the strict failure mode still see
/// a decode failure.
class DecodeBudgetError : public MrtError {
 public:
  DecodeBudgetError(const std::string& what, DecodeReport report)
      : MrtError(what), report_(std::move(report)) {}

  [[nodiscard]] const DecodeReport& report() const noexcept { return report_; }

 private:
  DecodeReport report_;
};

}  // namespace bgpintent::mrt
