// Spans for the traced run.  The benchmark's own code opens a span around
// each call into a module's public functions; spans nest on the calling
// thread, stay in memory, and are written out when the run ends.  A
// layer's self time is its duration minus the time its child spans cover.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start = 0.0;  ///< seconds since the tracer was made
    double end = 0.0;
    int parent = -1;          ///< index of the enclosing span, -1 at top
    std::uint64_t unit = 0;   ///< file or step id; shared by its spans
    std::uint64_t allocs = 0; ///< allocations made inside, children too
  };

  /// Reserves room for `capacity` spans up front, so recording a span
  /// allocates nothing that the `_allocs` counts would see.
  explicit Tracer(std::size_t capacity) {
    spans_.reserve(capacity);
    stack_.reserve(64);
  }

  /// Opens a span nested in the innermost open one; returns its index.
  int open(const char* name, std::uint64_t unit) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.unit = unit;
    span.allocs = thread_allocs();
    span.start = seconds_between(origin_, Clock::now());
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end = seconds_between(origin_, Clock::now());
    span.allocs = thread_allocs() - span.allocs;
    stack_.pop_back();
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t unit = 0)
        : tracer_(tracer), index_(tracer.open(name, unit)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  struct Totals {
    double total_s = 0.0;        ///< summed durations
    double self_s = 0.0;         ///< minus child coverage
    std::uint64_t allocs = 0;    ///< inclusive
    std::uint64_t self_allocs = 0;
  };

  /// Sums every span named `name`.
  [[nodiscard]] Totals totals(const std::string& name) const {
    std::vector<double> child_time(spans_.size(), 0.0);
    std::vector<std::uint64_t> child_allocs(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent < 0) continue;
      const auto p = static_cast<std::size_t>(span.parent);
      child_time[p] += span.end - span.start;
      child_allocs[p] += span.allocs;
    }
    Totals out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name != spans_[i].name) continue;
      const double duration = spans_[i].end - spans_[i].start;
      out.total_s += duration;
      out.self_s += duration - child_time[i];
      out.allocs += spans_[i].allocs;
      out.self_allocs += spans_[i].allocs - child_allocs[i];
    }
    return out;
  }

  /// Writes one line per span: name start end parent unit allocs.
  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "# name start_s end_s parent unit allocs\n");
    for (const Span& span : spans_)
      std::fprintf(out, "%s %.9f %.9f %d %llu %llu\n", span.name, span.start,
                   span.end, span.parent,
                   static_cast<unsigned long long>(span.unit),
                   static_cast<unsigned long long>(span.allocs));
    return std::fclose(out) == 0;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
