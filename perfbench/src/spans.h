// In-memory spans recorded by the harness around each call it makes into a
// clktune layer.  Nothing is written while the workload runs: spans are
// kept in a vector and dumped as Chrome trace events when the run ends.
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover; a layer's time is the self time of the spans
// named after it.  Recorders are single-threaded; concurrent clients each
// own one and the results are concatenated after the threads join.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

std::uint64_t now_ns();

struct Span {
  std::string name;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int thread = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = false, int thread = 0)
      : enabled_(enabled), thread_(thread) {}

  /// Opens a span nested in the innermost open one; -1 when disabled.
  int begin(const std::string& name);
  /// Closes span `id` (a no-op for -1).  Spans close innermost first.
  void end(int id);

  /// Appends another recorder's spans, re-indexing their parents.
  void append(const SpanRecorder& other);

  const std::vector<Span>& spans() const { return spans_; }

  /// RAII wrapper around begin/end.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const std::string& name)
        : recorder_(recorder), id_(recorder.begin(name)) {}
    ~Scope() { recorder_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int id_;
  };

 private:
  bool enabled_;
  int thread_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self seconds of every span (aligned with `spans`): duration minus the
/// union of its children's intervals, clipped to the span.
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Self seconds summed per span name.
std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans);

/// Chrome trace-event array ("X" events, microseconds from the first span).
clktune::util::Json chrome_trace(const std::vector<Span>& spans);

}  // namespace perfbench
