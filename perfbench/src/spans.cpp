#include "spans.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int SpanRecorder::begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.thread = thread_;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void SpanRecorder::append(const SpanRecorder& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& span : spans)
    if (span.parent >= 0)
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);

  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = span.start_ns;  // end of the union so far
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, cursor);
      hi = std::min(hi, span.end_ns);
      if (hi <= lo) continue;
      covered += hi - lo;
      cursor = hi;
    }
    self[i] = static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i)
    by_name[spans[i].name] += self[i];
  return by_name;
}

clktune::util::Json chrome_trace(const std::vector<Span>& spans) {
  using clktune::util::Json;
  std::uint64_t origin = ~std::uint64_t{0};
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  Json events = Json::array();
  for (const Span& span : spans) {
    Json event = Json::object();
    event.set("name", span.name);
    event.set("cat", "perfbench");
    event.set("ph", "X");
    event.set("ts", static_cast<double>(span.start_ns - origin) * 1e-3);
    event.set("dur", static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    event.set("pid", 1);
    event.set("tid", span.thread);
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace perfbench
