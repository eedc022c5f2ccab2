// Spans recorded by the benchmark around its calls into each layer of the
// program. A span has a name, start and end, the span that caused it and,
// for an HTTP request, the request's id. Spans are kept in memory and
// written out once, when the run ends.
//
// Timing and recording are separate: a Span always measures its own
// duration (the benchmark's metrics read it in both modes), but only a
// Tracer that is enabled keeps the record. The traced run's extra cost over
// the untraced run is the tracing overhead the benchmark reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = a root span
  std::uint64_t request = 0;  // 0 = not part of an HTTP request
  std::string name;
  std::int64_t start_ns = 0;  // relative to the tracer's creation
  std::int64_t end_ns = 0;
  std::uint64_t thread = 0;  // hashed std::thread::id of the recording thread
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  // Reserves a span id (0 when disabled), so children can name a parent
  // whose record is written only when it ends.
  [[nodiscard]] std::uint64_t open();

  // Stores one finished span. Thread-safe; a no-op when disabled or id 0.
  void record(std::uint64_t id, std::string name, Clock::time_point start, Clock::time_point end,
              std::uint64_t parent, std::uint64_t request = 0);

  [[nodiscard]] std::vector<SpanRecord> spans() const;

  // Writes every span as one JSON object per line. False on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

// A timed region. Measures whether or not the tracer records.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::uint64_t parent = 0)
      : tracer_(&tracer), name_(std::move(name)), parent_(parent), id_(tracer.open()),
        start_(Clock::now()) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  // Ends the span (once) and returns its duration in milliseconds.
  double close();

 private:
  Tracer* tracer_;
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t id_;
  Clock::time_point start_;
  bool closed_ = false;
  double ms_ = 0.0;
};

// A span's self time: its duration minus the part of its interval that its
// children cover. Children may run on several threads and overlap each
// other; the covered part is the union of their intervals, clipped to the
// parent's.
[[nodiscard]] std::int64_t self_time_ns(const SpanRecord& span,
                                        const std::vector<SpanRecord>& children);

struct NameTotals {
  std::size_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

// Total and self time of every span name, over all spans given.
[[nodiscard]] std::map<std::string, NameTotals> totals_by_name(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
