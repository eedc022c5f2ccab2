#include "trace.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::uint64_t Tracer::open() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(std::uint64_t id, std::string name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent, std::uint64_t request) {
  if (!enabled_ || id == 0) return;
  SpanRecord span;
  span.id = id;
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_).count();
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_).count();
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& span : spans()) {
    // Span names are the benchmark's own identifiers: no escaping needed.
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"thread\":" << span.thread << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

double Span::close() {
  if (closed_) return ms_;
  closed_ = true;
  const Clock::time_point end = Clock::now();
  ms_ = ms_between(start_, end);
  tracer_->record(id_, std::move(name_), start_, end, parent_);
  return ms_;
}

std::int64_t self_time_ns(const SpanRecord& span, const std::vector<SpanRecord>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const SpanRecord& child : children) {
    const std::int64_t begin = std::max(child.start_ns, span.start_ns);
    const std::int64_t end = std::min(child.end_ns, span.end_ns);
    if (begin < end) covered.emplace_back(begin, end);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t union_ns = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [begin, end] : covered) {
    const std::int64_t from = std::max(begin, reach);
    if (end > from) {
      union_ns += end - from;
      reach = end;
    }
  }
  return (span.end_ns - span.start_ns) - union_ns;
}

std::map<std::string, NameTotals> totals_by_name(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<SpanRecord>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(span);
  }
  static const std::vector<SpanRecord> kNone;
  std::map<std::string, NameTotals> totals;
  for (const SpanRecord& span : spans) {
    const auto found = children.find(span.id);
    NameTotals& entry = totals[span.name];
    ++entry.count;
    entry.total_ns += span.end_ns - span.start_ns;
    entry.self_ns += self_time_ns(span, found == children.end() ? kNone : found->second);
  }
  return totals;
}

}  // namespace perfbench
