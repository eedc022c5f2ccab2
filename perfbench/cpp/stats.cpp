#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

// Index of the nearest-rank p-th percentile among n sorted samples. The
// epsilon keeps exact ranks exact (99.9% of 10000 is 9990, not 9991).
std::size_t rank_index(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower = *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2.0;
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - rank_index(n, p);
}

double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (samples_beyond(n, p) >= kSamplesBeyond) best = p;
  }
  return best;
}

Summary summarize(const std::vector<double>& samples) {
  Summary summary;
  summary.n = samples.size();
  if (samples.empty()) return summary;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const auto at = [&sorted](double p) { return sorted[rank_index(sorted.size(), p)]; };
  summary.p50 = at(50.0);
  summary.p99 = at(99.0);
  summary.p99_supported = samples_beyond(sorted.size(), 99.0) >= kSamplesBeyond;
  summary.top_percentile = highest_supported_percentile(sorted.size());
  if (summary.top_percentile > 0.0) summary.top_value = at(summary.top_percentile);
  return summary;
}

std::string percentile_label(double p) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "p%g", p);
  return buffer;
}

}  // namespace perfbench
