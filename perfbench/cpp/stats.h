// How the benchmark turns samples into reported numbers.
//
// A timing is reported as its median and as the highest percentile that has
// at least ten samples beyond it, together with the sample count, so a tail
// figure is never read off a handful of samples.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

// Samples that must lie beyond a percentile for it to be reported.
inline constexpr std::size_t kSamplesBeyond = 10;

// Median with the usual even-count rule (mean of the two middle values);
// 0 for no samples.
[[nodiscard]] double median(std::vector<double> samples);

// Samples strictly beyond the nearest-rank p-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

// The highest of 50, 90, 99, 99.9 and 99.99 that has kSamplesBeyond samples
// beyond it among n samples; 0 when not even the median has.
[[nodiscard]] double highest_supported_percentile(std::size_t n);

// A latency distribution as reported; percentiles are nearest-rank.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;  // p99 has kSamplesBeyond samples beyond it
  double top_percentile = 0.0;  // highest_supported_percentile(n)
  double top_value = 0.0;       // the value at top_percentile
};

[[nodiscard]] Summary summarize(const std::vector<double>& samples);

// "p99.9" for 99.9, "p50" for 50.
[[nodiscard]] std::string percentile_label(double p);

}  // namespace perfbench
