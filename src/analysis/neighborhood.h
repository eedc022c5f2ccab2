// Section 4.1 / Table 2: do neighboring services (the addresses of one
// vantage point, same region and network) receive significantly different
// traffic? For every neighborhood we compare the per-address distributions
// of a characteristic with the chi-squared recipe and report the share of
// neighborhoods with significant differences plus the mean effect size.
#pragma once

#include <vector>

#include "analysis/comparison.h"

namespace cw::analysis {

struct NeighborhoodSummary {
  Characteristic characteristic = Characteristic::kTopAs;
  std::size_t neighborhoods_tested = 0;   // n in the paper's table
  std::size_t neighborhoods_different = 0;
  double pct_different = 0.0;
  double avg_phi = 0.0;                   // mean Cramér's V over significant tests
  stats::EffectMagnitude typical_magnitude = stats::EffectMagnitude::kNone;
};

struct NeighborhoodOptions {
  std::size_t top_k = 3;
  double alpha = 0.05;
  // Minimum records a neighborhood needs (summed over neighbors) to be
  // testable; tiny samples make chi-squared meaningless.
  std::size_t min_records = 20;
  // If true, compare the median-of-group expectation instead of raw counts
  // (the Section 4.4 filtering; exposed for the ablation bench).
  bool use_bonferroni = true;
};

// Runs the analysis over every GreyNoise cloud vantage point with >= 2
// addresses, for one scope and characteristic. Table 2 runs this once per
// characteristic over the same scope; the cache memoizes the per-neighbor
// slices (and their tables) across those runs. Every neighbor of a
// qualifying vantage is a group, empty ones included.
NeighborhoodSummary analyze_neighborhoods(const CharacteristicTableCache& cache,
                                          TrafficScope scope, Characteristic characteristic,
                                          const NeighborhoodOptions& options = {});

// The characteristics the paper reports for a scope (credentials for
// SSH/Telnet, payloads for HTTP).
std::vector<Characteristic> characteristics_for_scope(TrafficScope scope);

}  // namespace cw::analysis
