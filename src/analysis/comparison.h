// Shared comparison driver: applies the Section 3.3 recipe (top-3 union,
// chi-squared, Bonferroni, Cramér's V) to a group of traffic slices for one
// characteristic. Neighborhood, geography, and network-type analyses all
// funnel through here so their statistics are computed identically.
#pragma once

#include <string_view>
#include <vector>

#include "analysis/characteristics.h"
#include "analysis/table_cache.h"
#include "stats/chi_squared.h"

namespace cw::analysis {

// Comparison parameters; k=3 is the paper's default (footnote 2).
struct CompareOptions {
  std::size_t top_k = 3;
  double alpha = 0.05;
  std::size_t family_size = 1;  // Bonferroni divisor
};

// Runs the recipe over the groups. Each group's table (or (malicious,
// benign) counts) comes from the shared CharacteristicTableCache, so a side
// that appears in many comparisons — Orion in five of Table 10's pairs per
// scope — is materialized once and reused. Groups enter compare_top_k /
// compare_binary in the order given.
stats::SignificanceTest compare_characteristic(
    const CharacteristicTableCache& cache,
    const std::vector<CharacteristicTableCache::SliceKey>& groups, TrafficScope scope,
    Characteristic characteristic, const CompareOptions& options);

// Whether the characteristic is measurable on slices collected with the
// given method within the given scope (Honeytrap extracts no credentials,
// so SSH/Telnet intent is invisible there; the telescope retains neither
// payloads nor credentials). Unmeasurable cells render as "x" in the paper.
bool measurable(Characteristic characteristic, topology::CollectionMethod method,
                TrafficScope scope) noexcept;

}  // namespace cw::analysis
