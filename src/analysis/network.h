// Section 5.2: network-type discrimination. Compares traffic across
// networks while holding geography fixed — cloud-to-cloud via co-located
// GreyNoise regions (Table 6/7), cloud-to-education and education-to-
// education via the matched Honeytrap deployments, and telescope-to-
// everything for Table 10.
#pragma once

#include <vector>

#include "analysis/comparison.h"

namespace cw::runner {
class ThreadPool;
}  // namespace cw::runner

namespace cw::analysis {

struct NetworkOptions {
  std::size_t top_k = 3;
  double alpha = 0.05;
  std::size_t min_records = 10;
  // The paper applies Bonferroni "across all vantage points", i.e. over
  // the whole study's comparison family, which shrinks alpha by orders of
  // magnitude. The per-call pair count is multiplied by this factor to
  // approximate that study-wide family.
  std::size_t family_scale = 50;
};

struct NetworkComparison {
  TrafficScope scope = TrafficScope::kSsh22;
  Characteristic characteristic = Characteristic::kTopAs;
  bool measurable = true;        // false renders as "x" (collection limits)
  std::size_t pairs_tested = 0;  // n
  std::size_t pairs_different = 0;
  double avg_phi = 0.0;          // mean Cramér's V over significant pairs
  stats::EffectMagnitude strongest = stats::EffectMagnitude::kNone;
};

// Generic pairwise driver used by all the comparisons below. Sides are
// fetched from (and memoized in) the shared CharacteristicTableCache, so a
// vantage appearing in several pairs — or in a different characteristic's
// pass over the same pair list — builds its table once. When `pool` is
// non-null each pair's test runs as an independent shard (nest-safe inside
// a pipeline task); results land in per-pair slots and are reduced in pair
// order, so the phi accumulation and the report bytes are identical at any
// worker count.
NetworkComparison compare_vantage_pairs(
    const CharacteristicTableCache& cache,
    const std::vector<std::pair<topology::VantageId, topology::VantageId>>& pairs,
    TrafficScope scope, Characteristic characteristic, const NetworkOptions& options = {},
    runner::ThreadPool* pool = nullptr);

// The pair lists for each comparison family.
std::vector<std::pair<topology::VantageId, topology::VantageId>> cloud_cloud_pairs(
    const topology::Deployment& deployment);
std::vector<std::pair<topology::VantageId, topology::VantageId>> cloud_edu_pairs(
    const topology::Deployment& deployment);
std::vector<std::pair<topology::VantageId, topology::VantageId>> edu_edu_pairs(
    const topology::Deployment& deployment);
std::vector<std::pair<topology::VantageId, topology::VantageId>> telescope_edu_pairs(
    const topology::Deployment& deployment);
std::vector<std::pair<topology::VantageId, topology::VantageId>> telescope_cloud_pairs(
    const topology::Deployment& deployment);

}  // namespace cw::analysis
