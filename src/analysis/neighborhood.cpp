#include "analysis/neighborhood.h"

namespace cw::analysis {

std::vector<Characteristic> characteristics_for_scope(TrafficScope scope) {
  switch (scope) {
    case TrafficScope::kSsh22:
    case TrafficScope::kTelnet23:
      return {Characteristic::kTopAs, Characteristic::kFracMalicious,
              Characteristic::kTopUsername, Characteristic::kTopPassword};
    case TrafficScope::kHttp80:
    case TrafficScope::kHttpAllPorts:
      return {Characteristic::kTopAs, Characteristic::kFracMalicious,
              Characteristic::kTopPayload};
    case TrafficScope::kAnyAll:
      return {Characteristic::kTopAs, Characteristic::kFracMalicious};
  }
  return {};
}

NeighborhoodSummary analyze_neighborhoods(const CharacteristicTableCache& cache,
                                          TrafficScope scope, Characteristic characteristic,
                                          const NeighborhoodOptions& options) {
  // First pass: find the testable neighborhoods, so the Bonferroni family
  // size equals the number of comparisons actually performed.
  struct Candidate {
    std::vector<CharacteristicTableCache::SliceKey> neighbors;
  };
  std::vector<Candidate> candidates;
  for (const topology::VantagePoint& vp : cache.frame().deployment().vantage_points()) {
    if (vp.type != topology::NetworkType::kCloud ||
        vp.collection != topology::CollectionMethod::kGreyNoise || vp.addresses.size() < 2) {
      continue;
    }
    Candidate candidate;
    std::size_t total_records = 0;
    for (std::uint16_t n = 0; n < vp.addresses.size(); ++n) {
      total_records += cache.record_count(vp.id, scope, n);
      candidate.neighbors.push_back({vp.id, n});
    }
    if (total_records < options.min_records) continue;
    candidates.push_back(std::move(candidate));
  }

  NeighborhoodSummary summary;
  summary.characteristic = characteristic;
  summary.neighborhoods_tested = candidates.size();
  if (candidates.empty()) return summary;

  CompareOptions compare;
  compare.top_k = options.top_k;
  compare.alpha = options.alpha;
  compare.family_size = options.use_bonferroni ? candidates.size() : 1;

  double phi_sum = 0.0;
  std::size_t magnitude_votes[4] = {0, 0, 0, 0};
  for (const Candidate& candidate : candidates) {
    const stats::SignificanceTest test =
        compare_characteristic(cache, candidate.neighbors, scope, characteristic, compare);
    if (!test.chi.valid || !test.significant) continue;
    ++summary.neighborhoods_different;
    phi_sum += test.chi.cramers_v;
    ++magnitude_votes[static_cast<std::size_t>(test.magnitude)];
  }

  summary.pct_different = 100.0 * static_cast<double>(summary.neighborhoods_different) /
                          static_cast<double>(summary.neighborhoods_tested);
  if (summary.neighborhoods_different > 0) {
    summary.avg_phi = phi_sum / static_cast<double>(summary.neighborhoods_different);
    std::size_t best = 0;
    for (std::size_t m = 1; m < 4; ++m) {
      if (magnitude_votes[m] >= magnitude_votes[best]) best = m;
    }
    summary.typical_magnitude = static_cast<stats::EffectMagnitude>(best);
  }
  return summary;
}

}  // namespace cw::analysis
