#include "analysis/comparison.h"

namespace cw::analysis {

stats::SignificanceTest compare_characteristic(
    const CharacteristicTableCache& cache,
    const std::vector<CharacteristicTableCache::SliceKey>& groups, TrafficScope scope,
    Characteristic characteristic, const CompareOptions& options) {
  if (characteristic == Characteristic::kFracMalicious) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> rows;
    rows.reserve(groups.size());
    for (const CharacteristicTableCache::SliceKey& key : groups) {
      rows.push_back(cache.malicious(key.vantage, scope, key.neighbor));
    }
    return stats::compare_binary(rows, options.alpha, options.family_size);
  }

  std::vector<const stats::FrequencyTable*> pointers;
  pointers.reserve(groups.size());
  for (const CharacteristicTableCache::SliceKey& key : groups) {
    pointers.push_back(&cache.table(key.vantage, scope, characteristic, key.neighbor));
  }
  return stats::compare_top_k(pointers, options.top_k, options.alpha, options.family_size);
}

bool measurable(Characteristic characteristic, topology::CollectionMethod method,
                TrafficScope scope) noexcept {
  switch (method) {
    case topology::CollectionMethod::kGreyNoise:
      return true;
    case topology::CollectionMethod::kHoneytrap:
      // First-payload capture only: no credential extraction, and hence no
      // way to judge the intent of authentication-based protocols.
      if (characteristic == Characteristic::kTopUsername ||
          characteristic == Characteristic::kTopPassword) {
        return false;
      }
      if (characteristic == Characteristic::kFracMalicious &&
          (scope == TrafficScope::kSsh22 || scope == TrafficScope::kTelnet23)) {
        return false;
      }
      return true;
    case topology::CollectionMethod::kTelescope:
      // First packet only: source attribution works, nothing else does.
      return characteristic == Characteristic::kTopAs;
  }
  return false;
}

}  // namespace cw::analysis
