#include "analysis/geography.h"

#include <algorithm>
#include <map>

namespace cw::analysis {
namespace {

// All GreyNoise cloud vantage points (optionally of one provider) that clear
// the minimum-sample bar, in deployment order.
std::vector<const topology::VantagePoint*> collect_points(
    const CharacteristicTableCache& cache, TrafficScope scope, const GeoOptions& options,
    std::optional<topology::Provider> provider_filter) {
  std::vector<const topology::VantagePoint*> points;
  for (const topology::VantagePoint& vp : cache.frame().deployment().vantage_points()) {
    if (vp.type != topology::NetworkType::kCloud ||
        vp.collection != topology::CollectionMethod::kGreyNoise) {
      continue;
    }
    if (provider_filter && vp.provider != *provider_filter) continue;
    if (cache.record_count(vp.id, scope) < options.min_records) continue;
    points.push_back(&vp);
  }
  return points;
}

}  // namespace

std::string_view pair_group_name(PairGroup g) noexcept {
  switch (g) {
    case PairGroup::kUs: return "US";
    case PairGroup::kEu: return "EU";
    case PairGroup::kApac: return "APAC";
    case PairGroup::kIntercontinental: return "Intercontinental";
  }
  return "?";
}

std::optional<PairGroup> classify_pair(const topology::VantagePoint& a,
                                       const topology::VantagePoint& b) noexcept {
  const net::Continent ca = a.region.continent;
  const net::Continent cb = b.region.continent;
  if (ca != cb) return PairGroup::kIntercontinental;
  switch (ca) {
    case net::Continent::kNorthAmerica: return PairGroup::kUs;
    case net::Continent::kEurope: return PairGroup::kEu;
    case net::Continent::kAsiaPacific: return PairGroup::kApac;
    default: return PairGroup::kIntercontinental;
  }
}

GeoSimilarity geo_similarity(const CharacteristicTableCache& cache, TrafficScope scope,
                             Characteristic characteristic, const GeoOptions& options) {
  const std::vector<const topology::VantagePoint*> points =
      collect_points(cache, scope, options, std::nullopt);
  GeoSimilarity result;
  result.characteristic = characteristic;

  // Pairs are always within one provider network so that network effects
  // never masquerade as geographic ones.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (points[i]->provider != points[j]->provider) continue;
      pairs.emplace_back(i, j);
    }
  }

  CompareOptions compare;
  compare.top_k = options.top_k;
  compare.alpha = options.alpha;
  compare.family_size = pairs.size() == 0 ? 1 : pairs.size();

  for (const auto& [i, j] : pairs) {
    const auto group = classify_pair(*points[i], *points[j]);
    if (!group) continue;
    const auto g = static_cast<std::size_t>(*group);
    const stats::SignificanceTest test = compare_characteristic(
        cache, {{points[i]->id}, {points[j]->id}}, scope, characteristic, compare);
    if (!test.chi.valid) continue;
    ++result.tested[g];
    if (!test.significant) ++result.similar[g];
  }
  return result;
}

MostDifferentRegion most_different_region(const CharacteristicTableCache& cache,
                                          topology::Provider provider, TrafficScope scope,
                                          Characteristic characteristic,
                                          const GeoOptions& options) {
  const std::vector<const topology::VantagePoint*> points =
      collect_points(cache, scope, options, provider);
  MostDifferentRegion result;
  if (points.size() < 2) return result;

  const std::size_t n = points.size();
  const std::size_t pair_count = n * (n - 1) / 2;
  CompareOptions compare;
  compare.top_k = options.top_k;
  compare.alpha = options.alpha;
  compare.family_size = pair_count;

  struct RegionScore {
    std::size_t significant = 0;
    double phi_sum = 0.0;
    stats::EffectMagnitude strongest = stats::EffectMagnitude::kNone;
  };
  std::map<std::string, RegionScore> scores;

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const stats::SignificanceTest test = compare_characteristic(
          cache, {{points[i]->id}, {points[j]->id}}, scope, characteristic, compare);
      if (!test.chi.valid || !test.significant) continue;
      for (const std::size_t k : {i, j}) {
        RegionScore& score = scores[points[k]->region.code()];
        ++score.significant;
        score.phi_sum += test.chi.cramers_v;
        score.strongest = std::max(score.strongest, test.magnitude);
      }
    }
  }
  if (scores.empty()) return result;

  const auto best = std::max_element(
      scores.begin(), scores.end(), [](const auto& a, const auto& b) {
        if (a.second.significant != b.second.significant) {
          return a.second.significant < b.second.significant;
        }
        return a.second.phi_sum < b.second.phi_sum;
      });
  result.any_significant = true;
  result.region_code = best->first;
  result.significant_pairs = best->second.significant;
  result.avg_phi = best->second.phi_sum / static_cast<double>(best->second.significant);
  result.magnitude = best->second.strongest;
  return result;
}

}  // namespace cw::analysis
