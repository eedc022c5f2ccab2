// Section 5.1: geographic discrimination. Compares GreyNoise cloud vantage
// points pairwise within a provider network, grouping pairs by continent
// (US / EU / Asia-Pacific, following how AWS and Google group datacenters)
// or as intercontinental. Produces Table 5 (share of similar pairs per
// group) and Table 4 (the most-different region per provider).
#pragma once

#include <array>
#include <optional>
#include <string>

#include "analysis/comparison.h"

namespace cw::analysis {

enum class PairGroup : std::uint8_t { kUs = 0, kEu, kApac, kIntercontinental };
inline constexpr std::size_t kPairGroupCount = 4;

std::string_view pair_group_name(PairGroup g) noexcept;

// Classifies a pair of regions; regions outside the three continental
// blocks (e.g. South America, Africa) only ever form intercontinental
// pairs, matching the paper's treatment.
std::optional<PairGroup> classify_pair(const topology::VantagePoint& a,
                                       const topology::VantagePoint& b) noexcept;

struct GeoOptions {
  std::size_t top_k = 3;
  double alpha = 0.05;
  std::size_t min_records = 10;  // per vantage point, within scope
};

// Table 5: per pair-group counts of (tested, similar) pairs.
struct GeoSimilarity {
  Characteristic characteristic = Characteristic::kTopAs;
  std::array<std::size_t, kPairGroupCount> tested{};
  std::array<std::size_t, kPairGroupCount> similar{};

  [[nodiscard]] double pct_similar(PairGroup g) const {
    const auto i = static_cast<std::size_t>(g);
    return tested[i] == 0 ? 100.0
                          : 100.0 * static_cast<double>(similar[i]) /
                                static_cast<double>(tested[i]);
  }
};

// Each vantage's table is built once in the shared cache and reused across
// all C(n,2) pairs (and by any other analysis naming the same (vantage,
// scope, characteristic) side).
GeoSimilarity geo_similarity(const CharacteristicTableCache& cache, TrafficScope scope,
                             Characteristic characteristic, const GeoOptions& options = {});

// Table 4: the region with the most significant pairwise deviations inside
// one provider's network.
struct MostDifferentRegion {
  bool any_significant = false;
  std::string region_code;       // e.g. "AP-JP"
  double avg_phi = 0.0;          // mean phi over its significant pairs
  stats::EffectMagnitude magnitude = stats::EffectMagnitude::kNone;
  std::size_t significant_pairs = 0;
};

MostDifferentRegion most_different_region(const CharacteristicTableCache& cache,
                                          topology::Provider provider, TrafficScope scope,
                                          Characteristic characteristic,
                                          const GeoOptions& options = {});

}  // namespace cw::analysis
