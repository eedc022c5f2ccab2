#include "analysis/network.h"

#include <algorithm>

#include "runner/thread_pool.h"

namespace cw::analysis {

NetworkComparison compare_vantage_pairs(
    const CharacteristicTableCache& cache,
    const std::vector<std::pair<topology::VantageId, topology::VantageId>>& pairs,
    TrafficScope scope, Characteristic characteristic, const NetworkOptions& options,
    runner::ThreadPool* pool) {
  NetworkComparison result;
  result.scope = scope;
  result.characteristic = characteristic;

  const capture::SessionFrame& frame = cache.frame();
  // A characteristic must be measurable at *both* endpoints.
  for (const auto& [a, b] : pairs) {
    if (!measurable(characteristic, frame.collection_of(a), scope) ||
        !measurable(characteristic, frame.collection_of(b), scope)) {
      result.measurable = false;
      return result;
    }
  }

  CompareOptions compare;
  compare.top_k = options.top_k;
  compare.alpha = options.alpha;
  compare.family_size = std::max<std::size_t>(pairs.size(), 1) * options.family_scale;

  // Each pair is an independent shard writing its own slot; the reduction
  // below walks the slots in pair order, so phi_sum accumulates in the same
  // float order (and the result is bit-identical) at any worker count.
  // Concurrent shards that share a side block on the cache's one builder.
  struct PairOutcome {
    bool counted = false;
    bool different = false;
    double phi = 0.0;
    stats::EffectMagnitude magnitude = stats::EffectMagnitude::kNone;
  };
  std::vector<PairOutcome> outcomes(pairs.size());
  const auto evaluate_pair = [&](std::size_t p) {
    const auto& [a, b] = pairs[p];
    if (cache.record_count(a, scope) < options.min_records ||
        cache.record_count(b, scope) < options.min_records) {
      return;
    }
    const stats::SignificanceTest test =
        compare_characteristic(cache, {{a}, {b}}, scope, characteristic, compare);
    if (!test.chi.valid) return;
    PairOutcome& outcome = outcomes[p];
    outcome.counted = true;
    if (!test.significant) return;
    outcome.different = true;
    outcome.phi = test.chi.cramers_v;
    outcome.magnitude = test.magnitude;
  };
  if (pool != nullptr && pairs.size() > 1) {
    pool->parallel_for(pairs.size(), evaluate_pair);
  } else {
    for (std::size_t p = 0; p < pairs.size(); ++p) evaluate_pair(p);
  }

  double phi_sum = 0.0;
  for (const PairOutcome& outcome : outcomes) {
    if (!outcome.counted) continue;
    ++result.pairs_tested;
    if (!outcome.different) continue;
    ++result.pairs_different;
    phi_sum += outcome.phi;
    result.strongest = std::max(result.strongest, outcome.magnitude);
  }
  if (result.pairs_different > 0) {
    result.avg_phi = phi_sum / static_cast<double>(result.pairs_different);
  }
  return result;
}

std::vector<std::pair<topology::VantageId, topology::VantageId>> cloud_cloud_pairs(
    const topology::Deployment& deployment) {
  std::vector<std::pair<topology::VantageId, topology::VantageId>> pairs;
  for (const topology::Deployment::CoLocation& city : deployment.colocated_clouds()) {
    for (std::size_t i = 0; i < city.vantage_ids.size(); ++i) {
      for (std::size_t j = i + 1; j < city.vantage_ids.size(); ++j) {
        if (deployment.at(city.vantage_ids[i]).provider ==
            deployment.at(city.vantage_ids[j]).provider) {
          continue;  // only cross-provider pairs isolate the network effect
        }
        pairs.emplace_back(city.vantage_ids[i], city.vantage_ids[j]);
      }
    }
  }
  return pairs;
}

namespace {

// Honeytrap vantage points grouped by role.
topology::VantageId find_by_name(const topology::Deployment& deployment, std::string_view name) {
  for (const topology::VantagePoint& vp : deployment.vantage_points()) {
    if (vp.name == name) return vp.id;
  }
  return static_cast<topology::VantageId>(-1);
}

void add_pair_if_present(const topology::Deployment& deployment,
                         std::vector<std::pair<topology::VantageId, topology::VantageId>>& pairs,
                         std::string_view a, std::string_view b) {
  const topology::VantageId ia = find_by_name(deployment, a);
  const topology::VantageId ib = find_by_name(deployment, b);
  if (ia == static_cast<topology::VantageId>(-1) || ib == static_cast<topology::VantageId>(-1)) {
    return;
  }
  pairs.emplace_back(ia, ib);
}

}  // namespace

std::vector<std::pair<topology::VantageId, topology::VantageId>> cloud_edu_pairs(
    const topology::Deployment& deployment) {
  std::vector<std::pair<topology::VantageId, topology::VantageId>> pairs;
  // Geography-matched Honeytrap deployments only (Section 5.2 methodology):
  // clouds near Stanford against Stanford, the cloud near Merit against
  // Merit, and the two cross pairs inside the same country.
  add_pair_if_present(deployment, pairs, "AWS/US-West-HT", "Stanford/US-West");
  add_pair_if_present(deployment, pairs, "Google/US-West-HT", "Stanford/US-West");
  add_pair_if_present(deployment, pairs, "Google/US-East-HT", "Merit/US-East");
  add_pair_if_present(deployment, pairs, "AWS/US-West-HT", "Merit/US-East");
  return pairs;
}

std::vector<std::pair<topology::VantageId, topology::VantageId>> edu_edu_pairs(
    const topology::Deployment& deployment) {
  std::vector<std::pair<topology::VantageId, topology::VantageId>> pairs;
  add_pair_if_present(deployment, pairs, "Stanford/US-West", "Merit/US-East");
  return pairs;
}

std::vector<std::pair<topology::VantageId, topology::VantageId>> telescope_edu_pairs(
    const topology::Deployment& deployment) {
  std::vector<std::pair<topology::VantageId, topology::VantageId>> pairs;
  add_pair_if_present(deployment, pairs, "Orion", "Stanford/US-West");
  add_pair_if_present(deployment, pairs, "Orion", "Merit/US-East");
  return pairs;
}

std::vector<std::pair<topology::VantageId, topology::VantageId>> telescope_cloud_pairs(
    const topology::Deployment& deployment) {
  std::vector<std::pair<topology::VantageId, topology::VantageId>> pairs;
  add_pair_if_present(deployment, pairs, "Orion", "AWS/US-West-HT");
  add_pair_if_present(deployment, pairs, "Orion", "Google/US-West-HT");
  add_pair_if_present(deployment, pairs, "Orion", "Google/US-East-HT");
  return pairs;
}

}  // namespace cw::analysis
