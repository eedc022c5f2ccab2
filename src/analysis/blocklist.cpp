#include "analysis/blocklist.h"

#include <map>
#include <stdexcept>
#include <unordered_set>

namespace cw::analysis {

BlocklistEvaluation evaluate_blocklist(const capture::SessionFrame& frame,
                                       const std::vector<topology::VantageId>& source,
                                       const std::vector<topology::VantageId>& target,
                                       std::string source_label, std::string target_label) {
  if (!frame.has_verdicts()) {
    throw std::logic_error("evaluate_blocklist: frame built without a verdict column");
  }
  BlocklistEvaluation evaluation;
  evaluation.source_group = std::move(source_label);
  evaluation.target_group = std::move(target_label);

  std::unordered_set<std::uint32_t> blocklist;
  for (const topology::VantageId id : source) {
    for (const std::uint32_t index : frame.for_vantage(id)) {
      if (frame.verdict(index) == capture::SessionFrame::Verdict::kMalicious) {
        blocklist.insert(frame.src(index));
      }
    }
  }
  evaluation.blocklist_size = blocklist.size();

  std::unordered_set<std::uint32_t> target_attackers;
  for (const topology::VantageId id : target) {
    for (const std::uint32_t index : frame.for_vantage(id)) {
      if (frame.verdict(index) != capture::SessionFrame::Verdict::kMalicious) continue;
      target_attackers.insert(frame.src(index));
      ++evaluation.target_malicious_events;
      if (blocklist.contains(frame.src(index))) ++evaluation.blocked_events;
    }
  }
  evaluation.target_attacker_ips = target_attackers.size();
  for (const std::uint32_t ip : target_attackers) {
    if (blocklist.contains(ip)) ++evaluation.covered_ips;
  }
  return evaluation;
}

namespace {

// GreyNoise cloud vantage points grouped by continent.
std::map<std::string, std::vector<topology::VantageId>> regional_groups(
    const topology::Deployment& deployment) {
  std::map<std::string, std::vector<topology::VantageId>> groups;
  for (const topology::VantagePoint& vp : deployment.vantage_points()) {
    if (vp.collection != topology::CollectionMethod::kGreyNoise) continue;
    switch (vp.region.continent) {
      case net::Continent::kNorthAmerica: groups["US"].push_back(vp.id); break;
      case net::Continent::kEurope: groups["EU"].push_back(vp.id); break;
      case net::Continent::kAsiaPacific: groups["AP"].push_back(vp.id); break;
      default: break;  // BR/BH/ZA singletons are too small to form a group
    }
  }
  return groups;
}

}  // namespace

std::vector<BlocklistEvaluation> regional_blocklist_matrix(const capture::SessionFrame& frame) {
  const auto groups = regional_groups(frame.deployment());
  std::vector<BlocklistEvaluation> matrix;
  for (const auto& [source_label, source_ids] : groups) {
    for (const auto& [target_label, target_ids] : groups) {
      matrix.push_back(
          evaluate_blocklist(frame, source_ids, target_ids, source_label, target_label));
    }
  }
  return matrix;
}

}  // namespace cw::analysis
