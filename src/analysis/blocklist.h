// Blocklist efficacy — the future-work item Section 8 poses: "We leave to
// future work comparing the efficacy of blocklists that source information
// from different regions." A blocklist is built from the measured-malicious
// source IPs observed at one group of vantage points and evaluated against
// another group: what fraction of the target group's attacker IPs (and
// malicious traffic volume) would the shared list have covered?
#pragma once

#include <string>
#include <vector>

#include "capture/frame.h"
#include "topology/deployment.h"

namespace cw::analysis {

struct BlocklistEvaluation {
  std::string source_group;
  std::string target_group;
  std::size_t blocklist_size = 0;        // unique malicious IPs at the source
  std::size_t target_attacker_ips = 0;   // unique malicious IPs at the target
  std::size_t covered_ips = 0;           // target attacker IPs on the list
  std::uint64_t target_malicious_events = 0;
  std::uint64_t blocked_events = 0;      // malicious events from listed IPs

  [[nodiscard]] double ip_coverage() const {
    return target_attacker_ips == 0
               ? 0.0
               : static_cast<double>(covered_ips) / static_cast<double>(target_attacker_ips);
  }
  [[nodiscard]] double event_coverage() const {
    return target_malicious_events == 0
               ? 0.0
               : static_cast<double>(blocked_events) /
                     static_cast<double>(target_malicious_events);
  }
};

// Builds the list from `source` vantage points and evaluates it against
// `target` vantage points (which may overlap; self-evaluation yields 100%).
// Reads the precomputed verdict column: the frame must have been built with
// a verdict function; throws std::logic_error otherwise.
BlocklistEvaluation evaluate_blocklist(const capture::SessionFrame& frame,
                                       const std::vector<topology::VantageId>& source,
                                       const std::vector<topology::VantageId>& target,
                                       std::string source_label, std::string target_label);

// The regional matrix the paper's recommendation asks about: GreyNoise
// cloud vantage points grouped by continent (US / EU / AP), every source
// group evaluated against every target group.
std::vector<BlocklistEvaluation> regional_blocklist_matrix(const capture::SessionFrame& frame);

}  // namespace cw::analysis
