// Scanning-campaign inference. The telescope literature the paper builds on
// (Torabi et al., Durumeric et al.) groups individual scanning sources into
// coordinated campaigns; our ground truth actually contains such campaigns
// (multi-source actors), so the inference can be validated exactly. A
// campaign is detected as a set of sources that (a) deliver byte-identical
// normalized payloads (or credentials from the same attempt stream) and
// (b) are active within overlapping time windows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capture/frame.h"
#include "util/sim_time.h"

namespace cw::analysis {

struct InferredCampaign {
  std::string signature;               // normalized payload (or credential) key
  std::vector<std::uint32_t> sources;  // unique source addresses, sorted
  std::uint64_t events = 0;
  util::SimTime first_seen = 0;
  util::SimTime last_seen = 0;
  net::Port dominant_port = 0;
};

struct CampaignInferenceOptions {
  // Minimum sources for a signature to count as a coordinated campaign
  // (singleton sources are just individual scanners).
  std::size_t min_sources = 3;
  // Maximum quiet gap between consecutive events before the signature is
  // split into separate campaigns.
  util::SimDuration max_gap = 2 * util::kDay;
};

// Clusters a batch frame's payload-bearing records into campaigns,
// normalizing each *distinct* payload once (signature memoized by the
// store's interner id). Records without a payload (telescope data) are
// ignored — inference on telescopes requires payloads, one of the paper's
// core points. Reads the frame's store, so the frame must be hot.
std::vector<InferredCampaign> infer_campaigns(const capture::SessionFrame& frame,
                                              const CampaignInferenceOptions& options = {});

// Validation against ground truth: fraction of inferred campaigns whose
// sources all belong to a single true actor ("pure" clusters), and the
// fraction of multi-source true actors recovered by some inferred campaign.
struct CampaignValidation {
  std::size_t inferred = 0;
  std::size_t pure = 0;             // all sources from one actor
  std::size_t true_campaigns = 0;   // actors with >= min_sources active sources
  std::size_t recovered = 0;        // true campaigns matched by a pure cluster

  [[nodiscard]] double purity() const {
    return inferred == 0 ? 0.0 : static_cast<double>(pure) / static_cast<double>(inferred);
  }
  [[nodiscard]] double recall() const {
    return true_campaigns == 0
               ? 0.0
               : static_cast<double>(recovered) / static_cast<double>(true_campaigns);
  }
};

CampaignValidation validate_campaigns(const capture::SessionFrame& frame,
                                      const std::vector<InferredCampaign>& campaigns,
                                      const CampaignInferenceOptions& options = {});

}  // namespace cw::analysis
