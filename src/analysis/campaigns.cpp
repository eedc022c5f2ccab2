#include "analysis/campaigns.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "proto/http.h"

namespace cw::analysis {
namespace {

// Signature -> time-ordered (time, src, port) observations.
struct Observation {
  util::SimTime time;
  std::uint32_t src;
  net::Port port;
};
using SignatureMap = std::unordered_map<std::string, std::vector<Observation>>;

std::vector<InferredCampaign> segment_campaigns(SignatureMap& by_signature,
                                                const CampaignInferenceOptions& options) {
  std::vector<InferredCampaign> campaigns;
  for (auto& [signature, observations] : by_signature) {
    std::sort(observations.begin(), observations.end(),
              [](const Observation& a, const Observation& b) { return a.time < b.time; });

    // Split on quiet gaps, then keep segments with enough distinct sources.
    std::size_t segment_start = 0;
    for (std::size_t i = 1; i <= observations.size(); ++i) {
      const bool gap = i == observations.size() ||
                       observations[i].time - observations[i - 1].time > options.max_gap;
      if (!gap) continue;

      std::set<std::uint32_t> sources;
      std::map<net::Port, std::uint64_t> per_port;
      for (std::size_t j = segment_start; j < i; ++j) {
        sources.insert(observations[j].src);
        ++per_port[observations[j].port];
      }
      if (sources.size() >= options.min_sources) {
        InferredCampaign campaign;
        campaign.signature = signature;
        campaign.sources.assign(sources.begin(), sources.end());
        campaign.events = i - segment_start;
        campaign.first_seen = observations[segment_start].time;
        campaign.last_seen = observations[i - 1].time;
        campaign.dominant_port =
            std::max_element(per_port.begin(), per_port.end(), [](const auto& a, const auto& b) {
              return a.second < b.second;
            })->first;
        campaigns.push_back(std::move(campaign));
      }
      segment_start = i;
    }
  }

  std::sort(campaigns.begin(), campaigns.end(),
            [](const InferredCampaign& a, const InferredCampaign& b) {
              if (a.events != b.events) return a.events > b.events;
              return a.signature < b.signature;
            });
  return campaigns;
}

}  // namespace

std::vector<InferredCampaign> infer_campaigns(const capture::SessionFrame& frame,
                                              const CampaignInferenceOptions& options) {
  // Memoize the normalized signature per distinct payload (interner ids are
  // dense). The records are walked in store order, so the signature map sees
  // the key sequence of a per-record scan — unordered_map iteration order,
  // and hence the pre-sort campaign order, match the row-scan oracle's.
  const capture::EventStore& store = frame.store();
  std::vector<std::string> signature_cache(store.distinct_payloads());
  std::vector<bool> cached(store.distinct_payloads(), false);
  SignatureMap by_signature;
  const std::uint32_t n = static_cast<std::uint32_t>(frame.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!frame.has_payload(i)) continue;
    const std::uint32_t payload_id = frame.record(i).payload_id;  // store-local
    if (!cached[payload_id]) {
      signature_cache[payload_id] = proto::normalize_http_payload(store.payload(payload_id));
      cached[payload_id] = true;
    }
    const std::string& signature = signature_cache[payload_id];
    if (signature.empty()) continue;
    by_signature[signature].push_back({frame.time(i), frame.src(i), frame.port(i)});
  }
  return segment_campaigns(by_signature, options);
}

CampaignValidation validate_campaigns(const capture::SessionFrame& frame,
                                      const std::vector<InferredCampaign>& campaigns,
                                      const CampaignInferenceOptions& options) {
  CampaignValidation validation;
  validation.inferred = campaigns.size();

  // Ground truth from the src/actor columns; last write wins in record
  // order.
  std::unordered_map<std::uint32_t, capture::ActorId> actor_of;
  std::unordered_map<capture::ActorId, std::set<std::uint32_t>> sources_of;
  const std::uint32_t n = static_cast<std::uint32_t>(frame.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    actor_of[frame.src(i)] = frame.actor(i);
    sources_of[frame.actor(i)].insert(frame.src(i));
  }
  std::set<capture::ActorId> true_campaigns;
  for (const auto& [actor, sources] : sources_of) {
    if (sources.size() >= options.min_sources) true_campaigns.insert(actor);
  }
  validation.true_campaigns = true_campaigns.size();

  std::set<capture::ActorId> recovered;
  for (const InferredCampaign& campaign : campaigns) {
    std::set<capture::ActorId> actors;
    for (const std::uint32_t src : campaign.sources) {
      auto it = actor_of.find(src);
      if (it != actor_of.end()) actors.insert(it->second);
    }
    if (actors.size() == 1) {
      ++validation.pure;
      if (true_campaigns.contains(*actors.begin())) recovered.insert(*actors.begin());
    }
  }
  validation.recovered = recovered.size();
  return validation;
}

}  // namespace cw::analysis
