// Row-scan oracle: per-record implementations of the paper analyses, kept
// only so the equivalence suites have an independent answer to check the
// shipped code against. Everything here walks the EventStore record by
// record and classifies each record on the spot; nothing reads a frame's
// posting lists, encoded columns or verdict column. src/ answers the same
// questions through CharacteristicTableCache and frame lists.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "analysis/campaigns.h"
#include "analysis/overlap.h"
#include "analysis/protocols.h"
#include "analysis/table_cache.h"
#include "capture/frame.h"
#include "capture/store.h"
#include "stats/freq.h"
#include "topology/deployment.h"

namespace cw::rowscan {

using analysis::Characteristic;
using analysis::TrafficScope;

// True if the record falls inside the scope. HTTP/AllPorts fingerprints the
// record's payload.
bool in_scope(const capture::SessionRecord& record, TrafficScope scope,
              const capture::EventStore& store);

// A selected subset of a store's records, ascending.
struct TrafficSlice {
  const capture::EventStore* store = nullptr;
  std::vector<std::uint32_t> records;
};

TrafficSlice slice_vantage(const capture::EventStore& store, topology::VantageId vantage,
                           TrafficScope scope);
TrafficSlice slice_neighbor(const capture::EventStore& store, topology::VantageId vantage,
                            std::uint16_t neighbor, TrafficScope scope);

// Text tables: AS keys render as "AS<n>"; payloads are normalized HTTP
// (ephemeral fields stripped); records without the value are skipped.
stats::FrequencyTable as_table(const TrafficSlice& slice);
stats::FrequencyTable username_table(const TrafficSlice& slice);
stats::FrequencyTable password_table(const TrafficSlice& slice);
stats::FrequencyTable payload_table(const TrafficSlice& slice);
stats::FrequencyTable characteristic_table(const TrafficSlice& slice,
                                           Characteristic characteristic);

// (malicious, benign) counts by per-record classification.
std::pair<std::uint64_t, std::uint64_t> malicious_counts(
    const TrafficSlice& slice, const analysis::MaliciousClassifier& classifier);

// A table cache that answers every query by the scans above, so each
// comparison driver (analyze_neighborhoods, geo_similarity,
// most_different_region, compare_vantage_pairs) runs unchanged over the
// oracle. `frame` serves deployment metadata only (frame()); the records
// come from its store.
class RowScanTableCache final : public analysis::CharacteristicTableCache {
 public:
  RowScanTableCache(const capture::SessionFrame& frame,
                    const analysis::MaliciousClassifier& classifier)
      : CharacteristicTableCache(classifier), frame_(&frame) {}

  [[nodiscard]] const capture::SessionFrame& frame() const noexcept override { return *frame_; }
  [[nodiscard]] std::size_t record_count(topology::VantageId vantage, TrafficScope scope,
                                         std::uint16_t neighbor = kWholeVantage) const override;
  [[nodiscard]] const stats::FrequencyTable& table(
      topology::VantageId vantage, TrafficScope scope, Characteristic characteristic,
      std::uint16_t neighbor = kWholeVantage) const override;
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> malicious(
      topology::VantageId vantage, TrafficScope scope,
      std::uint16_t neighbor = kWholeVantage) const override;
  [[nodiscard]] std::size_t tables_built() const override;

 private:
  [[nodiscard]] TrafficSlice slice(topology::VantageId vantage, TrafficScope scope,
                                   std::uint16_t neighbor) const;

  const capture::SessionFrame* frame_;
  mutable std::mutex mutex_;  // guards tables_; builds run under it
  mutable std::map<std::uint64_t, stats::FrequencyTable> tables_;
};

// Tables 8/9 over every record of the store.
std::vector<analysis::OverlapRow> scanner_overlap(
    const capture::EventStore& store, const topology::Deployment& deployment,
    const std::vector<net::Port>& ports, const std::vector<capture::ActorId>& exclude_actors = {});
std::vector<analysis::MaliciousOverlapRow> attacker_overlap(
    const capture::EventStore& store, const topology::Deployment& deployment,
    const analysis::MaliciousClassifier& classifier, const std::vector<net::Port>& ports,
    const std::vector<capture::ActorId>& exclude_actors = {});

// Tables 11/17, fingerprinting each first payload.
std::vector<analysis::ProtocolBreakdownRow> protocol_breakdown(
    const capture::EventStore& store, const topology::Deployment& deployment,
    const analysis::ProtocolOptions& options);

// Figure 1's per-address unique-scanner counts.
std::vector<double> telescope_address_counts(const capture::EventStore& store,
                                             const topology::Deployment& deployment,
                                             net::Port port);

// Campaign inference and its ground-truth validation, normalizing every
// record's payload on the spot.
std::vector<analysis::InferredCampaign> infer_campaigns(
    const capture::EventStore& store, const analysis::CampaignInferenceOptions& options = {});
analysis::CampaignValidation validate_campaigns(
    const capture::EventStore& store, const std::vector<analysis::InferredCampaign>& campaigns,
    const analysis::CampaignInferenceOptions& options = {});

// A frame over a hand-built store. With a classifier, the verdict column is
// wired to it the way core::ExperimentResult::frame wires the run's own.
capture::SessionFrame frame_of(const capture::EventStore& store,
                               const topology::Deployment& deployment,
                               const analysis::MaliciousClassifier* classifier = nullptr);

}  // namespace cw::rowscan
