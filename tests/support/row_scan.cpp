#include "support/row_scan.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "proto/fingerprint.h"
#include "proto/http.h"

namespace cw::rowscan {

bool in_scope(const capture::SessionRecord& record, TrafficScope scope,
              const capture::EventStore& store) {
  switch (scope) {
    case TrafficScope::kSsh22: return record.port == 22;
    case TrafficScope::kTelnet23: return record.port == 23;
    case TrafficScope::kHttp80: return record.port == 80;
    case TrafficScope::kHttpAllPorts: {
      if (record.payload_id == capture::kNoPayload) return false;
      return proto::Fingerprinter::identify(store.payload(record.payload_id)) ==
             net::Protocol::kHttp;
    }
    case TrafficScope::kAnyAll: return true;
  }
  return false;
}

TrafficSlice slice_vantage(const capture::EventStore& store, topology::VantageId vantage,
                           TrafficScope scope) {
  TrafficSlice slice;
  slice.store = &store;
  for (std::uint32_t index : store.for_vantage(vantage)) {
    if (in_scope(store.records()[index], scope, store)) slice.records.push_back(index);
  }
  return slice;
}

TrafficSlice slice_neighbor(const capture::EventStore& store, topology::VantageId vantage,
                            std::uint16_t neighbor, TrafficScope scope) {
  TrafficSlice slice;
  slice.store = &store;
  for (std::uint32_t index : store.for_vantage(vantage)) {
    const capture::SessionRecord& record = store.records()[index];
    if (record.neighbor != neighbor) continue;
    if (in_scope(record, scope, store)) slice.records.push_back(index);
  }
  return slice;
}

stats::FrequencyTable as_table(const TrafficSlice& slice) {
  stats::FrequencyTable table;
  for (std::uint32_t index : slice.records) {
    table.add("AS" + std::to_string(slice.store->records()[index].src_as));
  }
  return table;
}

stats::FrequencyTable username_table(const TrafficSlice& slice) {
  stats::FrequencyTable table;
  for (std::uint32_t index : slice.records) {
    const capture::SessionRecord& record = slice.store->records()[index];
    if (record.credential_id == capture::kNoCredential) continue;
    table.add(slice.store->credential(record.credential_id).username);
  }
  return table;
}

stats::FrequencyTable password_table(const TrafficSlice& slice) {
  stats::FrequencyTable table;
  for (std::uint32_t index : slice.records) {
    const capture::SessionRecord& record = slice.store->records()[index];
    if (record.credential_id == capture::kNoCredential) continue;
    table.add(slice.store->credential(record.credential_id).password);
  }
  return table;
}

stats::FrequencyTable payload_table(const TrafficSlice& slice) {
  stats::FrequencyTable table;
  for (std::uint32_t index : slice.records) {
    const capture::SessionRecord& record = slice.store->records()[index];
    if (record.payload_id == capture::kNoPayload) continue;
    table.add(proto::normalize_http_payload(slice.store->payload(record.payload_id)));
  }
  return table;
}

stats::FrequencyTable characteristic_table(const TrafficSlice& slice,
                                           Characteristic characteristic) {
  switch (characteristic) {
    case Characteristic::kTopAs: return as_table(slice);
    case Characteristic::kTopUsername: return username_table(slice);
    case Characteristic::kTopPassword: return password_table(slice);
    case Characteristic::kTopPayload: return payload_table(slice);
    case Characteristic::kFracMalicious: break;
  }
  throw std::invalid_argument("characteristic_table: kFracMalicious has no table");
}

std::pair<std::uint64_t, std::uint64_t> malicious_counts(
    const TrafficSlice& slice, const analysis::MaliciousClassifier& classifier) {
  return classifier.count(*slice.store, slice.records);
}

// --- RowScanTableCache -------------------------------------------------------

TrafficSlice RowScanTableCache::slice(topology::VantageId vantage, TrafficScope scope,
                                      std::uint16_t neighbor) const {
  return neighbor == kWholeVantage ? slice_vantage(frame_->store(), vantage, scope)
                                   : slice_neighbor(frame_->store(), vantage, neighbor, scope);
}

std::size_t RowScanTableCache::record_count(topology::VantageId vantage, TrafficScope scope,
                                            std::uint16_t neighbor) const {
  return slice(vantage, scope, neighbor).records.size();
}

const stats::FrequencyTable& RowScanTableCache::table(topology::VantageId vantage,
                                                      TrafficScope scope,
                                                      Characteristic characteristic,
                                                      std::uint16_t neighbor) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t key = pack(vantage, neighbor, scope, characteristic);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    it = tables_
             .emplace(key, characteristic_table(slice(vantage, scope, neighbor), characteristic))
             .first;
  }
  return it->second;
}

std::pair<std::uint64_t, std::uint64_t> RowScanTableCache::malicious(
    topology::VantageId vantage, TrafficScope scope, std::uint16_t neighbor) const {
  return malicious_counts(slice(vantage, scope, neighbor), classifier());
}

std::size_t RowScanTableCache::tables_built() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tables_.size();
}

// --- Tables 8/9 --------------------------------------------------------------

std::vector<analysis::OverlapRow> scanner_overlap(
    const capture::EventStore& store, const topology::Deployment& deployment,
    const std::vector<net::Port>& ports, const std::vector<capture::ActorId>& exclude_actors) {
  const std::unordered_set<capture::ActorId> excluded(exclude_actors.begin(),
                                                      exclude_actors.end());
  // One pass: per (port, network type) source sets.
  analysis::PortSets cloud;
  analysis::PortSets edu;
  analysis::PortSets telescope;
  std::unordered_set<net::Port> wanted(ports.begin(), ports.end());

  for (const capture::SessionRecord& record : store.records()) {
    if (!wanted.contains(record.port)) continue;
    if (excluded.contains(record.actor)) continue;
    switch (deployment.at(record.vantage).type) {
      case topology::NetworkType::kCloud: cloud[record.port].insert(record.src); break;
      case topology::NetworkType::kEducation: edu[record.port].insert(record.src); break;
      case topology::NetworkType::kTelescope: telescope[record.port].insert(record.src); break;
    }
  }
  return analysis::scanner_rows(ports, cloud, edu, telescope);
}

std::vector<analysis::MaliciousOverlapRow> attacker_overlap(
    const capture::EventStore& store, const topology::Deployment& deployment,
    const analysis::MaliciousClassifier& classifier, const std::vector<net::Port>& ports,
    const std::vector<capture::ActorId>& exclude_actors) {
  const std::unordered_set<capture::ActorId> excluded(exclude_actors.begin(),
                                                      exclude_actors.end());
  analysis::PortSets malicious_cloud;
  analysis::PortSets malicious_edu;
  analysis::PortSets telescope;
  // Whether any cloud/EDU vantage could measure intent on this port at all;
  // if not, the table cell is an "x".
  analysis::PortFlags cloud_measurable;
  analysis::PortFlags edu_measurable;
  std::unordered_set<net::Port> wanted(ports.begin(), ports.end());

  for (const capture::SessionRecord& record : store.records()) {
    if (!wanted.contains(record.port)) continue;
    if (excluded.contains(record.actor)) continue;
    const topology::NetworkType type = deployment.at(record.vantage).type;
    if (type == topology::NetworkType::kTelescope) {
      telescope[record.port].insert(record.src);
      continue;
    }
    const analysis::MeasuredIntent intent = classifier.classify(record, store);
    const bool observable = intent != analysis::MeasuredIntent::kUnobservable;
    if (type == topology::NetworkType::kCloud) {
      cloud_measurable[record.port] = cloud_measurable[record.port] || observable;
      if (intent == analysis::MeasuredIntent::kMalicious) {
        malicious_cloud[record.port].insert(record.src);
      }
    } else {
      edu_measurable[record.port] = edu_measurable[record.port] || observable;
      if (intent == analysis::MeasuredIntent::kMalicious) {
        malicious_edu[record.port].insert(record.src);
      }
    }
  }
  return analysis::attacker_rows(ports, malicious_cloud, malicious_edu, telescope,
                                 cloud_measurable, edu_measurable);
}

// --- Tables 11/17 ------------------------------------------------------------

std::vector<analysis::ProtocolBreakdownRow> protocol_breakdown(
    const capture::EventStore& store, const topology::Deployment& deployment,
    const analysis::ProtocolOptions& options) {
  std::unordered_set<net::Port> wanted(options.ports.begin(), options.ports.end());
  analysis::ScannerMap scanners;
  for (const capture::SessionRecord& record : store.records()) {
    if (!wanted.contains(record.port)) continue;
    if (record.payload_id == capture::kNoPayload) continue;
    // Honeytrap only: the assigned-handshake honeypots cannot capture
    // unexpected protocols, so including them would dilute the shares.
    if (deployment.at(record.vantage).collection != topology::CollectionMethod::kHoneytrap) {
      continue;
    }
    const auto key = std::make_pair(record.port, record.src);
    if (scanners.contains(key)) continue;  // first payload wins
    analysis::ScannerInfo info;
    info.protocol = proto::Fingerprinter::identify(store.payload(record.payload_id));
    info.actor = record.actor;
    scanners.emplace(key, info);
  }
  return analysis::breakdown_rows(scanners, options);
}

// --- Figure 1 ----------------------------------------------------------------

std::vector<double> telescope_address_counts(const capture::EventStore& store,
                                             const topology::Deployment& deployment,
                                             net::Port port) {
  // Locate the telescope vantage point (there is at most one per scenario).
  const topology::VantagePoint* telescope = nullptr;
  for (const topology::VantagePoint& vp : deployment.vantage_points()) {
    if (vp.type == topology::NetworkType::kTelescope) {
      telescope = &vp;
      break;
    }
  }
  if (telescope == nullptr || telescope->addresses.empty()) return {};

  // Unique (dst, src) pairs per destination, via sort-and-dedup to keep the
  // memory proportional to the record subset.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hits;  // (neighbor, src)
  for (std::uint32_t index : store.for_vantage(telescope->id)) {
    const capture::SessionRecord& record = store.records()[index];
    if (record.port != port) continue;
    hits.emplace_back(record.neighbor, record.src);
  }
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());

  std::vector<double> counts(telescope->addresses.size(), 0.0);
  for (const auto& [neighbor, src] : hits) {
    if (neighbor < counts.size()) counts[neighbor] += 1.0;
  }
  return counts;
}

namespace {

struct Observation {
  util::SimTime time;
  std::uint32_t src;
  net::Port port;
};

}  // namespace

std::vector<analysis::InferredCampaign> infer_campaigns(
    const capture::EventStore& store, const analysis::CampaignInferenceOptions& options) {
  std::unordered_map<std::string, std::vector<Observation>> by_signature;
  for (const capture::SessionRecord& record : store.records()) {
    if (record.payload_id == capture::kNoPayload) continue;
    const std::string signature = proto::normalize_http_payload(store.payload(record.payload_id));
    if (signature.empty()) continue;
    by_signature[signature].push_back({record.time, record.src, record.port});
  }

  std::vector<analysis::InferredCampaign> campaigns;
  for (auto& [signature, observations] : by_signature) {
    std::sort(observations.begin(), observations.end(),
              [](const Observation& a, const Observation& b) { return a.time < b.time; });
    std::size_t start = 0;
    for (std::size_t i = 1; i <= observations.size(); ++i) {
      if (i < observations.size() &&
          observations[i].time - observations[i - 1].time <= options.max_gap) {
        continue;
      }
      std::set<std::uint32_t> sources;
      std::map<net::Port, std::uint64_t> per_port;
      for (std::size_t j = start; j < i; ++j) {
        sources.insert(observations[j].src);
        ++per_port[observations[j].port];
      }
      if (sources.size() >= options.min_sources) {
        analysis::InferredCampaign campaign;
        campaign.signature = signature;
        campaign.sources.assign(sources.begin(), sources.end());
        campaign.events = i - start;
        campaign.first_seen = observations[start].time;
        campaign.last_seen = observations[i - 1].time;
        campaign.dominant_port =
            std::max_element(per_port.begin(), per_port.end(), [](const auto& a, const auto& b) {
              return a.second < b.second;
            })->first;
        campaigns.push_back(std::move(campaign));
      }
      start = i;
    }
  }
  std::sort(campaigns.begin(), campaigns.end(),
            [](const analysis::InferredCampaign& a, const analysis::InferredCampaign& b) {
              if (a.events != b.events) return a.events > b.events;
              return a.signature < b.signature;
            });
  return campaigns;
}

analysis::CampaignValidation validate_campaigns(
    const capture::EventStore& store, const std::vector<analysis::InferredCampaign>& campaigns,
    const analysis::CampaignInferenceOptions& options) {
  analysis::CampaignValidation validation;
  validation.inferred = campaigns.size();
  std::unordered_map<std::uint32_t, capture::ActorId> actor_of;
  std::map<capture::ActorId, std::set<std::uint32_t>> sources_of;
  for (const capture::SessionRecord& record : store.records()) {
    actor_of[record.src] = record.actor;
    sources_of[record.actor].insert(record.src);
  }
  std::set<capture::ActorId> true_campaigns;
  for (const auto& [actor, sources] : sources_of) {
    if (sources.size() >= options.min_sources) true_campaigns.insert(actor);
  }
  validation.true_campaigns = true_campaigns.size();
  std::set<capture::ActorId> recovered;
  for (const analysis::InferredCampaign& campaign : campaigns) {
    std::set<capture::ActorId> actors;
    for (const std::uint32_t src : campaign.sources) {
      const auto it = actor_of.find(src);
      if (it != actor_of.end()) actors.insert(it->second);
    }
    if (actors.size() != 1) continue;
    ++validation.pure;
    if (true_campaigns.contains(*actors.begin())) recovered.insert(*actors.begin());
  }
  validation.recovered = recovered.size();
  return validation;
}

capture::SessionFrame frame_of(const capture::EventStore& store,
                               const topology::Deployment& deployment,
                               const analysis::MaliciousClassifier* classifier) {
  capture::SessionFrame::BuildOptions options;
  if (classifier != nullptr) {
    options.verdict = analysis::frame_verdict(*classifier, store);
  }
  return capture::SessionFrame::build(store, deployment, std::move(options));
}

}  // namespace cw::rowscan
