#include "analysis/table_cache.h"

#include <cassert>
#include <stdexcept>


namespace cw::analysis {

namespace {

capture::CodedColumn coded_column_for(Characteristic characteristic) {
  switch (characteristic) {
    case Characteristic::kTopAs: return capture::CodedColumn::kAs;
    case Characteristic::kTopUsername: return capture::CodedColumn::kUsername;
    case Characteristic::kTopPassword: return capture::CodedColumn::kPassword;
    case Characteristic::kTopPayload: return capture::CodedColumn::kPayload;
    case Characteristic::kFracMalicious: break;
  }
  throw std::invalid_argument("build_characteristic_table: kFracMalicious has no table");
}

}  // namespace

stats::FrequencyTable build_characteristic_table(const capture::SessionFrame& frame,
                                                 const util::PostingView& records,
                                                 Characteristic characteristic) {
  const capture::CodedColumn column = coded_column_for(characteristic);
  return stats::FrequencyTable::from_codes(frame.codes(column), records, frame.dict(column));
}

template <typename Entry>
Entry& CharacteristicTableCache::entry(
    std::unordered_map<std::uint64_t, std::unique_ptr<Entry>>& map, std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Entry>& slot = map[key];
  if (slot == nullptr) slot = std::make_unique<Entry>();
  return *slot;
}

util::PostingView CharacteristicTableCache::records_for(topology::VantageId vantage,
                                                        std::uint16_t neighbor,
                                                        TrafficScope scope) const {
  // Whole-vantage slices for port-named scopes and Any/All are exactly a
  // frame posting list; view it instead of copying (the kAnyAll telescope
  // list is ~every record).
  if (neighbor == kWholeVantage) {
    if (const auto port = scope_port(scope)) {
      return util::PostingView(frame_->for_vantage_port(vantage, *port));
    }
    if (scope == TrafficScope::kAnyAll) return util::PostingView(frame_->for_vantage(vantage));
  }
  SliceEntry& slice =
      entry(slices_, pack(vantage, neighbor, scope, Characteristic::kTopAs));
  std::call_once(slice.once, [&] {
    // HTTP/AllPorts filters by the protocol column; a neighbor slice walks
    // the narrowest posting list that covers its scope.
    const auto port = scope_port(scope);
    const util::PostingView candidates =
        port ? util::PostingView(frame_->for_vantage_port(vantage, *port))
             : util::PostingView(frame_->for_vantage(vantage));
    candidates.for_each([&](std::uint32_t index) {
      if (neighbor != kWholeVantage && frame_->neighbor(index) != neighbor) return;
      if (port || in_scope(*frame_, index, scope)) slice.owned.push_back(index);
    });
    slice.records = util::PostingView(slice.owned);
  });
  return slice.records;
}

std::size_t CharacteristicTableCache::record_count(topology::VantageId vantage, TrafficScope scope,
                                                   std::uint16_t neighbor) const {
  return records_for(vantage, neighbor, scope).size();
}

const stats::FrequencyTable& CharacteristicTableCache::table(topology::VantageId vantage,
                                                             TrafficScope scope,
                                                             Characteristic characteristic,
                                                             std::uint16_t neighbor) const {
  TableEntry& cached = entry(tables_, pack(vantage, neighbor, scope, characteristic));
  std::call_once(cached.once, [&] {
    cached.table = build_characteristic_table(*frame_, records_for(vantage, neighbor, scope),
                                              characteristic);
  });
  return cached.table;
}

std::pair<std::uint64_t, std::uint64_t> CharacteristicTableCache::malicious(
    topology::VantageId vantage, TrafficScope scope, std::uint16_t neighbor) const {
  BinaryEntry& cached =
      entry(binaries_, pack(vantage, neighbor, scope, Characteristic::kFracMalicious));
  std::call_once(cached.once, [&] {
    // The verdict column when present, per-record classification otherwise.
    cached.counts = classifier_->count(*frame_, records_for(vantage, neighbor, scope));
  });
  return cached.counts;
}

std::size_t CharacteristicTableCache::tables_built() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tables_.size();
}

// --- SegmentedTableCache ----------------------------------------------------

SegmentedTableCache::SegmentedTableCache(const MaliciousClassifier& classifier)
    : CharacteristicTableCache(classifier) {}

SegmentedTableCache::~SegmentedTableCache() = default;

class SegmentedTableCache::PageGuard {
 public:
  PageGuard(const SegmentPager& pager, std::size_t segment) : pager_(pager), segment_(segment) {
    if (pager_) pager_(segment_, true);
  }
  ~PageGuard() {
    if (pager_) pager_(segment_, false);
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

 private:
  const SegmentPager& pager_;
  std::size_t segment_;
};

void SegmentedTableCache::add_segment(const capture::SessionFrame& segment_frame) {
  segments_.push_back(
      std::make_unique<CharacteristicTableCache>(segment_frame, classifier()));
  // Merged memos describe the previous epoch's corpus; drop them. The
  // per-segment partials inside segments_ survive, which is the whole point:
  // the next table() call rebuilds only the new segment's partial.
  const std::lock_guard<std::mutex> lock(merged_mutex_);
  merged_tables_.clear();
  merged_counts_.clear();
}

const capture::SessionFrame& SegmentedTableCache::frame() const noexcept {
  assert(!segments_.empty() && "SegmentedTableCache::frame() before the first segment");
  return segments_.front()->frame();
}

template <typename Entry>
Entry& SegmentedTableCache::merged_entry(
    std::unordered_map<std::uint64_t, std::unique_ptr<Entry>>& map, std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(merged_mutex_);
  std::unique_ptr<Entry>& slot = map[key];
  if (slot == nullptr) slot = std::make_unique<Entry>();
  return *slot;
}

std::size_t SegmentedTableCache::record_count(topology::VantageId vantage, TrafficScope scope,
                                              std::uint16_t neighbor) const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const PageGuard guard(pager_, i);
    total += segments_[i]->record_count(vantage, scope, neighbor);
  }
  return total;
}

const stats::FrequencyTable& SegmentedTableCache::table(topology::VantageId vantage,
                                                        TrafficScope scope,
                                                        Characteristic characteristic,
                                                        std::uint16_t neighbor) const {
  MergedTable& cached = merged_entry(merged_tables_, pack(vantage, neighbor, scope, characteristic));
  std::call_once(cached.once, [&] {
    // Per-segment partials in ascending segment (= epoch, = record) order.
    // Counts are exact, so the merge order cannot perturb the result — it is
    // fixed anyway so the build schedule itself is reproducible.
    for (std::size_t i = 0; i < segments_.size(); ++i) {
      const PageGuard guard(pager_, i);
      cached.table.merge(segments_[i]->table(vantage, scope, characteristic, neighbor));
    }
  });
  return cached.table;
}

std::pair<std::uint64_t, std::uint64_t> SegmentedTableCache::malicious(
    topology::VantageId vantage, TrafficScope scope, std::uint16_t neighbor) const {
  MergedCounts& cached =
      merged_entry(merged_counts_, pack(vantage, neighbor, scope, Characteristic::kFracMalicious));
  std::call_once(cached.once, [&] {
    for (std::size_t i = 0; i < segments_.size(); ++i) {
      const PageGuard guard(pager_, i);
      const auto [malicious_count, benign_count] =
          segments_[i]->malicious(vantage, scope, neighbor);
      cached.counts.first += malicious_count;
      cached.counts.second += benign_count;
    }
  });
  return cached.counts;
}

std::size_t SegmentedTableCache::tables_built() const {
  std::size_t total = segment_tables_built();
  const std::lock_guard<std::mutex> lock(merged_mutex_);
  return total + merged_tables_.size();
}

std::size_t SegmentedTableCache::segment_tables_built() const {
  std::size_t total = 0;
  for (const auto& segment : segments_) total += segment->tables_built();
  return total;
}

}  // namespace cw::analysis
