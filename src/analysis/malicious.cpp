#include "analysis/malicious.h"

namespace cw::analysis {

MeasuredIntent MaliciousClassifier::classify(const capture::SessionRecord& record,
                                             const capture::EventStore& store) const {
  // Rule (1): an attempted login is an authentication bypass attempt.
  if (record.credential_id != capture::kNoCredential) return MeasuredIntent::kMalicious;

  if (record.payload_id == capture::kNoPayload) return MeasuredIntent::kUnobservable;

  const VerdictKey key{store.uid(),
                       (static_cast<std::uint64_t>(record.payload_id) << 17) |
                           (static_cast<std::uint64_t>(record.port) << 1) |
                           (record.transport == net::Transport::kUdp ? 1u : 0u)};
  {
    std::shared_lock<std::shared_mutex> lock(cache_mutex_);
    auto it = verdict_cache_.find(key);
    if (it != verdict_cache_.end()) {
      return it->second ? MeasuredIntent::kMalicious : MeasuredIntent::kBenign;
    }
  }
  // Match outside the lock: the rule engine is immutable and the verdict for
  // a key is deterministic, so a racing duplicate insert is harmless.
  const bool fired =
      engine_->matches(store.payload(record.payload_id), record.port, record.transport);
  {
    std::unique_lock<std::shared_mutex> lock(cache_mutex_);
    verdict_cache_.emplace(key, fired);
  }
  return fired ? MeasuredIntent::kMalicious : MeasuredIntent::kBenign;
}

std::pair<std::uint64_t, std::uint64_t> MaliciousClassifier::count(
    const capture::EventStore& store, const util::PostingView& indices) const {
  std::uint64_t malicious = 0;
  std::uint64_t benign = 0;
  indices.for_each([&](std::uint32_t index) {
    switch (classify(store.records()[index], store)) {
      case MeasuredIntent::kMalicious: ++malicious; break;
      case MeasuredIntent::kBenign: ++benign; break;
      case MeasuredIntent::kUnobservable: break;
    }
  });
  return {malicious, benign};
}

std::pair<std::uint64_t, std::uint64_t> MaliciousClassifier::count(
    const capture::SessionFrame& frame, const util::PostingView& indices) const {
  if (frame.has_verdicts()) return frame.count_verdicts(indices);
  return count(frame.store(), indices);
}

capture::SessionFrame::VerdictFn frame_verdict(const MaliciousClassifier& classifier,
                                               const capture::EventStore& store) {
  return [&classifier, &store](const capture::SessionRecord& record) {
    switch (classifier.classify(record, store)) {
      case MeasuredIntent::kMalicious: return capture::SessionFrame::Verdict::kMalicious;
      case MeasuredIntent::kBenign: return capture::SessionFrame::Verdict::kBenign;
      case MeasuredIntent::kUnobservable: break;
    }
    return capture::SessionFrame::Verdict::kUnobservable;
  };
}

}  // namespace cw::analysis
