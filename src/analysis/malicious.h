// Section 3.2's maliciousness measurement: a captured session is malicious
// when it (1) attempts to log in / bypass authentication, or (2) alters the
// state of the service — the latter detected by the curated Suricata-subset
// rule set. The classifier sees only what the collection method retained:
// telescope records (no payload, no credentials) can never be classified,
// which is precisely the measurement blind spot the paper discusses.
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <unordered_map>

#include "capture/frame.h"
#include "capture/store.h"
#include "ids/engine.h"

namespace cw::analysis {

enum class MeasuredIntent : std::uint8_t {
  kBenign = 0,     // payload observed, nothing fired
  kMalicious,      // credential attempt or IDS alert
  kUnobservable,   // no payload/credential retained (telescope, SYN-only)
};

class MaliciousClassifier {
 public:
  // The engine is borrowed and must outlive the classifier.
  explicit MaliciousClassifier(const ids::RuleEngine& engine) : engine_(&engine) {}

  // Classifies one record against the store it came from. Verdicts for
  // (payload, port, transport) triples are memoized — campaign payloads
  // repeat millions of times. The memo key includes the store's uid: payload
  // ids are store-local, and one classifier serves many stores in stream
  // mode (one per sealed segment), so a key without the store identity
  // would alias unrelated payloads. Safe to call from concurrent analysis
  // threads; the memo table is guarded by a reader/writer lock.
  MeasuredIntent classify(const capture::SessionRecord& record,
                          const capture::EventStore& store) const;

  // Convenience: (malicious, benign) counts over a set of record indices
  // (a plain ascending vector or a packed frame posting list, via
  // util::PostingView); unobservable records are excluded from both.
  std::pair<std::uint64_t, std::uint64_t> count(const capture::EventStore& store,
                                                const util::PostingView& indices) const;

  // Frame variant: reads the precomputed verdict column when present and
  // falls back to per-record classification otherwise.
  std::pair<std::uint64_t, std::uint64_t> count(const capture::SessionFrame& frame,
                                                const util::PostingView& indices) const;

 private:
  // Key: (store uid, payload id, port, transport bit).
  struct VerdictKey {
    std::uint64_t store_uid;
    std::uint64_t payload_port;
    bool operator==(const VerdictKey& other) const noexcept {
      return store_uid == other.store_uid && payload_port == other.payload_port;
    }
  };
  struct VerdictKeyHash {
    std::size_t operator()(const VerdictKey& key) const noexcept {
      // splitmix-style mix of the two words.
      std::uint64_t h = key.store_uid * 0x9e3779b97f4a7c15ULL ^ key.payload_port;
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 27;
      return static_cast<std::size_t>(h);
    }
  };

  const ids::RuleEngine* engine_;
  mutable std::shared_mutex cache_mutex_;
  mutable std::unordered_map<VerdictKey, bool, VerdictKeyHash> verdict_cache_;
};

// The classifier as a frame's verdict column over `store`: the one mapping
// of MeasuredIntent onto SessionFrame::Verdict, shared by the batch frame,
// every sealed segment and the test oracle. Pure in (credential presence,
// payload id, port, transport), so builds may set verdict_pure. Borrows both
// arguments.
capture::SessionFrame::VerdictFn frame_verdict(const MaliciousClassifier& classifier,
                                               const capture::EventStore& store);

}  // namespace cw::analysis
