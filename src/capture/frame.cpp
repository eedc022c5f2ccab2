#include "capture/frame.h"

#include <algorithm>
#include <limits>
#include <string>

#include "proto/fingerprint.h"
#include "proto/http.h"
#include "runner/thread_pool.h"

namespace cw::capture {
namespace {

// Shard granularity for the column fill. parallel_for submits one task per
// index, so the build fans out over contiguous chunks, not records.
constexpr std::size_t kChunk = 64 * 1024;

// Runs fn over [0, n) in contiguous chunks, on the pool when present.
template <typename Fn>
void for_chunks(runner::ThreadPool* pool, std::size_t n, Fn fn) {
  if (n == 0) return;
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  auto run_chunk = [&](std::size_t chunk) {
    const std::size_t begin = chunk * kChunk;
    const std::size_t end = std::min(begin + kChunk, n);
    fn(begin, end);
  };
  if (pool == nullptr || chunks == 1) {
    for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
    return;
  }
  pool->parallel_for(chunks, run_chunk);
}

// Open-addressed u64 key -> dense slot map for the sequential per-record
// pass: posting-list routing, distinct-ASN collection, and the pure-verdict
// memo each do one probe per record, where an unordered_map lookup per
// record dominated the seal budget. Slots are assigned in first-sight order
// (record order), which the dictionary-determinism argument relies on.
class FlatSlotMap {
 public:
  FlatSlotMap() : table_(1024) {}

  // Returns the slot for key, assigning the next dense slot on first sight.
  std::uint32_t slot_for(std::uint64_t key) {
    const std::uint64_t stored = key + 1;  // 0 marks an empty bucket
    while (true) {
      std::size_t mask = table_.size() - 1;
      std::size_t pos = static_cast<std::size_t>(mix(stored)) & mask;
      while (true) {
        Entry& e = table_[pos];
        if (e.key == stored) return e.slot;
        if (e.key == 0) {
          if ((count_ + 1) * 4 > table_.size() * 3) break;  // grow, then re-probe
          e.key = stored;
          e.slot = count_;
          return count_++;
        }
        pos = (pos + 1) & mask;
      }
      grow();
    }
  }

  [[nodiscard]] std::uint32_t size() const noexcept { return count_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint32_t slot = 0;
  };

  static std::uint64_t mix(std::uint64_t h) noexcept {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }

  void grow() {
    std::vector<Entry> old = std::move(table_);
    table_.assign(old.size() * 2, Entry{});
    const std::size_t mask = table_.size() - 1;
    for (const Entry& e : old) {
      if (e.key == 0) continue;
      std::size_t pos = static_cast<std::size_t>(mix(e.key)) & mask;
      while (table_[pos].key != 0) pos = (pos + 1) & mask;
      table_[pos] = e;
    }
  }

  std::vector<Entry> table_;
  std::uint32_t count_ = 0;
};

constexpr std::size_t column_index(CodedColumn column) noexcept {
  return static_cast<std::size_t>(column);
}

std::string as_text(net::Asn asn) { return "AS" + std::to_string(asn); }

}  // namespace

SharedFrameDicts::SharedFrameDicts() {
  for (auto& dict : dicts) dict = std::make_shared<util::Dictionary>();
}

SessionFrame SessionFrame::build(const EventStore& store,
                                 const topology::Deployment& deployment,
                                 BuildOptions options) {
  store.freeze();
  SessionFrame frame;
  frame.store_ = &store;
  frame.deployment_ = &deployment;
  frame.build_epoch_ = store.index_epoch();
  store.pin_readers();

  frame.vantage_network_.reserve(deployment.size());
  frame.vantage_collection_.reserve(deployment.size());
  for (const topology::VantagePoint& vp : deployment.vantage_points()) {
    frame.vantage_network_.push_back(vp.type);
    frame.vantage_collection_.push_back(vp.collection);
  }

  const std::vector<SessionRecord>& records = store.records();
  const std::size_t n = records.size();
  frame.time_.resize(n);
  frame.src_.resize(n);
  frame.src_as_.resize(n);
  frame.port_.resize(n);
  frame.vantage_.resize(n);
  frame.neighbor_.resize(n);
  frame.payload_id_.resize(n);
  frame.credential_id_.resize(n);
  frame.actor_.resize(n);
  frame.flags_.resize(n);

  SharedFrameDicts* shared = options.shared_dicts;

  // --- per-distinct-payload tables ----------------------------------------
  // Interner ids are dense 0..distinct-1, so both the protocol fingerprint
  // and the normalized-payload code are computed once per distinct payload
  // and gathered per record. In shared mode the experiment-wide memo means
  // only payloads this experiment has never sealed before pay the
  // normalization/fingerprint at all.
  const std::size_t distinct_payloads = store.distinct_payloads();
  std::vector<net::Protocol> payload_protocol;
  std::vector<std::uint32_t> payload_shifted;  // per payload id; code+1
  if (options.fingerprint_payloads) {
    payload_protocol.resize(distinct_payloads, net::Protocol::kUnknown);
    frame.protocol_.resize(n, net::Protocol::kUnknown);
    frame.has_protocols_ = true;
  }
  payload_shifted.resize(distinct_payloads, 0);

  if (shared != nullptr) {
    // Sequential first-sight encode in payload-id (= store record) order.
    auto& payload_dict = *shared->dicts[column_index(CodedColumn::kPayload)];
    for (std::size_t id = 0; id < distinct_payloads; ++id) {
      const std::string& raw = store.payload(static_cast<std::uint32_t>(id));
      auto [it, inserted] = shared->payload_memo.try_emplace(raw);
      if (inserted) {
        it->second.protocol = proto::Fingerprinter::identify(raw);
        it->second.shifted_code = payload_dict.encode(proto::normalize_http_payload(raw)) + 1;
      }
      payload_shifted[id] = it->second.shifted_code;
      if (frame.has_protocols_) payload_protocol[id] = it->second.protocol;
    }
  } else {
    std::vector<std::string> normalized(distinct_payloads);
    for_chunks(options.pool, distinct_payloads, [&](std::size_t begin, std::size_t end) {
      for (std::size_t id = begin; id < end; ++id) {
        const std::string& raw = store.payload(static_cast<std::uint32_t>(id));
        if (frame.has_protocols_) payload_protocol[id] = proto::Fingerprinter::identify(raw);
        normalized[id] = proto::normalize_http_payload(raw);
      }
    });
    auto dict = util::Dictionary::sorted(normalized);
    for (std::size_t id = 0; id < distinct_payloads; ++id) {
      payload_shifted[id] = *dict->find(normalized[id]) + 1;
    }
    frame.dicts_[column_index(CodedColumn::kPayload)] = std::move(dict);
  }

  // --- per-distinct-credential tables -------------------------------------
  const std::size_t distinct_credentials = store.distinct_credentials();
  std::vector<std::uint32_t> username_shifted(distinct_credentials, 0);
  std::vector<std::uint32_t> password_shifted(distinct_credentials, 0);
  if (shared != nullptr) {
    auto& username_dict = *shared->dicts[column_index(CodedColumn::kUsername)];
    auto& password_dict = *shared->dicts[column_index(CodedColumn::kPassword)];
    for (std::size_t id = 0; id < distinct_credentials; ++id) {
      const std::string& text = store.credential_text(static_cast<std::uint32_t>(id));
      auto [it, inserted] = shared->credential_memo.try_emplace(text);
      if (inserted) {
        const proto::Credential credential = store.credential(static_cast<std::uint32_t>(id));
        it->second.shifted_username = username_dict.encode(credential.username) + 1;
        it->second.shifted_password = password_dict.encode(credential.password) + 1;
      }
      username_shifted[id] = it->second.shifted_username;
      password_shifted[id] = it->second.shifted_password;
    }
  } else {
    std::vector<std::string> usernames(distinct_credentials);
    std::vector<std::string> passwords(distinct_credentials);
    for_chunks(options.pool, distinct_credentials, [&](std::size_t begin, std::size_t end) {
      for (std::size_t id = begin; id < end; ++id) {
        proto::Credential credential = store.credential(static_cast<std::uint32_t>(id));
        usernames[id] = std::move(credential.username);
        passwords[id] = std::move(credential.password);
      }
    });
    auto username_dict = util::Dictionary::sorted(usernames);
    auto password_dict = util::Dictionary::sorted(passwords);
    for (std::size_t id = 0; id < distinct_credentials; ++id) {
      username_shifted[id] = *username_dict->find(usernames[id]) + 1;
      password_shifted[id] = *password_dict->find(passwords[id]) + 1;
    }
    frame.dicts_[column_index(CodedColumn::kUsername)] = std::move(username_dict);
    frame.dicts_[column_index(CodedColumn::kPassword)] = std::move(password_dict);
  }

  for (auto& column : frame.codes_) column.resize(n, 0);
  const bool verdict_per_record = static_cast<bool>(options.verdict) && !options.verdict_pure;
  if (options.verdict) {
    frame.verdict_.resize(n, static_cast<std::uint8_t>(Verdict::kUnobservable));
    frame.has_verdicts_ = true;
  }

  util::Column<std::uint32_t>& payload_codes = frame.codes_[column_index(CodedColumn::kPayload)];
  util::Column<std::uint32_t>& username_codes =
      frame.codes_[column_index(CodedColumn::kUsername)];
  util::Column<std::uint32_t>& password_codes =
      frame.codes_[column_index(CodedColumn::kPassword)];

  for_chunks(options.pool, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const SessionRecord& record = records[i];
      frame.time_[i] = record.time;
      frame.src_[i] = record.src;
      frame.src_as_[i] = record.src_as;
      frame.port_[i] = record.port;
      frame.vantage_[i] = record.vantage;
      frame.neighbor_[i] = record.neighbor;
      frame.payload_id_[i] = record.payload_id;
      frame.credential_id_[i] = record.credential_id;
      frame.actor_[i] = record.actor;
      std::uint8_t flags = 0;
      if (record.payload_id != kNoPayload) flags |= kHasPayload;
      if (record.credential_id != kNoCredential) flags |= kHasCredential;
      if (record.handshake_completed) flags |= kHandshake;
      frame.flags_[i] = flags;
      if (record.payload_id != kNoPayload) {
        if (frame.has_protocols_) frame.protocol_[i] = payload_protocol[record.payload_id];
        payload_codes[i] = payload_shifted[record.payload_id];
      }
      if (record.credential_id != kNoCredential) {
        username_codes[i] = username_shifted[record.credential_id];
        password_codes[i] = password_shifted[record.credential_id];
      }
      if (verdict_per_record) {
        frame.verdict_[i] = static_cast<std::uint8_t>(options.verdict(record));
      }
    }
  });

  // --- sequential per-record pass ------------------------------------------
  // One ascending scan builds every posting list (so their order is
  // independent of worker count), partitions by network type, collects
  // distinct ASNs in first-sight order, and memoizes the pure verdict. All
  // per-record probes go through FlatSlotMap: at seal scale an unordered_map
  // lookup per record was the dominant cost of this pass.
  // Ports are 16-bit, so the port->slot map is a direct-indexed table rather
  // than a probe (one load per record on the hottest lookup of this pass).
  constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> port_slot_of(65536, kNoSlot);
  std::vector<util::PostingList> port_lists;
  std::vector<net::Port> port_keys;
  FlatSlotMap vp_slots;
  std::vector<util::PostingList> vp_lists;
  std::vector<std::uint64_t> vp_keys;
  FlatSlotMap asn_slots;
  std::vector<net::Asn> distinct_asns;
  FlatSlotMap verdict_slots;
  std::vector<std::uint8_t> verdict_memo;
  const bool verdict_memoized = static_cast<bool>(options.verdict) && options.verdict_pure;
  util::Column<std::uint32_t>& as_codes = frame.codes_[column_index(CodedColumn::kAs)];

  for (std::uint32_t i = 0; i < n; ++i) {
    const net::Port port = frame.port_[i];
    {
      std::uint32_t slot = port_slot_of[port];
      if (slot == kNoSlot) {
        slot = static_cast<std::uint32_t>(port_lists.size());
        port_slot_of[port] = slot;
        port_lists.emplace_back();
        port_keys.push_back(port);
      }
      port_lists[slot].append(i);
    }
    frame.network_partition_[static_cast<std::size_t>(frame.network_type(i))].push_back(i);
    {
      const std::uint64_t key = (static_cast<std::uint64_t>(frame.vantage_[i]) << 16) | port;
      const std::uint32_t slot = vp_slots.slot_for(key);
      if (slot == vp_lists.size()) {
        vp_lists.emplace_back();
        vp_keys.push_back(key);
      }
      vp_lists[slot].append(i);
    }
    {
      const std::uint32_t slot = asn_slots.slot_for(frame.src_as_[i]);
      if (slot == distinct_asns.size()) distinct_asns.push_back(frame.src_as_[i]);
      as_codes[i] = slot;  // remapped to a shifted code below
    }
    if (verdict_memoized) {
      const SessionRecord& record = records[i];
      const std::uint64_t key =
          (static_cast<std::uint64_t>(record.payload_id) << 18) |
          (static_cast<std::uint64_t>(record.port) << 2) |
          (record.transport == net::Transport::kUdp ? 2u : 0u) |
          (record.credential_id != kNoCredential ? 1u : 0u);
      const std::uint32_t slot = verdict_slots.slot_for(key);
      if (slot == verdict_memo.size()) {
        verdict_memo.push_back(static_cast<std::uint8_t>(options.verdict(record)));
      }
      frame.verdict_[i] = verdict_memo[slot];
    }
  }

  frame.port_postings_.reserve(port_lists.size());
  for (std::size_t s = 0; s < port_lists.size(); ++s) {
    port_lists[s].shrink();
    frame.port_postings_.emplace(port_keys[s], std::move(port_lists[s]));
  }
  frame.vantage_port_postings_.reserve(vp_lists.size());
  for (std::size_t s = 0; s < vp_lists.size(); ++s) {
    vp_lists[s].shrink();
    frame.vantage_port_postings_.emplace(vp_keys[s], std::move(vp_lists[s]));
  }

  // --- AS dictionary + code remap ------------------------------------------
  std::vector<std::uint32_t> slot_to_shifted(distinct_asns.size(), 0);
  if (shared != nullptr) {
    auto& as_dict = *shared->dicts[column_index(CodedColumn::kAs)];
    for (std::size_t s = 0; s < distinct_asns.size(); ++s) {
      auto [it, inserted] = shared->as_memo.try_emplace(distinct_asns[s]);
      if (inserted) it->second = as_dict.encode(as_text(distinct_asns[s])) + 1;
      slot_to_shifted[s] = it->second;
    }
  } else {
    std::vector<std::string> texts;
    texts.reserve(distinct_asns.size());
    for (const net::Asn asn : distinct_asns) texts.push_back(as_text(asn));
    auto dict = util::Dictionary::sorted(texts);
    for (std::size_t s = 0; s < distinct_asns.size(); ++s) {
      slot_to_shifted[s] = *dict->find(as_text(distinct_asns[s])) + 1;
    }
    frame.dicts_[column_index(CodedColumn::kAs)] = std::move(dict);
  }
  for_chunks(options.pool, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      as_codes[i] = slot_to_shifted[as_codes[i]];
    }
  });
  if (shared != nullptr) {
    for (std::size_t c = 0; c < kCodedColumns; ++c) frame.dicts_[c] = shared->dicts[c];
  }
  return frame;
}

SessionFrame::~SessionFrame() { release(); }

void SessionFrame::release() noexcept {
  if (store_ != nullptr) {
    store_->unpin_readers();
    store_ = nullptr;
  }
}

SessionFrame::SessionFrame(SessionFrame&& other) noexcept
    : store_(other.store_),
      deployment_(other.deployment_),
      build_epoch_(other.build_epoch_),
      mapped_(other.mapped_),
      time_(std::move(other.time_)),
      src_(std::move(other.src_)),
      src_as_(std::move(other.src_as_)),
      port_(std::move(other.port_)),
      vantage_(std::move(other.vantage_)),
      neighbor_(std::move(other.neighbor_)),
      payload_id_(std::move(other.payload_id_)),
      credential_id_(std::move(other.credential_id_)),
      actor_(std::move(other.actor_)),
      flags_(std::move(other.flags_)),
      verdict_(std::move(other.verdict_)),
      protocol_(std::move(other.protocol_)),
      has_verdicts_(other.has_verdicts_),
      has_protocols_(other.has_protocols_),
      codes_(std::move(other.codes_)),
      dicts_(std::move(other.dicts_)),
      vantage_network_(std::move(other.vantage_network_)),
      vantage_collection_(std::move(other.vantage_collection_)),
      port_postings_(std::move(other.port_postings_)),
      vantage_port_postings_(std::move(other.vantage_port_postings_)),
      port_spans_(std::move(other.port_spans_)),
      vp_spans_(std::move(other.vp_spans_)),
      port_span_slot_(std::move(other.port_span_slot_)),
      vp_span_slot_(std::move(other.vp_span_slot_)),
      vantage_slices_(std::move(other.vantage_slices_)) {
  for (std::size_t i = 0; i < 3; ++i) {
    network_partition_[i] = std::move(other.network_partition_[i]);
  }
  other.store_ = nullptr;  // pin ownership transfers; other's dtor must not unpin
  other.deployment_ = nullptr;
  other.mapped_ = false;
}

SessionFrame& SessionFrame::operator=(SessionFrame&& other) noexcept {
  if (this != &other) {
    release();
    store_ = other.store_;
    deployment_ = other.deployment_;
    build_epoch_ = other.build_epoch_;
    mapped_ = other.mapped_;
    time_ = std::move(other.time_);
    src_ = std::move(other.src_);
    src_as_ = std::move(other.src_as_);
    port_ = std::move(other.port_);
    vantage_ = std::move(other.vantage_);
    neighbor_ = std::move(other.neighbor_);
    payload_id_ = std::move(other.payload_id_);
    credential_id_ = std::move(other.credential_id_);
    actor_ = std::move(other.actor_);
    flags_ = std::move(other.flags_);
    verdict_ = std::move(other.verdict_);
    protocol_ = std::move(other.protocol_);
    has_verdicts_ = other.has_verdicts_;
    has_protocols_ = other.has_protocols_;
    codes_ = std::move(other.codes_);
    dicts_ = std::move(other.dicts_);
    vantage_network_ = std::move(other.vantage_network_);
    vantage_collection_ = std::move(other.vantage_collection_);
    port_postings_ = std::move(other.port_postings_);
    for (std::size_t i = 0; i < 3; ++i) {
      network_partition_[i] = std::move(other.network_partition_[i]);
    }
    vantage_port_postings_ = std::move(other.vantage_port_postings_);
    port_spans_ = std::move(other.port_spans_);
    vp_spans_ = std::move(other.vp_spans_);
    port_span_slot_ = std::move(other.port_span_slot_);
    vp_span_slot_ = std::move(other.vp_span_slot_);
    vantage_slices_ = std::move(other.vantage_slices_);
    other.store_ = nullptr;
    other.deployment_ = nullptr;
    other.mapped_ = false;
  }
  return *this;
}

std::pair<std::uint64_t, std::uint64_t> SessionFrame::count_verdicts(
    const util::PostingView& indices) const {
  std::uint64_t malicious = 0;
  std::uint64_t benign = 0;
  const std::uint8_t* verdicts = verdict_.data();
  indices.for_each([&](std::uint32_t index) {
    switch (static_cast<Verdict>(verdicts[index])) {
      case Verdict::kMalicious: ++malicious; break;
      case Verdict::kBenign: ++benign; break;
      case Verdict::kUnobservable: break;
    }
  });
  return {malicious, benign};
}

util::PostingView SessionFrame::for_port(net::Port port) const {
  if (mapped_) {
    const auto it = port_span_slot_.find(port);
    if (it == port_span_slot_.end()) return {};
    return util::PostingView(port_spans_[it->second]);
  }
  const auto it = port_postings_.find(port);
  if (it == port_postings_.end()) return {};
  return util::PostingView(it->second);
}

util::PostingView SessionFrame::for_vantage_port(topology::VantageId id, net::Port port) const {
  const std::uint64_t key = (static_cast<std::uint64_t>(id) << 16) | port;
  if (mapped_) {
    const auto it = vp_span_slot_.find(key);
    if (it == vp_span_slot_.end()) return {};
    return util::PostingView(vp_spans_[it->second]);
  }
  const auto it = vantage_port_postings_.find(key);
  if (it == vantage_port_postings_.end()) return {};
  return util::PostingView(it->second);
}

}  // namespace cw::capture
