// SessionFrame: an immutable, columnar (SoA) projection of a frozen
// EventStore, shared by every analysis pipeline. The paper's tables are all
// filtered aggregations over the same one-week corpus; instead of each
// pipeline re-scanning store.records() and re-resolving deployment.at() per
// record, the frame materializes the hot columns once plus the secondary
// structures the pipelines select on:
//
//   - parallel column vectors (time/src/src_as/port/vantage/neighbor/
//     payload_id/credential_id/actor/flags),
//   - dictionary-encoded characteristic columns (v2): the AS / username /
//     password / normalized-payload text each record contributes to the
//     Section 3.3 frequency tables, stored as dense u32 codes against
//     per-column dictionaries so the table kernels count without touching a
//     string (see codes()/dict() and stats::FrequencyTable::from_codes),
//   - packed per-port and per-(vantage, port) posting lists
//     (util::PostingList — roaring-style array/bitmap containers yielding
//     ascending indices, so report bytes cannot change) plus per-network
//     partitions (vantage ids resolved through the Deployment once),
//   - a malicious-verdict column evaluated through an opaque callback
//     (capture cannot depend on analysis) — once per *distinct*
//     (credential-presence, payload, port, transport) tuple when the caller
//     declares the callback pure, once per record otherwise — and a
//     protocol column fingerprinted once per distinct payload.
//
// Code assignment is deterministic: batch frames sort each dictionary, so
// insertion order cannot perturb codes; stream frames built against
// SharedFrameDicts assign codes first-sight in store record order, which is
// itself a pure function of the sealed corpus. Output bytes never depend on
// either choice — every table renders through dictionary *text* with
// lexicographic tie-breaks.
//
// Shifted-code convention: code columns store (dictionary code + 1); 0
// means "no value" (telescope records have no payload/credential). Count
// kernels index a vector sized dict->size()+1 and slot 0 absorbs the
// missing rows branchlessly.
//
// The build shards over contiguous record chunks through
// runner::ThreadPool::parallel_for and is deterministic: every secondary
// structure lists record indices in ascending order regardless of worker
// count, so frame-backed pipelines produce byte-identical reports.
//
// Lifetime: build() freezes the store and pins it (EventStore::pin_readers);
// the destructor unpins. An append after the build bumps the store's index
// epoch, which attached() detects — and trips the store's debug assertion,
// because every span the frame returns points into invalidated state.
//
// Hot vs cold (out-of-core spill): every column is a util::Column that
// either owns its vector (a hot frame, built as above) or views external
// memory. capture::FrameView binds a frame's columns, posting lists, and
// vantage slices straight into an mmapped CWDS frame section — the same
// accessor surface then reads zero-copy out of the file, so every analysis
// kernel is oblivious to where a segment lives. A mapped frame has no
// EventStore behind it: store()/record() must not be called (store_ptr()
// returns nullptr), and for_vantage serves from the serialized per-vantage
// index instead of the store's.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "capture/event.h"
#include "capture/store.h"
#include "net/ports.h"
#include "topology/deployment.h"
#include "topology/provider.h"
#include "util/column.h"
#include "util/dict.h"
#include "util/postings.h"

namespace cw::runner {
class ThreadPool;
}  // namespace cw::runner

namespace cw::capture {

// The dictionary-encoded characteristic columns a frame carries.
enum class CodedColumn : std::uint8_t { kAs = 0, kUsername, kPassword, kPayload };
inline constexpr std::size_t kCodedColumns = 4;

// Shared per-experiment dictionaries + encode memos for stream mode: the
// ingest layer owns one instance and hands it to every epoch's frame build,
// so sealing encodes only *novel* values — history keeps its codes and
// per-segment count vectors stay mergeable code-wise forever.
//
// Thread contract: mutated only inside SessionFrame::build under the stream
// layer's seal serialization (one seal at a time, renders quiesced); frames
// alias the dictionaries as shared_ptr<const Dictionary>.
struct SharedFrameDicts {
  SharedFrameDicts();

  std::array<std::shared_ptr<util::Dictionary>, kCodedColumns> dicts;

  // Raw payload text -> (shifted normalized-payload code, protocol). One
  // normalization + LZR fingerprint per novel payload per experiment.
  struct PayloadInfo {
    std::uint32_t shifted_code = 0;
    net::Protocol protocol = net::Protocol::kUnknown;
  };
  std::unordered_map<std::string, PayloadInfo> payload_memo;

  // Interned credential text -> (shifted username code, shifted password
  // code). One decode per novel credential per experiment.
  struct CredentialCodes {
    std::uint32_t shifted_username = 0;
    std::uint32_t shifted_password = 0;
  };
  std::unordered_map<std::string, CredentialCodes> credential_memo;

  // ASN -> shifted "AS<n>" code.
  std::unordered_map<net::Asn, std::uint32_t> as_memo;
};

class SessionFrame {
 public:
  // Verdict of the malicious-intent measurement, mirroring
  // analysis::MeasuredIntent without a capture->analysis dependency.
  enum class Verdict : std::uint8_t { kUnobservable = 0, kBenign, kMalicious };

  using VerdictFn = std::function<Verdict(const SessionRecord&)>;

  struct BuildOptions {
    BuildOptions() {}
    // Shards the column fill across the pool; null builds sequentially.
    runner::ThreadPool* pool = nullptr;
    // Evaluated into the verdict column. Empty leaves the frame without
    // verdicts (has_verdicts() == false).
    VerdictFn verdict;
    // Declares that `verdict` is a pure function of (credential presence,
    // payload_id, port, transport) — true for the Section 3.2 classifier.
    // The build then memoizes it per distinct tuple instead of invoking it
    // per record (the callback typically hides a shared_mutex memo of its
    // own; at seal scale the per-record virtual call dominated).
    bool verdict_pure = false;
    // Fingerprint each distinct payload into the protocol column.
    bool fingerprint_payloads = true;
    // Stream mode: encode against these shared dictionaries instead of
    // building frame-local sorted ones. Borrowed; mutated during build.
    SharedFrameDicts* shared_dicts = nullptr;
  };

  // Freezes the store, pins it, and materializes every column and secondary
  // structure. Deterministic at any pool size.
  static SessionFrame build(const EventStore& store, const topology::Deployment& deployment,
                            BuildOptions options = {});

  // An empty frame: the target a FrameView maps a spilled segment into.
  SessionFrame() = default;

  ~SessionFrame();
  SessionFrame(SessionFrame&& other) noexcept;
  SessionFrame& operator=(SessionFrame&& other) noexcept;
  SessionFrame(const SessionFrame&) = delete;
  SessionFrame& operator=(const SessionFrame&) = delete;

  // Column sizes survive an unmap, so a cold segment still reports its size.
  [[nodiscard]] std::size_t size() const noexcept { return time_.size(); }

  // True while every span below is valid: either the frame is bound to a
  // live mapping, or the underlying store has not been appended to since
  // the build.
  [[nodiscard]] bool attached() const noexcept {
    return mapped_ || (store_ != nullptr && store_->index_epoch() == build_epoch_);
  }

  // True when the columns view an mmapped frame section (no store behind).
  [[nodiscard]] bool mapped() const noexcept { return mapped_; }

  // --- column accessors ----------------------------------------------------
  [[nodiscard]] util::SimTime time(std::uint32_t i) const { return time_[i]; }
  [[nodiscard]] std::uint32_t src(std::uint32_t i) const { return src_[i]; }
  [[nodiscard]] net::Asn src_as(std::uint32_t i) const { return src_as_[i]; }
  [[nodiscard]] net::Port port(std::uint32_t i) const { return port_[i]; }
  [[nodiscard]] topology::VantageId vantage(std::uint32_t i) const { return vantage_[i]; }
  [[nodiscard]] std::uint16_t neighbor(std::uint32_t i) const { return neighbor_[i]; }
  [[nodiscard]] std::uint32_t payload_id(std::uint32_t i) const { return payload_id_[i]; }
  [[nodiscard]] std::uint32_t credential_id(std::uint32_t i) const { return credential_id_[i]; }
  [[nodiscard]] ActorId actor(std::uint32_t i) const { return actor_[i]; }

  [[nodiscard]] bool has_payload(std::uint32_t i) const { return (flags_[i] & kHasPayload) != 0; }
  [[nodiscard]] bool has_credential(std::uint32_t i) const {
    return (flags_[i] & kHasCredential) != 0;
  }
  [[nodiscard]] bool handshake(std::uint32_t i) const { return (flags_[i] & kHandshake) != 0; }

  // Network type of the record's vantage point, resolved at build time.
  [[nodiscard]] topology::NetworkType network_type(std::uint32_t i) const {
    return vantage_network_[vantage_[i]];
  }
  [[nodiscard]] topology::NetworkType network_of(topology::VantageId id) const {
    return vantage_network_[id];
  }
  [[nodiscard]] topology::CollectionMethod collection_of(topology::VantageId id) const {
    return vantage_collection_[id];
  }

  // Verdict column (empty VerdictFn => has_verdicts() false, verdict() must
  // not be called).
  [[nodiscard]] bool has_verdicts() const noexcept { return has_verdicts_; }
  [[nodiscard]] Verdict verdict(std::uint32_t i) const {
    return static_cast<Verdict>(verdict_[i]);
  }
  // (malicious, benign) over a set of record indices; unobservable excluded.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> count_verdicts(
      const util::PostingView& indices) const;

  // Protocol column: LZR fingerprint of the record's payload (kUnknown when
  // none), computed once per distinct payload.
  [[nodiscard]] bool has_protocols() const noexcept { return has_protocols_; }
  [[nodiscard]] net::Protocol protocol(std::uint32_t i) const { return protocol_[i]; }

  // --- encoded characteristic columns --------------------------------------
  // Shifted codes (code+1; 0 = no value), one entry per record.
  [[nodiscard]] std::span<const std::uint32_t> codes(CodedColumn column) const {
    return codes_[static_cast<std::size_t>(column)].span();
  }
  [[nodiscard]] const std::shared_ptr<const util::Dictionary>& dict(CodedColumn column) const {
    return dicts_[static_cast<std::size_t>(column)];
  }

  // --- secondary structures ------------------------------------------------
  // All record-index sets list indices in ascending order. The views are
  // cheap by-value handles; an unknown port / vantage yields an empty view.
  [[nodiscard]] util::PostingView for_port(net::Port port) const;
  [[nodiscard]] std::span<const std::uint32_t> for_network(topology::NetworkType type) const {
    return network_partition_[static_cast<std::size_t>(type)].span();
  }
  [[nodiscard]] std::span<const std::uint32_t> for_vantage(topology::VantageId id) const {
    if (store_ != nullptr) return store_->for_vantage(id);
    return id < vantage_slices_.size() ? vantage_slices_[id]
                                       : std::span<const std::uint32_t>{};
  }
  [[nodiscard]] util::PostingView for_vantage_port(topology::VantageId id, net::Port port) const;

  // Hot frames only: a mapped frame has no store (store_ptr() == nullptr).
  [[nodiscard]] const SessionRecord& record(std::uint32_t i) const {
    return store_->records()[i];
  }
  [[nodiscard]] const EventStore& store() const noexcept { return *store_; }
  [[nodiscard]] const EventStore* store_ptr() const noexcept { return store_; }
  [[nodiscard]] const topology::Deployment& deployment() const noexcept { return *deployment_; }

 private:
  friend class FrameView;
  void release() noexcept;

  static constexpr std::uint8_t kHasPayload = 1;
  static constexpr std::uint8_t kHasCredential = 2;
  static constexpr std::uint8_t kHandshake = 4;

  const EventStore* store_ = nullptr;
  const topology::Deployment* deployment_ = nullptr;
  std::uint64_t build_epoch_ = 0;
  // Columns view an mmapped frame section (set/cleared by FrameView).
  bool mapped_ = false;

  util::Column<util::SimTime> time_;
  util::Column<std::uint32_t> src_;
  util::Column<net::Asn> src_as_;
  util::Column<net::Port> port_;
  util::Column<topology::VantageId> vantage_;
  util::Column<std::uint16_t> neighbor_;
  util::Column<std::uint32_t> payload_id_;
  util::Column<std::uint32_t> credential_id_;
  util::Column<ActorId> actor_;
  util::Column<std::uint8_t> flags_;
  util::Column<std::uint8_t> verdict_;
  util::Column<net::Protocol> protocol_;
  bool has_verdicts_ = false;
  bool has_protocols_ = false;

  std::array<util::Column<std::uint32_t>, kCodedColumns> codes_;
  std::array<std::shared_ptr<const util::Dictionary>, kCodedColumns> dicts_;

  std::vector<topology::NetworkType> vantage_network_;
  std::vector<topology::CollectionMethod> vantage_collection_;

  std::unordered_map<net::Port, util::PostingList> port_postings_;
  util::Column<std::uint32_t> network_partition_[3];
  // Key packs vantage << 16 | port (ports are 16-bit).
  std::unordered_map<std::uint64_t, util::PostingList> vantage_port_postings_;

  // Cold-side secondary structures: posting spans into the mapping plus the
  // slot maps FrameView builds once at open. Empty on hot frames.
  std::vector<util::PostingSpan> port_spans_;
  std::vector<util::PostingSpan> vp_spans_;
  std::unordered_map<net::Port, std::uint32_t> port_span_slot_;
  std::unordered_map<std::uint64_t, std::uint32_t> vp_span_slot_;
  std::vector<std::span<const std::uint32_t>> vantage_slices_;
};

}  // namespace cw::capture
