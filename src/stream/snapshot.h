// Epoch snapshots: the immutable read side of the stream subsystem.
//
// A live run seals what arrived during each wall-clock slice into a Segment
// — a frozen EventStore plus the SessionFrame built over it once — and
// publishes the growing corpus as an EpochSnapshot: a persistent
// (shared-structure) list of segments. Snapshots are values: epoch k+1
// shares every segment with epoch k and appends one, so readers holding an
// older snapshot keep a consistent corpus view at zero copy cost while the
// ingest side moves on.
//
// Determinism contract: a segment's record order is fixed by the seal
// (shard-major; see stream::IngestShards), its frame build is deterministic
// at any pool size (capture::SessionFrame), and the segment list is ordered
// by epoch. Everything derived per segment — frames, the per-segment
// partial tables in analysis::SegmentedTableCache — is therefore
// byte-reproducible for a fixed (shard count, epoch slicing), and the
// *merged* statistics are additionally invariant across slicings because
// they aggregate over text-keyed exact counts (see table_cache.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "capture/frame.h"
#include "capture/frame_io.h"
#include "capture/store.h"
#include "topology/deployment.h"

namespace cw::runner {
class ThreadPool;
}  // namespace cw::runner

namespace cw::stream {

// Builds the verdict column of a segment's frame. The classifier needs the
// owning store to resolve interned payload ids, and the store does not exist
// until the seal — so the ingest layer takes a factory and invokes it with
// the freshly sealed store (the stream driver closes over its
// MaliciousClassifier here).
using VerdictFactory =
    std::function<capture::SessionFrame::VerdictFn(const capture::EventStore&)>;

// One sealed epoch of capture: the frozen record store and its columnar
// frame, built exactly once at seal time and reused by every snapshot (and
// every SegmentedTableCache partial) that includes this segment. Immovable:
// the frame pins the store in place.
class Segment {
 public:
  // `store` is frozen and projected during construction. `base` is the
  // segment's record offset within the cumulative corpus (sum of earlier
  // segment sizes). An empty `verdict` factory leaves the frame without a
  // verdict column. `shared_dicts`, when given, points at the experiment's
  // shared characteristic dictionaries: the frame encodes against (and
  // extends) them instead of building segment-local ones, so values seen in
  // earlier epochs are never re-normalized or re-fingerprinted. The caller
  // must serialize builds that share the same dictionaries (the ingest seal
  // mutex does). `verdict_pure` declares the verdict function pure in
  // (credential presence, payload id, port, transport) so the frame build
  // may memoize it per distinct tuple — only set it for classifier-derived
  // verdicts, never for arbitrary test factories.
  Segment(std::uint64_t id, std::uint64_t base, capture::EventStore&& store,
          const topology::Deployment& deployment, const VerdictFactory& verdict,
          runner::ThreadPool* pool = nullptr, capture::SharedFrameDicts* shared_dicts = nullptr,
          bool verdict_pure = false);

  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t base() const noexcept { return base_; }
  // Record count. Read through the frame, whose column sizes survive an
  // unmap — valid hot, spilled-and-mapped, and cold alike.
  [[nodiscard]] std::size_t size() const noexcept { return frame_.size(); }
  // The sealed record store. Empty once the segment has spilled: the frame
  // section carries everything the analysis kernels read.
  [[nodiscard]] const capture::EventStore& store() const noexcept { return store_; }
  // The columnar frame. For a spilled segment the columns are only readable
  // while mapped — call ensure_mapped() first (the tiering driver does).
  [[nodiscard]] const capture::SessionFrame& frame() const noexcept { return frame_; }

  // --- Out-of-core tiering -------------------------------------------------
  // A segment starts hot (store + frame resident). spill(dir) writes the
  // CWDS v3 spill file `dir/segment-<id>.cwds` (records + CRC + frame
  // section), rebinds the frame zero-copy onto the mapping in place — the
  // SessionFrame object's address never changes, so const references handed
  // out earlier stay valid — and frees the record store. release_mapping()
  // then drops the address space too (a genuine munmap; the coldstore check
  // tier runs under `ulimit -v`), leaving only sizes; ensure_mapped() brings
  // the columns back at whatever address the kernel picks. The map/unmap
  // lifecycle is single-threaded (the epoch driver); concurrent readers may
  // scan a *mapped* frame freely.

  // Idempotent; returns false (with *error) on I/O or validation failure.
  bool spill(const std::string& dir, std::string* error = nullptr) const;
  [[nodiscard]] bool spilled() const noexcept { return !spill_path_.empty(); }
  [[nodiscard]] const std::string& spill_path() const noexcept { return spill_path_; }
  // Resident and mapped segments return true immediately.
  bool ensure_mapped(std::string* error = nullptr) const;
  void release_mapping() const;
  // madvise(SEQUENTIAL) ahead of a full scan of a mapped spilled segment.
  void advise_sequential() const noexcept { view_.advise_sequential(); }

  // Cold restart: reopens a spill file written by spill() as a fresh mapped
  // segment. The inline dictionaries are reloaded, so coded queries (and
  // text-keyed table merges) behave exactly as in the sealing process.
  [[nodiscard]] static std::shared_ptr<const Segment> load_spilled(
      const std::string& path, std::uint64_t id, std::uint64_t base,
      const topology::Deployment& deployment, std::string* error = nullptr);

 private:
  Segment() = default;  // load_spilled builds the members directly

  std::uint64_t id_ = 0;
  std::uint64_t base_ = 0;
  const topology::Deployment* deployment_ = nullptr;
  // Tiering mutates the representation, not the value: snapshots share
  // segments as shared_ptr<const Segment>, and a spill leaves every query
  // answer bit-identical. Hence the mutable storage members.
  mutable capture::EventStore store_;  // declared before frame_: the frame borrows it
  mutable capture::SessionFrame frame_;
  mutable std::string spill_path_;
  mutable capture::FrameView view_;
};

// An immutable view of the corpus after some epoch: the ordered segment
// list, the epoch number, and the total record count. Cheap to copy (the
// segments are shared), safe to read from any thread, never invalidated by
// later seals.
class EpochSnapshot {
 public:
  // Epoch zero: no segments, no records.
  EpochSnapshot() = default;

  // The successor snapshot: `prev`'s segments plus one newly sealed segment.
  [[nodiscard]] static EpochSnapshot extend(const EpochSnapshot& prev,
                                            std::shared_ptr<const Segment> segment);

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  // Total records across all segments.
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] const std::vector<std::shared_ptr<const Segment>>& segments() const noexcept {
    return segments_;
  }
  // The segments' frames in epoch order: the corpus as the frame list
  // core::ExperimentResult::bind_segments takes.
  [[nodiscard]] std::vector<const capture::SessionFrame*> frames() const;

 private:
  std::uint64_t epoch_ = 0;
  std::uint64_t size_ = 0;
  std::vector<std::shared_ptr<const Segment>> segments_;
};

}  // namespace cw::stream
