// FrameView: the serialization and mmap-binding layer that lets a
// SessionFrame live out-of-core. Two halves:
//
//   serialize(frame)  — flattens a (hot) frame's exact in-memory column
//     layout into one byte blob: every column as a raw 8-aligned array, the
//     per-port / per-(vantage, port) posting lists in their packed container
//     form (util::PostingList::serialize), the per-vantage record index, the
//     per-network partitions, the encoded columns, and the four
//     characteristic dictionaries inline. The blob is the CWDS v3 "frame
//     section"; capture::write_dataset embeds it per segment.
//
//   open/map/unmap    — opens that section back up (from a file offset the
//     dataset reader reports), validates its structure, and binds a target
//     SessionFrame's columns, posting spans, and vantage slices straight
//     into the mapping. The bound frame answers the full analysis query
//     surface zero-copy from the file; unmap() releases the address space
//     (a real munmap — the coldstore tier runs under `ulimit -v`) while the
//     frame keeps its sizes; a later map() re-binds at whatever address the
//     kernel returns.
//
// Directory order inside the section is fully sorted (ports ascending,
// vantage-port keys ascending), so a spill file is a deterministic function
// of the frame — byte-identical across runs regardless of unordered_map
// iteration order.
//
// The view is resident state (slot maps, parsed header, optional reloaded
// dictionaries); only map() touches the mapping. One FrameView serves one
// frame; it is move-only and must outlive any frame currently bound to it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "capture/frame.h"
#include "util/mmap.h"

namespace cw::capture {

class FrameView {
 public:
  struct Options {
    Options() {}
    // Rebuild the four characteristic dictionaries from the inline dict
    // section and hand them to mapped frames (cold restart). A live spill
    // leaves them false: the frame keeps the experiment's shared dicts.
    bool load_dicts = false;
  };

  FrameView() = default;
  FrameView(FrameView&&) = default;
  FrameView& operator=(FrameView&&) = default;
  FrameView(const FrameView&) = delete;
  FrameView& operator=(const FrameView&) = delete;

  // Flattens the frame into a CWDS v3 frame-section blob. The frame must be
  // hot (attached, store-backed): the per-vantage index is read through the
  // store.
  static std::vector<std::uint8_t> serialize(const SessionFrame& frame);

  // Parses and validates the frame section stored at [offset, offset+length)
  // of `path`. Builds the resident directory (slot maps, dictionaries when
  // requested); the mapping itself is dropped again until map() is called.
  // On failure returns false with a structural error in *error.
  bool open(const std::string& path, std::uint64_t offset, std::uint64_t length,
            const topology::Deployment& deployment, const Options& options = {},
            std::string* error = nullptr);

  // Maps the section and binds `target`'s columns, posting spans, and
  // vantage slices into it. The target's store pointer is dropped (a mapped
  // frame has no store); vantage metadata comes from the deployment given to
  // open(). Safe to call repeatedly (remaps after an unmap()).
  bool map(SessionFrame& target, std::string* error = nullptr);

  // Unbinds the target's columns (sizes survive) and releases the mapping.
  void unmap(SessionFrame& target);

  [[nodiscard]] bool opened() const noexcept { return opened_; }
  [[nodiscard]] bool mapped() const noexcept { return file_.mapped() && !file_.empty(); }
  [[nodiscard]] std::uint64_t record_count() const noexcept { return record_count_; }

  // madvise(SEQUENTIAL) over the mapping ahead of a scan; no-op when cold.
  void advise_sequential() const noexcept { file_.advise_sequential(); }

 private:
  bool parse_directory(const std::uint8_t* base, std::size_t size, bool load_dicts,
                       std::string* error);
  bool bind(SessionFrame& target, const std::uint8_t* base, std::string* error);

  std::string path_;
  std::uint64_t offset_ = 0;
  std::uint64_t length_ = 0;
  const topology::Deployment* deployment_ = nullptr;
  bool opened_ = false;

  // Parsed header state (offsets relative to the section base).
  std::uint64_t record_count_ = 0;
  std::uint32_t flags_ = 0;
  std::uint32_t vantage_count_ = 0;
  std::vector<std::uint64_t> column_offsets_;
  std::array<std::uint64_t, 3> partition_offsets_{};
  std::array<std::uint64_t, 3> partition_counts_{};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> vantage_dir_;  // (offset, count)
  std::vector<std::pair<net::Port, std::uint64_t>> port_dir_;         // (port, offset)
  std::vector<std::pair<std::uint64_t, std::uint64_t>> vp_dir_;       // (key, offset)
  std::unordered_map<net::Port, std::uint32_t> port_slot_;
  std::unordered_map<std::uint64_t, std::uint32_t> vp_slot_;
  std::array<std::shared_ptr<const util::Dictionary>, kCodedColumns> dicts_;

  util::MappedFile file_;
};

// Convenience: byte range of the frame section inside a CWDS v3 file that
// holds exactly one segment (the spill layout). Returns false when the file
// has no frame section. Defined in dataset.cpp (it owns the container
// format).
bool probe_frame_section(const std::string& path, std::uint64_t& offset_out,
                         std::uint64_t& length_out, std::string* error = nullptr);

}  // namespace cw::capture
