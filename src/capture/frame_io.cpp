#include "capture/frame_io.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace cw::capture {
namespace {

// "CWFR" little-endian.
constexpr std::uint32_t kFrameMagic = 0x52465743u;
constexpr std::uint32_t kFrameVersion = 1;

constexpr std::uint32_t kFlagVerdicts = 1;
constexpr std::uint32_t kFlagProtocols = 2;
constexpr std::uint32_t kFlagCodes = 4;

// Column slot order inside SectionHeader::column_offsets. An offset of 0
// (inside the header) marks an absent column.
enum ColumnSlot : std::size_t {
  kColTime = 0,
  kColSrc,
  kColSrcAs,
  kColPort,
  kColVantage,
  kColNeighbor,
  kColPayloadId,
  kColCredentialId,
  kColActor,
  kColFlags,
  kColVerdict,
  kColProtocol,
  kColCodes0,  // kColCodes0 + c for CodedColumn c
  kColumnSlots = kColCodes0 + kCodedColumns,
};

constexpr std::size_t kColumnElemSize[kColumnSlots] = {
    sizeof(util::SimTime),       // time
    sizeof(std::uint32_t),       // src
    sizeof(net::Asn),            // src_as
    sizeof(net::Port),           // port
    sizeof(topology::VantageId), // vantage
    sizeof(std::uint16_t),       // neighbor
    sizeof(std::uint32_t),       // payload_id
    sizeof(std::uint32_t),       // credential_id
    sizeof(ActorId),             // actor
    sizeof(std::uint8_t),        // flags
    sizeof(std::uint8_t),        // verdict
    sizeof(net::Protocol),       // protocol
    sizeof(std::uint32_t),       // codes x4
    sizeof(std::uint32_t),
    sizeof(std::uint32_t),
    sizeof(std::uint32_t),
};

struct SectionHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint64_t record_count;
  std::uint32_t flags;
  std::uint32_t vantage_count;
  std::uint64_t column_offsets[kColumnSlots];
  std::uint64_t partition_offsets[3];
  std::uint64_t partition_counts[3];
  std::uint64_t vantage_dir_offset;  // vantage_count x VantageDirEntry
  std::uint64_t port_dir_offset;     // port_dir_count x PortDirEntry, ports ascending
  std::uint64_t port_dir_count;
  std::uint64_t vp_dir_offset;       // vp_dir_count x VpDirEntry, keys ascending
  std::uint64_t vp_dir_count;
  std::uint64_t dict_offset;         // 0 = no inline dictionaries
  std::uint64_t section_length;
};
static_assert(sizeof(SectionHeader) == 24 + kColumnSlots * 8 + 48 + 56);

struct VantageDirEntry {
  std::uint64_t offset;
  std::uint64_t count;
};

struct PortDirEntry {
  std::uint32_t port;
  std::uint32_t reserved;
  std::uint64_t offset;
};

struct VpDirEntry {
  std::uint64_t key;
  std::uint64_t offset;
};

void pad8(std::vector<std::uint8_t>& out) {
  while (out.size() % 8 != 0) out.push_back(0);
}

// Appends `bytes` of raw data 8-aligned; returns the start offset.
std::uint64_t append_array(std::vector<std::uint8_t>& out, const void* data, std::size_t bytes) {
  pad8(out);
  const std::uint64_t offset = out.size();
  if (bytes != 0) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out.insert(out.end(), p, p + bytes);
  }
  return offset;
}

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, const T& value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

std::vector<std::uint8_t> FrameView::serialize(const SessionFrame& frame) {
  const std::size_t n = frame.size();
  SectionHeader hdr{};
  hdr.magic = kFrameMagic;
  hdr.version = kFrameVersion;
  hdr.record_count = n;
  hdr.vantage_count = static_cast<std::uint32_t>(frame.vantage_network_.size());
  if (frame.has_verdicts_) hdr.flags |= kFlagVerdicts;
  if (frame.has_protocols_) hdr.flags |= kFlagProtocols;
  hdr.flags |= kFlagCodes;

  std::vector<std::uint8_t> out(sizeof(SectionHeader), 0);

  hdr.column_offsets[kColTime] = append_array(out, frame.time_.data(), n * sizeof(util::SimTime));
  hdr.column_offsets[kColSrc] = append_array(out, frame.src_.data(), n * sizeof(std::uint32_t));
  hdr.column_offsets[kColSrcAs] = append_array(out, frame.src_as_.data(), n * sizeof(net::Asn));
  hdr.column_offsets[kColPort] = append_array(out, frame.port_.data(), n * sizeof(net::Port));
  hdr.column_offsets[kColVantage] =
      append_array(out, frame.vantage_.data(), n * sizeof(topology::VantageId));
  hdr.column_offsets[kColNeighbor] =
      append_array(out, frame.neighbor_.data(), n * sizeof(std::uint16_t));
  hdr.column_offsets[kColPayloadId] =
      append_array(out, frame.payload_id_.data(), n * sizeof(std::uint32_t));
  hdr.column_offsets[kColCredentialId] =
      append_array(out, frame.credential_id_.data(), n * sizeof(std::uint32_t));
  hdr.column_offsets[kColActor] = append_array(out, frame.actor_.data(), n * sizeof(ActorId));
  hdr.column_offsets[kColFlags] = append_array(out, frame.flags_.data(), n);
  if (frame.has_verdicts_) {
    hdr.column_offsets[kColVerdict] = append_array(out, frame.verdict_.data(), n);
  }
  if (frame.has_protocols_) {
    hdr.column_offsets[kColProtocol] =
        append_array(out, frame.protocol_.data(), n * sizeof(net::Protocol));
  }
  for (std::size_t c = 0; c < kCodedColumns; ++c) {
    hdr.column_offsets[kColCodes0 + c] =
        append_array(out, frame.codes_[c].data(), n * sizeof(std::uint32_t));
  }

  for (std::size_t p = 0; p < 3; ++p) {
    const auto& partition = frame.network_partition_[p];
    hdr.partition_offsets[p] =
        append_array(out, partition.data(), partition.size() * sizeof(std::uint32_t));
    hdr.partition_counts[p] = partition.size();
  }

  // Per-vantage record index: each vantage's ascending index array, then the
  // directory pointing at them.
  std::vector<VantageDirEntry> vantage_dir(hdr.vantage_count);
  for (std::uint32_t v = 0; v < hdr.vantage_count; ++v) {
    const std::span<const std::uint32_t> indices = frame.for_vantage(v);
    vantage_dir[v].offset =
        append_array(out, indices.data(), indices.size() * sizeof(std::uint32_t));
    vantage_dir[v].count = indices.size();
  }
  hdr.vantage_dir_offset =
      append_array(out, vantage_dir.data(), vantage_dir.size() * sizeof(VantageDirEntry));

  // Posting lists, directories sorted by key so the blob is a deterministic
  // function of the frame (the source maps are unordered).
  std::vector<net::Port> ports;
  ports.reserve(frame.port_postings_.size());
  for (const auto& [port, list] : frame.port_postings_) ports.push_back(port);
  std::sort(ports.begin(), ports.end());
  std::vector<PortDirEntry> port_dir(ports.size());
  for (std::size_t i = 0; i < ports.size(); ++i) {
    port_dir[i].port = ports[i];
    port_dir[i].offset = frame.port_postings_.at(ports[i]).serialize(out);
  }
  hdr.port_dir_offset =
      append_array(out, port_dir.data(), port_dir.size() * sizeof(PortDirEntry));
  hdr.port_dir_count = port_dir.size();

  std::vector<std::uint64_t> vp_keys;
  vp_keys.reserve(frame.vantage_port_postings_.size());
  for (const auto& [key, list] : frame.vantage_port_postings_) vp_keys.push_back(key);
  std::sort(vp_keys.begin(), vp_keys.end());
  std::vector<VpDirEntry> vp_dir(vp_keys.size());
  for (std::size_t i = 0; i < vp_keys.size(); ++i) {
    vp_dir[i].key = vp_keys[i];
    vp_dir[i].offset = frame.vantage_port_postings_.at(vp_keys[i]).serialize(out);
  }
  hdr.vp_dir_offset = append_array(out, vp_dir.data(), vp_dir.size() * sizeof(VpDirEntry));
  hdr.vp_dir_count = vp_dir.size();

  // Inline dictionaries: strings in code order, so a cold restart rebuilds
  // the exact code assignment with first-sight encodes.
  pad8(out);
  hdr.dict_offset = out.size();
  for (std::size_t c = 0; c < kCodedColumns; ++c) {
    const auto& dict = frame.dicts_[c];
    const std::uint64_t count = dict != nullptr ? dict->size() : 0;
    append_pod(out, count);
    for (std::uint32_t code = 0; code < count; ++code) {
      const std::string& text = dict->at(code);
      append_pod(out, static_cast<std::uint32_t>(text.size()));
      out.insert(out.end(), text.begin(), text.end());
    }
  }
  pad8(out);
  hdr.section_length = out.size();
  std::memcpy(out.data(), &hdr, sizeof(hdr));
  return out;
}

bool FrameView::open(const std::string& path, std::uint64_t offset, std::uint64_t length,
                     const topology::Deployment& deployment, const Options& options,
                     std::string* error) {
  opened_ = false;
  file_.reset();
  path_ = path;
  offset_ = offset;
  length_ = length;
  deployment_ = &deployment;

  util::MappedFile probe;
  if (!probe.map(path, offset, length, error)) return false;
  if (!parse_directory(probe.data(), probe.size(), options.load_dicts, error)) return false;
  opened_ = true;
  return true;
}

bool FrameView::parse_directory(const std::uint8_t* base, std::size_t size, bool load_dicts,
                                std::string* error) {
  const std::string where = "frame section of " + path_;
  if (size < sizeof(SectionHeader)) return fail(error, where + ": truncated header");
  SectionHeader hdr;
  std::memcpy(&hdr, base, sizeof(hdr));
  if (hdr.magic != kFrameMagic) return fail(error, where + ": bad magic");
  if (hdr.version != kFrameVersion) {
    return fail(error, where + ": unsupported version " + std::to_string(hdr.version));
  }
  if (hdr.section_length != size) {
    return fail(error, where + ": section length mismatch (header says " +
                           std::to_string(hdr.section_length) + ", have " +
                           std::to_string(size) + ")");
  }

  // Analysis reads characteristics only through the encoded columns, so a
  // section without them cannot serve any table.
  if ((hdr.flags & kFlagCodes) == 0) return fail(error, where + ": no encoded columns");
  record_count_ = hdr.record_count;
  flags_ = hdr.flags;
  vantage_count_ = hdr.vantage_count;

  column_offsets_.assign(hdr.column_offsets, hdr.column_offsets + kColumnSlots);
  for (std::size_t c = 0; c < kColumnSlots; ++c) {
    const std::uint64_t off = column_offsets_[c];
    if (off == 0) continue;
    if (off % 8 != 0 || off + record_count_ * kColumnElemSize[c] > size) {
      return fail(error, where + ": column " + std::to_string(c) + " out of bounds");
    }
  }
  const auto require = [&](std::size_t slot) {
    return column_offsets_[slot] != 0 || record_count_ == 0;
  };
  for (std::size_t c = kColTime; c <= kColFlags; ++c) {
    if (!require(c)) return fail(error, where + ": missing column " + std::to_string(c));
  }
  if ((flags_ & kFlagVerdicts) != 0 && !require(kColVerdict)) {
    return fail(error, where + ": verdict column missing");
  }
  if ((flags_ & kFlagProtocols) != 0 && !require(kColProtocol)) {
    return fail(error, where + ": protocol column missing");
  }
  for (std::size_t c = 0; c < kCodedColumns; ++c) {
    if (!require(kColCodes0 + c)) return fail(error, where + ": code column missing");
  }

  for (std::size_t p = 0; p < 3; ++p) {
    partition_offsets_[p] = hdr.partition_offsets[p];
    partition_counts_[p] = hdr.partition_counts[p];
    if (partition_offsets_[p] % 8 != 0 ||
        partition_offsets_[p] + partition_counts_[p] * 4 > size) {
      return fail(error, where + ": network partition out of bounds");
    }
  }

  if (hdr.vantage_dir_offset % 8 != 0 ||
      hdr.vantage_dir_offset + static_cast<std::uint64_t>(vantage_count_) * sizeof(VantageDirEntry) >
          size) {
    return fail(error, where + ": vantage directory out of bounds");
  }
  vantage_dir_.resize(vantage_count_);
  for (std::uint32_t v = 0; v < vantage_count_; ++v) {
    VantageDirEntry entry;
    std::memcpy(&entry, base + hdr.vantage_dir_offset + v * sizeof(entry), sizeof(entry));
    if (entry.offset % 8 != 0 || entry.offset + entry.count * 4 > size) {
      return fail(error, where + ": vantage slice out of bounds");
    }
    vantage_dir_[v] = {entry.offset, entry.count};
  }

  if (hdr.port_dir_offset % 8 != 0 ||
      hdr.port_dir_offset + hdr.port_dir_count * sizeof(PortDirEntry) > size) {
    return fail(error, where + ": port directory out of bounds");
  }
  port_dir_.resize(hdr.port_dir_count);
  port_slot_.clear();
  port_slot_.reserve(hdr.port_dir_count);
  for (std::uint64_t i = 0; i < hdr.port_dir_count; ++i) {
    PortDirEntry entry;
    std::memcpy(&entry, base + hdr.port_dir_offset + i * sizeof(entry), sizeof(entry));
    if (i > 0 && entry.port <= port_dir_[i - 1].first) {
      return fail(error, where + ": port directory not ascending");
    }
    util::PostingSpan span;
    std::size_t span_length = 0;
    if (entry.offset >= size ||
        !util::PostingSpan::parse(base + entry.offset, size - entry.offset, span, span_length)) {
      return fail(error, where + ": corrupt posting list (port " +
                             std::to_string(entry.port) + ")");
    }
    port_dir_[i] = {static_cast<net::Port>(entry.port), entry.offset};
    port_slot_.emplace(static_cast<net::Port>(entry.port), static_cast<std::uint32_t>(i));
  }

  if (hdr.vp_dir_offset % 8 != 0 ||
      hdr.vp_dir_offset + hdr.vp_dir_count * sizeof(VpDirEntry) > size) {
    return fail(error, where + ": vantage-port directory out of bounds");
  }
  vp_dir_.resize(hdr.vp_dir_count);
  vp_slot_.clear();
  vp_slot_.reserve(hdr.vp_dir_count);
  for (std::uint64_t i = 0; i < hdr.vp_dir_count; ++i) {
    VpDirEntry entry;
    std::memcpy(&entry, base + hdr.vp_dir_offset + i * sizeof(entry), sizeof(entry));
    if (i > 0 && entry.key <= vp_dir_[i - 1].first) {
      return fail(error, where + ": vantage-port directory not ascending");
    }
    util::PostingSpan span;
    std::size_t span_length = 0;
    if (entry.offset >= size ||
        !util::PostingSpan::parse(base + entry.offset, size - entry.offset, span, span_length)) {
      return fail(error, where + ": corrupt posting list (vantage-port)");
    }
    vp_dir_[i] = {entry.key, entry.offset};
    vp_slot_.emplace(entry.key, static_cast<std::uint32_t>(i));
  }

  dicts_ = {};
  if (load_dicts) {
    if (hdr.dict_offset == 0) {
      return fail(error, where + ": coded frame without inline dictionaries");
    }
    std::uint64_t pos = hdr.dict_offset;
    for (std::size_t c = 0; c < kCodedColumns; ++c) {
      if (pos + 8 > size) return fail(error, where + ": truncated dictionary section");
      std::uint64_t count = 0;
      std::memcpy(&count, base + pos, 8);
      pos += 8;
      auto dict = std::make_shared<util::Dictionary>();
      for (std::uint64_t code = 0; code < count; ++code) {
        if (pos + 4 > size) return fail(error, where + ": truncated dictionary entry");
        std::uint32_t len = 0;
        std::memcpy(&len, base + pos, 4);
        pos += 4;
        if (pos + len > size) return fail(error, where + ": truncated dictionary entry");
        dict->encode(std::string_view(reinterpret_cast<const char*>(base + pos), len));
        pos += len;
      }
      dicts_[c] = std::move(dict);
    }
  }
  return true;
}

bool FrameView::map(SessionFrame& target, std::string* error) {
  if (!opened_) return fail(error, "FrameView::map: view not opened");
  if (!mapped()) {
    if (!file_.map(path_, offset_, length_, error)) return false;
  }
  return bind(target, file_.data(), error);
}

bool FrameView::bind(SessionFrame& target, const std::uint8_t* base, std::string* error) {
  // The frame gives up any store claim: a mapped frame is backed by the file
  // alone (the caller is about to free the store — that is the point).
  target.release();

  const std::size_t n = static_cast<std::size_t>(record_count_);
  const auto col = [&](auto& column, std::size_t slot) {
    using T = std::remove_cvref_t<decltype(column[0])>;
    const std::uint64_t off = column_offsets_[slot];
    column.bind_external(off != 0 ? reinterpret_cast<const T*>(base + off) : nullptr, n);
  };
  col(target.time_, kColTime);
  col(target.src_, kColSrc);
  col(target.src_as_, kColSrcAs);
  col(target.port_, kColPort);
  col(target.vantage_, kColVantage);
  col(target.neighbor_, kColNeighbor);
  col(target.payload_id_, kColPayloadId);
  col(target.credential_id_, kColCredentialId);
  col(target.actor_, kColActor);
  col(target.flags_, kColFlags);

  target.has_verdicts_ = (flags_ & kFlagVerdicts) != 0;
  target.has_protocols_ = (flags_ & kFlagProtocols) != 0;
  if (target.has_verdicts_) {
    col(target.verdict_, kColVerdict);
  } else {
    target.verdict_ = {};
  }
  if (target.has_protocols_) {
    col(target.protocol_, kColProtocol);
  } else {
    target.protocol_ = {};
  }
  for (std::size_t c = 0; c < kCodedColumns; ++c) col(target.codes_[c], kColCodes0 + c);

  for (std::size_t p = 0; p < 3; ++p) {
    target.network_partition_[p].bind_external(
        reinterpret_cast<const std::uint32_t*>(base + partition_offsets_[p]),
        static_cast<std::size_t>(partition_counts_[p]));
  }

  target.vantage_slices_.resize(vantage_count_);
  for (std::uint32_t v = 0; v < vantage_count_; ++v) {
    target.vantage_slices_[v] = std::span<const std::uint32_t>(
        reinterpret_cast<const std::uint32_t*>(base + vantage_dir_[v].first),
        static_cast<std::size_t>(vantage_dir_[v].second));
  }

  // Posting spans are re-parsed per map: the kernel may hand back a
  // different address each time, so every pointer is recomputed.
  target.port_spans_.resize(port_dir_.size());
  for (std::size_t i = 0; i < port_dir_.size(); ++i) {
    std::size_t span_length = 0;
    if (!util::PostingSpan::parse(base + port_dir_[i].second, length_ - port_dir_[i].second,
                                  target.port_spans_[i], span_length)) {
      return fail(error, "FrameView::map: posting list changed underfoot");
    }
  }
  target.vp_spans_.resize(vp_dir_.size());
  for (std::size_t i = 0; i < vp_dir_.size(); ++i) {
    std::size_t span_length = 0;
    if (!util::PostingSpan::parse(base + vp_dir_[i].second, length_ - vp_dir_[i].second,
                                  target.vp_spans_[i], span_length)) {
      return fail(error, "FrameView::map: posting list changed underfoot");
    }
  }
  target.port_span_slot_ = port_slot_;
  target.vp_span_slot_ = vp_slot_;

  // The hot-side structures are dead weight once mapped; free them.
  target.port_postings_.clear();
  target.vantage_port_postings_.clear();

  if (dicts_[0] != nullptr || dicts_[1] != nullptr) target.dicts_ = dicts_;
  if (target.vantage_network_.empty()) {
    target.vantage_network_.reserve(deployment_->size());
    target.vantage_collection_.reserve(deployment_->size());
    for (const topology::VantagePoint& vp : deployment_->vantage_points()) {
      target.vantage_network_.push_back(vp.type);
      target.vantage_collection_.push_back(vp.collection);
    }
  }
  target.deployment_ = deployment_;
  target.mapped_ = true;
  return true;
}

void FrameView::unmap(SessionFrame& target) {
  target.time_.unbind();
  target.src_.unbind();
  target.src_as_.unbind();
  target.port_.unbind();
  target.vantage_.unbind();
  target.neighbor_.unbind();
  target.payload_id_.unbind();
  target.credential_id_.unbind();
  target.actor_.unbind();
  target.flags_.unbind();
  target.verdict_.unbind();
  target.protocol_.unbind();
  for (auto& column : target.codes_) column.unbind();
  for (auto& partition : target.network_partition_) partition.unbind();
  target.vantage_slices_.clear();
  target.port_spans_.clear();
  target.vp_spans_.clear();
  target.port_span_slot_.clear();
  target.vp_span_slot_.clear();
  target.mapped_ = false;
  file_.reset();
}

}  // namespace cw::capture
