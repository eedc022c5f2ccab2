#include "capture/dataset.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "capture/frame_io.h"
#include "util/crc32.h"
#include "util/strings.h"
#include "util/table.h"

namespace cw::capture {
namespace {

constexpr char kMagic[4] = {'C', 'W', 'D', 'S'};
// Version 2 switched the interned credential blobs from the '\n'-joined
// encoding to the length-prefixed one (see EventStore::encode_credential).
// Version 3 added the section-flags/frame-section header fields and the
// per-segment CRC-32 trailer. Older files are still readable; writing
// always uses the current version.
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kVersion2 = 2;
constexpr std::uint32_t kLegacyVersion = 1;

constexpr std::uint32_t kSectionFrame = 1;  // section-flags bit: frame section present

// Fixed byte size of the v3 header (through frame section length).
constexpr std::uint64_t kHeaderBytesV3 = 48;
// v1/v2 header: magic + version + record count + payload/credential counts.
constexpr std::uint64_t kHeaderBytesV2 = 24;
// Fixed-width record encoding (see write_dataset).
constexpr std::uint64_t kRecordBytes = 43;

// Version 1 joined a credential as "<username>\n<password>" and split on the
// first newline. A blob with more than one newline is ambiguous under that
// scheme — ("a\nb", "c") and ("a", "b\nc") produced the same bytes — so
// such blobs are rejected rather than silently mis-split.
std::optional<proto::Credential> decode_legacy_credential(std::string_view text) {
  const std::size_t split = text.find('\n');
  if (split == std::string_view::npos) return std::nullopt;
  if (text.find('\n', split + 1) != std::string_view::npos) return std::nullopt;
  proto::Credential out;
  out.username = std::string(text.substr(0, split));
  out.password = std::string(text.substr(split + 1));
  return out;
}

// Stream wrappers feeding every byte through an incremental CRC-32, so the
// v3 trailer costs no extra pass over the data.
struct CrcWriter {
  std::ostream& out;
  util::Crc32 crc;

  void write(const void* data, std::size_t size) {
    out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
    crc.update(data, size);
  }
  template <typename T>
  void pod(T value) {
    write(&value, sizeof value);
  }
  void str(const std::string& value) {
    pod(static_cast<std::uint32_t>(value.size()));
    write(value.data(), value.size());
  }
};

struct CrcReader {
  std::istream& in;
  util::Crc32 crc;
  std::uint64_t consumed = 0;  // bytes read since the segment's first byte

  bool read(void* data, std::size_t size) {
    in.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
    if (!in) return false;
    crc.update(data, size);
    consumed += size;
    return true;
  }
  template <typename T>
  bool pod(T& value) {
    return read(&value, sizeof value);
  }
  bool str(std::string& value) {
    std::uint32_t length = 0;
    if (!pod(length)) return false;
    if (length > (1u << 24)) return false;  // sanity bound: 16 MiB per entry
    value.resize(length);
    return read(value.data(), length);
  }
  // Reads and discards `size` bytes (pad + frame section on the store-only
  // path), still feeding the CRC.
  bool skip(std::uint64_t size) {
    char buffer[64 * 1024];
    while (size > 0) {
      const std::size_t chunk = static_cast<std::size_t>(std::min<std::uint64_t>(size, sizeof buffer));
      if (!read(buffer, chunk)) return false;
      size -= chunk;
    }
    return true;
  }
};

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

std::uint64_t table_bytes(const EventStore& store) {
  std::uint64_t total = 0;
  for (std::uint32_t id = 0; id < store.distinct_payloads(); ++id) {
    total += 4 + store.payload(id).size();
  }
  for (std::uint32_t id = 0; id < store.distinct_credentials(); ++id) {
    total += 4 + store.credential_text(id).size();
  }
  return total;
}

bool write_dataset_impl(const EventStore& store, const SessionFrame* frame, std::ostream& out) {
  // The frame section's internal arrays are 8-aligned relative to its base,
  // so the base itself must land on an 8-aligned *file* offset for mmapped
  // column pointers to be naturally aligned.
  const std::streampos pos = out.tellp();
  const std::uint64_t segment_start = pos == std::streampos(-1) ? 0 : static_cast<std::uint64_t>(pos);

  std::vector<std::uint8_t> section;
  if (frame != nullptr) section = FrameView::serialize(*frame);

  const std::uint64_t body_end = kHeaderBytesV3 + table_bytes(store) +
                                 static_cast<std::uint64_t>(store.size()) * kRecordBytes;
  const std::uint64_t pad =
      frame != nullptr ? (8 - (segment_start + body_end) % 8) % 8 : 0;
  const std::uint64_t frame_offset = frame != nullptr ? body_end + pad : 0;

  CrcWriter w{out, {}};
  w.write(kMagic, sizeof kMagic);
  w.pod(kVersion);
  w.pod(static_cast<std::uint64_t>(store.size()));
  w.pod(static_cast<std::uint32_t>(store.distinct_payloads()));
  w.pod(static_cast<std::uint32_t>(store.distinct_credentials()));
  w.pod(frame != nullptr ? kSectionFrame : std::uint32_t{0});
  w.pod(std::uint32_t{0});  // reserved
  w.pod(frame_offset);
  w.pod(static_cast<std::uint64_t>(section.size()));

  for (std::uint32_t id = 0; id < store.distinct_payloads(); ++id) {
    w.str(store.payload(id));
  }
  for (std::uint32_t id = 0; id < store.distinct_credentials(); ++id) {
    w.str(store.credential_text(id));
  }

  for (const SessionRecord& record : store.records()) {
    w.pod(record.time);
    w.pod(record.src);
    w.pod(record.dst);
    w.pod(record.src_as);
    w.pod(record.port);
    w.pod(static_cast<std::uint8_t>(record.transport));
    w.pod(static_cast<std::uint8_t>(record.handshake_completed ? 1 : 0));
    w.pod(record.vantage);
    w.pod(record.neighbor);
    w.pod(record.payload_id);
    w.pod(record.credential_id);
    w.pod(record.actor);
    w.pod(static_cast<std::uint8_t>(record.malicious_truth ? 1 : 0));
  }

  if (frame != nullptr) {
    static constexpr char kZeros[8] = {};
    w.write(kZeros, static_cast<std::size_t>(pad));
    w.write(section.data(), section.size());
  }

  // Trailer: CRC over everything above, itself excluded.
  const std::uint32_t crc = w.crc.value();
  out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
  return static_cast<bool>(out);
}

std::optional<EventStore> read_dataset_impl(std::istream& in, std::string* error) {
  const auto failed = [&](const std::string& message) -> std::optional<EventStore> {
    fail(error, message);
    return std::nullopt;
  };

  CrcReader r{in, {}};
  char magic[4];
  if (!r.read(magic, sizeof magic) || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return failed("dataset: bad magic");
  }
  std::uint32_t version = 0;
  std::uint64_t record_count = 0;
  std::uint32_t payload_count = 0;
  std::uint32_t credential_count = 0;
  if (!r.pod(version)) return failed("dataset: truncated header");
  if (version != kVersion && version != kVersion2 && version != kLegacyVersion) {
    return failed("dataset: unsupported version " + std::to_string(version));
  }
  if (!r.pod(record_count) || !r.pod(payload_count) || !r.pod(credential_count)) {
    return failed("dataset: truncated header");
  }
  std::uint32_t section_flags = 0;
  std::uint64_t frame_offset = 0;
  std::uint64_t frame_length = 0;
  if (version >= kVersion) {
    std::uint32_t reserved = 0;
    if (!r.pod(section_flags) || !r.pod(reserved) || !r.pod(frame_offset) ||
        !r.pod(frame_length)) {
      return failed("dataset: truncated header");
    }
  }

  std::vector<std::string> payloads(payload_count);
  for (std::string& payload : payloads) {
    if (!r.str(payload)) return failed("dataset: truncated payload table");
  }
  std::vector<proto::Credential> credentials(credential_count);
  for (proto::Credential& credential : credentials) {
    std::string encoded;
    if (!r.str(encoded)) return failed("dataset: truncated credential table");
    auto decoded = version == kLegacyVersion ? decode_legacy_credential(encoded)
                                             : EventStore::decode_credential(encoded);
    if (!decoded.has_value()) return failed("dataset: malformed credential entry");
    credential = std::move(*decoded);
  }

  EventStore store;
  for (std::uint64_t i = 0; i < record_count; ++i) {
    SessionRecord record;
    std::uint8_t transport = 0;
    std::uint8_t handshake = 0;
    std::uint8_t malicious = 0;
    std::uint32_t payload_id = kNoPayload;
    std::uint32_t credential_id = kNoCredential;
    if (!r.pod(record.time) || !r.pod(record.src) || !r.pod(record.dst) ||
        !r.pod(record.src_as) || !r.pod(record.port) || !r.pod(transport) ||
        !r.pod(handshake) || !r.pod(record.vantage) || !r.pod(record.neighbor) ||
        !r.pod(payload_id) || !r.pod(credential_id) || !r.pod(record.actor) ||
        !r.pod(malicious)) {
      return failed("dataset: truncated records");
    }
    record.transport = static_cast<net::Transport>(transport);
    record.handshake_completed = handshake != 0;
    record.malicious_truth = malicious != 0;
    if (payload_id != kNoPayload && payload_id >= payloads.size()) {
      return failed("dataset: payload id out of range");
    }
    if (credential_id != kNoCredential && credential_id >= credentials.size()) {
      return failed("dataset: credential id out of range");
    }
    // Payloads are re-interned as records arrive, so the numeric ids may be
    // renumbered relative to the source store; the (record, payload text,
    // credential) associations — all any analysis reads — are preserved.
    store.append(record, payload_id == kNoPayload ? std::string_view{} : payloads[payload_id],
                 credential_id == kNoCredential
                     ? std::nullopt
                     : std::optional<proto::Credential>(credentials[credential_id]));
  }

  if (version >= kVersion) {
    if ((section_flags & kSectionFrame) != 0) {
      if (frame_offset < r.consumed || frame_offset - r.consumed > 8) {
        return failed("dataset: frame section offset inconsistent");
      }
      if (!r.skip(frame_offset - r.consumed) || !r.skip(frame_length)) {
        return failed("dataset: truncated frame section");
      }
    }
    std::uint32_t expected = 0;
    const std::uint32_t actual = r.crc.value();  // trailer itself is not CRC'd
    in.read(reinterpret_cast<char*>(&expected), sizeof expected);
    if (!in) return failed("dataset: missing CRC trailer");
    if (expected != actual) {
      return failed("dataset: CRC mismatch (file corrupt or truncated)");
    }
  }
  return store;
}

}  // namespace

bool write_dataset(const EventStore& store, std::ostream& out) {
  return write_dataset_impl(store, nullptr, out);
}

bool write_dataset(const EventStore& store, const SessionFrame* frame, std::ostream& out) {
  return write_dataset_impl(store, frame, out);
}

std::optional<EventStore> read_dataset(std::istream& in, std::string* error) {
  return read_dataset_impl(in, error);
}

bool probe_frame_section(const std::string& path, std::uint64_t& offset_out,
                         std::uint64_t& length_out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(error, "dataset: cannot open " + path);
  char header[kHeaderBytesV3];
  in.read(header, sizeof header);
  if (!in) return fail(error, "dataset: truncated header in " + path);
  if (std::memcmp(header, kMagic, sizeof kMagic) != 0) {
    return fail(error, "dataset: bad magic in " + path);
  }
  std::uint32_t version = 0;
  std::memcpy(&version, header + 4, 4);
  if (version < kVersion) {
    return fail(error, "dataset: " + path + " predates frame sections (version " +
                           std::to_string(version) + ")");
  }
  std::uint32_t section_flags = 0;
  std::memcpy(&section_flags, header + 24, 4);
  if ((section_flags & kSectionFrame) == 0) {
    return fail(error, "dataset: " + path + " has no frame section");
  }
  // Offsets are relative to the segment's first byte; a spill file holds
  // exactly one segment starting at byte 0, so they are file-absolute here.
  std::memcpy(&offset_out, header + 32, 8);
  std::memcpy(&length_out, header + 40, 8);
  return true;
}

bool write_dataset_segments(const std::vector<const EventStore*>& segments, std::ostream& out) {
  for (const EventStore* segment : segments) {
    if (segment == nullptr || !write_dataset(*segment, out)) return false;
  }
  return static_cast<bool>(out);
}

bool read_dataset_segments(std::istream& in, const std::function<bool(EventStore&&)>& sink,
                           std::string* error) {
  while (true) {
    // Clean EOF between segments ends the file; anything else must parse as
    // a complete segment (read_dataset fails on a bad magic or truncation,
    // which covers garbage at a segment boundary).
    if (in.peek() == std::char_traits<char>::eof()) break;
    auto segment = read_dataset(in, error);
    if (!segment.has_value()) return false;
    if (!sink(std::move(*segment))) return fail(error, "dataset: segment sink aborted");
  }
  return true;
}

std::optional<std::vector<EventStore>> read_dataset_segments(std::istream& in,
                                                             std::string* error) {
  std::vector<EventStore> segments;
  if (!read_dataset_segments(
          in,
          [&segments](EventStore&& segment) {
            segments.push_back(std::move(segment));
            return true;
          },
          error)) {
    return std::nullopt;
  }
  return segments;
}

bool save_dataset_segments(const std::vector<const EventStore*>& segments,
                           const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  return write_dataset_segments(segments, out);
}

std::optional<std::vector<EventStore>> load_dataset_segments(const std::string& path,
                                                             std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail(error, "dataset: cannot open " + path);
    return std::nullopt;
  }
  return read_dataset_segments(in, error);
}

bool save_dataset(const EventStore& store, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  return write_dataset(store, out);
}

std::optional<EventStore> load_dataset(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail(error, "dataset: cannot open " + path);
    return std::nullopt;
  }
  return read_dataset(in, error);
}

void write_csv(const EventStore& store, const topology::Deployment& deployment,
               std::ostream& out) {
  util::CsvWriter csv;
  csv.add_row({"time_ms", "src", "src_asn", "dst", "port", "transport", "handshake", "vantage",
               "network_type", "neighbor", "actor", "payload", "username", "password"});
  for (const SessionRecord& record : store.records()) {
    const topology::VantagePoint& vp = deployment.at(record.vantage);
    std::string username;
    std::string password;
    if (record.credential_id != kNoCredential) {
      const proto::Credential credential = store.credential(record.credential_id);
      username = credential.username;
      password = credential.password;
    }
    csv.add_row({std::to_string(record.time), record.src_addr().to_string(),
                 std::to_string(record.src_as), record.dst_addr().to_string(),
                 std::to_string(record.port), std::string(net::transport_name(record.transport)),
                 record.handshake_completed ? "1" : "0", vp.name,
                 std::string(topology::network_type_name(vp.type)),
                 std::to_string(record.neighbor), std::to_string(record.actor),
                 record.payload_id == kNoPayload
                     ? std::string()
                     : util::escape_payload(store.payload(record.payload_id), 96),
                 username, password});
  }
  out << csv.str();
}

}  // namespace cw::capture
