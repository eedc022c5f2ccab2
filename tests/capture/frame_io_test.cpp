// FrameView: the spill-file half of the out-of-core segment store. The
// contract under test is bit-identity — a frame mapped out of its serialized
// section answers the complete analysis query surface with exactly the bytes
// of the hot frame it was flattened from, across unmap/remap cycles and a
// cold restart (dictionaries reloaded from the inline section); structurally
// damaged sections are rejected at open(), never half-mapped.
#include "capture/frame_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "capture/dataset.h"
#include "proto/fingerprint.h"

namespace cw::capture {
namespace {

constexpr net::Port kPorts[] = {22, 23, 80, 443, 8080};

class FrameIoTest : public ::testing::Test {
 protected:
  FrameIoTest() {
    auto add_vantage = [&](const char* name, topology::NetworkType type,
                           topology::CollectionMethod method) {
      topology::VantagePoint vp;
      vp.name = name;
      vp.provider = topology::Provider::kAws;
      vp.type = type;
      vp.collection = method;
      vp.region = net::make_region("US", "CA");
      vp.addresses = {net::IPv4Addr(3, 0, 0, 1), net::IPv4Addr(3, 0, 0, 2)};
      deployment_.add(std::move(vp));
    };
    add_vantage("cloud", topology::NetworkType::kCloud, topology::CollectionMethod::kGreyNoise);
    add_vantage("edu", topology::NetworkType::kEducation, topology::CollectionMethod::kHoneytrap);
    add_vantage("tel", topology::NetworkType::kTelescope, topology::CollectionMethod::kTelescope);

    // A few hundred records spread over vantages and ports, with enough
    // payload/credential variety to exercise all four dictionaries and both
    // posting container kinds.
    for (std::uint32_t i = 0; i < 400; ++i) {
      SessionRecord record;
      record.vantage = static_cast<topology::VantageId>(i % 3);
      record.port = kPorts[i % 5];
      record.src = 0x0A000000u + i * 17;
      record.src_as = static_cast<net::Asn>(100 + i % 7);
      record.neighbor = static_cast<std::uint16_t>(i % 2);
      record.time = static_cast<util::SimTime>(i);
      record.actor = static_cast<ActorId>(i % 11);
      record.handshake_completed = record.vantage != 2;
      std::string payload;
      if (i % 3 == 0) payload = "GET /probe/" + std::to_string(i % 13) + " HTTP/1.1\r\n\r\n";
      std::optional<proto::Credential> credential;
      if (i % 4 == 0) credential = proto::Credential{"root", "pw" + std::to_string(i % 5)};
      store_.append(record, payload, credential);
    }
    store_.freeze();

    SessionFrame::BuildOptions options;
    options.verdict = [](const SessionRecord& record) {
      if (record.credential_id != kNoCredential) return SessionFrame::Verdict::kMalicious;
      if (record.payload_id != kNoPayload) return SessionFrame::Verdict::kBenign;
      return SessionFrame::Verdict::kUnobservable;
    };
    frame_ = SessionFrame::build(store_, deployment_, std::move(options));
  }

  // Writes the frame section blob alone to a temp file; returns its path.
  std::string write_section(const std::vector<std::uint8_t>& blob, const char* name) {
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    return path;
  }

  // The full query surface of `got`, element for element against `want`.
  // Dictionary text is only compared when `got` carries dictionaries: a view
  // opened without load_dicts binds the code columns but leaves the target's
  // dictionaries alone (a live spill's target frame already holds the
  // experiment's shared dicts; a blank test target holds none).
  void ExpectFramesIdentical(const SessionFrame& got, const SessionFrame& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::uint32_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got.time(i), want.time(i)) << i;
      ASSERT_EQ(got.src(i), want.src(i)) << i;
      ASSERT_EQ(got.src_as(i), want.src_as(i)) << i;
      ASSERT_EQ(got.port(i), want.port(i)) << i;
      ASSERT_EQ(got.vantage(i), want.vantage(i)) << i;
      ASSERT_EQ(got.neighbor(i), want.neighbor(i)) << i;
      ASSERT_EQ(got.payload_id(i), want.payload_id(i)) << i;
      ASSERT_EQ(got.credential_id(i), want.credential_id(i)) << i;
      ASSERT_EQ(got.actor(i), want.actor(i)) << i;
      ASSERT_EQ(got.handshake(i), want.handshake(i)) << i;
      ASSERT_EQ(got.network_type(i), want.network_type(i)) << i;
    }

    ASSERT_EQ(got.has_verdicts(), want.has_verdicts());
    if (want.has_verdicts()) {
      for (std::uint32_t i = 0; i < want.size(); ++i) ASSERT_EQ(got.verdict(i), want.verdict(i));
    }
    ASSERT_EQ(got.has_protocols(), want.has_protocols());
    if (want.has_protocols()) {
      for (std::uint32_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got.protocol(i), want.protocol(i)) << i;
      }
    }
    for (std::size_t c = 0; c < kCodedColumns; ++c) {
      const auto column = static_cast<CodedColumn>(c);
      const auto got_codes = got.codes(column);
      const auto want_codes = want.codes(column);
      ASSERT_EQ(got_codes.size(), want_codes.size());
      for (std::size_t i = 0; i < want_codes.size(); ++i) {
        ASSERT_EQ(got_codes[i], want_codes[i]) << "column " << c << " row " << i;
      }
      if (got.dict(column) != nullptr) {
        // Text, not pointer identity: a cold restart reloads the
        // dictionaries from the inline section.
        const auto& got_dict = *got.dict(column);
        const auto& want_dict = *want.dict(column);
        ASSERT_EQ(got_dict.size(), want_dict.size());
        for (std::uint32_t code = 0; code < want_dict.size(); ++code) {
          ASSERT_EQ(got_dict.at(code), want_dict.at(code));
        }
      }
    }

    for (const net::Port port : kPorts) {
      EXPECT_EQ(got.for_port(port).to_vector(), want.for_port(port).to_vector()) << port;
    }
    EXPECT_TRUE(got.for_port(9999).empty());
    for (topology::VantageId v = 0; v < 3; ++v) {
      const auto got_span = got.for_vantage(v);
      const auto want_span = want.for_vantage(v);
      ASSERT_EQ(got_span.size(), want_span.size()) << "vantage " << v;
      EXPECT_TRUE(std::equal(got_span.begin(), got_span.end(), want_span.begin()));
      for (const net::Port port : kPorts) {
        EXPECT_EQ(got.for_vantage_port(v, port).to_vector(),
                  want.for_vantage_port(v, port).to_vector())
            << "vantage " << v << " port " << port;
      }
    }
    for (const auto type :
         {topology::NetworkType::kCloud, topology::NetworkType::kEducation,
          topology::NetworkType::kTelescope}) {
      const auto got_part = got.for_network(type);
      const auto want_part = want.for_network(type);
      ASSERT_EQ(got_part.size(), want_part.size());
      EXPECT_TRUE(std::equal(got_part.begin(), got_part.end(), want_part.begin()));
    }
  }

  topology::Deployment deployment_;
  EventStore store_;
  SessionFrame frame_;
};

TEST_F(FrameIoTest, MappedFrameMatchesHotFrameEverywhere) {
  const std::vector<std::uint8_t> blob = FrameView::serialize(frame_);
  const std::string path = write_section(blob, "frame_io_map.cwfs");

  FrameView view;
  std::string error;
  ASSERT_TRUE(view.open(path, 0, blob.size(), deployment_, {}, &error)) << error;
  EXPECT_EQ(view.record_count(), frame_.size());
  EXPECT_FALSE(view.mapped());  // open() parses, only map() holds the mapping

  SessionFrame mapped;
  ASSERT_TRUE(view.map(mapped, &error)) << error;
  EXPECT_TRUE(view.mapped());
  ExpectFramesIdentical(mapped, frame_);
  std::remove(path.c_str());
}

TEST_F(FrameIoTest, UnmapKeepsSizesAndRemapRestoresEverything) {
  const std::vector<std::uint8_t> blob = FrameView::serialize(frame_);
  const std::string path = write_section(blob, "frame_io_remap.cwfs");

  FrameView view;
  std::string error;
  ASSERT_TRUE(view.open(path, 0, blob.size(), deployment_, {}, &error)) << error;
  SessionFrame mapped;
  ASSERT_TRUE(view.map(mapped, &error)) << error;

  view.unmap(mapped);
  EXPECT_FALSE(view.mapped());
  EXPECT_EQ(mapped.size(), frame_.size());  // sizes survive the unbind
  // Vantage metadata stays answerable while cold (it is resident state).
  EXPECT_EQ(mapped.network_of(0), topology::NetworkType::kCloud);
  EXPECT_EQ(mapped.collection_of(1), topology::CollectionMethod::kHoneytrap);

  // Two full unmap/remap cycles: the kernel may return a different address
  // each time; the query surface must not care.
  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_TRUE(view.map(mapped, &error)) << error;
    ExpectFramesIdentical(mapped, frame_);
    view.unmap(mapped);
  }
  std::remove(path.c_str());
}

TEST_F(FrameIoTest, ColdRestartReloadsDictionariesFromInlineSection) {
  const std::vector<std::uint8_t> blob = FrameView::serialize(frame_);
  const std::string path = write_section(blob, "frame_io_cold.cwfs");

  // load_dicts = true is the cold-restart path: no shared experiment dicts
  // exist, so the view rebuilds them from the inline dictionary section.
  FrameView view;
  FrameView::Options options;
  options.load_dicts = true;
  std::string error;
  ASSERT_TRUE(view.open(path, 0, blob.size(), deployment_, options, &error)) << error;
  SessionFrame mapped;
  ASSERT_TRUE(view.map(mapped, &error)) << error;
  for (std::size_t c = 0; c < kCodedColumns; ++c) {
    // Reloaded, not shared: distinct object, identical text.
    EXPECT_NE(mapped.dict(static_cast<CodedColumn>(c)).get(),
              frame_.dict(static_cast<CodedColumn>(c)).get());
  }
  ExpectFramesIdentical(mapped, frame_);
  std::remove(path.c_str());
}

TEST_F(FrameIoTest, SerializationIsDeterministic) {
  // The spill file must be a pure function of the frame (sorted
  // directories), so repeated serialization is byte-identical.
  EXPECT_EQ(FrameView::serialize(frame_), FrameView::serialize(frame_));
}

TEST_F(FrameIoTest, OpenRejectsTruncatedAndCorruptSections) {
  const std::vector<std::uint8_t> blob = FrameView::serialize(frame_);
  std::string error;

  // Truncations: cut the section at several depths, including mid-header.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{16}, std::size_t{255},
                                 blob.size() / 2, blob.size() - 1}) {
    const std::vector<std::uint8_t> cut(blob.begin(),
                                        blob.begin() + static_cast<std::ptrdiff_t>(keep));
    const std::string path = write_section(cut, "frame_io_cut.cwfs");
    FrameView view;
    EXPECT_FALSE(view.open(path, 0, cut.size(), deployment_, {}, &error))
        << "kept " << keep << " bytes";
    std::remove(path.c_str());
  }

  // Bad magic.
  std::vector<std::uint8_t> bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  const std::string magic_path = write_section(bad_magic, "frame_io_magic.cwfs");
  FrameView view;
  EXPECT_FALSE(view.open(magic_path, 0, bad_magic.size(), deployment_, {}, &error));
  std::remove(magic_path.c_str());

  // A section without encoded columns (the header's flags word, after
  // magic, version and record count, loses its codes bit): analysis reads
  // characteristics only through codes, so the view refuses it.
  std::vector<std::uint8_t> no_codes = blob;
  no_codes[16] &= static_cast<std::uint8_t>(~4u);
  const std::string no_codes_path = write_section(no_codes, "frame_io_no_codes.cwfs");
  EXPECT_FALSE(view.open(no_codes_path, 0, no_codes.size(), deployment_, {}, &error));
  EXPECT_NE(error.find("no encoded columns"), std::string::npos) << error;
  std::remove(no_codes_path.c_str());
}

TEST_F(FrameIoTest, ProbeFindsTheSectionInsideASpillFile) {
  // The spill layout: one segment written by write_dataset with its frame.
  const std::string path = ::testing::TempDir() + "frame_io_probe.cwds";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(write_dataset(store_, &frame_, out));
  }
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::string error;
  ASSERT_TRUE(probe_frame_section(path, offset, length, &error)) << error;
  EXPECT_GT(offset, 0u);
  EXPECT_GT(length, 0u);

  FrameView::Options options;
  options.load_dicts = true;
  FrameView view;
  ASSERT_TRUE(view.open(path, offset, length, deployment_, options, &error)) << error;
  SessionFrame mapped;
  ASSERT_TRUE(view.map(mapped, &error)) << error;
  ExpectFramesIdentical(mapped, frame_);

  // A file written without a frame (v3 with no section) probes false.
  const std::string bare_path = ::testing::TempDir() + "frame_io_bare.cwds";
  {
    std::ofstream out(bare_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(write_dataset(store_, out));
  }
  EXPECT_FALSE(probe_frame_section(bare_path, offset, length, &error));
  std::remove(path.c_str());
  std::remove(bare_path.c_str());
}

}  // namespace
}  // namespace cw::capture
