#include "analysis/overlap.h"

#include <gtest/gtest.h>

#include "ids/ruleset.h"
#include "proto/exploits.h"
#include "proto/payloads.h"
#include "support/row_scan.h"

namespace cw::analysis {
namespace {

class OverlapTest : public ::testing::Test {
 protected:
  OverlapTest() : engine_(ids::curated_engine()), classifier_(engine_) {
    auto add_vantage = [&](const char* name, topology::Provider provider,
                           topology::NetworkType type, topology::CollectionMethod method) {
      topology::VantagePoint vp;
      vp.name = name;
      vp.provider = provider;
      vp.type = type;
      vp.collection = method;
      vp.region = net::make_region("US", "CA");
      vp.addresses = {net::IPv4Addr(3, 0, 0, 1)};
      deployment_.add(std::move(vp));
    };
    add_vantage("cloud", topology::Provider::kAws, topology::NetworkType::kCloud,
                topology::CollectionMethod::kGreyNoise);
    add_vantage("edu", topology::Provider::kStanford, topology::NetworkType::kEducation,
                topology::CollectionMethod::kHoneytrap);
    add_vantage("tel", topology::Provider::kOrion, topology::NetworkType::kTelescope,
                topology::CollectionMethod::kTelescope);
  }

  // network: 0 cloud, 1 edu, 2 telescope.
  void add(int network, net::Port port, std::uint32_t src, std::string payload = {},
           std::optional<proto::Credential> credential = std::nullopt,
           capture::ActorId actor = 9) {
    capture::SessionRecord record;
    record.vantage = static_cast<topology::VantageId>(network);
    record.port = port;
    record.src = src;
    record.actor = actor;
    if (network == 2) {
      store_.append(record, {}, std::nullopt);  // telescope keeps nothing
    } else {
      store_.append(record, payload, credential);
    }
  }

  // The shipped scans over the one-frame list of the store built above.
  std::vector<OverlapRow> scanner(const std::vector<net::Port>& ports,
                                  const std::vector<capture::ActorId>& exclude = {}) {
    const capture::SessionFrame frame = rowscan::frame_of(store_, deployment_);
    return scanner_overlap({&frame}, ports, exclude);
  }
  std::vector<MaliciousOverlapRow> attacker(const std::vector<net::Port>& ports) {
    const capture::SessionFrame frame = rowscan::frame_of(store_, deployment_, &classifier_);
    return attacker_overlap({&frame}, ports);
  }

  topology::Deployment deployment_;
  capture::EventStore store_;
  ids::RuleEngine engine_;
  MaliciousClassifier classifier_;
};

TEST_F(OverlapTest, ExactFractions) {
  // Cloud port 22 sources: 1, 2, 3, 4. Telescope: 1, 2 (and 5 telescope-only).
  for (std::uint32_t src : {1u, 2u, 3u, 4u}) add(0, 22, src, "SSH-2.0-x\r\n");
  for (std::uint32_t src : {1u, 2u, 5u}) add(2, 22, src);
  // EDU port 22: sources 1, 9.
  for (std::uint32_t src : {1u, 9u}) add(1, 22, src, "SSH-2.0-x\r\n");

  const auto rows = scanner({22});
  ASSERT_EQ(rows.size(), 1u);
  const OverlapRow& row = rows[0];
  EXPECT_EQ(row.cloud_ips, 4u);
  EXPECT_EQ(row.edu_ips, 2u);
  EXPECT_EQ(row.telescope_ips, 3u);
  ASSERT_TRUE(row.tel_cloud_over_cloud.has_value());
  EXPECT_DOUBLE_EQ(*row.tel_cloud_over_cloud, 0.5);   // {1,2} of {1,2,3,4}
  ASSERT_TRUE(row.tel_edu_over_edu.has_value());
  EXPECT_DOUBLE_EQ(*row.tel_edu_over_edu, 0.5);       // {1} of {1,9}
  ASSERT_TRUE(row.cloud_edu_over_cloud.has_value());
  EXPECT_DOUBLE_EQ(*row.cloud_edu_over_cloud, 0.25);  // {1} of {1,2,3,4}
}

TEST_F(OverlapTest, EmptyDenominatorsYieldNullopt) {
  add(2, 443, 7);  // telescope only
  const auto rows = scanner({443});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].tel_cloud_over_cloud.has_value());
  EXPECT_FALSE(rows[0].tel_edu_over_edu.has_value());
}

TEST_F(OverlapTest, ExcludedActorsAreInvisible) {
  add(0, 22, 1, "SSH-2.0-x\r\n", std::nullopt, /*actor=*/1);  // crawler
  add(0, 22, 2, "SSH-2.0-x\r\n", std::nullopt, /*actor=*/9);
  add(2, 22, 1, {}, std::nullopt, /*actor=*/1);
  const auto rows = scanner({22}, {1});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].cloud_ips, 1u);
  EXPECT_EQ(rows[0].telescope_ips, 0u);
}

TEST_F(OverlapTest, AttackerOverlapUsesMeasuredIntent) {
  // Source 1: malicious on cloud (credential) and present in telescope.
  add(0, 22, 1, proto::ssh_client_banner(), proto::Credential{"root", "root"});
  // Source 2: benign on cloud, also in telescope — must not count.
  add(0, 22, 2, proto::ssh_client_banner());
  add(2, 22, 1);
  add(2, 22, 2);
  const auto rows = attacker({22});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].malicious_cloud_ips, 1u);
  ASSERT_TRUE(rows[0].tel_over_malicious_cloud.has_value());
  EXPECT_DOUBLE_EQ(*rows[0].tel_over_malicious_cloud, 1.0);
}

TEST_F(OverlapTest, EduSshIntentUnmeasurableYieldsNullopt) {
  // Honeytrap EDU: SSH banners with no credentials — nothing measurable as
  // malicious, so the cell is absent (the paper's "x").
  add(1, 22, 1, proto::ssh_client_banner());
  add(2, 22, 1);
  const auto rows = attacker({22});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].tel_over_malicious_edu.has_value());
}

TEST_F(OverlapTest, HttpExploitOnEduIsMeasurable) {
  add(1, 80, 1, proto::exploit_payload(proto::ExploitKind::kLog4Shell, 0));
  add(2, 80, 1);
  const auto rows = attacker({80});
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_TRUE(rows[0].tel_over_malicious_edu.has_value());
  EXPECT_DOUBLE_EQ(*rows[0].tel_over_malicious_edu, 1.0);
}

}  // namespace
}  // namespace cw::analysis
