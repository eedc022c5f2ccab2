#include "analysis/campaigns.h"

#include <gtest/gtest.h>

#include "proto/exploits.h"
#include "proto/payloads.h"
#include "support/row_scan.h"

namespace cw::analysis {
namespace {

class CampaignsTest : public ::testing::Test {
 protected:
  CampaignsTest() {
    topology::VantagePoint honeytrap;  // vantage 0, where every record lands
    honeytrap.name = "ht";
    honeytrap.provider = topology::Provider::kStanford;
    honeytrap.type = topology::NetworkType::kEducation;
    honeytrap.collection = topology::CollectionMethod::kHoneytrap;
    honeytrap.region = net::make_region("US", "CA");
    honeytrap.addresses = {net::IPv4Addr(171, 64, 0, 1)};
    deployment_.add(std::move(honeytrap));
  }

  void add(util::SimTime time, std::uint32_t src, capture::ActorId actor, std::string payload,
           net::Port port = 80) {
    capture::SessionRecord record;
    record.time = time;
    record.src = src;
    record.actor = actor;
    record.port = port;
    record.vantage = 0;
    store_.append(record, payload, std::nullopt);
  }

  // The shipped inference and validation over a frame of the store.
  std::vector<InferredCampaign> infer(const CampaignInferenceOptions& options = {}) {
    return infer_campaigns(rowscan::frame_of(store_, deployment_), options);
  }
  CampaignValidation validate(const std::vector<InferredCampaign>& campaigns) {
    return validate_campaigns(rowscan::frame_of(store_, deployment_), campaigns);
  }

  topology::Deployment deployment_;
  capture::EventStore store_;
};

TEST_F(CampaignsTest, ClustersMultiSourceCampaign) {
  const std::string payload = proto::exploit_payload(proto::ExploitKind::kLog4Shell, 7);
  for (std::uint32_t src = 1; src <= 5; ++src) {
    add(src * util::kHour, src, /*actor=*/42, payload);
  }
  const auto campaigns = infer();
  ASSERT_EQ(campaigns.size(), 1u);
  EXPECT_EQ(campaigns[0].sources.size(), 5u);
  EXPECT_EQ(campaigns[0].events, 5u);
  EXPECT_EQ(campaigns[0].dominant_port, 80);
  EXPECT_EQ(campaigns[0].first_seen, util::kHour);
  EXPECT_EQ(campaigns[0].last_seen, 5 * util::kHour);
}

TEST_F(CampaignsTest, SingletonSourcesAreNotCampaigns) {
  add(0, 1, 1, proto::exploit_payload(proto::ExploitKind::kGponRce, 1));
  add(1000, 2, 2, proto::exploit_payload(proto::ExploitKind::kThinkPhpRce, 2));
  EXPECT_TRUE(infer().empty());
}

TEST_F(CampaignsTest, HostHeaderDifferencesCollapseViaNormalization) {
  // Same campaign tool, per-target Host headers: must cluster together.
  for (std::uint32_t src = 1; src <= 4; ++src) {
    add(src * util::kMinute, src, 9,
        "POST /api HTTP/1.1\r\nHost: 3.0.0." + std::to_string(src) + "\r\n\r\nexploit");
  }
  const auto campaigns = infer();
  ASSERT_EQ(campaigns.size(), 1u);
  EXPECT_EQ(campaigns[0].sources.size(), 4u);
}

TEST_F(CampaignsTest, QuietGapSplitsCampaign) {
  const std::string payload = proto::exploit_payload(proto::ExploitKind::kNetgearRce, 3);
  for (std::uint32_t src = 1; src <= 3; ++src) add(src * util::kHour, src, 5, payload);
  // Second burst four days later with three more sources.
  for (std::uint32_t src = 11; src <= 13; ++src) {
    add(4 * util::kDay + src * util::kHour, src, 5, payload);
  }
  CampaignInferenceOptions options;
  options.max_gap = 2 * util::kDay;
  const auto campaigns = infer(options);
  EXPECT_EQ(campaigns.size(), 2u);
}

TEST_F(CampaignsTest, TelescopeRecordsAreIgnored) {
  for (std::uint32_t src = 1; src <= 5; ++src) {
    capture::SessionRecord record;  // no payload retained
    record.time = src;
    record.src = src;
    record.port = 445;
    store_.append(record, {}, std::nullopt);
  }
  EXPECT_TRUE(infer().empty());
}

TEST_F(CampaignsTest, ValidationMeasuresPurityAndRecall) {
  // True campaign A: actor 1, 4 sources, one payload.
  const std::string payload_a = proto::exploit_payload(proto::ExploitKind::kLog4Shell, 1);
  for (std::uint32_t src = 1; src <= 4; ++src) add(src, src, 1, payload_a);
  // True campaign B: actor 2, 3 sources, its own payload.
  const std::string payload_b = proto::exploit_payload(proto::ExploitKind::kGponRce, 2);
  for (std::uint32_t src = 11; src <= 13; ++src) add(src, src, 2, payload_b);
  // A shared-payload confusion: actor 3's source reuses campaign A's bytes.
  add(100, 99, 3, payload_a);

  const auto campaigns = infer();
  const auto validation = validate(campaigns);
  EXPECT_EQ(validation.inferred, 2u);
  EXPECT_EQ(validation.true_campaigns, 2u);
  // Campaign A's cluster contains actor 3's source: impure. B is pure.
  EXPECT_EQ(validation.pure, 1u);
  EXPECT_EQ(validation.recovered, 1u);
  EXPECT_DOUBLE_EQ(validation.purity(), 0.5);
  EXPECT_DOUBLE_EQ(validation.recall(), 0.5);
}

TEST_F(CampaignsTest, CampaignsSortByVolume) {
  const std::string big = proto::exploit_payload(proto::ExploitKind::kLog4Shell, 1);
  const std::string small = proto::exploit_payload(proto::ExploitKind::kGponRce, 2);
  for (std::uint32_t src = 1; src <= 3; ++src) add(src, src, 1, small);
  for (std::uint32_t src = 11; src <= 20; ++src) add(src, src, 2, big);
  const auto campaigns = infer();
  ASSERT_EQ(campaigns.size(), 2u);
  EXPECT_GT(campaigns[0].events, campaigns[1].events);
}

}  // namespace
}  // namespace cw::analysis
