#include "analysis/comparison.h"

#include <gtest/gtest.h>

#include "ids/ruleset.h"
#include "proto/exploits.h"
#include "proto/payloads.h"
#include "support/row_scan.h"

namespace cw::analysis {
namespace {

class ComparisonTest : public ::testing::Test {
 protected:
  ComparisonTest() : engine_(ids::curated_engine()), classifier_(engine_) {}

  using Key = CharacteristicTableCache::SliceKey;

  // A fresh synthetic vantage point; its HTTP/80 records form one group.
  Key add_vantage() {
    topology::VantagePoint vp;
    vp.name = "v" + std::to_string(deployment_.size());
    vp.provider = topology::Provider::kAws;
    vp.type = topology::NetworkType::kCloud;
    vp.collection = topology::CollectionMethod::kGreyNoise;
    vp.region = net::make_region("US", "CA");
    vp.addresses = {net::IPv4Addr(3, 0, static_cast<std::uint8_t>(deployment_.size()), 1)};
    deployment_.add(std::move(vp));
    return {static_cast<topology::VantageId>(deployment_.size() - 1)};
  }

  void add(const Key& key, net::Asn asn, const std::string& payload) {
    capture::SessionRecord record;
    record.vantage = key.vantage;
    record.port = 80;
    record.src_as = asn;
    store_.append(record, payload, std::nullopt);
  }

  // Builds a group with `benign` benign HTTP records from `asn_a` and
  // `malicious` exploit records from `asn_b`, all on one synthetic vantage.
  Key make_slice(int benign, int malicious, net::Asn asn_a, net::Asn asn_b) {
    const Key key = add_vantage();
    for (int i = 0; i < benign; ++i) add(key, asn_a, proto::http_benign_request(0));
    for (int i = 0; i < malicious; ++i) {
      add(key, asn_b, proto::exploit_payload(proto::ExploitKind::kLog4Shell, 1));
    }
    return key;
  }

  // The shipped driver over a table cache of everything added so far.
  stats::SignificanceTest compare(const std::vector<Key>& groups,
                                  Characteristic characteristic) {
    const capture::SessionFrame frame = rowscan::frame_of(store_, deployment_, &classifier_);
    const CharacteristicTableCache cache(frame, classifier_);
    return compare_characteristic(cache, groups, TrafficScope::kHttp80, characteristic,
                                  CompareOptions{});
  }

  ids::RuleEngine engine_;
  MaliciousClassifier classifier_;
  topology::Deployment deployment_;
  capture::EventStore store_;
};

TEST_F(ComparisonTest, TopAsIdenticalGroupsNotSignificant) {
  const Key a = make_slice(100, 100, 1, 2);
  const Key b = make_slice(100, 100, 1, 2);
  const auto test = compare({a, b}, Characteristic::kTopAs);
  ASSERT_TRUE(test.chi.valid);
  EXPECT_FALSE(test.significant);
}

TEST_F(ComparisonTest, TopAsDisjointGroupsSignificant) {
  const Key a = make_slice(200, 0, 1, 2);
  const Key b = make_slice(0, 200, 3, 4);
  const auto test = compare({a, b}, Characteristic::kTopAs);
  ASSERT_TRUE(test.chi.valid);
  EXPECT_TRUE(test.significant);
  EXPECT_EQ(test.magnitude, stats::EffectMagnitude::kLarge);
}

TEST_F(ComparisonTest, FracMaliciousDetectsRateDifference) {
  const Key mostly_benign = make_slice(300, 20, 1, 1);
  const Key mostly_malicious = make_slice(20, 300, 1, 1);
  const auto test = compare({mostly_benign, mostly_malicious}, Characteristic::kFracMalicious);
  ASSERT_TRUE(test.chi.valid);
  EXPECT_TRUE(test.significant);
}

TEST_F(ComparisonTest, FracMaliciousSameRateNotSignificant) {
  const Key a = make_slice(100, 50, 1, 1);
  const Key b = make_slice(200, 100, 1, 1);
  const auto test = compare({a, b}, Characteristic::kFracMalicious);
  ASSERT_TRUE(test.chi.valid);
  EXPECT_FALSE(test.significant);
}

TEST_F(ComparisonTest, PayloadComparisonSeparatesCampaigns) {
  const Key a = make_slice(0, 150, 1, 1);  // log4shell campaign
  const Key b = add_vantage();
  for (int i = 0; i < 150; ++i) add(b, 1, proto::exploit_payload(proto::ExploitKind::kGponRce, 2));
  const auto test = compare({a, b}, Characteristic::kTopPayload);
  ASSERT_TRUE(test.chi.valid);
  EXPECT_TRUE(test.significant);
}

TEST(Measurable, CollectionMethodMatrix) {
  using topology::CollectionMethod;
  // GreyNoise measures everything.
  for (auto c : {Characteristic::kTopAs, Characteristic::kFracMalicious,
                 Characteristic::kTopUsername, Characteristic::kTopPassword,
                 Characteristic::kTopPayload}) {
    EXPECT_TRUE(measurable(c, CollectionMethod::kGreyNoise, TrafficScope::kSsh22));
  }
  // Honeytrap: no credentials; no intent on auth protocols.
  EXPECT_FALSE(
      measurable(Characteristic::kTopUsername, CollectionMethod::kHoneytrap, TrafficScope::kSsh22));
  EXPECT_FALSE(measurable(Characteristic::kTopPassword, CollectionMethod::kHoneytrap,
                          TrafficScope::kTelnet23));
  EXPECT_FALSE(measurable(Characteristic::kFracMalicious, CollectionMethod::kHoneytrap,
                          TrafficScope::kSsh22));
  EXPECT_TRUE(measurable(Characteristic::kFracMalicious, CollectionMethod::kHoneytrap,
                         TrafficScope::kHttp80));
  EXPECT_TRUE(
      measurable(Characteristic::kTopPayload, CollectionMethod::kHoneytrap, TrafficScope::kHttp80));
  // Telescope: only source attribution.
  EXPECT_TRUE(measurable(Characteristic::kTopAs, CollectionMethod::kTelescope,
                         TrafficScope::kAnyAll));
  EXPECT_FALSE(measurable(Characteristic::kTopPayload, CollectionMethod::kTelescope,
                          TrafficScope::kHttp80));
  EXPECT_FALSE(measurable(Characteristic::kFracMalicious, CollectionMethod::kTelescope,
                          TrafficScope::kAnyAll));
}

TEST(CharacteristicName, AllValues) {
  EXPECT_EQ(characteristic_name(Characteristic::kTopAs), "Top 3 AS");
  EXPECT_EQ(characteristic_name(Characteristic::kFracMalicious), "Fraction Malicious");
  EXPECT_EQ(characteristic_name(Characteristic::kTopUsername), "Top 3 Username");
  EXPECT_EQ(characteristic_name(Characteristic::kTopPassword), "Top 3 Password");
  EXPECT_EQ(characteristic_name(Characteristic::kTopPayload), "Top 3 Payloads");
}

}  // namespace
}  // namespace cw::analysis
