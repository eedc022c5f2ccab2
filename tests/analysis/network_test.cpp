#include "analysis/network.h"

#include <gtest/gtest.h>

#include "ids/ruleset.h"
#include "proto/payloads.h"
#include "support/row_scan.h"

namespace cw::analysis {
namespace {

TEST(NetworkPairs, BuildersFindTable1Deployments) {
  topology::DeploymentConfig config;
  config.telescope_slash24s = 2;
  const auto deployment = topology::Deployment::table1(config);

  const auto cc = cloud_cloud_pairs(deployment);
  EXPECT_GT(cc.size(), 5u);
  for (const auto& [a, b] : cc) {
    EXPECT_NE(deployment.at(a).provider, deployment.at(b).provider);
    EXPECT_EQ(deployment.at(a).type, topology::NetworkType::kCloud);
    EXPECT_EQ(deployment.at(b).type, topology::NetworkType::kCloud);
  }

  const auto ce = cloud_edu_pairs(deployment);
  EXPECT_EQ(ce.size(), 4u);
  for (const auto& [a, b] : ce) {
    EXPECT_EQ(deployment.at(a).type, topology::NetworkType::kCloud);
    EXPECT_EQ(deployment.at(b).type, topology::NetworkType::kEducation);
  }

  EXPECT_EQ(edu_edu_pairs(deployment).size(), 1u);
  EXPECT_EQ(telescope_edu_pairs(deployment).size(), 2u);
  EXPECT_EQ(telescope_cloud_pairs(deployment).size(), 3u);
}

TEST(NetworkPairs, EmptyFor2020Honeytrap) {
  topology::DeploymentConfig config;
  config.year = topology::ScenarioYear::k2020;
  config.telescope_slash24s = 2;
  const auto deployment = topology::Deployment::table1(config);
  EXPECT_TRUE(cloud_edu_pairs(deployment).empty());
  EXPECT_TRUE(edu_edu_pairs(deployment).empty());
  EXPECT_FALSE(cloud_cloud_pairs(deployment).empty());
}

class NetworkCompareTest : public ::testing::Test {
 protected:
  NetworkCompareTest() : engine_(ids::curated_engine()), classifier_(engine_) {
    auto add = [&](topology::CollectionMethod method, topology::NetworkType type) {
      topology::VantagePoint vp;
      vp.name = "v" + std::to_string(deployment_.size());
      vp.provider = topology::Provider::kAws;
      vp.type = type;
      vp.collection = method;
      vp.region = net::make_region("US", "CA");
      vp.addresses = {net::IPv4Addr(3, 0, static_cast<std::uint8_t>(deployment_.size()), 1)};
      deployment_.add(std::move(vp));
    };
    add(topology::CollectionMethod::kGreyNoise, topology::NetworkType::kCloud);   // 0
    add(topology::CollectionMethod::kGreyNoise, topology::NetworkType::kCloud);   // 1
    add(topology::CollectionMethod::kHoneytrap, topology::NetworkType::kEducation);  // 2
  }

  void fill(topology::VantageId vantage, net::Asn asn, int count) {
    for (int i = 0; i < count; ++i) {
      capture::SessionRecord record;
      record.vantage = vantage;
      record.port = 80;
      record.src_as = asn;
      record.src = static_cast<std::uint32_t>(vantage) * 10000 + static_cast<std::uint32_t>(i);
      store_.append(record, proto::http_benign_request(0), std::nullopt);
    }
  }

  // The shipped driver over a table cache of the store filled above.
  NetworkComparison compare(
      const std::vector<std::pair<topology::VantageId, topology::VantageId>>& pairs,
      TrafficScope scope, Characteristic characteristic, const NetworkOptions& options = {}) {
    const capture::SessionFrame frame = rowscan::frame_of(store_, deployment_, &classifier_);
    const CharacteristicTableCache cache(frame, classifier_);
    return compare_vantage_pairs(cache, pairs, scope, characteristic, options);
  }

  topology::Deployment deployment_;
  capture::EventStore store_;
  ids::RuleEngine engine_;
  MaliciousClassifier classifier_;
};

TEST_F(NetworkCompareTest, IdenticalVantagesNotDifferent) {
  fill(0, 4134, 200);
  fill(0, 174, 100);
  fill(1, 4134, 200);
  fill(1, 174, 100);
  NetworkOptions options;
  options.family_scale = 1;
  const auto comparison = compare({{0, 1}}, TrafficScope::kHttp80,
                                                Characteristic::kTopAs, options);
  EXPECT_TRUE(comparison.measurable);
  EXPECT_EQ(comparison.pairs_tested, 1u);
  EXPECT_EQ(comparison.pairs_different, 0u);
}

TEST_F(NetworkCompareTest, DisjointAsMixesAreDifferent) {
  fill(0, 4134, 300);
  fill(1, 174, 300);
  NetworkOptions options;
  options.family_scale = 1;
  const auto comparison = compare({{0, 1}}, TrafficScope::kHttp80,
                                                Characteristic::kTopAs, options);
  EXPECT_EQ(comparison.pairs_different, 1u);
  EXPECT_GT(comparison.avg_phi, 0.9);
  EXPECT_EQ(comparison.strongest, stats::EffectMagnitude::kLarge);
}

TEST_F(NetworkCompareTest, StudyWideFamilySuppressesBorderlineDifferences) {
  // A mild 53/47 vs 47/53 shift (phi ~ 0.06 at n = 2000): significant
  // alone, not under the study-wide Bonferroni family.
  fill(0, 4134, 530);
  fill(0, 174, 470);
  fill(1, 4134, 470);
  fill(1, 174, 530);
  NetworkOptions lenient;
  lenient.family_scale = 1;
  NetworkOptions strict;
  strict.family_scale = 1000;
  const auto loose = compare({{0, 1}}, TrafficScope::kHttp80, Characteristic::kTopAs, lenient);
  const auto corrected = compare({{0, 1}}, TrafficScope::kHttp80, Characteristic::kTopAs, strict);
  EXPECT_EQ(loose.pairs_different, 1u);
  EXPECT_EQ(corrected.pairs_different, 0u);
}

TEST_F(NetworkCompareTest, UnmeasurableCharacteristicShortCircuits) {
  fill(0, 4134, 100);
  fill(2, 4134, 100);
  const auto comparison = compare({{0, 2}}, TrafficScope::kSsh22,
                                                Characteristic::kTopUsername);
  EXPECT_FALSE(comparison.measurable);
  EXPECT_EQ(comparison.pairs_tested, 0u);
}

TEST_F(NetworkCompareTest, ThinSlicesAreSkipped) {
  fill(0, 4134, 3);
  fill(1, 174, 3);
  const auto comparison = compare({{0, 1}}, TrafficScope::kHttp80,
                                                Characteristic::kTopAs);
  EXPECT_EQ(comparison.pairs_tested, 0u);
}

}  // namespace
}  // namespace cw::analysis
