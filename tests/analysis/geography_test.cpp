#include "analysis/geography.h"

#include <gtest/gtest.h>

#include <memory>

#include "ids/ruleset.h"
#include "proto/exploits.h"
#include "proto/payloads.h"
#include "support/row_scan.h"

namespace cw::analysis {
namespace {

topology::VantagePoint vantage(const char* country, const char* sub,
                               topology::Provider provider) {
  topology::VantagePoint vp;
  vp.provider = provider;
  vp.type = topology::NetworkType::kCloud;
  vp.collection = topology::CollectionMethod::kGreyNoise;
  vp.region = net::make_region(country, sub);
  vp.name = std::string(topology::provider_name(provider)) + "/" + vp.region.code();
  return vp;
}

TEST(ClassifyPair, ContinentalGroups) {
  const auto us_a = vantage("US", "OR", topology::Provider::kAws);
  const auto us_b = vantage("US", "CA", topology::Provider::kAws);
  const auto de = vantage("DE", "", topology::Provider::kAws);
  const auto fr = vantage("FR", "", topology::Provider::kAws);
  const auto sg = vantage("SG", "", topology::Provider::kAws);
  const auto jp = vantage("JP", "", topology::Provider::kAws);
  const auto br = vantage("BR", "", topology::Provider::kAws);

  EXPECT_EQ(classify_pair(us_a, us_b), PairGroup::kUs);
  EXPECT_EQ(classify_pair(de, fr), PairGroup::kEu);
  EXPECT_EQ(classify_pair(sg, jp), PairGroup::kApac);
  EXPECT_EQ(classify_pair(us_a, de), PairGroup::kIntercontinental);
  EXPECT_EQ(classify_pair(sg, de), PairGroup::kIntercontinental);
  // Two South American regions: same continent but outside the three
  // blocks; the paper folds these into the cross-continental bucket.
  const auto br2 = vantage("EC", "", topology::Provider::kAws);
  EXPECT_EQ(classify_pair(br, br2), PairGroup::kIntercontinental);
}

TEST(PairGroupName, AllGroups) {
  EXPECT_EQ(pair_group_name(PairGroup::kUs), "US");
  EXPECT_EQ(pair_group_name(PairGroup::kEu), "EU");
  EXPECT_EQ(pair_group_name(PairGroup::kApac), "APAC");
  EXPECT_EQ(pair_group_name(PairGroup::kIntercontinental), "Intercontinental");
}

class GeoAnalysisTest : public ::testing::Test {
 protected:
  GeoAnalysisTest() : engine_(ids::curated_engine()), classifier_(engine_) {
    // Three AWS regions: two US, one SG. The SG region receives a distinct
    // exploit campaign on top of the shared baseline.
    deployment_.add(vantage("US", "OR", topology::Provider::kAws));
    deployment_.add(vantage("US", "CA", topology::Provider::kAws));
    deployment_.add(vantage("SG", "", topology::Provider::kAws));
    for (topology::VantageId id = 0; id < 3; ++id) {
      for (int i = 0; i < 120; ++i) {
        capture::SessionRecord record;
        record.vantage = id;
        record.port = 80;
        record.src_as = 100 + static_cast<net::Asn>(i % 3);
        record.src = 1000 + static_cast<std::uint32_t>(i);
        store_.append(record, proto::http_benign_request(static_cast<std::uint32_t>(i % 3)),
                      std::nullopt);
      }
    }
    for (int i = 0; i < 150; ++i) {
      capture::SessionRecord record;
      record.vantage = 2;  // SG only
      record.port = 80;
      record.src_as = 777;
      record.src = 5000 + static_cast<std::uint32_t>(i);
      store_.append(record, proto::exploit_payload(proto::ExploitKind::kGponRce, 9),
                    std::nullopt);
    }
    frame_ = std::make_unique<capture::SessionFrame>(
        rowscan::frame_of(store_, deployment_, &classifier_));
    cache_ = std::make_unique<CharacteristicTableCache>(*frame_, classifier_);
  }

  topology::Deployment deployment_;
  capture::EventStore store_;
  ids::RuleEngine engine_;
  MaliciousClassifier classifier_;
  std::unique_ptr<capture::SessionFrame> frame_;
  std::unique_ptr<CharacteristicTableCache> cache_;
};

TEST_F(GeoAnalysisTest, SimilarityFindsApDivergence) {
  const GeoSimilarity similarity = geo_similarity(*cache_, TrafficScope::kHttp80,
                                                  Characteristic::kTopPayload);
  // One US pair (similar), two intercontinental pairs (US-SG: different).
  EXPECT_EQ(similarity.tested[static_cast<std::size_t>(PairGroup::kUs)], 1u);
  EXPECT_EQ(similarity.similar[static_cast<std::size_t>(PairGroup::kUs)], 1u);
  EXPECT_EQ(similarity.tested[static_cast<std::size_t>(PairGroup::kIntercontinental)], 2u);
  EXPECT_EQ(similarity.similar[static_cast<std::size_t>(PairGroup::kIntercontinental)], 0u);
}

TEST_F(GeoAnalysisTest, MostDifferentRegionIsSingapore) {
  const MostDifferentRegion most =
      most_different_region(*cache_, topology::Provider::kAws, TrafficScope::kHttp80,
                            Characteristic::kTopPayload);
  ASSERT_TRUE(most.any_significant);
  EXPECT_EQ(most.region_code, "AP-SG");
  EXPECT_EQ(most.significant_pairs, 2u);
  EXPECT_GT(most.avg_phi, 0.3);
}

TEST_F(GeoAnalysisTest, NoSignificanceWithoutDivergence) {
  // Restrict to the two US vantage points by asking for a provider whose
  // only regions are those (simulate by comparing a characteristic on which
  // they are identical).
  const MostDifferentRegion most =
      most_different_region(*cache_, topology::Provider::kGoogle, TrafficScope::kHttp80,
                            Characteristic::kTopPayload);
  EXPECT_FALSE(most.any_significant);  // no Google vantage points at all
}

TEST_F(GeoAnalysisTest, MinRecordsFilterSkipsThinVantages) {
  GeoOptions options;
  options.min_records = 100000;  // nothing qualifies
  const GeoSimilarity similarity =
      geo_similarity(*cache_, TrafficScope::kHttp80, Characteristic::kTopPayload, options);
  for (std::size_t g = 0; g < kPairGroupCount; ++g) EXPECT_EQ(similarity.tested[g], 0u);
}

}  // namespace
}  // namespace cw::analysis
