// The analysis contract: every shipped entry point — the comparison drivers
// over the frame's CharacteristicTableCache, the scans over the frame list —
// is row-for-row and bit-for-bit equivalent to the row-scan oracle
// (support/row_scan.h), which reads the store record by record. One small
// (but real) experiment, each analysis run both ways, results compared
// exactly — doubles included, since both paths must accumulate in the same
// order.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "analysis/campaigns.h"
#include "analysis/geography.h"
#include "analysis/neighborhood.h"
#include "analysis/network.h"
#include "analysis/overlap.h"
#include "analysis/protocols.h"
#include "analysis/structure.h"
#include "core/experiment.h"
#include "runner/thread_pool.h"
#include "support/row_scan.h"

namespace cw::analysis {
namespace {

const core::ExperimentResult& experiment() {
  static const std::unique_ptr<core::ExperimentResult> result = [] {
    core::ExperimentConfig config;
    config.scale = 0.05;
    config.telescope_slash24s = 4;
    config.duration = util::kDay;
    return core::Experiment(config).run();
  }();
  return *result;
}

constexpr TrafficScope kAllScopes[] = {TrafficScope::kSsh22, TrafficScope::kTelnet23,
                                       TrafficScope::kHttp80, TrafficScope::kHttpAllPorts,
                                       TrafficScope::kAnyAll};

constexpr Characteristic kAllCharacteristics[] = {
    Characteristic::kTopAs, Characteristic::kFracMalicious, Characteristic::kTopUsername,
    Characteristic::kTopPassword, Characteristic::kTopPayload};

// The oracle cache: the same query surface as result.table_cache(),
// answered by per-record scans of the store.
const rowscan::RowScanTableCache& oracle_cache() {
  static const rowscan::RowScanTableCache cache(experiment().frame(), experiment().classifier());
  return cache;
}

class FrameSliceEquivalence : public ::testing::TestWithParam<TrafficScope> {};

TEST_P(FrameSliceEquivalence, InScopeAgreesPerRecord) {
  const auto& result = experiment();
  const capture::SessionFrame& frame = result.frame();
  const capture::EventStore& store = result.store();
  for (std::uint32_t i = 0; i < frame.size(); ++i) {
    ASSERT_EQ(rowscan::in_scope(store.records()[i], GetParam(), store),
              in_scope(frame, i, GetParam()))
        << "record " << i;
  }
}

TEST_P(FrameSliceEquivalence, VantageAndNeighborSlicesMatchBothWays) {
  const auto& result = experiment();
  const CharacteristicTableCache& cache = result.table_cache();
  const rowscan::RowScanTableCache& oracle = oracle_cache();
  for (const topology::VantagePoint& vp : result.deployment().vantage_points()) {
    // Equal sizes and equal per-slice tables (table_cache_test) cover both
    // directions: no row the store scan finds is missing from the frame
    // slice, and vice versa.
    ASSERT_EQ(cache.record_count(vp.id, GetParam()), oracle.record_count(vp.id, GetParam()))
        << vp.name;
    for (std::uint16_t n = 0; n < vp.addresses.size(); ++n) {
      ASSERT_EQ(cache.record_count(vp.id, GetParam(), n),
                oracle.record_count(vp.id, GetParam(), n))
          << vp.name << " neighbor " << n;
    }
    // The frame cache reads the verdict column; the oracle classifies.
    EXPECT_EQ(cache.malicious(vp.id, GetParam()), oracle.malicious(vp.id, GetParam()));
  }
}

TEST_P(FrameSliceEquivalence, NeighborhoodSummariesMatch) {
  const auto& result = experiment();
  for (const Characteristic characteristic : kAllCharacteristics) {
    const NeighborhoodSummary a = analyze_neighborhoods(oracle_cache(), GetParam(), characteristic);
    const NeighborhoodSummary b =
        analyze_neighborhoods(result.table_cache(), GetParam(), characteristic);
    EXPECT_EQ(a.neighborhoods_tested, b.neighborhoods_tested);
    EXPECT_EQ(a.neighborhoods_different, b.neighborhoods_different);
    EXPECT_EQ(a.pct_different, b.pct_different);
    EXPECT_EQ(a.avg_phi, b.avg_phi);
    EXPECT_EQ(a.typical_magnitude, b.typical_magnitude);
  }
}

TEST_P(FrameSliceEquivalence, GeoSimilarityMatches) {
  const auto& result = experiment();
  for (const Characteristic characteristic : kAllCharacteristics) {
    const GeoSimilarity a = geo_similarity(oracle_cache(), GetParam(), characteristic);
    const GeoSimilarity b = geo_similarity(result.table_cache(), GetParam(), characteristic);
    EXPECT_EQ(a.tested, b.tested);
    EXPECT_EQ(a.similar, b.similar);
  }
}

INSTANTIATE_TEST_SUITE_P(AllScopes, FrameSliceEquivalence, ::testing::ValuesIn(kAllScopes),
                         [](const auto& info) -> std::string {
                           switch (info.param) {
                             case TrafficScope::kSsh22: return "Ssh22";
                             case TrafficScope::kTelnet23: return "Telnet23";
                             case TrafficScope::kHttp80: return "Http80";
                             case TrafficScope::kHttpAllPorts: return "HttpAllPorts";
                             case TrafficScope::kAnyAll: return "AnyAll";
                           }
                           return "Unknown";
                         });

TEST(FrameEquivalence, ScannerOverlapMatches) {
  const auto& result = experiment();
  const auto a = rowscan::scanner_overlap(result.store(), result.deployment(),
                                          net::popular_ports());
  const auto b = scanner_overlap(result.frames(), net::popular_ports());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].port, b[i].port);
    EXPECT_EQ(a[i].cloud_ips, b[i].cloud_ips);
    EXPECT_EQ(a[i].edu_ips, b[i].edu_ips);
    EXPECT_EQ(a[i].telescope_ips, b[i].telescope_ips);
    EXPECT_EQ(a[i].tel_cloud_over_cloud, b[i].tel_cloud_over_cloud);
    EXPECT_EQ(a[i].tel_edu_over_edu, b[i].tel_edu_over_edu);
    EXPECT_EQ(a[i].cloud_edu_over_cloud, b[i].cloud_edu_over_cloud);
  }
}

TEST(FrameEquivalence, AttackerOverlapMatches) {
  const auto& result = experiment();
  const std::vector<net::Port> ports = {23, 2323, 80, 8080, 2222, 22};
  const auto a = rowscan::attacker_overlap(result.store(), result.deployment(),
                                           result.classifier(), ports);
  const auto b = attacker_overlap(result.frames(), ports);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].port, b[i].port);
    EXPECT_EQ(a[i].malicious_cloud_ips, b[i].malicious_cloud_ips);
    EXPECT_EQ(a[i].malicious_edu_ips, b[i].malicious_edu_ips);
    EXPECT_EQ(a[i].tel_over_malicious_cloud, b[i].tel_over_malicious_cloud);
    EXPECT_EQ(a[i].tel_over_malicious_edu, b[i].tel_over_malicious_edu);
  }
}

TEST(FrameEquivalence, ProtocolBreakdownMatches) {
  const auto& result = experiment();
  ProtocolOptions options;
  options.oracle = &result.oracle();
  const auto a = rowscan::protocol_breakdown(result.store(), result.deployment(), options);
  const auto b = protocol_breakdown(result.frames(), options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].port, b[i].port);
    EXPECT_EQ(a[i].scanners_total, b[i].scanners_total);
    EXPECT_EQ(a[i].scanners_expected, b[i].scanners_expected);
    EXPECT_EQ(a[i].pct_expected, b[i].pct_expected);
    EXPECT_EQ(a[i].pct_unexpected, b[i].pct_unexpected);
    EXPECT_EQ(a[i].expected_benign_pct, b[i].expected_benign_pct);
    EXPECT_EQ(a[i].expected_malicious_pct, b[i].expected_malicious_pct);
    EXPECT_EQ(a[i].unexpected_benign_pct, b[i].unexpected_benign_pct);
    EXPECT_EQ(a[i].unexpected_malicious_pct, b[i].unexpected_malicious_pct);
    ASSERT_EQ(a[i].unexpected_shares.size(), b[i].unexpected_shares.size());
    for (std::size_t s = 0; s < a[i].unexpected_shares.size(); ++s) {
      EXPECT_EQ(a[i].unexpected_shares[s].protocol, b[i].unexpected_shares[s].protocol);
      EXPECT_EQ(a[i].unexpected_shares[s].scanners, b[i].unexpected_shares[s].scanners);
      EXPECT_EQ(a[i].unexpected_shares[s].pct_of_port, b[i].unexpected_shares[s].pct_of_port);
    }
  }
}

TEST(FrameEquivalence, CompareVantagePairsMatchesSequentialAndSharded) {
  const auto& result = experiment();
  runner::ThreadPool pool(4);
  for (const auto& pairs : {telescope_cloud_pairs(result.deployment()),
                            telescope_edu_pairs(result.deployment()),
                            cloud_cloud_pairs(result.deployment()),
                            cloud_edu_pairs(result.deployment()),
                            edu_edu_pairs(result.deployment())}) {
    for (const TrafficScope scope : kAllScopes) {
      for (const Characteristic characteristic : kAllCharacteristics) {
        const NetworkComparison a =
            compare_vantage_pairs(oracle_cache(), pairs, scope, characteristic);
        const NetworkComparison b =
            compare_vantage_pairs(result.table_cache(), pairs, scope, characteristic);
        const NetworkComparison c = compare_vantage_pairs(result.table_cache(), pairs, scope,
                                                          characteristic, NetworkOptions{}, &pool);
        for (const NetworkComparison* other : {&b, &c}) {
          EXPECT_EQ(a.measurable, other->measurable);
          EXPECT_EQ(a.pairs_tested, other->pairs_tested);
          EXPECT_EQ(a.pairs_different, other->pairs_different);
          EXPECT_EQ(a.avg_phi, other->avg_phi);
          EXPECT_EQ(a.strongest, other->strongest);
        }
      }
    }
  }
}

TEST(FrameEquivalence, CampaignInferenceMatches) {
  const auto& result = experiment();
  const auto a = rowscan::infer_campaigns(result.store());
  const auto b = infer_campaigns(result.frame());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].signature, b[i].signature);
    EXPECT_EQ(a[i].sources, b[i].sources);
    EXPECT_EQ(a[i].events, b[i].events);
    EXPECT_EQ(a[i].first_seen, b[i].first_seen);
    EXPECT_EQ(a[i].last_seen, b[i].last_seen);
    EXPECT_EQ(a[i].dominant_port, b[i].dominant_port);
  }
  const CampaignValidation va = rowscan::validate_campaigns(result.store(), a);
  const CampaignValidation vb = validate_campaigns(result.frame(), b);
  EXPECT_EQ(va.inferred, vb.inferred);
  EXPECT_EQ(va.pure, vb.pure);
  EXPECT_EQ(va.true_campaigns, vb.true_campaigns);
  EXPECT_EQ(va.recovered, vb.recovered);
}

TEST(FrameEquivalence, TelescopeAddressCountsMatch) {
  const auto& result = experiment();
  for (const net::Port port : {net::Port{23}, net::Port{80}}) {
    EXPECT_EQ(rowscan::telescope_address_counts(result.store(), result.deployment(), port),
              telescope_address_counts(result.frames(), port));
  }
}

TEST(FrameEquivalence, MostDifferentRegionMatches) {
  const auto& result = experiment();
  for (const topology::Provider provider :
       {topology::Provider::kAws, topology::Provider::kGoogle, topology::Provider::kLinode}) {
    for (const TrafficScope scope : kAllScopes) {
      for (const Characteristic characteristic : kAllCharacteristics) {
        const MostDifferentRegion a =
            most_different_region(oracle_cache(), provider, scope, characteristic);
        const MostDifferentRegion b =
            most_different_region(result.table_cache(), provider, scope, characteristic);
        EXPECT_EQ(a.any_significant, b.any_significant);
        EXPECT_EQ(a.region_code, b.region_code);
        EXPECT_EQ(a.avg_phi, b.avg_phi);
        EXPECT_EQ(a.magnitude, b.magnitude);
        EXPECT_EQ(a.significant_pairs, b.significant_pairs);
      }
    }
  }
}

TEST(FrameEquivalence, VerdictColumnMatchesClassifier) {
  const auto& result = experiment();
  const capture::SessionFrame& frame = result.frame();
  ASSERT_TRUE(frame.has_verdicts());
  for (std::uint32_t i = 0; i < frame.size(); ++i) {
    const MeasuredIntent intent =
        result.classifier().classify(result.store().records()[i], result.store());
    const capture::SessionFrame::Verdict expected =
        intent == MeasuredIntent::kMalicious  ? capture::SessionFrame::Verdict::kMalicious
        : intent == MeasuredIntent::kBenign   ? capture::SessionFrame::Verdict::kBenign
                                              : capture::SessionFrame::Verdict::kUnobservable;
    ASSERT_EQ(frame.verdict(i), expected) << "record " << i;
  }
}

}  // namespace
}  // namespace cw::analysis
