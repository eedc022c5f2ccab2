// End-to-end checks that the analysis pipeline recovers the paper's
// qualitative findings from raw simulated traffic. These are the
// reproduction's acceptance tests: each assertion corresponds to a claim in
// the paper, tested on a moderately sized run.
#include <gtest/gtest.h>

#include "analysis/geography.h"
#include "analysis/neighborhood.h"
#include "analysis/network.h"
#include "analysis/overlap.h"
#include "analysis/protocols.h"
#include "analysis/structure.h"
#include "core/experiment.h"

namespace cw::core {
namespace {

class PaperClaims : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentConfig config;
    config.scale = 0.5;
    config.telescope_slash24s = 16;
    result_ = Experiment(config).run().release();
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static const ExperimentResult& r() { return *result_; }
  static ExperimentResult* result_;

  static std::optional<double> cloud_overlap(net::Port port) {
    const auto rows = analysis::scanner_overlap(
        r().frames(), {port},
        {agents::Population::kCensysActorId, agents::Population::kShodanActorId});
    return rows.front().tel_cloud_over_cloud;
  }
};

ExperimentResult* PaperClaims::result_ = nullptr;

// Table 8: Telnet scanners do not discriminate against the telescope;
// SSH-port scanners avoid it hardest.
TEST_F(PaperClaims, TelescopeAvoidanceOrdering) {
  const auto telnet = cloud_overlap(23);
  const auto ssh = cloud_overlap(22);
  const auto ssh_alt = cloud_overlap(2222);
  ASSERT_TRUE(telnet && ssh && ssh_alt);
  EXPECT_GT(*telnet, 0.75);   // paper: 91%
  EXPECT_LT(*ssh, 0.35);      // paper: 13%
  EXPECT_LT(*ssh_alt, 0.40);  // paper: 9%
  EXPECT_GT(*telnet, *ssh);
}

// Table 9: fewer than a third of SSH attackers appear in the telescope,
// while most Telnet attackers do.
TEST_F(PaperClaims, AttackersOnSshPortsAvoidTelescope) {
  const auto rows = analysis::attacker_overlap(
      r().frames(), {22, 23},
      {agents::Population::kCensysActorId, agents::Population::kShodanActorId});
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_TRUE(rows[0].tel_over_malicious_cloud.has_value());
  ASSERT_TRUE(rows[1].tel_over_malicious_cloud.has_value());
  EXPECT_LT(*rows[0].tel_over_malicious_cloud, 0.35);  // paper: 7.5%
  EXPECT_GT(*rows[1].tel_over_malicious_cloud, 0.70);  // paper: 94%
}

// Section 5.2: the vast majority of cloud scanners also scan the education
// networks.
TEST_F(PaperClaims, CloudScannersAlsoTargetEducation) {
  const auto rows = analysis::scanner_overlap(
      r().frames(), {23, 80},
      {agents::Population::kCensysActorId, agents::Population::kShodanActorId});
  for (const auto& row : rows) {
    ASSERT_TRUE(row.cloud_edu_over_cloud.has_value());
    EXPECT_GT(*row.cloud_edu_over_cloud, 0.35) << row.port;
  }
}

// Table 10: a significantly different set of ASes targets the telescope
// compared to cloud networks, with a large effect on SSH.
TEST_F(PaperClaims, TelescopeAsesDiffer) {
  const auto pairs = analysis::telescope_cloud_pairs(r().deployment());
  ASSERT_FALSE(pairs.empty());
  const auto comparison =
      analysis::compare_vantage_pairs(r().table_cache(), pairs, analysis::TrafficScope::kSsh22,
                                      analysis::Characteristic::kTopAs);
  EXPECT_GT(comparison.pairs_different, 0u);
  EXPECT_GT(comparison.avg_phi, 0.3);
}

// Table 7: scanners rarely discriminate between education networks.
TEST_F(PaperClaims, EducationNetworksLookAlike) {
  const auto pairs = analysis::edu_edu_pairs(r().deployment());
  ASSERT_EQ(pairs.size(), 1u);
  int different = 0;
  for (const auto scope :
       {analysis::TrafficScope::kSsh22, analysis::TrafficScope::kTelnet23,
        analysis::TrafficScope::kHttp80}) {
    const auto comparison = analysis::compare_vantage_pairs(r().table_cache(), pairs, scope,
                                                            analysis::Characteristic::kTopAs);
    different += static_cast<int>(comparison.pairs_different);
  }
  EXPECT_LE(different, 1);
}

// Section 4.1 / Table 2: a substantial share of neighborhoods receives a
// significantly different set of top ASes; password distributions differ
// far less often on SSH.
TEST_F(PaperClaims, NeighborhoodsDifferInAsesMoreThanPasswords) {
  const auto as_summary = analysis::analyze_neighborhoods(
      r().table_cache(), analysis::TrafficScope::kSsh22, analysis::Characteristic::kTopAs);
  const auto pwd_summary = analysis::analyze_neighborhoods(
      r().table_cache(), analysis::TrafficScope::kSsh22, analysis::Characteristic::kTopPassword);
  EXPECT_GT(as_summary.pct_different, 20.0);
  EXPECT_LT(pwd_summary.pct_different, as_summary.pct_different);
}

// Section 5.1 / Table 5: Asia-Pacific region pairs differ in HTTP payloads
// far more often than US pairs.
TEST_F(PaperClaims, AsiaPacificPayloadDivergence) {
  const auto similarity =
      analysis::geo_similarity(r().table_cache(), analysis::TrafficScope::kHttpAllPorts,
                               analysis::Characteristic::kTopPayload);
  const double us = similarity.pct_similar(analysis::PairGroup::kUs);
  const double apac = similarity.pct_similar(analysis::PairGroup::kApac);
  EXPECT_LT(apac, us);
  EXPECT_LT(apac, 80.0);  // paper: 20% similar
}

// Section 5.1: the AWS Australia region's Telnet credentials are dominated
// by the Huawei-targeting regional dictionary.
TEST_F(PaperClaims, AwsAustraliaTelnetUsernames) {
  const auto most = analysis::most_different_region(
      r().table_cache(), topology::Provider::kAws, analysis::TrafficScope::kTelnet23,
      analysis::Characteristic::kTopUsername);
  ASSERT_TRUE(most.any_significant);
  EXPECT_EQ(most.region_code, "AP-AU");
}

// Section 6 / Table 11: at least 15% of port-80/8080 scanners speak
// something other than HTTP, led by TLS.
TEST_F(PaperClaims, UnexpectedProtocolsOnHttpPorts) {
  analysis::ProtocolOptions options;
  options.oracle = &r().oracle();
  const auto rows = analysis::protocol_breakdown(r().frames(), options);
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    EXPECT_GE(row.pct_unexpected, 10.0) << row.port;
    ASSERT_FALSE(row.unexpected_shares.empty());
    EXPECT_EQ(row.unexpected_shares.front().protocol, net::Protocol::kTls);
  }
}

// Section 4.2 / Figure 1b: scanners avoid .255 addresses on port 445.
TEST_F(PaperClaims, BroadcastAvoidanceOnSmb) {
  const auto counts = analysis::telescope_address_counts(r().frames(), 445);
  ASSERT_FALSE(counts.empty());
  const topology::VantagePoint* telescope = nullptr;
  for (const auto& vp : r().deployment().vantage_points()) {
    if (vp.type == topology::NetworkType::kTelescope) telescope = &vp;
  }
  const auto stats = analysis::structure_stats(counts, *telescope);
  EXPECT_GT(stats.avoidance_last_255(), 2.0);  // paper: ~3.5-9x
}

// Section 4.2 / Figure 1a: the first address of a /16 is over-targeted on
// port 22.
TEST_F(PaperClaims, FirstOfSlash16PreferenceOnSsh) {
  const auto counts = analysis::telescope_address_counts(r().frames(), 22);
  ASSERT_FALSE(counts.empty());
  const topology::VantagePoint* telescope = nullptr;
  for (const auto& vp : r().deployment().vantage_points()) {
    if (vp.type == topology::NetworkType::kTelescope) telescope = &vp;
  }
  const auto stats = analysis::structure_stats(counts, *telescope);
  EXPECT_GT(stats.preference_first_16(), 1.05);
}

// Section 3.2: a meaningful share of traffic to 22/23 never attempts
// authentication, and most HTTP/80 payloads are not exploits.
TEST_F(PaperClaims, MaliciousnessFractions) {
  std::uint64_t ssh_total = 0, ssh_auth = 0, http_total = 0, http_malicious = 0;
  for (const capture::SessionRecord& record : r().store().records()) {
    const bool observable = record.payload_id != capture::kNoPayload ||
                            record.credential_id != capture::kNoCredential;
    if (!observable) continue;
    if (record.port == 22) {
      ++ssh_total;
      if (record.credential_id != capture::kNoCredential) ++ssh_auth;
    } else if (record.port == 80 && record.payload_id != capture::kNoPayload) {
      ++http_total;
      if (r().classifier().classify(record, r().store()) ==
          analysis::MeasuredIntent::kMalicious) {
        ++http_malicious;
      }
    }
  }
  ASSERT_GT(ssh_total, 0u);
  ASSERT_GT(http_total, 0u);
  const double ssh_non_auth = 1.0 - static_cast<double>(ssh_auth) / ssh_total;
  const double http_benign = 1.0 - static_cast<double>(http_malicious) / http_total;
  EXPECT_GT(ssh_non_auth, 0.05);  // some recon traffic exists...
  EXPECT_LT(ssh_non_auth, 0.70);  // ...but auth attempts dominate (paper: 24% non-auth)
  EXPECT_GT(http_benign, 0.50);   // most HTTP is not exploit traffic (paper: 75%)
}

}  // namespace
}  // namespace cw::core
