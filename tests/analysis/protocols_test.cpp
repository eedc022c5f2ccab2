#include "analysis/protocols.h"

#include <gtest/gtest.h>

#include "proto/payloads.h"
#include "support/row_scan.h"

namespace cw::analysis {
namespace {

class ProtocolsTest : public ::testing::Test {
 protected:
  ProtocolsTest() {
    topology::VantagePoint honeytrap;
    honeytrap.name = "ht";
    honeytrap.provider = topology::Provider::kStanford;
    honeytrap.type = topology::NetworkType::kEducation;
    honeytrap.collection = topology::CollectionMethod::kHoneytrap;
    honeytrap.region = net::make_region("US", "CA");
    honeytrap.addresses = {net::IPv4Addr(171, 64, 0, 1)};
    deployment_.add(std::move(honeytrap));

    topology::VantagePoint greynoise;
    greynoise.name = "gn";
    greynoise.provider = topology::Provider::kAws;
    greynoise.type = topology::NetworkType::kCloud;
    greynoise.collection = topology::CollectionMethod::kGreyNoise;
    greynoise.region = net::make_region("US", "CA");
    greynoise.addresses = {net::IPv4Addr(3, 0, 0, 1)};
    greynoise.open_ports = {80};
    deployment_.add(std::move(greynoise));
  }

  void add(topology::VantageId vantage, net::Port port, std::uint32_t src, std::string payload,
           capture::ActorId actor) {
    capture::SessionRecord record;
    record.vantage = vantage;
    record.port = port;
    record.src = src;
    record.actor = actor;
    store_.append(record, payload, std::nullopt);
  }

  // The shipped breakdown over a frame of the store built above.
  std::vector<ProtocolBreakdownRow> breakdown(const ProtocolOptions& options) {
    return protocol_breakdown(rowscan::frame_of(store_, deployment_), options);
  }

  topology::Deployment deployment_;
  capture::EventStore store_;
};

TEST_F(ProtocolsTest, BreakdownPercentages) {
  // 3 HTTP scanners and 1 TLS scanner on port 80 (Honeytrap).
  add(0, 80, 1, proto::http_benign_request(0), 10);
  add(0, 80, 2, proto::http_benign_request(1), 11);
  add(0, 80, 3, proto::http_benign_request(2), 12);
  add(0, 80, 4, proto::tls_client_hello(), 13);

  ProtocolOptions options;
  options.ports = {80};
  const auto rows = breakdown(options);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].scanners_total, 4u);
  EXPECT_EQ(rows[0].scanners_expected, 3u);
  EXPECT_DOUBLE_EQ(rows[0].pct_expected, 75.0);
  EXPECT_DOUBLE_EQ(rows[0].pct_unexpected, 25.0);
  ASSERT_EQ(rows[0].unexpected_shares.size(), 1u);
  EXPECT_EQ(rows[0].unexpected_shares[0].protocol, net::Protocol::kTls);
  EXPECT_DOUBLE_EQ(rows[0].unexpected_shares[0].pct_of_port, 25.0);
}

TEST_F(ProtocolsTest, GreyNoiseVantagesAreExcluded) {
  add(1, 80, 1, proto::tls_client_hello(), 10);  // GreyNoise: must not count
  add(0, 80, 2, proto::http_benign_request(0), 11);
  ProtocolOptions options;
  options.ports = {80};
  const auto rows = breakdown(options);
  EXPECT_EQ(rows[0].scanners_total, 1u);
  EXPECT_DOUBLE_EQ(rows[0].pct_expected, 100.0);
}

TEST_F(ProtocolsTest, FirstPayloadPerSourceWins) {
  add(0, 80, 1, proto::http_benign_request(0), 10);
  add(0, 80, 1, proto::tls_client_hello(), 10);  // same source, later payload
  ProtocolOptions options;
  options.ports = {80};
  const auto rows = breakdown(options);
  EXPECT_EQ(rows[0].scanners_total, 1u);
  EXPECT_EQ(rows[0].scanners_expected, 1u);
}

TEST_F(ProtocolsTest, OracleBreakdown) {
  std::unordered_map<capture::ActorId, bool> truth = {{10, false}, {11, true}, {12, true}};
  const ReputationOracle oracle(truth, /*unknown_fraction=*/0.0);
  add(0, 80, 1, proto::http_benign_request(0), 10);   // benign HTTP
  add(0, 80, 2, proto::http_benign_request(1), 11);   // malicious HTTP
  add(0, 80, 3, proto::tls_client_hello(), 12);       // malicious TLS

  ProtocolOptions options;
  options.ports = {80};
  options.oracle = &oracle;
  const auto rows = breakdown(options);
  EXPECT_DOUBLE_EQ(rows[0].expected_benign_pct, 50.0);
  EXPECT_DOUBLE_EQ(rows[0].expected_malicious_pct, 50.0);
  EXPECT_DOUBLE_EQ(rows[0].unexpected_malicious_pct, 100.0);
}

TEST_F(ProtocolsTest, EmptyPortYieldsZeroRow) {
  ProtocolOptions options;
  options.ports = {8080};
  const auto rows = breakdown(options);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].scanners_total, 0u);
}

TEST(ReputationOracle, GroundTruthWithNoUnknowns) {
  std::unordered_map<capture::ActorId, bool> truth = {{1, true}, {2, false}};
  const ReputationOracle oracle(truth, 0.0);
  EXPECT_EQ(oracle.label(1), Reputation::kMalicious);
  EXPECT_EQ(oracle.label(2), Reputation::kBenign);
  EXPECT_EQ(oracle.label(999), Reputation::kUnknown);  // not in the database
}

TEST(ReputationOracle, UnknownFractionDegradesKnowledge) {
  std::unordered_map<capture::ActorId, bool> truth;
  for (capture::ActorId a = 0; a < 1000; ++a) truth[a] = true;
  const ReputationOracle oracle(truth, 0.78);  // the paper's 78% unknown rate
  int unknown = 0;
  for (capture::ActorId a = 0; a < 1000; ++a) {
    if (oracle.label(a) == Reputation::kUnknown) ++unknown;
  }
  EXPECT_NEAR(unknown, 780, 60);
}

TEST(ReputationOracle, DeterministicAcrossInstances) {
  std::unordered_map<capture::ActorId, bool> truth;
  for (capture::ActorId a = 0; a < 100; ++a) truth[a] = a % 2 == 0;
  const ReputationOracle a(truth, 0.5, 42);
  const ReputationOracle b(truth, 0.5, 42);
  for (capture::ActorId id = 0; id < 100; ++id) EXPECT_EQ(a.label(id), b.label(id));
}

}  // namespace
}  // namespace cw::analysis
