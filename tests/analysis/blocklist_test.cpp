#include "analysis/blocklist.h"

#include <gtest/gtest.h>

#include "ids/ruleset.h"
#include "proto/exploits.h"
#include "proto/payloads.h"
#include "support/row_scan.h"

namespace cw::analysis {
namespace {

class BlocklistTest : public ::testing::Test {
 protected:
  BlocklistTest() : engine_(ids::curated_engine()), classifier_(engine_) {
    auto add_vantage = [&](const char* name, const char* country) {
      topology::VantagePoint vp;
      vp.name = name;
      vp.provider = topology::Provider::kAws;
      vp.type = topology::NetworkType::kCloud;
      vp.collection = topology::CollectionMethod::kGreyNoise;
      vp.region = net::make_region(country);
      vp.addresses = {net::IPv4Addr(3, 0, static_cast<std::uint8_t>(deployment_.size()), 1)};
      vp.open_ports = {22, 80};
      deployment_.add(std::move(vp));
    };
    add_vantage("us-a", "US");  // vantage 0
    add_vantage("us-b", "US");  // vantage 1
    add_vantage("sg", "SG");    // vantage 2
    add_vantage("de", "DE");    // vantage 3
  }

  void add(topology::VantageId vantage, std::uint32_t src, bool malicious) {
    capture::SessionRecord record;
    record.vantage = vantage;
    record.port = malicious ? 22 : 80;
    record.src = src;
    if (malicious) {
      store_.append(record, proto::ssh_client_banner(), proto::Credential{"root", "root"});
    } else {
      store_.append(record, proto::http_benign_request(0), std::nullopt);
    }
  }

  // The store as the frame the evaluation reads, verdicts from classifier_.
  capture::SessionFrame frame() { return rowscan::frame_of(store_, deployment_, &classifier_); }

  topology::Deployment deployment_;
  capture::EventStore store_;
  ids::RuleEngine engine_;
  MaliciousClassifier classifier_;
};

TEST_F(BlocklistTest, SelfEvaluationIsComplete) {
  add(0, 1, true);
  add(0, 2, true);
  add(0, 3, false);
  const auto evaluation = evaluate_blocklist(frame(), {0}, {0}, "us", "us");
  EXPECT_EQ(evaluation.blocklist_size, 2u);
  EXPECT_EQ(evaluation.target_attacker_ips, 2u);
  EXPECT_DOUBLE_EQ(evaluation.ip_coverage(), 1.0);
  EXPECT_DOUBLE_EQ(evaluation.event_coverage(), 1.0);
}

TEST_F(BlocklistTest, CrossGroupCoverageCountsSharedAttackers) {
  // Attacker 1 hits both regions; attacker 2 only the source; attacker 3
  // only the target.
  add(0, 1, true);
  add(0, 2, true);
  add(2, 1, true);
  add(2, 3, true);
  const auto evaluation = evaluate_blocklist(frame(), {0}, {2}, "us", "sg");
  EXPECT_EQ(evaluation.blocklist_size, 2u);
  EXPECT_EQ(evaluation.target_attacker_ips, 2u);
  EXPECT_EQ(evaluation.covered_ips, 1u);
  EXPECT_DOUBLE_EQ(evaluation.ip_coverage(), 0.5);
}

TEST_F(BlocklistTest, BenignSourcesNeverEnterTheList) {
  add(0, 7, false);
  add(2, 7, true);
  const auto evaluation = evaluate_blocklist(frame(), {0}, {2}, "us", "sg");
  EXPECT_EQ(evaluation.blocklist_size, 0u);
  EXPECT_EQ(evaluation.covered_ips, 0u);
  EXPECT_DOUBLE_EQ(evaluation.ip_coverage(), 0.0);
}

TEST_F(BlocklistTest, EventCoverageWeighsVolume) {
  add(0, 1, true);  // listed attacker
  // Target: listed attacker sends 3 malicious events, unlisted sends 1.
  add(2, 1, true);
  add(2, 1, true);
  add(2, 1, true);
  add(2, 9, true);
  const auto evaluation = evaluate_blocklist(frame(), {0}, {2}, "us", "sg");
  EXPECT_EQ(evaluation.target_malicious_events, 4u);
  EXPECT_EQ(evaluation.blocked_events, 3u);
  EXPECT_DOUBLE_EQ(evaluation.event_coverage(), 0.75);
}

TEST_F(BlocklistTest, EmptyTargetYieldsZeroCoverage) {
  add(0, 1, true);
  const auto evaluation = evaluate_blocklist(frame(), {0}, {3}, "us", "de");
  EXPECT_DOUBLE_EQ(evaluation.ip_coverage(), 0.0);
  EXPECT_DOUBLE_EQ(evaluation.event_coverage(), 0.0);
}

TEST_F(BlocklistTest, RegionalMatrixCoversAllGroupPairs) {
  add(0, 1, true);
  add(2, 1, true);
  add(3, 2, true);
  const auto matrix = regional_blocklist_matrix(frame());
  // Groups present: US, AP, EU -> 9 evaluations.
  EXPECT_EQ(matrix.size(), 9u);
  // Diagonal entries are complete by construction.
  for (const auto& evaluation : matrix) {
    if (evaluation.source_group == evaluation.target_group &&
        evaluation.target_attacker_ips > 0) {
      EXPECT_DOUBLE_EQ(evaluation.ip_coverage(), 1.0) << evaluation.source_group;
    }
  }
}

}  // namespace
}  // namespace cw::analysis
