#include "analysis/clusters.h"

#include <gtest/gtest.h>

#include "agents/population.h"
#include "core/experiment.h"

namespace cw::analysis {
namespace {

// Hand-built corpus: a deployment with one vantage so SessionFrame::build
// can resolve network types, and records appended straight to the store
// (credential retention gating lives in the Collector, not here).
class ClustersTest : public ::testing::Test {
 protected:
  ClustersTest() {
    topology::VantagePoint vp;
    vp.name = "cloud";
    vp.type = topology::NetworkType::kCloud;
    vp.region = net::make_region("SG");
    vp.addresses = {net::IPv4Addr(3, 0, 0, 1)};
    vp.open_ports = {22, 2323};
    deployment_.add(std::move(vp));
  }

  void add(std::uint32_t src, capture::ActorId actor, net::Port port, util::SimTime time,
           const std::string& payload, const proto::Credential& credential) {
    capture::SessionRecord record;
    record.time = time;
    record.src = src;
    record.actor = actor;
    record.port = port;
    record.vantage = 0;
    store_.append(record, payload, credential);
  }

  // Family A: SSH on 22, one credential, hourly cadence.
  void add_family_a(capture::EventStore& store, int records_per_src = 6) {
    for (std::uint32_t src = 1; src <= 4; ++src) {
      for (int i = 0; i < records_per_src; ++i) {
        capture::SessionRecord record;
        record.time = src * util::kMinute + i * util::kHour;
        record.src = src;
        record.actor = 10;
        record.port = 22;
        store.append(record, "SSH-2.0-libssh2_1.4.3", proto::Credential{"root", "root"});
      }
    }
  }

  // Family B: telnet on 2323, different credential, second-scale cadence.
  void add_family_b(capture::EventStore& store, int records_per_src = 6) {
    for (std::uint32_t src = 11; src <= 14; ++src) {
      for (int i = 0; i < records_per_src; ++i) {
        capture::SessionRecord record;
        record.time = src * util::kMinute + i * 3 * util::kSecond;
        record.src = src;
        record.actor = 20;
        record.port = 2323;
        store.append(record, "telnet-negotiation", proto::Credential{"admin", "admin1234"});
      }
    }
  }

  capture::SessionFrame frame_of(const capture::EventStore& store) const {
    return capture::SessionFrame::build(store, deployment_);
  }

  topology::Deployment deployment_;
  capture::EventStore store_;
};

TEST_F(ClustersTest, TwoDistinctFamiliesSeparatePerfectly) {
  add_family_a(store_);
  add_family_b(store_);
  const capture::SessionFrame frame = frame_of(store_);
  const ClusterResult result = cluster_attackers({&frame});
  EXPECT_EQ(result.scores.entities, 8u);
  EXPECT_EQ(result.scores.clusters, 2u);
  EXPECT_EQ(result.scores.truth_actors, 2u);
  EXPECT_DOUBLE_EQ(result.scores.purity, 1.0);
  EXPECT_DOUBLE_EQ(result.scores.ari, 1.0);
  // Sources come back in ascending order; family A shares one cluster id,
  // family B the other.
  ASSERT_EQ(result.sources.size(), 8u);
  EXPECT_EQ(result.sources.front(), 1u);
  EXPECT_EQ(result.assignment[0], result.assignment[3]);
  EXPECT_EQ(result.assignment[4], result.assignment[7]);
  EXPECT_NE(result.assignment[0], result.assignment[4]);
}

TEST_F(ClustersTest, AssignmentsAreDeterministic) {
  add_family_a(store_);
  add_family_b(store_);
  const capture::SessionFrame frame = frame_of(store_);
  const ClusterResult first = cluster_attackers({&frame});
  const ClusterResult second = cluster_attackers({&frame});
  EXPECT_EQ(first.scores.assignment_fnv, second.scores.assignment_fnv);
  EXPECT_EQ(first.assignment, second.assignment);
  EXPECT_NE(first.scores.assignment_fnv, 0u);
}

TEST_F(ClustersTest, MinRecordsFilterDropsThinSources) {
  add_family_a(store_);
  // One extra source with fewer records than the floor.
  for (int i = 0; i < 3; ++i) {
    capture::SessionRecord record;
    record.time = i * util::kHour;
    record.src = 99;
    record.actor = 30;
    record.port = 22;
    store_.append(record, "SSH-2.0-x", proto::Credential{"x", "y"});
  }
  ClusterOptions options;
  options.min_records = 4;
  const capture::SessionFrame frame = frame_of(store_);
  const ClusterResult result = cluster_attackers({&frame}, options);
  EXPECT_EQ(result.scores.entities, 4u);
  for (const std::uint32_t src : result.sources) EXPECT_NE(src, 99u);
}

TEST_F(ClustersTest, ExcludedActorsDoNotBecomeEntities) {
  add_family_a(store_);
  add_family_b(store_);
  ClusterOptions options;
  options.exclude_actors = {10};
  const capture::SessionFrame frame = frame_of(store_);
  const ClusterResult result = cluster_attackers({&frame}, options);
  EXPECT_EQ(result.scores.entities, 4u);
  EXPECT_EQ(result.scores.truth_actors, 1u);
  for (const capture::ActorId actor : result.truth) EXPECT_EQ(actor, 20);
}

TEST_F(ClustersTest, SegmentedMatchesCumulative) {
  // Cumulative corpus vs the same records split across two epoch stores;
  // both families straddle the split so per-segment accumulation matters.
  add_family_a(store_, 3);
  add_family_b(store_, 3);
  add_family_a(store_, 3);
  add_family_b(store_, 3);
  const capture::SessionFrame cumulative = frame_of(store_);

  capture::EventStore first_epoch;
  add_family_a(first_epoch, 3);
  add_family_b(first_epoch, 3);
  capture::EventStore second_epoch;
  add_family_a(second_epoch, 3);
  add_family_b(second_epoch, 3);
  const capture::SessionFrame segment_a = frame_of(first_epoch);
  const capture::SessionFrame segment_b = frame_of(second_epoch);

  const ClusterResult whole = cluster_attackers({&cumulative});
  const ClusterResult split = cluster_attackers({&segment_a, &segment_b});
  EXPECT_EQ(whole.sources, split.sources);
  EXPECT_EQ(whole.assignment, split.assignment);
  EXPECT_EQ(whole.scores.assignment_fnv, split.scores.assignment_fnv);
  EXPECT_DOUBLE_EQ(whole.scores.purity, split.scores.purity);
  EXPECT_DOUBLE_EQ(whole.scores.ari, split.scores.ari);
}

TEST_F(ClustersTest, EmptyFrameYieldsEmptyResult) {
  const capture::SessionFrame frame = frame_of(store_);
  const ClusterResult result = cluster_attackers({&frame});
  EXPECT_EQ(result.scores.entities, 0u);
  EXPECT_EQ(result.scores.clusters, 0u);
  EXPECT_DOUBLE_EQ(result.scores.purity, 0.0);
}

// The acceptance experiment (ISSUE 10): the distinct-fingerprint scan
// families installed by ScenarioKind::kClusterFamilies, no background
// population, must cluster back to actor identity with purity/ARI >= 0.9.
TEST(ClustersAcceptance, GroundTruthFamiliesRecoverActorIdentity) {
  core::ExperimentConfig config;
  config.scale = 0.1;
  config.telescope_slash24s = 8;
  config.adversary.kind = adversary::ScenarioKind::kClusterFamilies;
  config.adversary.replace_population = true;
  const auto result = core::Experiment(config).run();

  ClusterOptions options;
  options.exclude_actors = {agents::Population::kCensysActorId,
                            agents::Population::kShodanActorId};
  const ClusterResult clustered = cluster_attackers(result->frames(), options);
  EXPECT_GE(clustered.scores.entities, 50u);
  EXPECT_EQ(clustered.scores.truth_actors, 8u);
  EXPECT_GE(clustered.scores.purity, 0.9);
  EXPECT_GE(clustered.scores.ari, 0.9);
  // Same frame, same options: the digest proves assignment reproducibility.
  EXPECT_EQ(cluster_attackers(result->frames(), options).scores.assignment_fnv,
            clustered.scores.assignment_fnv);
}

}  // namespace
}  // namespace cw::analysis
