#include "analysis/structure.h"

#include <gtest/gtest.h>

#include "support/row_scan.h"

namespace cw::analysis {
namespace {

topology::Deployment telescope_deployment(int slash24s) {
  topology::Deployment deployment;
  topology::VantagePoint vp;
  vp.name = "Orion";
  vp.provider = topology::Provider::kOrion;
  vp.type = topology::NetworkType::kTelescope;
  vp.collection = topology::CollectionMethod::kTelescope;
  vp.region = net::make_region("US", "MI");
  vp.addresses =
      topology::Deployment::allocate_block(net::IPv4Addr(71, 96, 0, 0), slash24s * 256);
  deployment.add(std::move(vp));
  return deployment;
}

TEST(TelescopeAddressCounts, CountsUniqueSourcesPerAddress) {
  const topology::Deployment deployment = telescope_deployment(1);
  capture::EventStore store;
  auto hit = [&](std::uint32_t offset, std::uint32_t src) {
    capture::SessionRecord record;
    record.vantage = 0;
    record.neighbor = static_cast<std::uint16_t>(offset);
    record.port = 445;
    record.src = src;
    store.append(record, {}, std::nullopt);
  };
  hit(5, 100);
  hit(5, 100);  // duplicate source: counted once
  hit(5, 101);
  hit(9, 100);

  const capture::SessionFrame frame = rowscan::frame_of(store, deployment);
  const auto counts = telescope_address_counts({&frame}, 445);
  ASSERT_EQ(counts.size(), 256u);
  EXPECT_DOUBLE_EQ(counts[5], 2.0);
  EXPECT_DOUBLE_EQ(counts[9], 1.0);
  EXPECT_DOUBLE_EQ(counts[0], 0.0);
}

TEST(TelescopeAddressCounts, FiltersByPort) {
  const topology::Deployment deployment = telescope_deployment(1);
  capture::EventStore store;
  capture::SessionRecord record;
  record.vantage = 0;
  record.neighbor = 3;
  record.port = 80;
  record.src = 1;
  store.append(record, {}, std::nullopt);
  const capture::SessionFrame frame = rowscan::frame_of(store, deployment);
  EXPECT_DOUBLE_EQ(telescope_address_counts({&frame}, 80)[3], 1.0);
  EXPECT_DOUBLE_EQ(telescope_address_counts({&frame}, 22)[3], 0.0);
}

TEST(StructureStats, ClassMeansAndRatios) {
  // One /16 worth of /24s would be needed for real any-255 addresses; use 2
  // /24s and synthesize counts: plain addresses get 10, the .255 enders 2,
  // the first-of-/16 (offset 0: 71.96.0.0) gets 40.
  const topology::Deployment deployment = telescope_deployment(2);
  const topology::VantagePoint& telescope = deployment.at(0);
  std::vector<double> counts(telescope.addresses.size(), 10.0);
  counts[255] = 2.0;  // 71.96.0.255
  counts[511] = 2.0;  // 71.96.1.255
  counts[0] = 40.0;   // 71.96.0.0 is first-of-/16

  const StructureStats stats = structure_stats(counts, telescope);
  EXPECT_DOUBLE_EQ(stats.mean_last_255, 2.0);
  EXPECT_DOUBLE_EQ(stats.mean_first_16, 40.0);
  EXPECT_DOUBLE_EQ(stats.mean_plain, 10.0);
  EXPECT_DOUBLE_EQ(stats.avoidance_last_255(), 5.0);
  EXPECT_DOUBLE_EQ(stats.preference_first_16(), 4.0);
}

TEST(StructureStats, Any255ClassNeedsWideTelescope) {
  // 257 /24s spans x.x.255.x: those addresses land in the any-255 class.
  topology::Deployment deployment = telescope_deployment(257);
  const topology::VantagePoint& telescope = deployment.at(0);
  std::vector<double> counts(telescope.addresses.size(), 9.0);
  const StructureStats stats = structure_stats(counts, telescope);
  EXPECT_GT(stats.mean_any_255, 0.0);  // the 71.96.255.0/24 block exists
}

TEST(TelescopeCounter, TalliesTrackedPorts) {
  const topology::Deployment deployment = telescope_deployment(1);
  TelescopeCounter counter(deployment.at(0), {22, 445});
  topology::Target target;  // unused by consume
  capture::ScanEvent event;
  event.dst = net::IPv4Addr(71, 96, 0, 7);
  event.dst_port = 22;
  EXPECT_TRUE(counter.consume(event, target));
  EXPECT_TRUE(counter.consume(event, target));
  event.dst_port = 445;
  EXPECT_TRUE(counter.consume(event, target));
  event.dst_port = 9999;  // untracked port: consumed, not tallied
  EXPECT_TRUE(counter.consume(event, target));

  EXPECT_DOUBLE_EQ(counter.counts(22)[7], 2.0);
  EXPECT_DOUBLE_EQ(counter.counts(445)[7], 1.0);
  EXPECT_DOUBLE_EQ(counter.counts(22)[8], 0.0);
  EXPECT_THROW(static_cast<void>(counter.counts(9999)), std::out_of_range);
}

TEST(TelescopeCounter, OutOfRangeAddressesIgnored) {
  const topology::Deployment deployment = telescope_deployment(1);
  TelescopeCounter counter(deployment.at(0), {22});
  topology::Target target;
  capture::ScanEvent event;
  event.dst = net::IPv4Addr(71, 97, 0, 0);  // outside the single /24
  event.dst_port = 22;
  EXPECT_TRUE(counter.consume(event, target));
  for (double c : counter.counts(22)) EXPECT_DOUBLE_EQ(c, 0.0);
}

}  // namespace
}  // namespace cw::analysis
