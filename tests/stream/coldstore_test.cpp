// The out-of-core segment store's end-to-end invariants:
//
//  1. Segment::spill() changes where a segment's frame lives, never what it
//     answers — every query is identical before the spill, while mapped, and
//     after a release/remap cycle.
//  2. Segment::load_spilled() (cold process restart: nothing shared with the
//     sealing process except the file) reconstructs the identical frame,
//     dictionaries included.
//  3. A LiveReport run renders byte-identical output whether segments are
//     resident or spilled, at any hot-set size.
//  4. A Fleet sweep through stream::make_spill_sim_runner produces the exact
//     report bytes of the default in-memory runner.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/table_cache.h"
#include "core/experiment.h"
#include "runner/fleet.h"
#include "runner/sweep.h"
#include "runner/thread_pool.h"
#include "stream/live_report.h"
#include "stream/seal.h"
#include "stream/snapshot.h"
#include "stream/spill_runner.h"

namespace cw::stream {
namespace {

core::ExperimentConfig tiny_config() {
  core::ExperimentConfig config;
  config.scale = 0.05;
  config.telescope_slash24s = 4;
  config.duration = util::kDay;
  return config;
}

// Scratch directory unique to this test binary run; removed by each test.
std::string scratch_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "coldstore_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Seals the tiny experiment into `epochs` segments through the shipped
// sealing loop — the exact seal the production tiering demotes.
EpochSnapshot sealed_snapshot(core::LiveExperiment& live, std::size_t epochs) {
  analysis::SegmentedTableCache cache(live.result().classifier());
  SealOptions seal;
  seal.epochs = epochs;
  return seal_epochs(live, seal, cache, nullptr);
}

// A digest of everything the analysis layer reads from a frame: per-port and
// per-(vantage, port) posting sums, per-vantage extents, verdict counts,
// code checksums. Equal digests across spill states == equal query answers.
struct FrameDigest {
  std::uint64_t size = 0;
  std::vector<std::uint64_t> port_sums;
  std::vector<std::uint64_t> vantage_sums;
  std::vector<std::uint64_t> vp_sums;
  std::uint64_t verdicts = 0;
  std::uint64_t codes = 0;

  bool operator==(const FrameDigest&) const = default;
};

FrameDigest digest(const capture::SessionFrame& frame) {
  FrameDigest out;
  out.size = frame.size();
  for (const net::Port port : {net::Port{22}, net::Port{23}, net::Port{80}, net::Port{443}}) {
    std::uint64_t sum = 1;
    frame.for_port(port).for_each([&sum](std::uint32_t v) { sum = sum * 31 + v; });
    out.port_sums.push_back(sum);
  }
  const std::size_t vantages = frame.deployment().vantage_points().size();
  for (topology::VantageId v = 0; v < vantages; ++v) {
    std::uint64_t sum = 1;
    for (const std::uint32_t index : frame.for_vantage(v)) sum = sum * 31 + index;
    out.vantage_sums.push_back(sum);
    for (const net::Port port : {net::Port{22}, net::Port{80}}) {
      std::uint64_t vp_sum = 1;
      frame.for_vantage_port(v, port).for_each(
          [&vp_sum](std::uint32_t i) { vp_sum = vp_sum * 31 + i; });
      out.vp_sums.push_back(vp_sum);
    }
  }
  if (frame.has_verdicts()) {
    for (std::uint32_t i = 0; i < frame.size(); ++i) {
      out.verdicts = out.verdicts * 31 + static_cast<std::uint64_t>(frame.verdict(i));
    }
  }
  for (std::size_t c = 0; c < capture::kCodedColumns; ++c) {
    for (const std::uint32_t code : frame.codes(static_cast<capture::CodedColumn>(c))) {
      out.codes = out.codes * 31 + code;
    }
  }
  return out;
}

TEST(SegmentSpill, QueriesIdenticalAcrossSpillAndRemapCycles) {
  const std::string dir = scratch_dir("spill");
  core::LiveExperiment live(tiny_config());
  const EpochSnapshot snapshot = sealed_snapshot(live, 3);
  ASSERT_EQ(snapshot.segments().size(), 3u);
  ASSERT_GT(snapshot.size(), 0u);

  for (const auto& segment : snapshot.segments()) {
    const FrameDigest hot = digest(segment->frame());
    ASSERT_FALSE(segment->spilled());

    std::string error;
    ASSERT_TRUE(segment->spill(dir, &error)) << error;
    ASSERT_TRUE(segment->spilled());
    EXPECT_TRUE(std::filesystem::exists(segment->spill_path()));
    EXPECT_EQ(segment->store().size(), 0u);  // records dropped, frame remains
    EXPECT_EQ(segment->size(), hot.size);
    EXPECT_EQ(digest(segment->frame()), hot);  // mapped in place after spill

    // Release and remap twice: the round trip must be idempotent.
    for (int cycle = 0; cycle < 2; ++cycle) {
      segment->release_mapping();
      EXPECT_EQ(segment->size(), hot.size);  // metadata survives cold
      ASSERT_TRUE(segment->ensure_mapped(&error)) << error;
      segment->advise_sequential();
      EXPECT_EQ(digest(segment->frame()), hot);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(SegmentSpill, LoadSpilledReconstructsTheSealedSegment) {
  const std::string dir = scratch_dir("restart");
  core::LiveExperiment live(tiny_config());
  const EpochSnapshot snapshot = sealed_snapshot(live, 2);
  const Segment& original = *snapshot.segments().back();
  const FrameDigest hot = digest(original.frame());

  std::string error;
  ASSERT_TRUE(original.spill(dir, &error)) << error;

  // Cold restart: a fresh Segment built from nothing but the file and the
  // deployment. Dictionaries come from the inline section, so characteristic
  // text resolves identically.
  const auto reloaded = Segment::load_spilled(original.spill_path(), original.id(),
                                              original.base(), live.result().deployment(), &error);
  ASSERT_NE(reloaded, nullptr) << error;
  EXPECT_EQ(reloaded->id(), original.id());
  EXPECT_EQ(reloaded->base(), original.base());
  ASSERT_TRUE(reloaded->ensure_mapped(&error)) << error;
  EXPECT_EQ(digest(reloaded->frame()), hot);
  for (std::size_t c = 0; c < capture::kCodedColumns; ++c) {
    const auto column = static_cast<capture::CodedColumn>(c);
    const auto& got = *reloaded->frame().dict(column);
    const auto& want = *original.frame().dict(column);
    ASSERT_EQ(got.size(), want.size());
    for (std::uint32_t code = 0; code < want.size(); ++code) {
      ASSERT_EQ(got.at(code), want.at(code)) << "column " << c;
    }
  }

  // Loading a corrupted spill file fails cleanly instead of mapping garbage.
  const std::string path = original.spill_path();
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_EQ(Segment::load_spilled(path, 0, 0, live.result().deployment(), &error), nullptr);
  EXPECT_FALSE(error.empty());
  std::filesystem::remove_all(dir);
}

std::vector<std::string> live_outputs(const std::string& spill_dir, std::size_t hot_segments,
                                      bool render_intermediate) {
  LiveReportConfig config;
  config.experiment = tiny_config();
  config.epochs = 3;
  config.shards = 4;
  config.jobs = 2;
  config.report.include_leak = false;
  config.render_intermediate = render_intermediate;
  config.spill_dir = spill_dir;
  config.hot_segments = hot_segments;
  LiveReport live(config);
  const EpochReport report = live.run();
  EXPECT_TRUE(report.rendered);
  EXPECT_FALSE(report.failed);
  return report.outputs;
}

TEST(LiveReportColdstore, SpilledRunsMatchResidentBytesAtEveryHotSetSize) {
  const std::vector<std::string> resident = live_outputs("", 0, /*render_intermediate=*/false);
  ASSERT_FALSE(resident.empty());

  for (const std::size_t hot : {std::size_t{0}, std::size_t{1}, static_cast<std::size_t>(-1)}) {
    const std::string dir = scratch_dir("live");
    const std::vector<std::string> spilled = live_outputs(dir, hot, false);
    ASSERT_EQ(spilled.size(), resident.size()) << "hot " << hot;
    for (std::size_t i = 0; i < resident.size(); ++i) {
      EXPECT_EQ(spilled[i], resident[i]) << "table " << i << " at hot " << hot;
    }
    std::filesystem::remove_all(dir);
  }

  // Intermediate renders exercise the map-before-render path every epoch.
  const std::vector<std::string> resident_mid = live_outputs("", 0, true);
  const std::string dir = scratch_dir("live_mid");
  EXPECT_EQ(live_outputs(dir, 1, true), resident_mid);
  std::filesystem::remove_all(dir);
}

TEST(FleetSpillRunner, SweepReportMatchesDefaultRunnerBytes) {
  runner::Campaign campaign;
  campaign.name = "coldstore";
  campaign.seed = 0x636f6c64ULL;
  core::ExperimentConfig config = tiny_config();
  for (const char* sim : {"simA", "simB"}) {
    runner::FleetCell cell;
    cell.label = std::string(sim) + "/k3";
    cell.sim_label = sim;
    cell.config = config;
    campaign.cells.push_back(cell);
  }

  runner::ThreadPool pool(2);
  const std::string resident =
      runner::SweepReport::render(campaign, runner::Fleet(pool).run(campaign));

  const std::string dir = scratch_dir("fleet");
  SpillSimOptions options;
  options.spill_dir = dir;
  options.hot_segments = 1;
  options.epochs = 3;
  options.shards = 4;
  runner::Fleet fleet(pool);
  fleet.set_sim_runner(make_spill_sim_runner(options, &pool));
  const std::string spilled = runner::SweepReport::render(campaign, fleet.run(campaign));

  EXPECT_EQ(spilled, resident);
  // Per-sim spill directories are removed with their contexts.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cw::stream
