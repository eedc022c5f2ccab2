// The CharacteristicTableCache contract: every cached table, slice size,
// and (malicious, benign) pair is bit-identical to a cold per-record scan of
// the store (the row-scan oracle) — for every (vantage, neighbor, scope,
// characteristic). The drivers built on the cache are checked against the
// oracle cache in frame_equivalence_test.cpp.
#include "analysis/table_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

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

constexpr Characteristic kTableCharacteristics[] = {
    Characteristic::kTopAs, Characteristic::kTopUsername, Characteristic::kTopPassword,
    Characteristic::kTopPayload};

class TableCacheEquivalence : public ::testing::TestWithParam<TrafficScope> {};

TEST_P(TableCacheEquivalence, VantageTablesMatchColdBuildsForEveryCharacteristic) {
  const auto& result = experiment();
  const CharacteristicTableCache cache(result.frame(), result.classifier());
  for (const topology::VantagePoint& vp : result.deployment().vantage_points()) {
    const rowscan::TrafficSlice slice =
        rowscan::slice_vantage(result.store(), vp.id, GetParam());
    EXPECT_EQ(cache.record_count(vp.id, GetParam()), slice.records.size()) << vp.name;
    EXPECT_EQ(cache.malicious(vp.id, GetParam()),
              rowscan::malicious_counts(slice, result.classifier()))
        << vp.name;
    for (const Characteristic characteristic : kTableCharacteristics) {
      const stats::FrequencyTable& cached =
          cache.table(vp.id, GetParam(), characteristic);
      const stats::FrequencyTable cold = rowscan::characteristic_table(slice, characteristic);
      EXPECT_EQ(cached.total(), cold.total()) << vp.name;
      EXPECT_EQ(cached.sorted(), cold.sorted()) << vp.name;
    }
  }
}

TEST_P(TableCacheEquivalence, NeighborSlicesMatchColdBuilds) {
  const auto& result = experiment();
  const CharacteristicTableCache cache(result.frame(), result.classifier());
  for (const topology::VantagePoint& vp : result.deployment().vantage_points()) {
    if (vp.collection != topology::CollectionMethod::kGreyNoise) continue;
    for (std::uint16_t n = 0; n < vp.addresses.size(); ++n) {
      const rowscan::TrafficSlice slice =
          rowscan::slice_neighbor(result.store(), vp.id, n, GetParam());
      EXPECT_EQ(cache.record_count(vp.id, GetParam(), n), slice.records.size());
      EXPECT_EQ(cache.malicious(vp.id, GetParam(), n),
                rowscan::malicious_counts(slice, result.classifier()));
      const stats::FrequencyTable cold = rowscan::as_table(slice);
      EXPECT_EQ(cache.table(vp.id, GetParam(), Characteristic::kTopAs, n).sorted(),
                cold.sorted());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllScopes, TableCacheEquivalence, ::testing::ValuesIn(kAllScopes),
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

TEST(TableCache, SecondLookupReturnsTheSameTableWithoutRebuilding) {
  const auto& result = experiment();
  const CharacteristicTableCache cache(result.frame(), result.classifier());
  const topology::VantageId id = result.deployment().vantage_points().front().id;
  const stats::FrequencyTable& first =
      cache.table(id, TrafficScope::kAnyAll, Characteristic::kTopAs);
  const std::size_t built = cache.tables_built();
  const stats::FrequencyTable& second =
      cache.table(id, TrafficScope::kAnyAll, Characteristic::kTopAs);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(cache.tables_built(), built);
}

TEST(TableCache, FracMaliciousHasNoFrequencyTable) {
  const auto& result = experiment();
  const capture::SessionFrame& frame = result.frame();
  const std::vector<std::uint32_t> records = {0};
  EXPECT_THROW(build_characteristic_table(frame, records, Characteristic::kFracMalicious),
               std::invalid_argument);
}

TEST(TableCache, ConcurrentLookupsOfSharedKeysBuildOnceAndAgree) {
  // TSan hammer: many pool tasks race on the same handful of keys; every
  // reader must observe the one fully-built table.
  const auto& result = experiment();
  const CharacteristicTableCache cache(result.frame(), result.classifier());
  const topology::VantageId id = result.deployment().vantage_points().front().id;
  const stats::FrequencyTable reference =
      rowscan::as_table(rowscan::slice_vantage(result.store(), id, TrafficScope::kAnyAll));

  runner::ThreadPool pool(8);
  std::vector<int> ok(64, 0);
  pool.parallel_for(ok.size(), [&](std::size_t i) {
    const stats::FrequencyTable& table =
        cache.table(id, TrafficScope::kAnyAll, Characteristic::kTopAs);
    const auto counts = cache.malicious(id, TrafficScope::kAnyAll);
    ok[i] = table.total() == reference.total() &&
            counts.first + counts.second <= cache.record_count(id, TrafficScope::kAnyAll);
  });
  for (std::size_t i = 0; i < ok.size(); ++i) EXPECT_TRUE(ok[i]) << i;
  EXPECT_EQ(cache.tables_built(), 1u);
}

TEST(TableCache, ExperimentResultCacheIsLazyAndStable) {
  const auto& result = experiment();
  const CharacteristicTableCache& a = result.table_cache();
  const CharacteristicTableCache& b = result.table_cache();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(&a.frame(), &result.frame());
}

}  // namespace
}  // namespace cw::analysis
