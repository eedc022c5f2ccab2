// Benchmarks the stream subsystem: multi-producer append throughput across
// shard counts, epoch-seal latency (drain + freeze + segment frame build),
// and the payoff of incremental statistics — one epoch's table refresh
// through analysis::SegmentedTableCache (only the new segment's partials
// are built) against the naive full rebuild a batch system would redo.
#include "bench_common.h"

#include <chrono>
#include <thread>
#include <vector>

#include "analysis/table_cache.h"
#include "stream/ingest.h"

namespace cw::bench {
namespace {

struct RawRecord {
  capture::SessionRecord record;
  std::string payload;
  std::optional<proto::Credential> credential;
};

// The shared experiment's corpus as not-yet-interned records, the shape the
// collector sink hands to the ingest layer.
const std::vector<RawRecord>& raw_corpus() {
  static const std::vector<RawRecord> corpus = [] {
    const core::ExperimentResult& experiment = shared_experiment();
    const capture::EventStore& store = experiment.store();
    std::vector<RawRecord> out;
    out.reserve(store.size());
    for (const capture::SessionRecord& record : store.records()) {
      RawRecord raw;
      raw.record = record;
      if (record.payload_id != capture::kNoPayload) raw.payload = store.payload(record.payload_id);
      if (record.credential_id != capture::kNoCredential) {
        raw.credential = store.credential(record.credential_id);
      }
      out.push_back(std::move(raw));
    }
    return out;
  }();
  return corpus;
}

// Concurrent append throughput: 4 producers feeding `shards` shard buffers
// with vantage-routed records. One shard serializes every producer on one
// mutex; sharding is what buys back the concurrency.
void bm_ingest_append(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const std::vector<RawRecord>& corpus = raw_corpus();
  constexpr int kProducers = 4;
  for (auto _ : state) {
    stream::IngestShards ingest(shards);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&ingest, &corpus, p] {
        for (std::size_t i = p; i < corpus.size(); i += kProducers) {
          const RawRecord& raw = corpus[i];
          ingest.append(ingest.shard_of(raw.record), raw.record, raw.payload, raw.credential);
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
    benchmark::DoNotOptimize(ingest.pending());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * raw_corpus().size()));
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(bm_ingest_append)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

// Epoch-seal latency: shard-major drain + store freeze + segment frame
// build (with the verdict column), over the whole bench corpus. The fill is
// excluded via manual timing.
void bm_epoch_seal(benchmark::State& state) {
  const core::ExperimentResult& experiment = shared_experiment();
  const std::vector<RawRecord>& corpus = raw_corpus();
  const stream::VerdictFactory verdict = [&experiment](const capture::EventStore& store) {
    return analysis::frame_verdict(experiment.classifier(), store);
  };
  for (auto _ : state) {
    stream::IngestShards ingest(4);
    for (const RawRecord& raw : corpus) {
      ingest.append(ingest.shard_of(raw.record), raw.record, raw.payload, raw.credential);
    }
    const auto start = std::chrono::steady_clock::now();
    const stream::EpochSnapshot snapshot =
        ingest.seal_epoch(experiment.deployment(), verdict);
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start);
    state.SetIterationTime(elapsed.count());
    benchmark::DoNotOptimize(snapshot.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * corpus.size()));
}
BENCHMARK(bm_epoch_seal)->UseManualTime()->Unit(benchmark::kMillisecond);

constexpr std::size_t kEpochs = 8;

constexpr analysis::TrafficScope kScopes[] = {
    analysis::TrafficScope::kSsh22, analysis::TrafficScope::kTelnet23,
    analysis::TrafficScope::kHttp80, analysis::TrafficScope::kHttpAllPorts,
    analysis::TrafficScope::kAnyAll};
constexpr analysis::Characteristic kCharacteristics[] = {
    analysis::Characteristic::kTopAs, analysis::Characteristic::kTopUsername,
    analysis::Characteristic::kTopPassword, analysis::Characteristic::kTopPayload};

// The Tables 2/4/5/7/10 working set: every vantage-level table and
// malicious count, at every scope.
template <typename Cache>
std::uint64_t sweep_tables(const core::ExperimentResult& experiment, const Cache& cache) {
  std::uint64_t checksum = 0;
  for (const topology::VantagePoint& vp : experiment.deployment().vantage_points()) {
    for (const analysis::TrafficScope scope : kScopes) {
      checksum += cache.record_count(vp.id, scope);
      checksum += cache.malicious(vp.id, scope).first;
      for (const analysis::Characteristic characteristic : kCharacteristics) {
        checksum += cache.table(vp.id, scope, characteristic).total();
      }
    }
  }
  return checksum;
}

struct EpochSegments {
  std::vector<std::unique_ptr<capture::EventStore>> stores;
  std::vector<std::unique_ptr<capture::SessionFrame>> frames;
};

const EpochSegments& epoch_segments() {
  static const EpochSegments segments = [] {
    const core::ExperimentResult& experiment = shared_experiment();
    const capture::EventStore& corpus = experiment.store();
    EpochSegments out;
    for (std::size_t k = 0; k < kEpochs; ++k) {
      const std::size_t begin = corpus.size() * k / kEpochs;
      const std::size_t end = corpus.size() * (k + 1) / kEpochs;
      auto store = std::make_unique<capture::EventStore>();
      for (std::size_t i = begin; i < end; ++i) {
        const capture::SessionRecord& record = corpus.records()[i];
        store->append(record,
                      record.payload_id == capture::kNoPayload
                          ? std::string_view{}
                          : std::string_view(corpus.payload(record.payload_id)),
                      record.credential_id == capture::kNoCredential
                          ? std::optional<proto::Credential>{}
                          : std::optional<proto::Credential>(
                                corpus.credential(record.credential_id)));
      }
      store->freeze();
      const capture::EventStore& fixed = *store;
      capture::SessionFrame::BuildOptions options;
      options.verdict = analysis::frame_verdict(experiment.classifier(), fixed);
      out.frames.push_back(std::make_unique<capture::SessionFrame>(
          capture::SessionFrame::build(fixed, experiment.deployment(), std::move(options))));
      out.stores.push_back(std::move(store));
    }
    return out;
  }();
  return segments;
}

// One epoch advance under incremental statistics: segments 1..K-1 are warm
// (their partials were built in earlier epochs); timed region = folding in
// the final segment and re-answering the whole table working set. This is
// the per-epoch refresh cost of the live report.
void bm_table_refresh_incremental(benchmark::State& state) {
  const core::ExperimentResult& experiment = shared_experiment();
  const EpochSegments& segments = epoch_segments();
  for (auto _ : state) {
    analysis::SegmentedTableCache cache(experiment.classifier());
    for (std::size_t k = 0; k + 1 < kEpochs; ++k) cache.add_segment(*segments.frames[k]);
    benchmark::DoNotOptimize(sweep_tables(experiment, cache));  // warm the old partials
    const auto start = std::chrono::steady_clock::now();
    cache.add_segment(*segments.frames[kEpochs - 1]);
    benchmark::DoNotOptimize(sweep_tables(experiment, cache));
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start);
    state.SetIterationTime(elapsed.count());
  }
  state.counters["epochs"] = static_cast<double>(kEpochs);
}
BENCHMARK(bm_table_refresh_incremental)->UseManualTime()->Unit(benchmark::kMillisecond);

// The naive alternative: rebuild every table cold over the whole corpus, as
// a batch system re-running per epoch would.
void bm_table_refresh_full(benchmark::State& state) {
  const core::ExperimentResult& experiment = shared_experiment();
  static_cast<void>(experiment.frame());
  for (auto _ : state) {
    const analysis::CharacteristicTableCache cache(experiment.frame(), experiment.classifier());
    benchmark::DoNotOptimize(sweep_tables(experiment, cache));
  }
}
BENCHMARK(bm_table_refresh_full)->Unit(benchmark::kMillisecond);

void bm_experiment(benchmark::State& state) {
  bm_experiment_build(state, topology::ScenarioYear::k2021);
}
BENCHMARK(bm_experiment)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cw::bench

BENCHMARK_MAIN();
