// Benchmarks the SessionFrame encoded kernels: characteristic-table builds
// through the dictionary-encoded columns (stats::FrequencyTable::from_codes),
// packed-posting-list iteration vs the plain index vector it replaced, and
// epoch-seal latency cold (fresh dictionaries) vs warm (the steady state of
// a live run, where the shared per-experiment dictionaries already carry
// every previously seen value). Numbers recorded in BENCH_runner.json.
#include "bench_common.h"

#include <chrono>
#include <numeric>
#include <vector>

#include "analysis/table_cache.h"
#include "stream/ingest.h"
#include "util/postings.h"

namespace cw::bench {
namespace {

constexpr analysis::Characteristic kCharacteristics[] = {
    analysis::Characteristic::kTopAs, analysis::Characteristic::kTopUsername,
    analysis::Characteristic::kTopPassword, analysis::Characteristic::kTopPayload};

const char* characteristic_label(analysis::Characteristic c) {
  switch (c) {
    case analysis::Characteristic::kTopAs: return "as";
    case analysis::Characteristic::kTopUsername: return "username";
    case analysis::Characteristic::kTopPassword: return "password";
    case analysis::Characteristic::kTopPayload: return "payload";
    case analysis::Characteristic::kFracMalicious: break;
  }
  return "?";
}

// Every record index, ascending — the shape of the Table 10 kAnyAll
// telescope side, the heaviest single table build in the report.
const std::vector<std::uint32_t>& all_records() {
  static const std::vector<std::uint32_t> records = [] {
    std::vector<std::uint32_t> out(shared_experiment().store().size());
    std::iota(out.begin(), out.end(), 0u);
    return out;
  }();
  return records;
}

const capture::SessionFrame& encoded_frame() { return shared_experiment().frame(); }

void bm_table_build_encoded(benchmark::State& state) {
  const analysis::Characteristic characteristic =
      kCharacteristics[static_cast<std::size_t>(state.range(0))];
  const capture::SessionFrame& frame = encoded_frame();
  const util::PostingView records(all_records());
  for (auto _ : state) {
    const stats::FrequencyTable table =
        analysis::build_characteristic_table(frame, records, characteristic);
    benchmark::DoNotOptimize(table.total());
  }
  state.SetLabel(characteristic_label(characteristic));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * all_records().size()));
}
BENCHMARK(bm_table_build_encoded)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

// Largest per-port posting list in the corpus, as the packed list and as
// the v1 index vector. The frame hands out views, so the packed list is
// rebuilt once here (ascending append reproduces the identical containers).
const util::PostingList& big_port_postings() {
  static const util::PostingList* list = [] {
    const capture::SessionFrame& frame = encoded_frame();
    net::Port best = 22;
    for (const net::Port port : {net::Port{23}, net::Port{80}, net::Port{445}}) {
      if (frame.for_port(port).size() > frame.for_port(best).size()) best = port;
    }
    auto* rebuilt = new util::PostingList();
    frame.for_port(best).for_each([&](std::uint32_t index) { rebuilt->append(index); });
    rebuilt->shrink();
    return rebuilt;
  }();
  return *list;
}

const std::vector<std::uint32_t>& big_port_vector() {
  static const std::vector<std::uint32_t> vec = big_port_postings().to_vector();
  return vec;
}

void bm_postings_for_each(benchmark::State& state) {
  const util::PostingList& postings = big_port_postings();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    postings.for_each([&](std::uint32_t index) { sum += index; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * postings.size()));
  state.counters["bytes"] = static_cast<double>(postings.bytes());
}
BENCHMARK(bm_postings_for_each)->Unit(benchmark::kMicrosecond);

void bm_postings_iterator(benchmark::State& state) {
  const util::PostingList& postings = big_port_postings();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const std::uint32_t index : postings) sum += index;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * postings.size()));
}
BENCHMARK(bm_postings_iterator)->Unit(benchmark::kMicrosecond);

void bm_postings_vector(benchmark::State& state) {
  const std::vector<std::uint32_t>& postings = big_port_vector();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const std::uint32_t index : postings) sum += index;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * postings.size()));
  state.counters["bytes"] =
      static_cast<double>(postings.size() * sizeof(std::uint32_t));
}
BENCHMARK(bm_postings_vector)->Unit(benchmark::kMicrosecond);

struct RawRecord {
  capture::SessionRecord record;
  std::string payload;
  std::optional<proto::Credential> credential;
};

const std::vector<RawRecord>& raw_corpus() {
  static const std::vector<RawRecord> corpus = [] {
    const capture::EventStore& store = shared_experiment().store();
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

// Epoch-seal latency, corpus split into `epochs` slices. The timed region
// is the FINAL epoch's seal: at 1 epoch that is the cold whole-corpus seal
// (every dictionary and memo empty); at 8 it is the live run's steady
// state — an epoch-sized drain whose values were mostly seen in earlier
// epochs, so the shared dictionaries answer from their memos instead of
// re-normalizing/fingerprinting/encoding. Earlier seals run untimed.
void bm_epoch_seal(benchmark::State& state) {
  const auto epochs = static_cast<std::size_t>(state.range(0));
  const core::ExperimentResult& experiment = shared_experiment();
  const std::vector<RawRecord>& corpus = raw_corpus();
  const stream::VerdictFactory verdict = [&experiment](const capture::EventStore& store) {
    return [&experiment, &store](const capture::SessionRecord& record) {
      switch (experiment.classifier().classify(record, store)) {
        case analysis::MeasuredIntent::kMalicious:
          return capture::SessionFrame::Verdict::kMalicious;
        case analysis::MeasuredIntent::kBenign: return capture::SessionFrame::Verdict::kBenign;
        case analysis::MeasuredIntent::kUnobservable: break;
      }
      return capture::SessionFrame::Verdict::kUnobservable;
    };
  };
  const std::size_t last_begin = corpus.size() * (epochs - 1) / epochs;
  for (auto _ : state) {
    stream::IngestShards ingest(4);
    for (std::size_t k = 0; k + 1 < epochs; ++k) {
      const std::size_t begin = corpus.size() * k / epochs;
      const std::size_t end = corpus.size() * (k + 1) / epochs;
      for (std::size_t i = begin; i < end; ++i) {
        const RawRecord& raw = corpus[i];
        ingest.append(ingest.shard_of(raw.record), raw.record, raw.payload, raw.credential);
      }
      static_cast<void>(
          ingest.seal_epoch(experiment.deployment(), verdict, nullptr, /*verdict_pure=*/true));
    }
    for (std::size_t i = last_begin; i < corpus.size(); ++i) {
      const RawRecord& raw = corpus[i];
      ingest.append(ingest.shard_of(raw.record), raw.record, raw.payload, raw.credential);
    }
    const auto start = std::chrono::steady_clock::now();
    const stream::EpochSnapshot snapshot =
        ingest.seal_epoch(experiment.deployment(), verdict, nullptr, /*verdict_pure=*/true);
    const auto elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start);
    state.SetIterationTime(elapsed.count());
    benchmark::DoNotOptimize(snapshot.size());
  }
  state.SetLabel(epochs == 1 ? "cold-full" : "warm-final");
  state.counters["epochs"] = static_cast<double>(epochs);
  state.counters["epoch_records"] = static_cast<double>(corpus.size() - last_begin);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * (corpus.size() - last_begin)));
}
BENCHMARK(bm_epoch_seal)
    ->Arg(1)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cw::bench

BENCHMARK_MAIN();
