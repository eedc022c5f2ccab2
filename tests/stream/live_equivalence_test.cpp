// The stream subsystem's load-bearing invariant, tested in-process:
//
//  1. A SegmentedTableCache over any contiguous slicing of the corpus is
//     bit-identical to a cold whole-corpus CharacteristicTableCache for
//     every (vantage, scope, characteristic) — counts, tables, verdicts.
//  2. A LiveReport run over the full window renders, at its final epoch,
//     exactly the bytes of the one-shot batch report — at multiple epoch
//     slicings and worker counts.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/table_cache.h"
#include "core/experiment.h"
#include "runner/pipeline.h"
#include "runner/report.h"
#include "runner/thread_pool.h"
#include "stream/live_report.h"

namespace cw::stream {
namespace {

core::ExperimentConfig tiny_config() {
  core::ExperimentConfig config;
  config.scale = 0.05;
  config.telescope_slash24s = 4;
  config.duration = util::kDay;
  return config;
}

const core::ExperimentResult& experiment() {
  static const std::unique_ptr<core::ExperimentResult> result = [] {
    return core::Experiment(tiny_config()).run();
  }();
  return *result;
}

constexpr analysis::TrafficScope kAllScopes[] = {
    analysis::TrafficScope::kSsh22, analysis::TrafficScope::kTelnet23,
    analysis::TrafficScope::kHttp80, analysis::TrafficScope::kHttpAllPorts,
    analysis::TrafficScope::kAnyAll};

constexpr analysis::Characteristic kTableCharacteristics[] = {
    analysis::Characteristic::kTopAs, analysis::Characteristic::kTopUsername,
    analysis::Characteristic::kTopPassword, analysis::Characteristic::kTopPayload};

// Re-appends records[begin, end) of `source` into a fresh store (the same
// re-interning a live seal does when building a segment).
capture::EventStore slice_store(const capture::EventStore& source, std::size_t begin,
                                std::size_t end) {
  capture::EventStore out;
  for (std::size_t i = begin; i < end; ++i) {
    const capture::SessionRecord& record = source.records()[i];
    const std::string_view payload = record.payload_id == capture::kNoPayload
                                         ? std::string_view{}
                                         : std::string_view(source.payload(record.payload_id));
    std::optional<proto::Credential> credential;
    if (record.credential_id != capture::kNoCredential) {
      credential = source.credential(record.credential_id);
    }
    out.append(record, payload, credential);
  }
  out.freeze();
  return out;
}

class SegmentedCacheSlicing : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SegmentedCacheSlicing, MatchesColdWholeCorpusCacheEverywhere) {
  const std::size_t slices = GetParam();
  const auto& result = experiment();
  const analysis::MaliciousClassifier& classifier = result.classifier();
  const capture::EventStore& corpus = result.store();
  ASSERT_GT(corpus.size(), slices);

  // Build the segments: contiguous record ranges, each with its own store
  // and frame, exactly as epoch seals would produce them.
  std::vector<std::unique_ptr<capture::EventStore>> stores;
  std::vector<std::unique_ptr<capture::SessionFrame>> frames;
  analysis::SegmentedTableCache segmented(classifier);
  for (std::size_t k = 0; k < slices; ++k) {
    const std::size_t begin = corpus.size() * k / slices;
    const std::size_t end = corpus.size() * (k + 1) / slices;
    stores.push_back(std::make_unique<capture::EventStore>(slice_store(corpus, begin, end)));
    const capture::EventStore& store = *stores.back();
    capture::SessionFrame::BuildOptions options;
    options.verdict = [&classifier, &store](const capture::SessionRecord& record) {
      switch (classifier.classify(record, store)) {
        case analysis::MeasuredIntent::kMalicious:
          return capture::SessionFrame::Verdict::kMalicious;
        case analysis::MeasuredIntent::kBenign: return capture::SessionFrame::Verdict::kBenign;
        case analysis::MeasuredIntent::kUnobservable: break;
      }
      return capture::SessionFrame::Verdict::kUnobservable;
    };
    frames.push_back(std::make_unique<capture::SessionFrame>(
        capture::SessionFrame::build(store, result.deployment(), std::move(options))));
    segmented.add_segment(*frames.back());
  }
  ASSERT_EQ(segmented.segment_count(), slices);

  const analysis::CharacteristicTableCache cold(result.frame(), classifier);
  for (const topology::VantagePoint& vp : result.deployment().vantage_points()) {
    for (const analysis::TrafficScope scope : kAllScopes) {
      ASSERT_EQ(segmented.record_count(vp.id, scope), cold.record_count(vp.id, scope))
          << vp.name;
      EXPECT_EQ(segmented.malicious(vp.id, scope), cold.malicious(vp.id, scope)) << vp.name;
      for (const analysis::Characteristic characteristic : kTableCharacteristics) {
        const auto& merged = segmented.table(vp.id, scope, characteristic);
        const auto& whole = cold.table(vp.id, scope, characteristic);
        ASSERT_EQ(merged.total(), whole.total()) << vp.name;
        ASSERT_EQ(merged.distinct(), whole.distinct()) << vp.name;
        // sorted() is deterministic (count desc, lexicographic ties), so
        // element-wise equality is bit-level table equality.
        EXPECT_EQ(merged.sorted(), whole.sorted()) << vp.name;
      }
    }
  }
  // Advancing epochs kept per-segment partials: at least one per segment
  // was materialized for the queried tables.
  EXPECT_GE(segmented.segment_tables_built(), slices);
}

INSTANTIATE_TEST_SUITE_P(Slicings, SegmentedCacheSlicing, ::testing::Values(1, 3, 17));

std::vector<std::string> batch_outputs(unsigned jobs, const runner::ReportOptions& options) {
  const auto result = core::Experiment(tiny_config()).run();
  result->store().freeze();
  {
    runner::ThreadPool pool(jobs);
    static_cast<void>(result->frame(&pool));
  }
  const auto pipelines = runner::paper_report_pipelines(*result, options);
  return runner::run_pipelines(pipelines, jobs).outputs;
}

TEST(LiveReportEquivalence, FinalEpochMatchesBatchAcrossSlicingsAndJobs) {
  runner::ReportOptions options;
  options.include_leak = false;  // deterministic but heavy; not stream-dependent
  const std::vector<std::string> batch = batch_outputs(/*jobs=*/1, options);
  ASSERT_FALSE(batch.empty());

  struct Case {
    std::size_t epochs;
    std::size_t shards;
    unsigned jobs;
  };
  for (const Case c : {Case{2, 4, 1}, Case{3, 1, 2}, Case{5, 16, 2}}) {
    LiveReportConfig config;
    config.experiment = tiny_config();
    config.epochs = c.epochs;
    config.shards = c.shards;
    config.jobs = c.jobs;
    config.report = options;
    config.render_intermediate = false;
    LiveReport live(config);
    const EpochReport final_report = live.run();
    ASSERT_TRUE(final_report.rendered);
    EXPECT_FALSE(final_report.failed);
    ASSERT_EQ(final_report.outputs.size(), batch.size())
        << c.epochs << " epochs, " << c.shards << " shards";
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(final_report.outputs[i], batch[i])
          << final_report.names[i] << " at " << c.epochs << " epochs, " << c.shards
          << " shards, jobs " << c.jobs;
    }
  }
}

TEST(LiveReportEquivalence, IntermediateEpochsRenderAndGrow) {
  LiveReportConfig config;
  config.experiment = tiny_config();
  config.epochs = 3;
  config.shards = 2;
  config.report.include_leak = false;
  std::vector<EpochReport> reports;
  LiveReport live(config);
  live.run([&reports](const EpochReport& report) { reports.push_back(report); });
  ASSERT_EQ(reports.size(), 3u);
  std::uint64_t previous_total = 0;
  for (std::size_t k = 0; k < reports.size(); ++k) {
    EXPECT_EQ(reports[k].epoch, k + 1);
    EXPECT_TRUE(reports[k].rendered);
    EXPECT_FALSE(reports[k].failed);
    EXPECT_EQ(reports[k].records_total, previous_total + reports[k].records_new);
    previous_total = reports[k].records_total;
    EXPECT_FALSE(reports[k].outputs.empty());
  }
  EXPECT_EQ(reports.back().now, tiny_config().duration);
}

}  // namespace
}  // namespace cw::stream
