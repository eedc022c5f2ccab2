#include "stream/live_report.h"

#include <stdexcept>

#include "runner/pipeline.h"
#include "runner/thread_pool.h"
#include "stream/seal.h"

namespace cw::stream {

EpochReport LiveReport::run(const EpochCallback& callback) {
  const std::size_t epochs = config_.epochs == 0 ? 1 : config_.epochs;
  core::LiveExperiment live(config_.experiment);
  core::ExperimentResult& result = live.result();
  analysis::SegmentedTableCache segmented(result.classifier());
  runner::ThreadPool pool(config_.jobs);

  SealOptions seal;
  seal.epochs = epochs;
  seal.shards = config_.shards;
  seal.spill_dir = config_.spill_dir;
  seal.hot_segments = config_.hot_segments;

  EpochReport report;
  seal_epochs(live, seal, segmented, &pool, [&](std::size_t k, const EpochSnapshot& snapshot) {
    // The corpus is the segment list; every renderer reads it through the
    // result. No pager: the render below maps every spilled segment itself.
    result.bind_segments(snapshot.frames(), &segmented, {});

    report = EpochReport{};
    report.epoch = k;
    report.now = live.now();
    report.records_total = snapshot.size();
    report.records_new = snapshot.segments().back()->size();
    report.snapshot = snapshot;

    if (config_.render_intermediate || k == epochs) {
      // Map every spilled segment for the duration of the render: the frame
      // scans read them, partials not built while the segment was hot (e.g.
      // with render_intermediate off, or for slices first named this epoch)
      // rebuild from the mapping, and madvise(SEQUENTIAL) primes the
      // full-column scans. Released again after the render — the address
      // space is only held while reading.
      for (const auto& segment : snapshot.segments()) {
        if (!segment->spilled()) continue;
        std::string map_error;
        if (!segment->ensure_mapped(&map_error)) {
          throw std::runtime_error("LiveReport: " + map_error);
        }
        segment->advise_sequential();
      }
      const auto pipelines = runner::paper_report_pipelines(result, config_.report);
      auto run = runner::run_pipelines(pipelines, config_.jobs);
      report.rendered = true;
      report.names.reserve(pipelines.size());
      for (const auto& pipeline : pipelines) report.names.push_back(pipeline.name);
      report.outputs = std::move(run.outputs);
      for (const auto& metrics : run.report.pipelines) report.failed |= metrics.failed;
      report.run_report = std::move(run.report);
      if (config_.extract_findings) {
        // After the render the shared table cache is warm, so the seven
        // extractors mostly re-read tables the pipelines already built.
        report.findings = runner::extract_findings(result, runner::AnalysisOptions{}, &pool);
        report.findings_extracted = true;
      }
      for (const auto& segment : snapshot.segments()) segment->release_mapping();
    }
    if (callback) callback(report);
  });
  return report;
}

}  // namespace cw::stream
