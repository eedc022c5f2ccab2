// LiveReport: the continuously-serving driver over the stream subsystem.
//
// Runs the simulated observation window in wall-clock slices
// (stream::seal_epochs). During each slice the collector's capture sink
// routes every record into stream::IngestShards; at the slice boundary the
// epoch's records seal into an immutable segment, whose partial tables fold
// into an analysis::SegmentedTableCache. The driver then binds the segment
// list to the result and re-renders the full paper report through the same
// runner::paper_report_pipelines the batch path uses. The segments are the
// only copy of the corpus.
//
// The load-bearing invariant (enforced by tests and scripts/check.sh): each
// epoch renders exactly the bytes of the one-shot batch report of a run
// stopped at that epoch's boundary — so the final epoch equals the batch
// report over the same configuration — at any --jobs, any shard count, and
// any epoch slicing. Every renderer reads the frame list or the segmented
// cache, and each is invariant to how the corpus is cut and ordered:
// frequency tables merge text-keyed exact counts, distinct-source and
// distinct-payload sets union across segments (payload ids are corpus-wide,
// see SessionFrame::payload_id), counts sum, and Tables 11/17 keep a
// source's first payload walking the segments in epoch order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "runner/report.h"
#include "runner/sweep.h"
#include "stream/ingest.h"
#include "util/sim_time.h"

namespace cw::stream {

struct LiveReportConfig {
  core::ExperimentConfig experiment;
  // Number of wall-clock slices the observation window is cut into.
  std::size_t epochs = 4;
  // Ingest shard count (routing is by vantage; see IngestShards::shard_of).
  std::size_t shards = 4;
  // Worker count for frame builds and report pipelines (0 = hardware).
  unsigned jobs = 1;
  runner::ReportOptions report;
  // Skip report rendering for all but the final epoch (the simulation and
  // sealing still run every epoch; used by equivalence checks that only
  // compare final outputs).
  bool render_intermediate = true;
  // Additionally run runner::extract_findings over each rendered epoch and
  // attach the seven headline-claim verdicts to the EpochReport (the serve
  // driver publishes them next to the tables). Cheap after rendering: the
  // extractors read the same shared table cache the pipelines just filled.
  bool extract_findings = false;
  // Out-of-core tiering: when non-empty, segments older than the newest
  // `hot_segments` spill to `<spill_dir>/segment-<id>.cwds` after their
  // partial tables are folded into the segmented cache, and their record
  // stores, frames, and mappings are released. Each render maps every
  // spilled segment for its frame scans and unmaps them after, so the
  // rendered report is byte-identical either way. hot_segments = SIZE_MAX
  // keeps everything resident even with a spill dir (useful for A/B checks
  // of the spill I/O).
  std::string spill_dir;
  std::size_t hot_segments = static_cast<std::size_t>(-1);
};

// One epoch's rendered report.
struct EpochReport {
  std::uint64_t epoch = 0;       // 1-based
  util::SimTime now = 0;         // simulation clock at the slice boundary
  std::uint64_t records_total = 0;
  std::uint64_t records_new = 0;  // sealed this epoch
  bool rendered = false;          // false when render_intermediate skipped it
  bool failed = false;            // any pipeline threw
  std::vector<std::string> names;    // pipeline names, slot order
  std::vector<std::string> outputs;  // rendered artifacts, slot order
  runner::RunReport run_report;
  // The sealed corpus as of this epoch, pinned: a cheap shared-segment copy
  // that stays valid — and byte-stable — no matter how many epochs seal
  // after it. The serve layer hands this to readers so responses for epoch k
  // never chase the ingest side.
  EpochSnapshot snapshot;
  // Headline-claim verdicts (LiveReportConfig::extract_findings).
  bool findings_extracted = false;
  runner::CellFindings findings{};
};

class LiveReport {
 public:
  explicit LiveReport(LiveReportConfig config) : config_(std::move(config)) {}

  using EpochCallback = std::function<void(const EpochReport&)>;

  // Runs the whole window, invoking `callback` (if set) after each epoch,
  // and returns the final epoch's report. Single-use.
  EpochReport run(const EpochCallback& callback = {});

  [[nodiscard]] const LiveReportConfig& config() const noexcept { return config_; }

 private:
  LiveReportConfig config_;
};

}  // namespace cw::stream
