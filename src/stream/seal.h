// The epoch loop shared by both stream drivers (LiveReport and the fleet's
// spill runner): cut a LiveExperiment's observation window into integer
// slices and, at each slice boundary, seal what the capture sink routed into
// the ingest shards into one immutable segment, fold the segment's frame
// into the segment-merging table cache, and demote every segment but the
// newest `hot_segments` to a spill file.
//
// The sealed segments are the corpus: renderers read their frames (in epoch
// order) and the merged cache, and nothing else. Sliced and batch runs
// process the identical event sequence (LiveExperiment), so the segments of
// epochs 1..k hold exactly the records a batch run stopped at boundary k
// captures, only cut and ordered differently.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "analysis/table_cache.h"
#include "core/experiment.h"
#include "stream/snapshot.h"

namespace cw::runner {
class ThreadPool;
}  // namespace cw::runner

namespace cw::stream {

struct SealOptions {
  // Slices of the observation window (0 is treated as 1).
  std::size_t epochs = 4;
  // Ingest shard count (see IngestShards::shard_of).
  std::size_t shards = 4;
  // When non-empty (created on demand), segments older than the newest
  // `hot_segments` spill to `<spill_dir>/segment-<id>.cwds` and release
  // their mapping; they are read again only through Segment::ensure_mapped.
  std::string spill_dir;
  std::size_t hot_segments = static_cast<std::size_t>(-1);
};

// Called after each seal with the 1-based epoch number and the snapshot
// through it. The simulation is paused, so the callback may render.
using SealCallback = std::function<void(std::size_t epoch, const EpochSnapshot& snapshot)>;

// Runs `live` to the end of its window, sealing `options.epochs` segments
// into `cache` (built over live.result().classifier()); `pool` shards each
// segment's frame build. Installs the collector's capture sink for the run
// and removes it before returning. Returns the final snapshot; throws
// std::runtime_error when the spill directory or a spill file cannot be
// written.
EpochSnapshot seal_epochs(core::LiveExperiment& live, const SealOptions& options,
                          analysis::SegmentedTableCache& cache, runner::ThreadPool* pool,
                          const SealCallback& on_epoch = {});

}  // namespace cw::stream
