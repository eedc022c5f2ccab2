#include "stream/spill_runner.h"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "analysis/table_cache.h"
#include "core/experiment.h"
#include "stream/seal.h"

namespace cw::stream {
namespace {

// Everything the returned ExperimentResult borrows. Destroyed after the
// result (runner::SimHandle declares the context first): the segmented cache
// dies before the snapshot whose frames it borrows (declaration order), then
// the segments unmap their spill files, then the directory is removed.
struct SpillContext {
  EpochSnapshot snapshot;
  std::unique_ptr<analysis::SegmentedTableCache> segmented;
  std::string dir;

  // Refcounted pager state: concurrent merged-table builds (different keys,
  // same segments) and the overlap extractors may pin one segment at once.
  std::mutex pager_mutex;
  std::vector<std::size_t> pin_counts;

  ~SpillContext() {
    segmented.reset();
    snapshot = EpochSnapshot{};  // unmaps every spilled segment
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);  // best-effort cleanup
    }
  }
};

}  // namespace

runner::SimRunner make_spill_sim_runner(SpillSimOptions options, runner::ThreadPool* pool) {
  if (options.spill_dir.empty()) {
    throw std::invalid_argument("make_spill_sim_runner: spill_dir is required");
  }
  return [options = std::move(options), pool](const core::ExperimentConfig& config) {
    auto context = std::make_shared<SpillContext>();
    char sub[40];
    std::snprintf(sub, sizeof(sub), "/sim-%016llx",
                  static_cast<unsigned long long>(config.seed));
    context->dir = options.spill_dir + sub;

    core::LiveExperiment live(config);
    context->segmented =
        std::make_unique<analysis::SegmentedTableCache>(live.result().classifier());
    SealOptions seal;
    seal.epochs = options.epochs;
    seal.shards = options.shards;
    seal.spill_dir = context->dir;
    seal.hot_segments = options.hot_segments;
    context->snapshot = seal_epochs(live, seal, *context->segmented, pool);

    runner::SimHandle handle;
    handle.context = context;
    handle.result = live.take();
    handle.records = context->snapshot.size();
    handle.events = handle.result->events_processed();
    context->pin_counts.assign(context->snapshot.segments().size(), 0);

    // Raw pointer on purpose: the pager is stored inside context->segmented
    // and the result (both outlived by the context); a shared_ptr capture
    // would make the context own a function that owns the context.
    SpillContext* raw = context.get();
    analysis::SegmentPager pager = [raw](std::size_t index, bool acquire) {
      const std::lock_guard<std::mutex> lock(raw->pager_mutex);
      const Segment& segment = *raw->snapshot.segments()[index];
      if (acquire) {
        if (raw->pin_counts[index]++ == 0) {
          std::string error;
          if (!segment.ensure_mapped(&error)) {
            throw std::runtime_error("spill pager: " + error);
          }
          segment.advise_sequential();
        }
      } else {
        if (--raw->pin_counts[index] == 0) segment.release_mapping();
      }
    };
    context->segmented->set_segment_pager(pager);
    handle.result->bind_segments(context->snapshot.frames(), context->segmented.get(),
                                 std::move(pager));
    return handle;
  };
}

}  // namespace cw::stream
