#include "stream/seal.h"

#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "stream/ingest.h"

namespace cw::stream {

EpochSnapshot seal_epochs(core::LiveExperiment& live, const SealOptions& options,
                          analysis::SegmentedTableCache& cache, runner::ThreadPool* pool,
                          const SealCallback& on_epoch) {
  if (!options.spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.spill_dir, ec);
    if (ec) throw std::runtime_error("seal_epochs: cannot create " + options.spill_dir);
  }
  const std::size_t epochs = options.epochs == 0 ? 1 : options.epochs;
  const util::SimTime duration = live.config().duration;

  // Route live capture into the shard buffers; the collector's own store
  // stays empty for the whole run.
  IngestShards ingest(options.shards);
  live.collector().set_store_sink(
      [&ingest](const capture::SessionRecord& record, std::string_view payload,
                const std::optional<proto::Credential>& credential) {
        ingest.append(ingest.shard_of(record), record, payload, credential);
      });
  // The sink captures the local `ingest`; uninstall it on every exit path.
  struct SinkGuard {
    core::LiveExperiment& live;
    ~SinkGuard() { live.collector().set_store_sink({}); }
  } sink_guard{live};
  const analysis::MaliciousClassifier& classifier = live.result().classifier();
  const VerdictFactory verdict = [&classifier](const capture::EventStore& store) {
    return analysis::frame_verdict(classifier, store);
  };

  EpochSnapshot snapshot;
  for (std::size_t k = 1; k <= epochs; ++k) {
    // Integer slice boundaries; the last is exactly the configured duration.
    const util::SimTime boundary = static_cast<util::SimTime>(
        (static_cast<unsigned long long>(duration) * k) / epochs);
    live.advance_to(k == epochs ? duration : boundary);
    // frame_verdict is pure in (credential presence, payload id, port,
    // transport), so the seal memoizes classification per distinct tuple.
    snapshot = ingest.seal_epoch(live.result().deployment(), verdict, pool,
                                 /*verdict_pure=*/true);
    cache.add_segment(snapshot.segments().back()->frame());

    // Demote everything but the newest hot_segments. Safe here: the
    // partials the cache already built are owned copies, and partials not
    // yet built rebuild from the mapping a reader re-establishes. spill()
    // is idempotent; release_mapping() returns the address space at once.
    if (!options.spill_dir.empty()) {
      const auto& segments = snapshot.segments();
      const std::size_t cold = segments.size() > options.hot_segments
                                   ? segments.size() - options.hot_segments
                                   : 0;
      for (std::size_t i = 0; i < cold; ++i) {
        const Segment& old = *segments[i];
        if (old.spilled()) continue;
        std::string error;
        if (!old.spill(options.spill_dir, &error)) {
          throw std::runtime_error("seal_epochs: " + error);
        }
        old.release_mapping();
      }
    }
    if (on_epoch) on_epoch(k, snapshot);
  }
  return snapshot;
}

}  // namespace cw::stream
