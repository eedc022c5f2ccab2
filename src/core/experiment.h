// The experiment orchestrator: wires topology, search engines, the actor
// population, the event engine, and capture into one reproducible run — the
// paper's one-week observation window — and hands the captured traffic plus
// ground truth to the analyses. This is the primary entry point of the
// public API:
//
//   cw::core::ExperimentConfig config;
//   config.scale = 0.5;
//   auto result = cw::core::Experiment(config).run();
//   // result->frames(), result->deployment(), result->classifier(), ...
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "adversary/scenario.h"
#include "agents/population.h"
#include "analysis/malicious.h"
#include "analysis/oracle.h"
#include "analysis/table_cache.h"
#include "capture/collector.h"
#include "capture/frame.h"
#include "ids/engine.h"
#include "searchengine/engine.h"
#include "sim/engine.h"
#include "topology/deployment.h"
#include "topology/universe.h"

namespace cw::runner {
class ThreadPool;
}  // namespace cw::runner

namespace cw::core {

struct ExperimentConfig {
  std::uint64_t seed = 0x636c6f7564776174ULL;
  topology::ScenarioYear year = topology::ScenarioYear::k2021;
  // Scales actor counts; telescope size scales via deployment config below.
  double scale = 1.0;
  int telescope_slash24s = 64;
  util::SimTime duration = util::kWeek;
  // Search-engine crawl cadence; 0 disables crawling entirely.
  util::SimDuration crawl_interval = 24 * util::kHour;
  // Fraction of actors whose reputation the oracle does not know.
  double oracle_unknown_fraction = 0.10;
  // Optional streaming sink for telescope traffic (Figure 1 full-scale runs).
  capture::Collector::TelescopeSink telescope_sink;
  // Optional transparent firewall in front of the vantage points
  // (Section 7 ablations; see capture::SignatureFirewall).
  capture::Collector::FirewallHook firewall;
  // Optional adversarial scenario grafted onto (or replacing) the calibrated
  // population: adaptive attackers, a moving-target defense, co-location
  // probers, or ground-truth cluster families. kNone leaves the run
  // untouched — zero extra actors, zero extra RNG draws.
  adversary::ScenarioConfig adversary;
};

// The completed run. Movable-only; owns every substrate so analyses can
// borrow freely.
class ExperimentResult {
 public:
  // The configuration the run was built from (seed included). Lets corpus
  // consumers that only see the result — fleet cells, table renderers,
  // benches — report provenance without threading the config separately.
  [[nodiscard]] const ExperimentConfig& config() const noexcept { return config_; }
  [[nodiscard]] const topology::Deployment& deployment() const noexcept { return deployment_; }
  [[nodiscard]] const topology::TargetUniverse& universe() const noexcept { return *universe_; }
  // The collector's record store: the whole corpus of a batch run. A live
  // run routes capture into sealed segments instead (see bind_segments), so
  // there this store stays empty and analyses read frames().
  [[nodiscard]] const capture::EventStore& store() const noexcept { return collector_->store(); }
  [[nodiscard]] const capture::Collector& collector() const noexcept { return *collector_; }
  [[nodiscard]] const analysis::MaliciousClassifier& classifier() const noexcept {
    return *classifier_;
  }
  [[nodiscard]] const analysis::ReputationOracle& oracle() const noexcept { return *oracle_; }
  [[nodiscard]] const search::ServiceSearchEngine& censys() const noexcept { return *censys_; }
  [[nodiscard]] const search::ServiceSearchEngine& shodan() const noexcept { return *shodan_; }
  [[nodiscard]] const agents::Population& population() const noexcept { return *population_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return events_processed_; }

  // The shared columnar projection of the store, built lazily on first use
  // (thread-safe) and reused by every table renderer. The verdict column
  // wraps this result's classifier, so frame-backed pipelines agree with
  // per-record classification bit for bit. Pass a pool to shard the first
  // build; later calls ignore it and return the cached frame. Batch corpora
  // only: on a segment-bound result it throws std::logic_error, because the
  // store it would project is empty.
  [[nodiscard]] const capture::SessionFrame& frame(runner::ThreadPool* pool = nullptr) const;

  // The shared characteristic-table cache: the bound segment cache, or one
  // built lazily over frame() (a pool passed here shards the frame build if
  // it is the first frame() caller; cached tables shard through the pool
  // their first *reader* supplies). Every table renderer that names the same
  // (vantage, scope, characteristic) side shares one materialization.
  [[nodiscard]] const analysis::CharacteristicTableCache& table_cache(
      runner::ThreadPool* pool = nullptr) const;

  // The corpus every renderer reads: the bound segment frames in epoch
  // order, or the one batch frame(pool). Pass segment_pager() alongside; it
  // is empty unless segments are bound.
  [[nodiscard]] std::vector<const capture::SessionFrame*> frames(
      runner::ThreadPool* pool = nullptr) const;
  [[nodiscard]] const analysis::SegmentPager& segment_pager() const noexcept {
    return segment_pager_;
  }

  // --- stream support (src/stream) -----------------------------------------
  // A live run's corpus is its sealed segments. bind_segments() makes
  // frames() return their frames (in epoch order) and table_cache() return
  // the stream layer's segment-merging cache; `pager` maps a spilled
  // segment in around each scan (empty when every frame is resident). All
  // three are borrowed and must stay valid until the next bind or the
  // result's last read. A driver re-binds after every seal.
  void bind_segments(std::vector<const capture::SessionFrame*> frames,
                     const analysis::CharacteristicTableCache* cache,
                     analysis::SegmentPager pager);

 private:
  friend class Experiment;
  friend class LiveExperiment;
  ExperimentConfig config_;
  topology::Deployment deployment_;
  std::unique_ptr<topology::TargetUniverse> universe_;
  std::unique_ptr<capture::Collector> collector_;
  std::unique_ptr<search::ServiceSearchEngine> censys_;
  std::unique_ptr<search::ServiceSearchEngine> shodan_;
  std::unique_ptr<agents::Population> population_;
  std::unique_ptr<ids::RuleEngine> rules_;
  std::unique_ptr<analysis::MaliciousClassifier> classifier_;
  std::unique_ptr<analysis::ReputationOracle> oracle_;
  std::uint64_t events_processed_ = 0;
  // Stream mode: the sealed segments' frames, cache and pager (borrowed).
  std::vector<const capture::SessionFrame*> segment_frames_;
  const analysis::CharacteristicTableCache* segment_cache_ = nullptr;
  analysis::SegmentPager segment_pager_;
  // Lazy frame cache. The once_flag lives behind a pointer so the result
  // stays movable.
  mutable std::unique_ptr<std::once_flag> frame_once_ = std::make_unique<std::once_flag>();
  mutable std::unique_ptr<capture::SessionFrame> frame_;
  mutable std::unique_ptr<std::once_flag> cache_once_ = std::make_unique<std::once_flag>();
  mutable std::unique_ptr<analysis::CharacteristicTableCache> table_cache_;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config) : config_(std::move(config)) {}

  // Builds everything and runs the full observation window.
  [[nodiscard]] std::unique_ptr<ExperimentResult> run() const;

  [[nodiscard]] const ExperimentConfig& config() const noexcept { return config_; }

 private:
  ExperimentConfig config_;
};

// A batch run, opened up: the full experiment context — topology, search
// engines, population, classifier, oracle, crawl schedule — is built at
// construction with the clock at zero, and the caller advances the
// simulation in slices. This is the substrate of the stream subsystem
// (src/stream): the live driver installs a capture sink on collector(),
// steps advance_to() once per epoch, and seals what arrived in between.
// Experiment::run() is exactly "construct; advance_to(duration); take()",
// so sliced and batch runs process the identical event sequence.
class LiveExperiment {
 public:
  explicit LiveExperiment(ExperimentConfig config);
  ~LiveExperiment();
  LiveExperiment(const LiveExperiment&) = delete;
  LiveExperiment& operator=(const LiveExperiment&) = delete;

  // Advances the simulation to min(until, config.duration). Monotonic:
  // earlier targets are a no-op. Not safe concurrently with readers of the
  // collector's store (the stream driver quiesces between slices).
  void advance_to(util::SimTime until);

  [[nodiscard]] util::SimTime now() const noexcept;
  [[nodiscard]] bool finished() const noexcept;
  [[nodiscard]] const ExperimentConfig& config() const noexcept { return config_; }

  // The context, readable at any point between slices. Mutable collector
  // access lets the stream driver install its capture sink before the first
  // slice.
  [[nodiscard]] ExperimentResult& result() noexcept { return *result_; }
  [[nodiscard]] const ExperimentResult& result() const noexcept { return *result_; }
  [[nodiscard]] capture::Collector& collector() noexcept;

  // Finalizes the run (records events_processed) and releases the result.
  // The engine stays with the LiveExperiment; call after the last slice.
  [[nodiscard]] std::unique_ptr<ExperimentResult> take();

 private:
  ExperimentConfig config_;
  std::unique_ptr<ExperimentResult> result_;
  std::unique_ptr<sim::Engine> engine_;
  // Actors capture the context by reference into their scheduled events, so
  // it must stay alive (and address-stable) until the last slice runs.
  std::unique_ptr<agents::AgentContext> ctx_;
};

}  // namespace cw::core
