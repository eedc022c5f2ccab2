#include "core/experiment.h"

#include <algorithm>
#include <stdexcept>

#include "ids/ruleset.h"

namespace cw::core {

const capture::SessionFrame& ExperimentResult::frame(runner::ThreadPool* pool) const {
  if (!segment_frames_.empty()) {
    throw std::logic_error("ExperimentResult::frame: the corpus is bound segments; read frames()");
  }
  std::call_once(*frame_once_, [this, pool] {
    const capture::EventStore& source = store();
    capture::SessionFrame::BuildOptions options;
    options.pool = pool;
    options.verdict = analysis::frame_verdict(*classifier_, source);
    // MaliciousClassifier::classify depends only on (credential presence,
    // payload id, port, transport); declaring that lets the build memoize
    // one verdict per distinct tuple instead of classifying every record.
    options.verdict_pure = true;
    frame_ = std::make_unique<capture::SessionFrame>(
        capture::SessionFrame::build(source, deployment_, std::move(options)));
  });
  return *frame_;
}

const analysis::CharacteristicTableCache& ExperimentResult::table_cache(
    runner::ThreadPool* pool) const {
  if (segment_cache_ != nullptr) return *segment_cache_;
  std::call_once(*cache_once_, [this, pool] {
    // Unbound here, so frames() is the one batch frame.
    table_cache_ = std::make_unique<analysis::CharacteristicTableCache>(*frames(pool).front(),
                                                                        *classifier_);
  });
  return *table_cache_;
}

std::vector<const capture::SessionFrame*> ExperimentResult::frames(
    runner::ThreadPool* pool) const {
  if (!segment_frames_.empty()) return segment_frames_;
  return {&frame(pool)};
}

void ExperimentResult::bind_segments(std::vector<const capture::SessionFrame*> frames,
                                     const analysis::CharacteristicTableCache* cache,
                                     analysis::SegmentPager pager) {
  segment_frames_ = std::move(frames);
  segment_cache_ = cache;
  segment_pager_ = std::move(pager);
}

LiveExperiment::LiveExperiment(ExperimentConfig config)
    : config_(std::move(config)),
      result_(std::make_unique<ExperimentResult>()),
      engine_(std::make_unique<sim::Engine>()) {
  ExperimentResult* result = result_.get();
  result->config_ = config_;

  topology::DeploymentConfig deployment_config;
  deployment_config.year = config_.year;
  deployment_config.telescope_slash24s = config_.telescope_slash24s;
  deployment_config.seed = config_.seed ^ 0x746f706fULL;
  result->deployment_ = topology::Deployment::table1(deployment_config);
  result->universe_ = std::make_unique<topology::TargetUniverse>(result->deployment_);

  result->collector_ = std::make_unique<capture::Collector>(*result->universe_);
  if (config_.telescope_sink) result->collector_->set_telescope_sink(config_.telescope_sink);
  if (config_.firewall) result->collector_->set_firewall(config_.firewall);

  result->censys_ = std::make_unique<search::ServiceSearchEngine>(
      "Censys", net::kAsnCensys, agents::Population::kCensysActorId);
  result->shodan_ = std::make_unique<search::ServiceSearchEngine>(
      "Shodan", net::kAsnShodan, agents::Population::kShodanActorId);

  agents::PopulationConfig population_config;
  population_config.seed = config_.seed ^ 0x706f70ULL;
  population_config.scale = config_.scale;
  population_config.year = config_.year;
  result->population_ = std::make_unique<agents::Population>(
      agents::Population::build(population_config, result->deployment_));

  // Adversarial scenarios graft extra actors onto the population (or swap it
  // out entirely for a controlled ground-truth one) before the oracle reads
  // ground_truth() below, so grafted actors get reputations too. kNone is a
  // strict no-op: the calibrated runs' bytes are untouched.
  if (config_.adversary.kind != adversary::ScenarioKind::kNone) {
    if (config_.adversary.replace_population) {
      result->population_ = std::make_unique<agents::Population>();
    }
    adversary::install(*result->population_, config_.adversary, *result->universe_,
                       config_.seed ^ 0x61647673ULL);
  }

  // The measurement context does not depend on the captured traffic, so a
  // live run has it from epoch zero: classification and reputation work on
  // partial corpora exactly as they do on the final one.
  result->rules_ = std::make_unique<ids::RuleEngine>(ids::curated_engine());
  result->classifier_ = std::make_unique<analysis::MaliciousClassifier>(*result->rules_);
  result->oracle_ = std::make_unique<analysis::ReputationOracle>(
      result->population_->ground_truth(), config_.oracle_unknown_fraction,
      config_.seed ^ 0x6f7261636cULL);

  // Actors hold a reference to this context across the whole window (their
  // scheduled events re-enter through it), so it lives on the heap with the
  // engine, not on the constructor's stack.
  ctx_ = std::make_unique<agents::AgentContext>();
  agents::AgentContext& ctx = *ctx_;
  ctx.engine = engine_.get();
  ctx.universe = result->universe_.get();
  ctx.collector = result->collector_.get();
  ctx.censys = result->censys_.get();
  ctx.shodan = result->shodan_.get();
  ctx.window_end = config_.duration;

  if (config_.crawl_interval > 0) {
    util::Rng crawl_seed(config_.seed ^ 0x637261776cULL);
    for (util::SimTime t = util::kHour; t < config_.duration; t += config_.crawl_interval) {
      engine_->schedule_at(t, [result, crawl_seed](sim::Engine& e) mutable {
        util::Rng rng = crawl_seed.stream(static_cast<std::uint64_t>(e.now()));
        result->censys_->crawl(e.now(), *result->universe_, *result->collector_, rng);
        result->shodan_->crawl(e.now(), *result->universe_, *result->collector_, rng);
      });
    }
  }

  result->population_->start_all(ctx);
}

LiveExperiment::~LiveExperiment() = default;

void LiveExperiment::advance_to(util::SimTime until) {
  engine_->run_until(std::min(until, config_.duration));
  result_->events_processed_ = engine_->events_processed();
}

util::SimTime LiveExperiment::now() const noexcept { return engine_->now(); }

bool LiveExperiment::finished() const noexcept { return engine_->now() >= config_.duration; }

capture::Collector& LiveExperiment::collector() noexcept { return *result_->collector_; }

std::unique_ptr<ExperimentResult> LiveExperiment::take() {
  result_->events_processed_ = engine_->events_processed();
  return std::move(result_);
}

std::unique_ptr<ExperimentResult> Experiment::run() const {
  LiveExperiment live(config_);
  live.advance_to(config_.duration);
  return live.take();
}

}  // namespace cw::core
