// Benchmarks the deterministic parallel pipeline runner: the full paper
// result set (minus the self-simulating leak experiment) regenerated at
// 1/2/4/8 workers over one cached experiment, plus the CW_JOBS-driven
// configuration. The printed artifact is the runner's own RunReport at
// CW_JOBS workers — per-pipeline wall time, events, and output size.
//
// Also times the SessionFrame build itself and the pipelines the frame was
// designed for (Tables 8/9 over the frame list, Table 10 over a cold table
// cache).
#include "bench_common.h"

#include "agents/population.h"
#include "analysis/overlap.h"
#include "capture/frame.h"

namespace cw::bench {
namespace {

void bm_runner(benchmark::State& state) { bm_report_pipelines(state); }
BENCHMARK(bm_runner)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(0)
    ->Unit(benchmark::kMillisecond);

// One frame build per iteration (pin/unpin balanced by the destructor),
// with the same verdict wiring ExperimentResult::frame uses.
void bm_frame_build(benchmark::State& state) {
  const core::ExperimentResult& experiment = shared_experiment();
  experiment.store().freeze();
  const auto jobs = static_cast<unsigned>(state.range(0));
  std::unique_ptr<runner::ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<runner::ThreadPool>(jobs);
  for (auto _ : state) {
    capture::SessionFrame::BuildOptions options;
    options.pool = pool.get();
    options.verdict = [&experiment](const capture::SessionRecord& record) {
      switch (experiment.classifier().classify(record, experiment.store())) {
        case analysis::MeasuredIntent::kMalicious:
          return capture::SessionFrame::Verdict::kMalicious;
        case analysis::MeasuredIntent::kBenign:
          return capture::SessionFrame::Verdict::kBenign;
        case analysis::MeasuredIntent::kUnobservable: break;
      }
      return capture::SessionFrame::Verdict::kUnobservable;
    };
    const capture::SessionFrame frame = capture::SessionFrame::build(
        experiment.store(), experiment.deployment(), std::move(options));
    benchmark::DoNotOptimize(frame.size());
  }
  state.counters["jobs"] = jobs;
}
BENCHMARK(bm_frame_build)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

const std::vector<capture::ActorId>& crawler_actors() {
  static const std::vector<capture::ActorId> actors = {
      agents::Population::kCensysActorId, agents::Population::kShodanActorId};
  return actors;
}

void bm_table8(benchmark::State& state) {
  const core::ExperimentResult& e = shared_experiment();
  const auto frames = e.frames();
  for (auto _ : state) {
    const auto rows = analysis::scanner_overlap(frames, net::popular_ports(), crawler_actors());
    benchmark::DoNotOptimize(rows.size());
  }
}
BENCHMARK(bm_table8)->Unit(benchmark::kMillisecond);

const std::vector<net::Port>& table9_ports() {
  static const std::vector<net::Port> ports = {23, 2323, 80, 8080, 2222, 22};
  return ports;
}

void bm_table9(benchmark::State& state) {
  const core::ExperimentResult& e = shared_experiment();
  const auto frames = e.frames();
  for (auto _ : state) {
    const auto rows = analysis::attacker_overlap(frames, table9_ports(), crawler_actors());
    benchmark::DoNotOptimize(rows.size());
  }
}
BENCHMARK(bm_table9)->Unit(benchmark::kMillisecond);

constexpr analysis::TrafficScope kTable10Scopes[] = {
    analysis::TrafficScope::kSsh22, analysis::TrafficScope::kTelnet23,
    analysis::TrafficScope::kHttp80, analysis::TrafficScope::kAnyAll};

// Cache-backed Table 10 with a COLD cache each iteration: measures what the
// shared CharacteristicTableCache buys from cross-pair reuse alone (Orion's
// table per scope is built once for its five pairs, instead of five times).
void bm_table10_cached(benchmark::State& state) {
  const core::ExperimentResult& e = shared_experiment();
  const capture::SessionFrame& frame = e.frame();
  for (auto _ : state) {
    const analysis::CharacteristicTableCache cache(frame, e.classifier());
    std::size_t tested = 0;
    for (const auto scope : kTable10Scopes) {
      for (const bool edu : {true, false}) {
        const auto pairs = edu ? analysis::telescope_edu_pairs(e.deployment())
                               : analysis::telescope_cloud_pairs(e.deployment());
        tested += analysis::compare_vantage_pairs(cache, pairs, scope,
                                                  analysis::Characteristic::kTopAs)
                      .pairs_tested;
      }
    }
    benchmark::DoNotOptimize(tested);
    state.counters["tables"] = static_cast<double>(cache.tables_built());
  }
}
BENCHMARK(bm_table10_cached)->Unit(benchmark::kMillisecond);

std::string runner_report() {
  const core::ExperimentResult& experiment = shared_experiment();
  experiment.store().freeze();
  runner::ReportOptions options;
  options.include_leak = false;
  const auto pipelines = runner::paper_report_pipelines(experiment, options);
  const auto run = runner::run_pipelines(pipelines, env_jobs());
  return run.report.render();
}

}  // namespace
}  // namespace cw::bench

CW_BENCH_MAIN(cw::bench::runner_report())
