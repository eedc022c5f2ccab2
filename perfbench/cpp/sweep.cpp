// sweep_calibration: runner::Fleet over make_calibration_campaign (six
// simulations) at scale 0.3 / t24 16 / jobs = nproc — the `cloudwatch_cli
// sweep calibration` path. Many engines run at once through the only
// parallel surface for simulation, and findings are extracted without
// rendering: the bypass workload for renderer and serve changes.
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "runner/fleet.h"
#include "runner/sweep.h"
#include "runner/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.3;
constexpr int kT24 = 16;
// md5 of `cloudwatch_cli sweep calibration --scale 0.3 --t24 16` stdout,
// default campaign seed.
constexpr std::string_view kGoldenMd5 = "78c3baf0487d877da4fc51d891f9d33d";

struct Iteration {
  double fleet_ms = 0, wall_ms = 0;
  std::size_t cells = 0, failed = 0;
  std::string report;
};

struct SimTotals {
  std::mutex mutex;
  double advance_ms = 0;
  std::uint64_t records = 0;
};

// The fleet's default simulation runner (LiveExperiment to the end of the
// window), with its layers timed from outside.
cw::runner::SimRunner traced_runner(Tracer& tracer, std::uint64_t parent, SimTotals& totals) {
  return [&tracer, parent, &totals](const cw::core::ExperimentConfig& config) {
    cw::runner::SimHandle handle;
    Span setup(tracer, "core.live_experiment", parent);
    cw::core::LiveExperiment live(config);
    setup.close();
    Span advance(tracer, "sim.advance", parent);
    live.advance_to(config.duration);
    const double advance_ms = advance.close();
    Span take(tracer, "core.take", parent);
    handle.result = live.take();
    take.close();
    handle.records = handle.result->store().size();
    handle.events = handle.result->events_processed();
    std::lock_guard<std::mutex> lock(totals.mutex);
    totals.advance_ms += advance_ms;
    totals.records += handle.records;
    return handle;
  };
}

Iteration run_once(const cw::runner::CampaignParams& params, unsigned jobs, Tracer& tracer,
                   SimTotals* totals) {
  Iteration it;
  Span root(tracer, jobs == 1 ? "sweep.iteration_j1" : "sweep.iteration");
  const Clock::time_point start = Clock::now();
  Span setup(tracer, "core.setup", root.id());
  const cw::runner::Campaign campaign = cw::runner::make_calibration_campaign(params);
  cw::runner::ThreadPool pool(jobs);
  cw::runner::Fleet fleet(pool);
  setup.close();
  Span run(tracer, "runner.fleet", root.id());
  if (totals != nullptr) fleet.set_sim_runner(traced_runner(tracer, run.id(), *totals));
  std::vector<cw::runner::CellResult> results;
  try {
    results = fleet.run(campaign);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: fleet run failed: %s\n", error.what());
  }
  it.fleet_ms = run.close();
  it.cells = campaign.cells.size();
  it.failed = results.size() == campaign.cells.size() ? 0 : campaign.cells.size();
  if (it.failed == 0) it.report = cw::runner::SweepReport::render(campaign, results);
  it.wall_ms = ms_between(start, Clock::now());
  return it;
}

cw::runner::CampaignParams campaign_params(std::uint64_t data_seed) {
  cw::runner::CampaignParams params;
  params.scale = kScale;
  params.telescope_slash24s = kT24;
  params.seed += data_seed;
  return params;
}

}  // namespace

double sweep_calibration_setup_ms(const RunContext& ctx, std::size_t sample) {
  const cw::runner::CampaignParams params = campaign_params(ctx.data_seed(sample));
  const Clock::time_point start = Clock::now();
  const cw::runner::Campaign campaign = cw::runner::make_calibration_campaign(params);
  cw::runner::ThreadPool pool(ctx.nproc);
  const cw::runner::Fleet fleet(pool);
  return ms_between(start, Clock::now());
}

WorkloadResult run_sweep_calibration(const RunContext& ctx) {
  WorkloadResult out;
  const cw::runner::CampaignParams defaults;
  const unsigned jobs = ctx.nproc;
  out.config = {{"scale", "0.3"},
                {"t24", std::to_string(kT24)},
                {"jobs", std::to_string(jobs)},
                {"campaign", "calibration"},
                {"campaign_seed", std::to_string(defaults.seed) + " + data seed"},
                {"data_seeds", ctx.data_seeds()}};

  Tracer untraced(false);
  OutputPin pin("sweep report", std::string(kGoldenMd5));
  auto check = [&](const Iteration& it, std::uint64_t seed, const std::string& what) {
    out.attempted += it.cells;
    out.failed += it.failed;
    out.gate.expect(it.failed == 0, what + ": fleet run failed");
    out.gate.expect(it.cells == 6, what + ": expected 6 cells");
    pin.check(out.gate, seed, it.report);
  };

  const Budget budget(ctx.seconds);
  double last_s = 0.0;
  for (std::size_t done = 0; budget.another(last_s, done); ++done) {
    const Clock::time_point cycle_start = Clock::now();
    const std::uint64_t seed = ctx.data_seed(done);
    const cw::runner::CampaignParams params = campaign_params(seed);
    const Iteration plain = run_once(params, jobs, untraced, nullptr);
    check(plain, seed, "iteration");
    if (!ctx.traced) {
      out.add("wall_s", "s", plain.wall_ms / 1000.0, true);
    } else {
      SimTotals totals;
      const Iteration traced = run_once(params, jobs, *ctx.tracer, &totals);
      check(traced, seed, "traced iteration");
      out.add("wall_s", "s", traced.wall_ms / 1000.0, true);
      out.add("trace.overhead_s", "s", (traced.wall_ms - plain.wall_ms) / 1000.0);
      out.add("sim.advance_ms", "ms", totals.advance_ms);
      out.add("sim.records", "count", static_cast<double>(totals.records));
      out.add("sim.records_per_s", "1/s", totals.records / (totals.advance_ms / 1000.0));
      out.add("runner.fleet_ms", "ms", traced.fleet_ms);
      out.add("runner.cells", "count", static_cast<double>(traced.cells));

      // The jobs-1 baseline on a fresh campaign: measured speedup, and the
      // fleet's byte identity at any worker count.
      SimTotals totals_j1;
      const Iteration j1 = run_once(params, 1, *ctx.tracer, &totals_j1);
      check(j1, seed, "jobs-1 iteration");
      out.gate.expect_same(traced.report, j1.report,
                           "fleet at jobs 1 vs jobs " + std::to_string(jobs));
      out.add("runner.fleet_j1_ms", "ms", j1.fleet_ms);
      out.add("runner.fleet_speedup", "ratio", j1.fleet_ms / traced.fleet_ms);
    }
    last_s = ms_between(cycle_start, Clock::now()) / 1000.0;
  }
  return out;
}

}  // namespace perfbench
