// batch_paper: the full_report path at scale 1.0 / t24 64 / jobs = nproc,
// leak table on — LiveExperiment -> take -> freeze -> frame(pool) ->
// run_pipelines, the paper-regeneration use. One large working set; this is
// where the simulator, the frame build, the cold table cache and pipeline
// scaling show.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "runner/pipeline.h"
#include "runner/report.h"
#include "runner/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScale = 1.0;
constexpr int kT24 = 64;
// md5 of full_report's stdout at scale 1.0 / t24 64, default seed.
constexpr std::string_view kGoldenMd5 = "a275259c60d9c498e79ac1adef7f52df";

// Short stable names for the 17 pipelines: table01 ... table17, sec32,
// fig1_p<port>. Table 3 is the leak experiment, the one pipeline the leak
// option removes, hence its suffix.
std::string pipeline_slug(const std::string& name) {
  int number = 0;
  char tail[16] = {};
  if (std::sscanf(name.c_str(), "Table %d:", &number) == 1) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "table%02d%s", number, number == 3 ? "_leak" : "");
    return buffer;
  }
  if (std::sscanf(name.c_str(), "Figure 1 (port %15[0-9])", tail) == 1) {
    return std::string("fig1_p") + tail;
  }
  if (name.rfind("Section 3.2", 0) == 0) return "sec32";
  return name;
}

// The exact byte stream examples/full_report prints on stdout.
std::string render_report(std::size_t records, const std::vector<cw::runner::Pipeline>& pipelines,
                          const std::vector<std::string>& outputs) {
  char head[128];
  std::snprintf(head, sizeof(head),
                "== Cloud Watching full report (scale %.2f) ==\n\ncaptured %zu session records\n\n",
                kScale, records);
  std::string out = head;
  for (std::size_t i = 0; i < pipelines.size(); ++i) {
    out += "--- " + pipelines[i].name + " ---\n" + outputs[i] + "\n";
  }
  return out;
}

struct Iteration {
  double advance_ms = 0, freeze_ms = 0, frame_ms = 0, pipelines_ms = 0, wall_ms = 0;
  std::size_t records = 0, pipelines = 0, failed = 0, tables_built = 0;
  std::vector<std::string> slugs;
  std::vector<double> pipeline_ms;  // per slot, when wrapped
  std::string report;
};

// One pass of the full_report path. With `wrap`, each pipeline callable is
// wrapped in a timing span (the traced run); otherwise the pipelines run
// exactly as full_report runs them.
Iteration run_once(const cw::core::ExperimentConfig& config, unsigned frame_jobs,
                   unsigned pipeline_jobs, bool wrap, Tracer& tracer, std::uint64_t parent) {
  Iteration it;
  const Clock::time_point start = Clock::now();
  std::unique_ptr<cw::core::ExperimentResult> result;
  {
    Span setup(tracer, "core.setup", parent);
    cw::core::LiveExperiment live(config);
    setup.close();
    Span advance(tracer, "sim.advance", parent);
    live.advance_to(config.duration);
    it.advance_ms = advance.close();
    Span take(tracer, "core.take", parent);
    result = live.take();
  }
  {
    Span freeze(tracer, "capture.freeze", parent);
    result->store().freeze();
    it.freeze_ms = freeze.close();
  }
  {
    Span frame(tracer, "capture.frame_build", parent);
    cw::runner::ThreadPool frame_pool(frame_jobs);
    static_cast<void>(result->frame(&frame_pool));
    it.frame_ms = frame.close();
  }
  {
    Span cache(tracer, "capture.table_cache", parent);
    static_cast<void>(result->table_cache());
  }
  it.records = result->store().size();

  const cw::runner::ReportOptions options;
  std::vector<cw::runner::Pipeline> pipelines =
      cw::runner::paper_report_pipelines(*result, options);
  Span run(tracer, "runner.pipelines", parent);
  it.pipeline_ms.assign(pipelines.size(), 0.0);
  for (const cw::runner::Pipeline& pipeline : pipelines) {
    it.slugs.push_back(pipeline_slug(pipeline.name));
  }
  if (wrap) {
    // Each slot writes only its own pipeline_ms entry, so the wrappers
    // share nothing but the tracer (which locks).
    for (std::size_t i = 0; i < pipelines.size(); ++i) {
      cw::runner::Pipeline& pipeline = pipelines[i];
      const std::string span_name = "analysis." + it.slugs[i];
      double* slot_ms = &it.pipeline_ms[i];
      const std::uint64_t run_id = run.id();
      if (pipeline.run_sharded) {
        pipeline.run_sharded = [inner = pipeline.run_sharded, span_name, slot_ms, run_id,
                                &tracer](cw::runner::ThreadPool& pool) {
          Span span(tracer, span_name, run_id);
          std::string out = inner(pool);
          *slot_ms = span.close();
          return out;
        };
      } else {
        pipeline.run = [inner = pipeline.run, span_name, slot_ms, run_id, &tracer] {
          Span span(tracer, span_name, run_id);
          std::string out = inner();
          *slot_ms = span.close();
          return out;
        };
      }
    }
  }
  cw::runner::RunResult ran = cw::runner::run_pipelines(pipelines, pipeline_jobs);
  it.pipelines_ms = run.close();
  it.tables_built = result->table_cache().tables_built();
  it.pipelines = pipelines.size();
  for (const cw::runner::PipelineMetrics& metrics : ran.report.pipelines) {
    it.failed += metrics.failed;
  }
  it.report = render_report(it.records, pipelines, ran.outputs);
  it.wall_ms = ms_between(start, Clock::now());
  // The corpus is torn down outside the timed region: full_report leaves
  // that to process exit.
  pipelines.clear();
  result.reset();
  return it;
}

cw::core::ExperimentConfig experiment_config(std::uint64_t data_seed) {
  cw::core::ExperimentConfig config;
  config.scale = kScale;
  config.telescope_slash24s = kT24;
  config.seed += data_seed;
  return config;
}

}  // namespace

double batch_paper_setup_ms(const RunContext& ctx, std::size_t sample) {
  const cw::core::ExperimentConfig config = experiment_config(ctx.data_seed(sample));
  const Clock::time_point start = Clock::now();
  const cw::core::LiveExperiment live(config);
  return ms_between(start, Clock::now());
}

WorkloadResult run_batch_paper(const RunContext& ctx) {
  WorkloadResult out;
  const cw::core::ExperimentConfig defaults;
  const unsigned jobs = ctx.nproc;
  out.config = {{"scale", "1.0"},
                {"t24", std::to_string(kT24)},
                {"jobs", std::to_string(jobs)},
                {"leak_table", "on"},
                {"experiment_seed", std::to_string(defaults.seed) + " + data seed"},
                {"data_seeds", ctx.data_seeds()}};

  Tracer untraced(false);
  OutputPin pin("batch report", std::string(kGoldenMd5));
  auto check = [&](const Iteration& it, std::uint64_t seed, const std::string& what) {
    out.attempted += it.pipelines;
    out.failed += it.failed;
    out.gate.expect(it.failed == 0, what + ": " + std::to_string(it.failed) + " pipelines failed");
    out.gate.expect(it.pipelines == 17, what + ": expected 17 pipelines");
    pin.check(out.gate, seed, it.report);
  };

  const Budget budget(ctx.seconds);
  double last_s = 0.0;
  for (std::size_t done = 0; budget.another(last_s, done); ++done) {
    const Clock::time_point cycle_start = Clock::now();
    const std::uint64_t seed = ctx.data_seed(done);
    const cw::core::ExperimentConfig config = experiment_config(seed);
    // The untraced path, exactly as full_report runs it; in a traced run it
    // is the baseline the tracing overhead is measured against.
    const Iteration plain = run_once(config, jobs, jobs, false, untraced, 0);
    check(plain, seed, "iteration");
    if (!ctx.traced) {
      out.add("wall_s", "s", plain.wall_ms / 1000.0, true);
    } else {
      Tracer& tracer = *ctx.tracer;
      Span root(tracer, "batch.iteration");
      const Iteration traced = run_once(config, jobs, jobs, true, tracer, root.id());
      root.close();
      check(traced, seed, "traced iteration");
      out.add("wall_s", "s", traced.wall_ms / 1000.0, true);
      out.add("trace.overhead_s", "s", (traced.wall_ms - plain.wall_ms) / 1000.0);
      out.add("sim.advance_ms", "ms", traced.advance_ms);
      out.add("sim.records", "count", static_cast<double>(traced.records));
      out.add("sim.records_per_s", "1/s", traced.records / (traced.advance_ms / 1000.0));
      out.add("capture.freeze_ms", "ms", traced.freeze_ms);
      out.add("capture.frame_build_ms", "ms", traced.frame_ms);
      double sum_ms = 0.0;
      for (std::size_t i = 0; i < traced.slugs.size(); ++i) {
        out.add("analysis." + traced.slugs[i] + "_ms", "ms", traced.pipeline_ms[i]);
        sum_ms += traced.pipeline_ms[i];
      }
      out.add("analysis.tables_built", "count", static_cast<double>(traced.tables_built));
      out.add("runner.pipelines_ms", "ms", traced.pipelines_ms);
      out.add("runner.pipeline_sum_ms", "ms", sum_ms);
      out.add("runner.concurrency", "ratio", sum_ms / traced.pipelines_ms);

      // The jobs-1 baseline on a fresh result (cold table cache), so the
      // speedup is measured, not inferred from the sum of contended walls.
      Span fresh_root(tracer, "batch.fresh_j1");
      const Iteration j1 = run_once(config, jobs, 1, true, tracer, fresh_root.id());
      fresh_root.close();
      check(j1, seed, "jobs-1 iteration");
      out.gate.expect_same(traced.report, j1.report, "pipelines at jobs 1 vs jobs " +
                                                         std::to_string(jobs));
      out.add("runner.pipelines_j1_ms", "ms", j1.pipelines_ms);
      out.add("runner.pipeline_speedup", "ratio", j1.pipelines_ms / traced.pipelines_ms);
    }
    last_s = ms_between(cycle_start, Clock::now()) / 1000.0;
  }
  return out;
}

}  // namespace perfbench
