#include "runner/pipeline.h"

#include <chrono>
#include <exception>

#include "util/strings.h"
#include "util/table.h"

namespace cw::runner {
namespace {

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

double RunReport::pipeline_wall_ms_sum() const {
  double sum = 0.0;
  for (const PipelineMetrics& m : pipelines) sum += m.wall_ms;
  return sum;
}

std::string RunReport::render() const {
  util::TextTable table({"Pipeline", "Wall ms", "Events", "Output bytes"});
  for (const PipelineMetrics& m : pipelines) {
    table.add_row({m.failed ? m.name + " (FAILED)" : m.name,
                   util::format_double(m.wall_ms, 2), std::to_string(m.events),
                   std::to_string(m.output_bytes)});
  }
  std::string out = table.render();
  out += "jobs=" + std::to_string(jobs) +
         "  total wall=" + util::format_double(total_wall_ms, 1) + " ms" +
         "  pipeline wall sum=" + util::format_double(pipeline_wall_ms_sum(), 1) + " ms" +
         "  concurrency=" +
         util::format_double(
             total_wall_ms > 0.0 ? pipeline_wall_ms_sum() / total_wall_ms : 0.0, 2) +
         "x\n";
  return out;
}

RunResult run_pipelines(const std::vector<Pipeline>& pipelines, unsigned jobs) {
  RunResult result;
  result.outputs.resize(pipelines.size());
  result.report.pipelines.resize(pipelines.size());

  const auto total_start = std::chrono::steady_clock::now();
  ThreadPool pool(jobs);
  result.report.jobs = pool.worker_count();

  for (std::size_t i = 0; i < pipelines.size(); ++i) {
    const Pipeline& pipeline = pipelines[i];
    std::string& slot = result.outputs[i];
    PipelineMetrics& metrics = result.report.pipelines[i];
    metrics.name = pipeline.name;
    metrics.events = pipeline.events;
    pool.submit([&pipeline, &slot, &metrics, &pool] {
      const auto start = std::chrono::steady_clock::now();
      try {
        slot = pipeline.run_sharded ? pipeline.run_sharded(pool) : pipeline.run();
      } catch (const std::exception& e) {
        slot = pipeline.name + ": error: " + e.what() + "\n";
        metrics.failed = true;
      } catch (...) {
        slot = pipeline.name + ": error: unknown exception\n";
        metrics.failed = true;
      }
      metrics.wall_ms = elapsed_ms(start);
      metrics.output_bytes = slot.size();
    });
  }
  pool.wait_idle();
  result.report.total_wall_ms = elapsed_ms(total_start);
  return result;
}

}  // namespace cw::runner
