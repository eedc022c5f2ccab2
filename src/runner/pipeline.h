// Deterministic parallel pipeline runner. The paper's result set is ~28
// independent table/figure pipelines; this module shards them across a
// work-stealing ThreadPool while keeping every reported number bit-identical
// to a sequential run: each pipeline owns a fixed output slot assigned
// before any thread starts, so neither scheduling order nor worker count can
// reorder or perturb the rendered artifacts.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/thread_pool.h"

namespace cw::runner {

struct Pipeline {
  std::string name;
  // Renders one artifact (a table, a figure panel, ...). Must only read
  // shared state; pipelines run concurrently.
  std::function<std::string()> run;
  // Alternative entry point for pipelines that can shard internally: when
  // set it takes precedence over `run` and receives the runner's pool so the
  // pipeline can fan its own sub-computations out (via parallel_map /
  // parallel_for) instead of hogging one worker for its whole critical path.
  std::function<std::string(ThreadPool&)> run_sharded;
  // Number of records/events this pipeline analyzes, for the RunReport
  // throughput column. Purely informational.
  std::uint64_t events = 0;
};

struct PipelineMetrics {
  std::string name;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  std::size_t output_bytes = 0;
  bool failed = false;
};

// Wall-time and throughput metrics for one runner invocation. Pipeline rows
// are in slot (submission) order, not completion order.
struct RunReport {
  unsigned jobs = 1;
  double total_wall_ms = 0.0;
  std::vector<PipelineMetrics> pipelines;

  [[nodiscard]] double pipeline_wall_ms_sum() const;
  // Text-table summary (per-pipeline wall time, events, output size). Its
  // footer's concurrency= is Σ(pipeline wall) ÷ total wall: how many
  // pipelines overlapped on average, not a speedup over --jobs 1.
  [[nodiscard]] std::string render() const;
};

struct RunResult {
  // outputs[i] is pipelines[i]'s rendered artifact, independent of jobs.
  std::vector<std::string> outputs;
  RunReport report;
};

// Runs every pipeline on `jobs` workers (0 => hardware_concurrency) and
// collects outputs into their fixed slots. A pipeline that throws reports
// "<name>: error: <what>" as its output and is flagged in the report.
RunResult run_pipelines(const std::vector<Pipeline>& pipelines, unsigned jobs = 0);

// Deterministic parallel map over [0, n): applies fn(i) on the pool and
// collects results into slot i. Built on ThreadPool::parallel_for, so it is
// safe to call from inside a running pipeline (nested fan-out); used to
// shard per-vantage analysis passes and per-scope table computations.
template <typename T>
std::vector<T> parallel_map(ThreadPool& pool, std::size_t n,
                            const std::function<T(std::size_t)>& fn) {
  std::vector<T> out(n);
  pool.parallel_for(n, [&out, &fn](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace cw::runner
