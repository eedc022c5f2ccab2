#include "runner/report.h"

#include <string>

#include "core/tables.h"

namespace cw::runner {

std::vector<Pipeline> paper_report_pipelines(const core::ExperimentResult& result,
                                             const ReportOptions& options) {
  std::uint64_t records = 0;
  for (const capture::SessionFrame* frame : result.frames()) records += frame->size();
  std::vector<Pipeline> pipelines;

  auto add = [&](std::string name, std::function<std::string()> run) {
    Pipeline pipeline;
    pipeline.name = std::move(name);
    pipeline.run = std::move(run);
    pipeline.events = records;
    pipelines.push_back(std::move(pipeline));
  };
  // The heavyweight tables expose their computation grid as independent
  // closures; running those through the shared pool (nested fan-out) keeps
  // the report's critical path close to the slowest single comparison
  // instead of the slowest whole table.
  auto add_sharded = [&](std::string name, std::function<std::string(ThreadPool&)> run) {
    Pipeline pipeline;
    pipeline.name = std::move(name);
    pipeline.run_sharded = std::move(run);
    pipeline.events = records;
    pipelines.push_back(std::move(pipeline));
  };

  add("Table 1: vantage points", [&result] { return core::render_table1(result); });
  add("Section 3.2: malicious-traffic fractions",
      [&result] { return core::render_sec32(result); });
  add_sharded("Table 2: neighboring services", [&result](ThreadPool& pool) {
    const auto tasks = core::table2_tasks(result);
    return core::render_table2_from(parallel_map<analysis::NeighborhoodSummary>(
        pool, tasks.size(), [&tasks](std::size_t i) { return tasks[i](); }));
  });
  if (options.include_leak) {
    Pipeline leak;
    leak.name = "Table 3: search-engine leak experiment";
    leak.run = [&options] {
      return core::render_table3(analysis::run_leak_experiment(options.leak_config));
    };
    pipelines.push_back(std::move(leak));
  }
  add("Table 4: most-different geographic regions",
      [&result] { return core::render_table4(result); });
  add("Table 5: geographic similarity", [&result] { return core::render_table5(result); });
  add("Table 6: co-located clouds", [&result] { return core::render_table6(result); });
  add("Table 7: network types", [&result] { return core::render_table7(result); });
  add("Table 8: scanner overlap with the telescope",
      [&result] { return core::render_table8(result); });
  add("Table 9: attacker overlap with the telescope",
      [&result] { return core::render_table9(result); });
  // Each Table 10 task also shards per pair on the same pool (nested
  // parallel_for), so the eight comparisons and their pairs all feed the
  // same workers.
  add_sharded("Table 10: telescope scanners differ", [&result](ThreadPool& pool) {
    const auto tasks = core::table10_tasks(result);
    return core::render_table10_from(parallel_map<analysis::NetworkComparison>(
        pool, tasks.size(), [&tasks, &pool](std::size_t i) { return tasks[i](&pool); }));
  });
  add("Table 11: scanner-targeted protocols",
      [&result] { return core::render_table11(result); });
  add("Table 17: protocol breakdown without reputation",
      [&result] { return core::render_table17(result); });
  for (const net::Port port : options.figure1_ports) {
    add("Figure 1 (port " + std::to_string(port) + ")",
        [&result, port] { return core::render_figure1(result, port); });
  }
  return pipelines;
}

}  // namespace cw::runner
