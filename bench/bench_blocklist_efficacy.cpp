// Blocklist efficacy across regions — the future-work question Section 8
// raises: does a blocklist built from one region's honeypots protect
// services in another region? Builds the regional source/target matrix over
// the GreyNoise cloud vantage points and reports IP- and event-level
// coverage.
#include "bench_common.h"

#include <string>

#include "analysis/blocklist.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

std::string render_matrix() {
  const auto& result = cw::bench::shared_experiment();
  const auto matrix = cw::analysis::regional_blocklist_matrix(result.frame());

  cw::util::TextTable table({"Blocklist from", "Applied to", "List size", "Target attacker IPs",
                             "IP coverage", "Event coverage"});
  for (const auto& evaluation : matrix) {
    table.add_row({evaluation.source_group, evaluation.target_group,
                   std::to_string(evaluation.blocklist_size),
                   std::to_string(evaluation.target_attacker_ips),
                   cw::util::format_double(100.0 * evaluation.ip_coverage(), 0) + "%",
                   cw::util::format_double(100.0 * evaluation.event_coverage(), 0) + "%"});
  }
  std::string out = "Blocklist efficacy across regions (Section 8 future work)\n";
  out += table.render();
  out += "Cross-continent coverage lags same-continent coverage wherever regional\n";
  out += "campaigns (Asia-Pacific especially) dominate the attacker mix — sharing\n";
  out += "blocklists across regions silently assumes attackers don't discriminate.\n";
  return out;
}

void BM_BlocklistMatrix(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(render_matrix());
}
BENCHMARK(BM_BlocklistMatrix)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

CW_BENCH_MAIN(render_matrix())
