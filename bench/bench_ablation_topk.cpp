// Ablation: the paper's top-3-union construction and Bonferroni correction
// (Section 3.3, footnote 2). Re-runs the Table 2 neighborhood analysis with
// k in {3, 5, 10, 100} and with/without Bonferroni, showing how wider
// category unions inflate near-zero-frequency cells and how uncorrected
// tests over-report differences.
#include "bench_common.h"

#include <string>

#include "analysis/neighborhood.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

std::string render_ablation() {
  const auto& result = cw::bench::shared_experiment();
  cw::util::TextTable table(
      {"top-k", "Bonferroni", "SSH AS % dif", "SSH username % dif", "HTTP/80 payload % dif"});

  for (const std::size_t k : {std::size_t{3}, std::size_t{5}, std::size_t{10}, std::size_t{100}}) {
    for (const bool bonferroni : {true, false}) {
      cw::analysis::NeighborhoodOptions options;
      options.top_k = k;
      options.use_bonferroni = bonferroni;
      const auto as_summary = cw::analysis::analyze_neighborhoods(
          result.table_cache(), cw::analysis::TrafficScope::kSsh22,
          cw::analysis::Characteristic::kTopAs, options);
      const auto user_summary = cw::analysis::analyze_neighborhoods(
          result.table_cache(), cw::analysis::TrafficScope::kSsh22,
          cw::analysis::Characteristic::kTopUsername, options);
      const auto payload_summary = cw::analysis::analyze_neighborhoods(
          result.table_cache(), cw::analysis::TrafficScope::kHttp80,
          cw::analysis::Characteristic::kTopPayload, options);
      table.add_row({std::to_string(k), bonferroni ? "yes" : "no",
                     cw::util::format_double(as_summary.pct_different, 0) + "%",
                     cw::util::format_double(user_summary.pct_different, 0) + "%",
                     cw::util::format_double(payload_summary.pct_different, 0) + "%"});
    }
  }
  std::string out = "Ablation: top-k union width and Bonferroni correction (Table 2 analysis)\n";
  out += table.render();
  out += "The paper's choice (k=3, Bonferroni) bounds degrees of freedom and family-wise\n";
  out += "error; wider unions add near-zero cells, and dropping the correction inflates\n";
  out += "the share of 'different' neighborhoods.\n";
  return out;
}

void BM_AblationTopK(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(render_ablation());
}
BENCHMARK(BM_AblationTopK)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

CW_BENCH_MAIN(render_ablation())
