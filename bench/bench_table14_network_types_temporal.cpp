// Table 14: network-type comparisons across years — cloud-to-cloud from the
// 2020 GreyNoise deployment, cloud-to-EDU and EDU-to-EDU from the 2022
// Honeytrap deployment (matching which vantage points existed when,
// Appendix C.2).
#include "bench_common.h"

#include <string>

#include "analysis/network.h"

namespace {

std::string render_table14() {
  const auto& r2020 = cw::bench::shared_experiment(cw::topology::ScenarioYear::k2020);
  const auto& r2022 = cw::bench::shared_experiment(cw::topology::ScenarioYear::k2022);

  const auto cc = cw::analysis::cloud_cloud_pairs(r2020.deployment());
  const auto ce = cw::analysis::cloud_edu_pairs(r2022.deployment());
  const auto ee = cw::analysis::edu_edu_pairs(r2022.deployment());

  auto cell = [](const cw::analysis::NetworkComparison& c) {
    if (!c.measurable) return std::string("x");
    std::string out = std::to_string(c.pairs_different) + "/" + std::to_string(c.pairs_tested);
    if (c.pairs_different > 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " phi=%.2f", c.avg_phi);
      out += buf;
    }
    return out;
  };

  std::string out =
      "Table 14 — Cloud-Cloud (2020) / Cloud-EDU (2022) / EDU-EDU (2022)\n";
  const std::pair<cw::analysis::Characteristic, cw::analysis::TrafficScope> rows[] = {
      {cw::analysis::Characteristic::kTopAs, cw::analysis::TrafficScope::kSsh22},
      {cw::analysis::Characteristic::kTopAs, cw::analysis::TrafficScope::kTelnet23},
      {cw::analysis::Characteristic::kTopAs, cw::analysis::TrafficScope::kHttp80},
      {cw::analysis::Characteristic::kTopAs, cw::analysis::TrafficScope::kHttpAllPorts},
      {cw::analysis::Characteristic::kTopUsername, cw::analysis::TrafficScope::kSsh22},
      {cw::analysis::Characteristic::kTopUsername, cw::analysis::TrafficScope::kTelnet23},
      {cw::analysis::Characteristic::kTopPassword, cw::analysis::TrafficScope::kTelnet23},
      {cw::analysis::Characteristic::kTopPayload, cw::analysis::TrafficScope::kHttp80},
      {cw::analysis::Characteristic::kTopPayload, cw::analysis::TrafficScope::kHttpAllPorts},
      {cw::analysis::Characteristic::kFracMalicious, cw::analysis::TrafficScope::kHttp80},
      {cw::analysis::Characteristic::kFracMalicious, cw::analysis::TrafficScope::kHttpAllPorts},
  };
  for (const auto& [characteristic, scope] : rows) {
    const auto c1 =
        cw::analysis::compare_vantage_pairs(r2020.table_cache(), cc, scope, characteristic);
    const auto c2 =
        cw::analysis::compare_vantage_pairs(r2022.table_cache(), ce, scope, characteristic);
    const auto c3 =
        cw::analysis::compare_vantage_pairs(r2022.table_cache(), ee, scope, characteristic);
    out += std::string(cw::analysis::characteristic_name(characteristic)) + " | " +
           std::string(cw::analysis::scope_name(scope)) + " | CC " + cell(c1) + " | CE " +
           cell(c2) + " | EE " + cell(c3) + "\n";
  }
  return out;
}

void BM_Table14(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(render_table14());
}
BENCHMARK(BM_Table14)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

CW_BENCH_MAIN(render_table14())
