// Ablation: transparent upstream firewalls (Section 7). Runs twin
// experiments — one clean, one with a signature IPS in front of every cloud
// vantage point — and compares the measured malicious fractions and exploit
// visibility. Quantifies how much an unnoticed network filter distorts
// honeypot conclusions.
#include "bench_common.h"

#include <string>

#include "analysis/table_cache.h"
#include "capture/firewall.h"
#include "ids/ruleset.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

struct TwinRun {
  std::unique_ptr<cw::core::ExperimentResult> clean;
  std::unique_ptr<cw::core::ExperimentResult> filtered;
  std::uint64_t firewall_dropped = 0;
};

TwinRun run_twins(double drop_probability) {
  TwinRun twins;
  cw::core::ExperimentConfig config = cw::bench::bench_config();
  config.scale = cw::bench::env_scale(0.3);
  twins.clean = cw::core::Experiment(config).run();

  // The firewall needs the deployment before the run; rebuild it the same
  // way the experiment does (same seed => identical vantage points).
  static const cw::ids::RuleEngine engine = cw::ids::curated_engine();
  auto firewall =
      std::make_shared<cw::capture::SignatureFirewall>(engine, drop_probability);
  // Protect every cloud vantage point; ids are stable across the rebuild.
  cw::topology::DeploymentConfig dconfig;
  dconfig.year = config.year;
  dconfig.telescope_slash24s = config.telescope_slash24s;
  dconfig.seed = config.seed ^ 0x746f706fULL;
  const auto deployment = cw::topology::Deployment::table1(dconfig);
  for (const auto& vp : deployment.vantage_points()) {
    if (vp.type == cw::topology::NetworkType::kCloud) firewall->protect(vp.id);
  }
  cw::core::ExperimentConfig filtered_config = config;
  filtered_config.firewall = [firewall](const cw::capture::ScanEvent& event,
                                        const cw::topology::VantagePoint& vp) {
    return firewall->inspect(event, vp);
  };
  twins.filtered = cw::core::Experiment(filtered_config).run();
  twins.firewall_dropped = firewall->dropped();
  return twins;
}

double malicious_fraction(const cw::core::ExperimentResult& result,
                          cw::analysis::TrafficScope scope) {
  std::uint64_t malicious = 0;
  std::uint64_t benign = 0;
  for (const auto id :
       result.deployment().with_collection(cw::topology::CollectionMethod::kGreyNoise)) {
    const auto [m, b] = result.table_cache().malicious(id, scope);
    malicious += m;
    benign += b;
  }
  const std::uint64_t total = malicious + benign;
  return total == 0 ? 0.0 : static_cast<double>(malicious) / static_cast<double>(total);
}

std::string render_ablation() {
  const TwinRun twins = run_twins(/*drop_probability=*/0.7);
  cw::util::TextTable table(
      {"Scope", "Malicious fraction (clean)", "Malicious fraction (firewalled)"});
  for (const auto scope :
       {cw::analysis::TrafficScope::kHttp80, cw::analysis::TrafficScope::kHttpAllPorts,
        cw::analysis::TrafficScope::kSsh22, cw::analysis::TrafficScope::kTelnet23}) {
    table.add_row({std::string(cw::analysis::scope_name(scope)),
                   cw::util::format_double(100.0 * malicious_fraction(*twins.clean, scope), 1) +
                       "%",
                   cw::util::format_double(
                       100.0 * malicious_fraction(*twins.filtered, scope), 1) +
                       "%"});
  }
  std::string out = "Ablation: a transparent signature IPS (70% drop rate) in front of the\n";
  out += "cloud vantage points (Section 7's firewall confounder)\n";
  out += table.render();
  out += "firewall dropped " + std::to_string(twins.firewall_dropped) +
         " exploit connections before capture.\n";
  out += "Exploit-borne maliciousness (HTTP) collapses while credential brute force\n";
  out += "(SSH/Telnet) passes untouched — a silent filter skews protocol-level\n";
  out += "conclusions, which is why the paper validates across independent networks.\n";
  return out;
}

void BM_AblationFirewall(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(run_twins(0.7).firewall_dropped);
}
BENCHMARK(BM_AblationFirewall)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

CW_BENCH_MAIN(render_ablation())
