// Adversarial-scenario benches (DESIGN.md §8): the ground-truth clustering
// pipeline over the distinct-fingerprint family corpus, and the adaptive
// attacker vs moving-target defense loop — how expensive the new subsystem
// is next to the paper-table analyses, and what the clustering scores look
// like at bench scale.
#include "bench_common.h"

#include <string>

#include "agents/population.h"
#include "analysis/clusters.h"
#include "util/strings.h"

namespace {

cw::core::ExperimentConfig families_config() {
  cw::core::ExperimentConfig config;
  config.scale = cw::bench::env_scale(0.2);
  config.telescope_slash24s = cw::bench::env_telescope_slash24s(8);
  config.adversary.kind = cw::adversary::ScenarioKind::kClusterFamilies;
  config.adversary.replace_population = true;
  return config;
}

const cw::core::ExperimentResult& families_experiment() {
  static const auto result = cw::core::Experiment(families_config()).run();
  return *result;
}

cw::analysis::ClusterOptions cluster_options() {
  cw::analysis::ClusterOptions options;
  options.exclude_actors = {cw::agents::Population::kCensysActorId,
                            cw::agents::Population::kShodanActorId};
  return options;
}

std::string render_report() {
  const auto& result = families_experiment();
  const auto clustered = cw::analysis::cluster_attackers(result.frames(), cluster_options());

  std::string out = "Ground-truth attacker clustering (distinct-fingerprint families)\n";
  out += "corpus records:  " + std::to_string(result.store().size()) + "\n";
  out += "entities:        " + std::to_string(clustered.scores.entities) + "\n";
  out += "clusters found:  " + std::to_string(clustered.scores.clusters) + " (true actors " +
         std::to_string(clustered.scores.truth_actors) + ")\n";
  out += "purity:          " +
         cw::util::format_double(100.0 * clustered.scores.purity, 1) + "%\n";
  out += "adjusted Rand:   " + cw::util::format_double(clustered.scores.ari, 4) + "\n\n";
  out += "Behavioral fingerprints (ports, wordlists, client banners, cadence) recover\n";
  out += "the operator partition exactly when families are separable — the calibrated\n";
  out += "bound the Shamsi-style heuristics are scored against.\n";
  return out;
}

void BM_ClusterAttackers(benchmark::State& state) {
  const auto& result = families_experiment();
  const auto options = cluster_options();
  // Exclude the one-time frame build from the timed region.
  const auto frames = result.frames();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cw::analysis::cluster_attackers(frames, options).scores.entities);
  }
}
BENCHMARK(BM_ClusterAttackers)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_AdaptiveVsMovingTarget(benchmark::State& state) {
  cw::core::ExperimentConfig config;
  config.scale = cw::bench::env_scale(0.2);
  config.telescope_slash24s = cw::bench::env_telescope_slash24s(8);
  config.adversary.kind = cw::adversary::ScenarioKind::kMovingTarget;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cw::core::Experiment(config).run()->store().size());
  }
}
BENCHMARK(BM_AdaptiveVsMovingTarget)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

CW_BENCH_MAIN(render_report())
