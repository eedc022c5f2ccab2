// Ablation: single-honeypot versus honeypot-group comparisons (Section 4.4
// and the recommendations in Section 8). Prior work deployed one honeypot
// per region; the paper shows neighboring honeypots differ, so region-level
// conclusions drawn from single honeypots are unstable. This bench compares
// every co-provider region pair twice — once using only the first honeypot
// of each region, once using all of them — and counts how often the two
// methodologies disagree about significance.
#include "bench_common.h"

#include <string>

#include "analysis/comparison.h"
#include "util/strings.h"

namespace {

struct Disagreement {
  std::size_t pairs = 0;
  std::size_t single_significant = 0;
  std::size_t group_significant = 0;
  std::size_t disagree = 0;
};

Disagreement run(cw::analysis::TrafficScope scope, cw::analysis::Characteristic characteristic) {
  const auto& result = cw::bench::shared_experiment();
  const auto& cache = result.table_cache();
  const auto& deployment = result.deployment();

  std::vector<const cw::topology::VantagePoint*> regions;
  for (const auto& vp : deployment.vantage_points()) {
    if (vp.collection == cw::topology::CollectionMethod::kGreyNoise && vp.addresses.size() >= 2) {
      regions.push_back(&vp);
    }
  }

  Disagreement out;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    for (std::size_t j = i + 1; j < regions.size(); ++j) {
      if (regions[i]->provider != regions[j]->provider) continue;
      pairs.emplace_back(i, j);
    }
  }
  cw::analysis::CompareOptions options;
  options.family_size = pairs.size();

  for (const auto& [i, j] : pairs) {
    const cw::topology::VantageId a = regions[i]->id;
    const cw::topology::VantageId b = regions[j]->id;
    if (cache.record_count(a, scope) < 10 || cache.record_count(b, scope) < 10) continue;

    const auto group_test =
        cw::analysis::compare_characteristic(cache, {{a}, {b}}, scope, characteristic, options);
    const auto single_test = cw::analysis::compare_characteristic(
        cache, {{a, 0}, {b, 0}}, scope, characteristic, options);
    if (!group_test.chi.valid || !single_test.chi.valid) continue;
    ++out.pairs;
    out.group_significant += group_test.significant ? 1 : 0;
    out.single_significant += single_test.significant ? 1 : 0;
    out.disagree += group_test.significant != single_test.significant ? 1 : 0;
  }
  return out;
}

std::string render_ablation() {
  std::string out =
      "Ablation: one honeypot per region vs the full honeypot group\n"
      "(region pairs within one provider; 'disagree' = the two methodologies\n"
      "reach different significance conclusions for the same pair)\n\n";
  struct Row {
    cw::analysis::TrafficScope scope;
    cw::analysis::Characteristic characteristic;
  };
  const Row rows[] = {
      {cw::analysis::TrafficScope::kSsh22, cw::analysis::Characteristic::kTopAs},
      {cw::analysis::TrafficScope::kTelnet23, cw::analysis::Characteristic::kTopAs},
      {cw::analysis::TrafficScope::kHttpAllPorts, cw::analysis::Characteristic::kTopPayload},
  };
  for (const Row& row : rows) {
    const Disagreement d = run(row.scope, row.characteristic);
    out += std::string(cw::analysis::scope_name(row.scope)) + " / " +
           std::string(cw::analysis::characteristic_name(row.characteristic)) + ": pairs=" +
           std::to_string(d.pairs) + " group-significant=" + std::to_string(d.group_significant) +
           " single-significant=" + std::to_string(d.single_significant) +
           " disagree=" + std::to_string(d.disagree);
    if (d.pairs > 0) {
      out += " (" +
             cw::util::format_double(100.0 * static_cast<double>(d.disagree) /
                                         static_cast<double>(d.pairs),
                                     0) +
             "%)";
    }
    out += "\n";
  }
  out += "\nSingle-honeypot comparisons inherit the neighborhood biases of Section 4.1;\n";
  out += "the paper's median-of-group filtering avoids attributing them to geography.\n";
  return out;
}

void BM_AblationMedian(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(render_ablation());
}
BENCHMARK(BM_AblationMedian)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

CW_BENCH_MAIN(render_ablation())
