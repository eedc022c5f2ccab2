// Campaign inference over a full run: clusters scanning sources into
// coordinated campaigns from payload signatures alone, then validates the
// clusters against the simulator's ground-truth actors — the
// telescope-literature analysis (Torabi et al.) the paper builds on, made
// exactly checkable by the simulation.
#include "bench_common.h"

#include <algorithm>
#include <string>

#include "analysis/campaigns.h"
#include "util/strings.h"

namespace {

std::string render_report() {
  const auto& result = cw::bench::shared_experiment();
  const auto campaigns = cw::analysis::infer_campaigns(result.frame());
  const auto validation = cw::analysis::validate_campaigns(result.frame(), campaigns);

  std::string out = "Campaign inference from payload signatures (ground-truth validated)\n";
  out += "inferred campaigns:   " + std::to_string(validation.inferred) + "\n";
  out += "cluster purity:       " +
         cw::util::format_double(100.0 * validation.purity(), 0) + "%\n";
  out += "true multi-source campaigns: " + std::to_string(validation.true_campaigns) + "\n";
  out += "recovered (pure match):      " + std::to_string(validation.recovered) + " (" +
         cw::util::format_double(100.0 * validation.recall(), 0) + "% recall)\n\n";
  out += "largest inferred campaigns:\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(campaigns.size(), 8); ++i) {
    const auto& campaign = campaigns[i];
    out += "  " + std::to_string(campaign.sources.size()) + " sources, " +
           std::to_string(campaign.events) + " events, port " +
           std::to_string(campaign.dominant_port) + ", active " +
           cw::util::format_double(
               static_cast<double>(campaign.last_seen - campaign.first_seen) / cw::util::kDay,
               1) +
           " days: " + cw::util::escape_payload(campaign.signature, 56) + "\n";
  }
  out += "\nPayload-signature clustering recovers the coordinated campaigns with high\n";
  out += "purity — but only where payloads exist: telescope data cannot support it.\n";
  return out;
}

void BM_CampaignInference(benchmark::State& state) {
  const auto& result = cw::bench::shared_experiment();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cw::analysis::infer_campaigns(result.frame()).size());
  }
}
BENCHMARK(BM_CampaignInference)->Unit(benchmark::kMillisecond)->Iterations(2);

}  // namespace

CW_BENCH_MAIN(render_report())
