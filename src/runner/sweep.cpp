#include "runner/sweep.h"

#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>

#include "adversary/adaptive.h"
#include "adversary/colocation.h"
#include "adversary/moving_target.h"
#include "agents/population.h"
#include "analysis/geography.h"
#include "analysis/neighborhood.h"
#include "analysis/network.h"
#include "analysis/overlap.h"
#include "runner/fleet.h"
#include "runner/thread_pool.h"

namespace cw::runner {
namespace {

// The search-engine crawlers are excluded from every overlap denominator,
// matching the paper-claims tests: at real scale their handful of source
// IPs is negligible, but a scaled-down population would let them dominate.
std::vector<capture::ActorId> crawler_actors() {
  return {agents::Population::kCensysActorId, agents::Population::kShodanActorId};
}

std::string format(const char* fmt, ...) {
  char buffer[192];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

// Table 2: neighborhoods differ in top ASes far more often than in
// passwords. Effect: mean Cramér's V over the significant AS tests.
FindingOutcome extract_t2(const analysis::CharacteristicTableCache& cache,
                          const AnalysisOptions& options) {
  FindingOutcome out;
  out.finding = PaperFinding::kT2NeighborhoodAses;
  analysis::NeighborhoodOptions nopts;
  nopts.top_k = options.top_k;
  nopts.use_bonferroni = options.use_bonferroni;
  const auto as = analysis::analyze_neighborhoods(cache, analysis::TrafficScope::kSsh22,
                                                  analysis::Characteristic::kTopAs, nopts);
  const auto pwd = analysis::analyze_neighborhoods(
      cache, analysis::TrafficScope::kSsh22, analysis::Characteristic::kTopPassword, nopts);
  out.holds = as.pct_different > 20.0 && pwd.pct_different < as.pct_different;
  out.effect = as.avg_phi;
  out.detail = format("ASes differ in %.1f%% of %zu neighborhoods (avg V %.4f), passwords %.1f%%",
                      as.pct_different, as.neighborhoods_tested, as.avg_phi, pwd.pct_different);
  return out;
}

// Table 4: AWS's most-different region is Australia (Telnet usernames, the
// Huawei-targeting regional dictionary). Effect: that region's mean V.
FindingOutcome extract_t4(const analysis::CharacteristicTableCache& cache,
                          const AnalysisOptions& options) {
  FindingOutcome out;
  out.finding = PaperFinding::kT4AwsAustraliaRegion;
  analysis::GeoOptions gopts;
  gopts.top_k = options.top_k;
  const auto most = analysis::most_different_region(
      cache, topology::Provider::kAws, analysis::TrafficScope::kTelnet23,
      analysis::Characteristic::kTopUsername, gopts);
  if (!most.any_significant) {
    out.detail = "no AWS region with significant Telnet-username deviations";
    return out;
  }
  out.holds = most.region_code == "AP-AU";
  out.effect = most.avg_phi;
  out.detail = format("most-different AWS region %s (avg V %.4f over %zu significant pairs)",
                      most.region_code.c_str(), most.avg_phi, most.significant_pairs);
  return out;
}

// Table 5: Asia-Pacific pairs diverge in HTTP payloads more than US pairs.
// Effect: the similar-share gap (US minus APAC, as a fraction).
FindingOutcome extract_t5(const analysis::CharacteristicTableCache& cache,
                          const AnalysisOptions& options) {
  FindingOutcome out;
  out.finding = PaperFinding::kT5ApacPayloadDivergence;
  analysis::GeoOptions gopts;
  gopts.top_k = options.top_k;
  const auto similarity = analysis::geo_similarity(cache, analysis::TrafficScope::kHttpAllPorts,
                                                   analysis::Characteristic::kTopPayload, gopts);
  const double us = similarity.pct_similar(analysis::PairGroup::kUs);
  const double apac = similarity.pct_similar(analysis::PairGroup::kApac);
  out.holds = apac < us && apac < 80.0;
  out.effect = (us - apac) / 100.0;
  out.detail = format("APAC %.1f%% similar vs US %.1f%% (HTTP payloads)", apac, us);
  return out;
}

// Table 7: education networks are rarely told apart. Effect: the largest
// mean V any scope reaches (small when the finding holds).
FindingOutcome extract_t7(const core::ExperimentResult& result,
                          const analysis::CharacteristicTableCache& cache,
                          const AnalysisOptions& options, ThreadPool* pool) {
  FindingOutcome out;
  out.finding = PaperFinding::kT7EduNetworksAlike;
  const auto pairs = analysis::edu_edu_pairs(result.deployment());
  analysis::NetworkOptions nopts;
  nopts.top_k = options.top_k;
  std::size_t different = 0;
  std::size_t tested = 0;
  double max_phi = 0.0;
  for (const auto scope : {analysis::TrafficScope::kSsh22, analysis::TrafficScope::kTelnet23,
                           analysis::TrafficScope::kHttp80}) {
    const auto comparison = analysis::compare_vantage_pairs(
        cache, pairs, scope, analysis::Characteristic::kTopAs, nopts, pool);
    different += comparison.pairs_different;
    tested += comparison.pairs_tested;
    if (comparison.avg_phi > max_phi) max_phi = comparison.avg_phi;
  }
  out.holds = tested > 0 && different <= 1;
  out.effect = max_phi;
  out.detail = format("%zu of %zu edu-edu scope tests significantly different (max avg V %.4f)",
                      different, tested, max_phi);
  return out;
}

// Table 8: Telnet scanners hit the telescope, SSH scanners avoid it.
// Effect: the overlap gap (telnet minus ssh telescope-over-cloud share).
FindingOutcome extract_t8(const core::ExperimentResult& result, ThreadPool* pool) {
  FindingOutcome out;
  out.finding = PaperFinding::kT8TelnetIgnoresTelescope;
  const auto rows = analysis::scanner_overlap(result.frames(pool), {22, 23}, crawler_actors(),
                                             result.segment_pager());
  const auto& ssh = rows[0].tel_cloud_over_cloud;
  const auto& telnet = rows[1].tel_cloud_over_cloud;
  if (!ssh.has_value() || !telnet.has_value()) {
    out.detail = "scanner overlap unmeasurable (empty cloud denominator)";
    return out;
  }
  out.holds = *telnet > 0.75 && *ssh < 0.35 && *telnet > *ssh;
  out.effect = *telnet - *ssh;
  out.detail = format("telescope-over-cloud scanner overlap: telnet %.3f vs ssh %.3f", *telnet,
                      *ssh);
  return out;
}

// Table 9: SSH *attackers* avoid the telescope, Telnet attackers do not.
// Effect: the malicious-overlap gap (telnet minus ssh).
FindingOutcome extract_t9(const core::ExperimentResult& result, ThreadPool* pool) {
  FindingOutcome out;
  out.finding = PaperFinding::kT9SshAttackersAvoid;
  const auto rows = analysis::attacker_overlap(result.frames(pool), {22, 23}, crawler_actors(),
                                              result.segment_pager());
  const auto& ssh = rows[0].tel_over_malicious_cloud;
  const auto& telnet = rows[1].tel_over_malicious_cloud;
  if (!ssh.has_value() || !telnet.has_value()) {
    out.detail = "attacker overlap unmeasurable (no malicious cloud sources)";
    return out;
  }
  out.holds = *ssh < 0.35 && *telnet > 0.70;
  out.effect = *telnet - *ssh;
  out.detail = format("telescope share of attackers: telnet %.3f vs ssh %.3f", *telnet, *ssh);
  return out;
}

// Table 10: the telescope sees a different AS population than cloud
// vantage points. Effect: mean Cramér's V over the significant pairs.
FindingOutcome extract_t10(const core::ExperimentResult& result,
                           const analysis::CharacteristicTableCache& cache,
                           const AnalysisOptions& options, ThreadPool* pool) {
  FindingOutcome out;
  out.finding = PaperFinding::kT10TelescopeAsesDiffer;
  const auto pairs = analysis::telescope_cloud_pairs(result.deployment());
  analysis::NetworkOptions nopts;
  nopts.top_k = options.top_k;
  const auto comparison = analysis::compare_vantage_pairs(
      cache, pairs, analysis::TrafficScope::kSsh22, analysis::Characteristic::kTopAs, nopts,
      pool);
  out.holds = comparison.pairs_different > 0 && comparison.avg_phi > 0.3;
  out.effect = comparison.avg_phi;
  out.detail = format("%zu/%zu telescope-cloud pairs differ in top ASes (avg V %.4f)",
                      comparison.pairs_different, comparison.pairs_tested, comparison.avg_phi);
  return out;
}

}  // namespace

std::string_view finding_name(PaperFinding finding) noexcept {
  switch (finding) {
    case PaperFinding::kT2NeighborhoodAses: return "T2 neighborhood ASes";
    case PaperFinding::kT4AwsAustraliaRegion: return "T4 AWS AP-AU";
    case PaperFinding::kT5ApacPayloadDivergence: return "T5 APAC payloads";
    case PaperFinding::kT7EduNetworksAlike: return "T7 edu alike";
    case PaperFinding::kT8TelnetIgnoresTelescope: return "T8 telnet telescope";
    case PaperFinding::kT9SshAttackersAvoid: return "T9 ssh attackers";
    case PaperFinding::kT10TelescopeAsesDiffer: return "T10 telescope ASes";
  }
  return "unknown";
}

std::string_view finding_claim(PaperFinding finding) noexcept {
  switch (finding) {
    case PaperFinding::kT2NeighborhoodAses:
      return "neighboring services differ in top ASes more often than in passwords (SSH)";
    case PaperFinding::kT4AwsAustraliaRegion:
      return "AWS's most-different region is Australia (Telnet usernames)";
    case PaperFinding::kT5ApacPayloadDivergence:
      return "Asia-Pacific pairs diverge in HTTP payloads more than US pairs";
    case PaperFinding::kT7EduNetworksAlike:
      return "education networks are rarely told apart (top ASes)";
    case PaperFinding::kT8TelnetIgnoresTelescope:
      return "Telnet scanners hit the telescope while SSH scanners avoid it";
    case PaperFinding::kT9SshAttackersAvoid:
      return "SSH attackers avoid the telescope, Telnet attackers do not";
    case PaperFinding::kT10TelescopeAsesDiffer:
      return "the telescope sees a different AS population than cloud (SSH)";
  }
  return "unknown";
}

CellFindings extract_findings(const core::ExperimentResult& result,
                              const AnalysisOptions& options, ThreadPool* pool) {
  const analysis::CharacteristicTableCache& cache = result.table_cache(pool);
  CellFindings findings{};
  findings[0] = extract_t2(cache, options);
  findings[1] = extract_t4(cache, options);
  findings[2] = extract_t5(cache, options);
  findings[3] = extract_t7(result, cache, options, pool);
  findings[4] = extract_t8(result, pool);
  findings[5] = extract_t9(result, pool);
  findings[6] = extract_t10(result, cache, options, pool);
  return findings;
}

analysis::ClusterScores extract_clusters(const core::ExperimentResult& result,
                                         const AnalysisOptions& options, ThreadPool* pool) {
  return analysis::cluster_attackers(result.frames(pool), options.cluster, result.segment_pager())
      .scores;
}

namespace {

// Per-city probe tally, accumulated frame by frame (so the spill path folds
// segments into the same totals the batch frame produces).
struct CityTally {
  std::uint64_t records = 0;
  // src -> distinct vantage ids hit in this city; a source touching >= 2 is
  // a cross-provider prober (CoLocation lists one vantage per provider).
  std::map<std::uint32_t, std::set<topology::VantageId>> sources;
};

void tally_colocation(const capture::SessionFrame& frame, net::Port port,
                      const std::vector<topology::Deployment::CoLocation>& cities,
                      std::vector<CityTally>& tallies) {
  frame.for_port(port).for_each([&](std::uint32_t i) {
    const topology::VantageId vantage = frame.vantage(i);
    for (std::size_t c = 0; c < cities.size(); ++c) {
      bool member = false;
      for (const topology::VantageId id : cities[c].vantage_ids) member |= id == vantage;
      if (!member) continue;
      CityTally& tally = tallies[c];
      ++tally.records;
      tally.sources[frame.src(i)].insert(vantage);
      break;
    }
  });
}

}  // namespace

std::string render_colocation(const core::ExperimentResult& result,
                              const AnalysisOptions& options, ThreadPool* pool) {
  const auto cities = result.deployment().colocated_clouds();
  std::vector<CityTally> tallies(cities.size());
  analysis::for_each_frame(
      result.frames(pool), result.segment_pager(), [&](const capture::SessionFrame& frame) {
        tally_colocation(frame, options.colocation_port, cities, tallies);
      });
  std::string out = format("\n### co-location probes (port %u)\n\n",
                           static_cast<unsigned>(options.colocation_port));
  for (std::size_t c = 0; c < cities.size(); ++c) {
    const CityTally& tally = tallies[c];
    std::size_t cross = 0;
    for (const auto& [src, vantages] : tally.sources) cross += vantages.size() >= 2 ? 1 : 0;
    out += format("- %s (%zu providers): %llu records, %zu sources, %zu cross-provider\n",
                  cities[c].city_code.c_str(), cities[c].vantage_ids.size(),
                  static_cast<unsigned long long>(tally.records), tally.sources.size(), cross);
  }
  return out;
}

std::string render_adversary(const core::ExperimentResult& result) {
  std::size_t attackers = 0;
  double probability_sum = 0.0;
  std::uint64_t known = 0;
  std::uint64_t attempts = 0;
  std::uint64_t successes = 0;
  const adversary::MovingTargetDefense* defense = nullptr;
  std::size_t probers = 0;
  std::uint64_t pairs_probed = 0;
  std::uint64_t pairs_shared = 0;
  std::uint64_t localization = 0;
  for (const auto& actor : result.population().actors()) {
    if (const auto* attacker = dynamic_cast<const adversary::AdaptiveAttacker*>(actor.get())) {
      ++attackers;
      probability_sum += attacker->policy().probability();
      known += attacker->known_services();
      attempts += attacker->policy().attempts();
      successes += attacker->policy().successes();
    } else if (const auto* agent = dynamic_cast<const adversary::DefenseAgent*>(actor.get())) {
      defense = &agent->defense();
    } else if (const auto* prober = dynamic_cast<const adversary::CoLocationProber*>(actor.get())) {
      ++probers;
      pairs_probed += prober->pairs_probed();
      pairs_shared += prober->pairs_shared();
      localization += prober->localization_probes();
    }
  }
  std::string out;
  if (attackers > 0) {
    out += format(
        "- adversary: %zu adaptive attackers, mean probability %.4f, %llu known services, "
        "%llu/%llu attacks landed\n",
        attackers, probability_sum / static_cast<double>(attackers),
        static_cast<unsigned long long>(known), static_cast<unsigned long long>(successes),
        static_cast<unsigned long long>(attempts));
  }
  if (defense != nullptr) {
    out += format(
        "- defense: %zu services (%s), %llu rotations, %llu hits / %llu misses, ttl %lld min\n",
        defense->services(), defense->rotates() ? "rotating" : "static",
        static_cast<unsigned long long>(defense->rotations()),
        static_cast<unsigned long long>(defense->hits()),
        static_cast<unsigned long long>(defense->misses()),
        static_cast<long long>(defense->current_ttl() / util::kMinute));
  }
  if (probers > 0) {
    out += format(
        "- probers: %zu co-location probers, %llu pairs probed, %llu shared, "
        "%llu localization probes\n",
        probers, static_cast<unsigned long long>(pairs_probed),
        static_cast<unsigned long long>(pairs_shared),
        static_cast<unsigned long long>(localization));
  }
  return out;
}

std::string render_cell(const CellResult& cell) {
  std::string out = "## cell " + cell.label + "\n\n";
  out += format("sim %s, seed 0x%016llx, %llu records, %llu events\n\n", cell.sim_label.c_str(),
                static_cast<unsigned long long>(cell.seed),
                static_cast<unsigned long long>(cell.records),
                static_cast<unsigned long long>(cell.events));
  for (const FindingOutcome& outcome : cell.findings) {
    out += format("- [%c] %s (effect %.4f): %s\n", outcome.holds ? 'x' : ' ',
                  std::string(finding_name(outcome.finding)).c_str(), outcome.effect,
                  outcome.detail.c_str());
  }
  if (cell.clusters.has_value()) {
    const analysis::ClusterScores& scores = *cell.clusters;
    out += format(
        "- clusters: %zu clusters over %zu sources (%zu true actors), purity %.4f, "
        "ARI %.4f, assignment fnv %016llx\n",
        scores.clusters, scores.entities, scores.truth_actors, scores.purity, scores.ari,
        static_cast<unsigned long long>(scores.assignment_fnv));
  }
  out += cell.adversary;
  out += cell.colocation;
  return out;
}

std::string SweepReport::render(const Campaign& campaign,
                                const std::vector<CellResult>& results) {
  std::string out = "# sweep: " + campaign.name + "\n\n";
  std::size_t sims = 0;
  {
    std::vector<std::string_view> seen;
    for (const CellResult& cell : results) {
      bool found = false;
      for (const std::string_view label : seen) found |= label == cell.sim_label;
      if (!found) seen.push_back(cell.sim_label);
    }
    sims = seen.size();
  }
  out += format("campaign seed 0x%016llx, %zu cells, %zu simulations\n\n",
                static_cast<unsigned long long>(campaign.seed), results.size(), sims);

  // The findings × cells matrix. "Y 0.412" = the finding holds in that cell
  // with headline effect 0.412; "n" = it does not.
  out += "| finding |";
  for (const CellResult& cell : results) out += " " + cell.label + " |";
  out += " holds |\n|---|";
  for (std::size_t i = 0; i < results.size(); ++i) out += "---|";
  out += "---|\n";
  for (std::size_t f = 0; f < kPaperFindingCount; ++f) {
    out += "| " + std::string(finding_name(static_cast<PaperFinding>(f))) + " |";
    std::size_t holds = 0;
    for (const CellResult& cell : results) {
      const FindingOutcome& outcome = cell.findings[f];
      holds += outcome.holds ? 1 : 0;
      out += format(" %c %.3f |", outcome.holds ? 'Y' : 'n', outcome.effect);
    }
    out += format(" %zu/%zu |\n", holds, results.size());
  }
  // Provenance footer rows.
  out += "| records |";
  for (const CellResult& cell : results) {
    out += format(" %llu |", static_cast<unsigned long long>(cell.records));
  }
  out += " |\n| sim seed |";
  for (const CellResult& cell : results) {
    out += format(" %016llx |", static_cast<unsigned long long>(cell.seed));
  }
  out += " |\n\n## claims\n\n";
  for (std::size_t f = 0; f < kPaperFindingCount; ++f) {
    const auto finding = static_cast<PaperFinding>(f);
    out += "- " + std::string(finding_name(finding)) + ": " +
           std::string(finding_claim(finding)) + "\n";
  }
  out += "\n";
  for (const CellResult& cell : results) {
    out += render_cell(cell);
    out += "\n";
  }
  return out;
}

namespace {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string render_cell_json(const CellResult& cell) {
  std::string out = "    {\n";
  out += "      \"label\": \"" + json_escape(cell.label) + "\",\n";
  out += "      \"sim\": \"" + json_escape(cell.sim_label) + "\",\n";
  out += format("      \"seed\": \"%016llx\",\n", static_cast<unsigned long long>(cell.seed));
  out += format("      \"records\": %llu,\n", static_cast<unsigned long long>(cell.records));
  out += format("      \"events\": %llu,\n", static_cast<unsigned long long>(cell.events));
  out += "      \"findings\": [\n";
  for (std::size_t f = 0; f < kPaperFindingCount; ++f) {
    const FindingOutcome& outcome = cell.findings[f];
    out += "        {\"name\": \"" + json_escape(finding_name(outcome.finding)) + "\", " +
           format("\"holds\": %s, \"effect\": %.6f, ", outcome.holds ? "true" : "false",
                  outcome.effect) +
           "\"detail\": \"" + json_escape(outcome.detail) + "\"}" +
           (f + 1 < kPaperFindingCount ? ",\n" : "\n");
  }
  out += "      ]";
  if (cell.clusters.has_value()) {
    const analysis::ClusterScores& scores = *cell.clusters;
    out += format(
        ",\n      \"clusters\": {\"entities\": %zu, \"clusters\": %zu, "
        "\"truth_actors\": %zu, \"purity\": %.6f, \"ari\": %.6f, "
        "\"assignment_fnv\": \"%016llx\"}",
        scores.entities, scores.clusters, scores.truth_actors, scores.purity, scores.ari,
        static_cast<unsigned long long>(scores.assignment_fnv));
  }
  if (!cell.adversary.empty()) {
    out += ",\n      \"adversary\": \"" + json_escape(cell.adversary) + "\"";
  }
  if (!cell.colocation.empty()) {
    out += ",\n      \"colocation\": \"" + json_escape(cell.colocation) + "\"";
  }
  out += "\n    }";
  return out;
}

}  // namespace

std::string SweepReport::render_json(const Campaign& campaign,
                                     const std::vector<CellResult>& results) {
  std::string out = "{\n";
  out += "  \"campaign\": \"" + json_escape(campaign.name) + "\",\n";
  out += format("  \"seed\": \"%016llx\",\n", static_cast<unsigned long long>(campaign.seed));
  out += format("  \"cells\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    out += render_cell_json(results[i]);
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace cw::runner
