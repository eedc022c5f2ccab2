#include "core/tables.h"

#include <map>
#include <set>
#include <unordered_set>

#include "agents/population.h"
#include "analysis/characteristics.h"
#include "analysis/geography.h"
#include "analysis/neighborhood.h"
#include "analysis/network.h"
#include "analysis/overlap.h"
#include "analysis/protocols.h"
#include "analysis/structure.h"
#include "stats/descriptive.h"
#include "util/strings.h"
#include "util/table.h"

namespace cw::core {
namespace {

using util::format_double;

std::string pct(double value, int precision = 0) {
  return format_double(value, precision) + "%";
}

std::string phi(double value) { return format_double(value, 2); }

std::string magnitude_suffix(stats::EffectMagnitude m) {
  return " (" + std::string(stats::magnitude_name(m)) + ")";
}

}  // namespace

std::string render_table1(const ExperimentResult& result) {
  util::TextTable table({"Network", "Type", "Collection", "# Vantage IPs", "# Unique Scan IPs",
                         "# Unique Scan ASes"});

  // GreyNoise providers aggregate across their regions; Honeytrap and
  // telescope vantage points report individually — mirroring Table 1's rows.
  struct RowKey {
    std::string name;
    std::vector<topology::VantageId> vantages;
    topology::NetworkType type;
    topology::CollectionMethod collection;
  };
  std::vector<RowKey> rows;
  std::map<std::string, std::size_t> greynoise_rows;
  for (const topology::VantagePoint& vp : result.deployment().vantage_points()) {
    if (vp.collection == topology::CollectionMethod::kGreyNoise) {
      const std::string key = std::string(topology::provider_name(vp.provider));
      auto it = greynoise_rows.find(key);
      if (it == greynoise_rows.end()) {
        greynoise_rows.emplace(key, rows.size());
        rows.push_back(RowKey{key, {vp.id}, vp.type, vp.collection});
      } else {
        rows[it->second].vantages.push_back(vp.id);
      }
    } else {
      rows.push_back(RowKey{vp.name, {vp.id}, vp.type, vp.collection});
    }
  }

  const auto frames = result.frames();
  for (const RowKey& row : rows) {
    std::unordered_set<std::uint32_t> ips;
    std::unordered_set<std::uint32_t> ases;
    std::size_t addresses = 0;
    for (topology::VantageId id : row.vantages) {
      addresses += result.deployment().at(id).addresses.size();
    }
    analysis::for_each_frame(
        frames, result.segment_pager(), [&](const capture::SessionFrame& frame) {
          for (topology::VantageId id : row.vantages) {
            for (std::uint32_t index : frame.for_vantage(id)) {
              ips.insert(frame.src(index));
              ases.insert(frame.src_as(index));
            }
          }
        });
    table.add_row({row.name, std::string(topology::network_type_name(row.type)),
                   std::string(topology::collection_method_name(row.collection)),
                   std::to_string(addresses), std::to_string(ips.size()),
                   std::to_string(ases.size())});
  }
  return table.render();
}

namespace {

// Row order shared by table2_tasks and render_table2_from.
constexpr analysis::TrafficScope kTable2Scopes[] = {
    analysis::TrafficScope::kSsh22, analysis::TrafficScope::kTelnet23,
    analysis::TrafficScope::kHttp80, analysis::TrafficScope::kHttpAllPorts};

}  // namespace

std::vector<std::function<analysis::NeighborhoodSummary()>> table2_tasks(
    const ExperimentResult& result) {
  std::vector<std::function<analysis::NeighborhoodSummary()>> tasks;
  for (const auto scope : kTable2Scopes) {
    for (const auto characteristic : analysis::characteristics_for_scope(scope)) {
      tasks.push_back([&result, scope, characteristic] {
        // Cache-backed: the per-neighbor slices are shared across this
        // scope's characteristic rows instead of being rebuilt per row.
        return analysis::analyze_neighborhoods(result.table_cache(), scope, characteristic);
      });
    }
  }
  return tasks;
}

std::string render_table2_from(const std::vector<analysis::NeighborhoodSummary>& summaries) {
  util::TextTable table({"Scope", "Traffic Characteristic", "% Neighborhoods different", "n",
                         "Avg phi", "Magnitude"});
  std::size_t next = 0;
  for (const auto scope : kTable2Scopes) {
    for (const auto characteristic : analysis::characteristics_for_scope(scope)) {
      const analysis::NeighborhoodSummary& summary = summaries.at(next++);
      table.add_row({std::string(analysis::scope_name(scope)),
                     std::string(analysis::characteristic_name(characteristic)),
                     pct(summary.pct_different), std::to_string(summary.neighborhoods_tested),
                     summary.neighborhoods_different > 0 ? phi(summary.avg_phi) : "-",
                     summary.neighborhoods_different > 0
                         ? std::string(stats::magnitude_name(summary.typical_magnitude))
                         : "-"});
    }
    table.add_separator();
  }
  return table.render();
}

std::string render_table2(const ExperimentResult& result) {
  std::vector<analysis::NeighborhoodSummary> summaries;
  for (const auto& task : table2_tasks(result)) summaries.push_back(task());
  return render_table2_from(summaries);
}

std::string render_table3(const analysis::LeakExperimentResult& leak) {
  util::TextTable table({"Service", "Traffic", "Censys Leaked", "Shodan Leaked",
                         "Previously Leaked"});
  auto cell = [&](net::Port port, analysis::LeakCondition condition, bool malicious) {
    const analysis::LeakCell* c = leak.find(port, condition);
    if (c == nullptr) return std::string("-");
    const double fold = malicious ? c->fold_malicious : c->fold_all;
    const bool significant = malicious ? c->mwu_malicious : c->mwu_all;
    std::string out = format_double(fold, 1);
    if (significant) out = "**" + out + "**";  // bold: stochastically greater
    if (!malicious && c->ks_all) out += "*";   // spike-driven distribution shift
    return out;
  };
  for (net::Port port : {net::Port{80}, net::Port{22}, net::Port{23}}) {
    const std::string service = std::string(net::protocol_name(net::iana_assignment(port))) +
                                "/" + std::to_string(port);
    table.add_row({service, "All",
                   cell(port, analysis::LeakCondition::kCensysLeaked, false),
                   cell(port, analysis::LeakCondition::kShodanLeaked, false),
                   cell(port, analysis::LeakCondition::kPreviouslyLeaked, false)});
    table.add_row({"", "Malicious",
                   cell(port, analysis::LeakCondition::kCensysLeaked, true),
                   cell(port, analysis::LeakCondition::kShodanLeaked, true),
                   cell(port, analysis::LeakCondition::kPreviouslyLeaked, true)});
  }
  std::string out = table.render();
  out += "Fold increase in traffic per hour vs. the control group.\n";
  out += "** = one-sided Mann-Whitney U significant; * = KS distribution shift (spikes).\n";
  return out;
}

namespace {

struct Table4Row {
  analysis::Characteristic characteristic;
  analysis::TrafficScope scope;
};

}  // namespace

std::string render_table4(const ExperimentResult& result) {
  util::TextTable table({"Traffic", "Protocol", "AWS: region (phi)", "Google: region (phi)",
                         "Linode: region (phi)"});
  const Table4Row rows[] = {
      {analysis::Characteristic::kTopAs, analysis::TrafficScope::kSsh22},
      {analysis::Characteristic::kTopAs, analysis::TrafficScope::kTelnet23},
      {analysis::Characteristic::kTopAs, analysis::TrafficScope::kHttp80},
      {analysis::Characteristic::kTopAs, analysis::TrafficScope::kHttpAllPorts},
      {analysis::Characteristic::kTopUsername, analysis::TrafficScope::kSsh22},
      {analysis::Characteristic::kTopUsername, analysis::TrafficScope::kTelnet23},
      {analysis::Characteristic::kTopPassword, analysis::TrafficScope::kTelnet23},
      {analysis::Characteristic::kTopPayload, analysis::TrafficScope::kHttp80},
      {analysis::Characteristic::kTopPayload, analysis::TrafficScope::kHttpAllPorts},
      {analysis::Characteristic::kFracMalicious, analysis::TrafficScope::kSsh22},
      {analysis::Characteristic::kFracMalicious, analysis::TrafficScope::kTelnet23},
      {analysis::Characteristic::kFracMalicious, analysis::TrafficScope::kAnyAll},
  };
  const topology::Provider providers[] = {topology::Provider::kAws, topology::Provider::kGoogle,
                                          topology::Provider::kLinode};
  for (const Table4Row& row : rows) {
    std::vector<std::string> cells = {
        std::string(analysis::characteristic_name(row.characteristic)),
        std::string(analysis::scope_name(row.scope))};
    for (const topology::Provider provider : providers) {
      const analysis::MostDifferentRegion most = analysis::most_different_region(
          result.table_cache(), provider, row.scope, row.characteristic);
      if (!most.any_significant) {
        cells.push_back("-");
      } else {
        cells.push_back(most.region_code + " (" + phi(most.avg_phi) + ")" +
                        magnitude_suffix(most.magnitude));
      }
    }
    table.add_row(std::move(cells));
  }
  return table.render();
}

std::string render_table5(const ExperimentResult& result) {
  util::TextTable table({"Scope", "Traffic Characteristic", "US", "EU", "APAC",
                         "Intercontinental"});
  const analysis::TrafficScope scopes[] = {
      analysis::TrafficScope::kSsh22, analysis::TrafficScope::kTelnet23,
      analysis::TrafficScope::kHttp80, analysis::TrafficScope::kHttpAllPorts};
  for (const auto scope : scopes) {
    for (const auto characteristic : analysis::characteristics_for_scope(scope)) {
      const analysis::GeoSimilarity similarity =
          analysis::geo_similarity(result.table_cache(), scope, characteristic);
      std::vector<std::string> cells = {
          std::string(analysis::scope_name(scope)),
          std::string(analysis::characteristic_name(characteristic))};
      for (std::size_t g = 0; g < analysis::kPairGroupCount; ++g) {
        const auto group = static_cast<analysis::PairGroup>(g);
        cells.push_back(pct(similarity.pct_similar(group)) + " (n=" +
                        std::to_string(similarity.tested[g]) + ")");
      }
      table.add_row(std::move(cells));
    }
    table.add_separator();
  }
  return table.render();
}

std::string render_table6(const ExperimentResult& result) {
  util::TextTable table({"City/State", "Providers"});
  for (const topology::Deployment::CoLocation& city :
       result.deployment().colocated_clouds()) {
    std::set<std::string> providers;
    for (topology::VantageId id : city.vantage_ids) {
      providers.insert(std::string(topology::provider_name(result.deployment().at(id).provider)));
    }
    std::vector<std::string> names(providers.begin(), providers.end());
    table.add_row({city.city_code, util::join(names, ", ")});
  }
  return table.render();
}

namespace {

std::string network_cell(const analysis::NetworkComparison& comparison) {
  if (!comparison.measurable) return "x";
  std::string out = std::to_string(comparison.pairs_different) + "/" +
                    std::to_string(comparison.pairs_tested);
  if (comparison.pairs_different > 0) {
    out += " phi=" + phi(comparison.avg_phi) +
           " (" + std::string(stats::magnitude_name(comparison.strongest)) + ")";
  }
  return out;
}

}  // namespace

std::string render_table7(const ExperimentResult& result) {
  util::TextTable table({"Traffic", "Protocol", "Cloud-Cloud", "Cloud-EDU", "EDU-EDU"});
  const auto cc = analysis::cloud_cloud_pairs(result.deployment());
  const auto ce = analysis::cloud_edu_pairs(result.deployment());
  const auto ee = analysis::edu_edu_pairs(result.deployment());

  struct RowSpec {
    analysis::Characteristic characteristic;
    analysis::TrafficScope scope;
  };
  const RowSpec rows[] = {
      {analysis::Characteristic::kTopAs, analysis::TrafficScope::kSsh22},
      {analysis::Characteristic::kTopAs, analysis::TrafficScope::kTelnet23},
      {analysis::Characteristic::kTopAs, analysis::TrafficScope::kHttp80},
      {analysis::Characteristic::kTopAs, analysis::TrafficScope::kHttpAllPorts},
      {analysis::Characteristic::kTopUsername, analysis::TrafficScope::kSsh22},
      {analysis::Characteristic::kTopUsername, analysis::TrafficScope::kTelnet23},
      {analysis::Characteristic::kTopPassword, analysis::TrafficScope::kTelnet23},
      {analysis::Characteristic::kTopPassword, analysis::TrafficScope::kSsh22},
      {analysis::Characteristic::kTopPayload, analysis::TrafficScope::kHttp80},
      {analysis::Characteristic::kTopPayload, analysis::TrafficScope::kHttpAllPorts},
      {analysis::Characteristic::kFracMalicious, analysis::TrafficScope::kSsh22},
      {analysis::Characteristic::kFracMalicious, analysis::TrafficScope::kTelnet23},
      {analysis::Characteristic::kFracMalicious, analysis::TrafficScope::kHttp80},
      {analysis::Characteristic::kFracMalicious, analysis::TrafficScope::kHttpAllPorts},
  };
  for (const RowSpec& row : rows) {
    auto run = [&](const std::vector<std::pair<topology::VantageId, topology::VantageId>>& pairs) {
      // Cache-backed: the cloud-EDU and EDU-EDU families reuse the Stanford
      // and Merit tables across rows that repeat a (scope, characteristic).
      return analysis::compare_vantage_pairs(result.table_cache(), pairs, row.scope,
                                             row.characteristic);
    };
    table.add_row({std::string(analysis::characteristic_name(row.characteristic)),
                   std::string(analysis::scope_name(row.scope)), network_cell(run(cc)),
                   network_cell(run(ce)), network_cell(run(ee))});
  }
  std::string out = table.render();
  out += "Cells: (# significantly different pairs)/(pairs tested); x = not measurable.\n";
  return out;
}

std::string render_table8(const ExperimentResult& result) {
  util::TextTable table({"Port", "|Tel & Cloud|/|Cloud|", "|Tel & EDU|/|EDU|",
                         "|Cloud & EDU|/|Cloud|"});
  const auto rows = analysis::scanner_overlap(
      result.frames(), net::popular_ports(),
      {agents::Population::kCensysActorId, agents::Population::kShodanActorId},
      result.segment_pager());
  auto cell = [](const std::optional<double>& value) {
    return value ? pct(*value * 100.0) : std::string("-");
  };
  for (const analysis::OverlapRow& row : rows) {
    table.add_row({std::to_string(row.port), cell(row.tel_cloud_over_cloud),
                   cell(row.tel_edu_over_edu), cell(row.cloud_edu_over_cloud)});
  }
  return table.render();
}

std::string render_table9(const ExperimentResult& result) {
  util::TextTable table(
      {"Port", "|Tel & Mal.Cloud|/|Mal.Cloud|", "|Tel & Mal.EDU|/|Mal.EDU|"});
  const std::vector<net::Port> ports = {23, 2323, 80, 8080, 2222, 22};
  const auto rows = analysis::attacker_overlap(
      result.frames(), ports,
      {agents::Population::kCensysActorId, agents::Population::kShodanActorId},
      result.segment_pager());
  auto cell = [](const std::optional<double>& value) {
    return value ? pct(*value * 100.0, 1) : std::string("x");
  };
  for (const analysis::MaliciousOverlapRow& row : rows) {
    table.add_row({std::to_string(row.port), cell(row.tel_over_malicious_cloud),
                   cell(row.tel_over_malicious_edu)});
  }
  return table.render();
}

namespace {

// Row order shared by table10_tasks and render_table10_from.
constexpr analysis::TrafficScope kTable10Scopes[] = {
    analysis::TrafficScope::kSsh22, analysis::TrafficScope::kTelnet23,
    analysis::TrafficScope::kHttp80, analysis::TrafficScope::kAnyAll};

}  // namespace

std::vector<std::function<analysis::NetworkComparison(runner::ThreadPool*)>> table10_tasks(
    const ExperimentResult& result) {
  std::vector<std::function<analysis::NetworkComparison(runner::ThreadPool*)>> tasks;
  for (const auto scope : kTable10Scopes) {
    for (const bool edu : {true, false}) {
      tasks.push_back([&result, scope, edu](runner::ThreadPool* pool) {
        const auto pairs = edu ? analysis::telescope_edu_pairs(result.deployment())
                               : analysis::telescope_cloud_pairs(result.deployment());
        // Cache-backed: Orion's table per scope is built once and shared by
        // all five of its pairs (and both task closures for the scope); the
        // big Any/All build shards through the pool when one is supplied.
        return analysis::compare_vantage_pairs(result.table_cache(), pairs, scope,
                                               analysis::Characteristic::kTopAs,
                                               analysis::NetworkOptions{}, pool);
      });
    }
  }
  return tasks;
}

std::string render_table10_from(const std::vector<analysis::NetworkComparison>& comparisons) {
  util::TextTable table({"Traffic", "Protocol", "Telescope-EDU", "Telescope-Cloud"});
  std::size_t next = 0;
  for (const auto scope : kTable10Scopes) {
    const analysis::NetworkComparison& te = comparisons.at(next++);
    const analysis::NetworkComparison& tc = comparisons.at(next++);
    table.add_row({"Top 3 AS", std::string(analysis::scope_name(scope)), network_cell(te),
                   network_cell(tc)});
  }
  return table.render();
}

std::string render_table10(const ExperimentResult& result) {
  std::vector<analysis::NetworkComparison> comparisons;
  for (const auto& task : table10_tasks(result)) comparisons.push_back(task(nullptr));
  return render_table10_from(comparisons);
}

namespace {

std::string render_protocols(const ExperimentResult& result, bool with_oracle) {
  analysis::ProtocolOptions options;
  if (with_oracle) options.oracle = &result.oracle();
  const auto rows =
      analysis::protocol_breakdown(result.frames(), options, result.segment_pager());

  std::vector<std::string> header = {"Protocol/Port", "Breakdown"};
  if (with_oracle) {
    header.push_back("% Benign");
    header.push_back("% Malicious");
  }
  util::TextTable table(header);
  for (const analysis::ProtocolBreakdownRow& row : rows) {
    {
      std::vector<std::string> cells = {"HTTP/" + std::to_string(row.port),
                                        pct(row.pct_expected)};
      if (with_oracle) {
        cells.push_back(pct(row.expected_benign_pct));
        cells.push_back(pct(row.expected_malicious_pct));
      }
      table.add_row(std::move(cells));
    }
    {
      std::vector<std::string> cells = {"~HTTP/" + std::to_string(row.port),
                                        pct(row.pct_unexpected)};
      if (with_oracle) {
        cells.push_back(pct(row.unexpected_benign_pct));
        cells.push_back(pct(row.unexpected_malicious_pct));
      }
      table.add_row(std::move(cells));
    }
  }
  std::string out = table.render();
  out += "Unexpected-protocol shares per port:\n";
  for (const analysis::ProtocolBreakdownRow& row : rows) {
    out += "  port " + std::to_string(row.port) + ": ";
    std::vector<std::string> parts;
    for (const analysis::ProtocolShare& share : row.unexpected_shares) {
      parts.push_back(std::string(net::protocol_name(share.protocol)) + "=" +
                      format_double(share.pct_of_port, 1) + "%");
    }
    out += util::join(parts, ", ") + "\n";
  }
  return out;
}

}  // namespace

std::string render_table11(const ExperimentResult& result) {
  return render_protocols(result, /*with_oracle=*/true);
}

std::string render_table17(const ExperimentResult& result) {
  return render_protocols(result, /*with_oracle=*/false);
}

std::string render_sec32(const ExperimentResult& result) {
  std::uint64_t telnet_total = 0, telnet_auth = 0;
  std::uint64_t ssh_total = 0, ssh_auth = 0;
  std::uint64_t http_total = 0, http_exploit = 0;
  // Payload ids name one raw payload across the whole corpus (see
  // SessionFrame::payload_id), so the distinct sets union across frames.
  std::set<std::uint32_t> http_payload_ids;
  std::set<std::uint32_t> http_malicious_ids;

  analysis::for_each_frame(
      result.frames(), result.segment_pager(), [&](const capture::SessionFrame& frame) {
        for (std::uint32_t i = 0; i < frame.size(); ++i) {
          if (!frame.has_payload(i) && !frame.has_credential(i)) continue;
          if (frame.port(i) == 23) {
            ++telnet_total;
            if (frame.has_credential(i)) ++telnet_auth;
          } else if (frame.port(i) == 22) {
            ++ssh_total;
            if (frame.has_credential(i)) ++ssh_auth;
          } else if (frame.port(i) == 80 && frame.has_payload(i)) {
            ++http_total;
            const bool malicious =
                frame.verdict(i) == capture::SessionFrame::Verdict::kMalicious;
            if (malicious) ++http_exploit;
            http_payload_ids.insert(frame.payload_id(i));
            if (malicious) http_malicious_ids.insert(frame.payload_id(i));
          }
        }
      });

  auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : 100.0 * static_cast<double>(num) / static_cast<double>(den);
  };
  std::string out;
  out += "Traffic not attempting auth bypass on Telnet/23: " +
         format_double(ratio(telnet_total - telnet_auth, telnet_total), 0) + "% (paper: 34%)\n";
  out += "Traffic not attempting auth bypass on SSH/22:    " +
         format_double(ratio(ssh_total - ssh_auth, ssh_total), 0) + "% (paper: 24%)\n";
  out += "HTTP/80 payloads without exploits:               " +
         format_double(ratio(http_total - http_exploit, http_total), 0) + "% (paper: 75%)\n";
  out += "Distinct HTTP payloads labeled malicious:        " +
         format_double(ratio(http_malicious_ids.size(), http_payload_ids.size()), 0) +
         "% (paper: 6%)\n";
  return out;
}

std::string render_figure1(const ExperimentResult& result, net::Port port,
                           std::size_t rolling_window, std::size_t buckets) {
  const std::vector<double> counts =
      analysis::telescope_address_counts(result.frames(), port, result.segment_pager());
  if (counts.empty()) return "no telescope data\n";
  const std::vector<double> rolled = stats::rolling_average(counts, rolling_window);

  const topology::VantagePoint* telescope = nullptr;
  for (const topology::VantagePoint& vp : result.deployment().vantage_points()) {
    if (vp.type == topology::NetworkType::kTelescope) telescope = &vp;
  }
  const analysis::StructureStats stats = analysis::structure_stats(counts, *telescope);

  std::string out = "Figure 1, port " + std::to_string(port) + " — rolling avg (" +
                    std::to_string(rolling_window) + " IPs) of scanners per address:\n";
  const std::size_t step = std::max<std::size_t>(rolled.size() / buckets, 1);
  for (std::size_t i = 0; i < rolled.size(); i += step) {
    out += "  offset " + std::to_string(i) + ": " + format_double(rolled[i], 2) + "\n";
  }
  out += "structure: plain=" + format_double(stats.mean_plain, 2) +
         " any255=" + format_double(stats.mean_any_255, 2) +
         " last255=" + format_double(stats.mean_last_255, 2) +
         " first/16=" + format_double(stats.mean_first_16, 2) + "\n";
  out += "avoidance(any255)=" + format_double(stats.avoidance_any_255(), 1) +
         "x  avoidance(.255)=" + format_double(stats.avoidance_last_255(), 1) +
         "x  preference(first/16)=" + format_double(stats.preference_first_16(), 1) + "x\n";
  // Latching botnets (Figure 1d) concentrate on a handful of addresses;
  // surface the raw peak so it is visible regardless of downsampling.
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < counts.size(); ++i) {
    if (counts[i] > counts[argmax]) argmax = i;
  }
  out += "peak: offset " + std::to_string(argmax) + " with " +
         format_double(counts[argmax], 0) + " scanners (plain mean " +
         format_double(stats.mean_plain, 2) + ")\n";
  return out;
}

}  // namespace cw::core
