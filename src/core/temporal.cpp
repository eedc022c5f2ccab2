#include "core/temporal.h"

#include <cmath>

#include "agents/population.h"
#include "analysis/geography.h"
#include "analysis/overlap.h"
#include "analysis/protocols.h"
#include "util/strings.h"
#include "util/table.h"

namespace cw::core {
namespace {

// Coarse qualitative band for an overlap fraction: the conclusion a reader
// takes away ("avoids the telescope" / "partially" / "does not").
int overlap_band(double fraction) {
  if (fraction < 0.33) return 0;
  if (fraction < 0.66) return 1;
  return 2;
}

std::optional<double> cloud_overlap(const ExperimentResult& result, net::Port port) {
  const auto rows = analysis::scanner_overlap(
      result.frames(), {port},
      {agents::Population::kCensysActorId, agents::Population::kShodanActorId},
      result.segment_pager());
  return rows.front().tel_cloud_over_cloud;
}

std::optional<double> apac_minus_us_similarity(const ExperimentResult& result) {
  const auto similarity =
      analysis::geo_similarity(result.table_cache(), analysis::TrafficScope::kHttpAllPorts,
                               analysis::Characteristic::kTopPayload);
  const auto us = static_cast<std::size_t>(analysis::PairGroup::kUs);
  const auto ap = static_cast<std::size_t>(analysis::PairGroup::kApac);
  if (similarity.tested[us] == 0 || similarity.tested[ap] == 0) return std::nullopt;
  return similarity.pct_similar(analysis::PairGroup::kApac) -
         similarity.pct_similar(analysis::PairGroup::kUs);
}

std::optional<double> unexpected_share(const ExperimentResult& result, net::Port port) {
  analysis::ProtocolOptions options;
  options.ports = {port};
  const auto rows =
      analysis::protocol_breakdown(result.frames(), options, result.segment_pager());
  if (rows.empty() || rows.front().scanners_total == 0) return std::nullopt;
  return rows.front().pct_unexpected;
}

}  // namespace

std::size_t TemporalReport::stable_count() const {
  std::size_t count = 0;
  for (const TemporalMetric& metric : metrics) {
    if (metric.stable) ++count;
  }
  return count;
}

std::string TemporalReport::render() const {
  util::TextTable table({"Metric", year_a, year_b, "Stable?"});
  auto cell = [](const std::optional<double>& value) {
    return value ? util::format_double(*value, 2) : std::string("x");
  };
  for (const TemporalMetric& metric : metrics) {
    table.add_row({metric.name, cell(metric.value_a), cell(metric.value_b),
                   metric.stable ? "yes" : (!metric.value_a || !metric.value_b ? "n/a" : "NO")});
  }
  std::string out = "Temporal stability, " + year_a + " vs " + year_b + " (Section 3.4)\n";
  out += table.render();
  out += std::to_string(stable_count()) + "/" + std::to_string(metrics.size()) +
         " headline conclusions stable across the two windows.\n";
  return out;
}

TemporalReport compare_years(const ExperimentResult& a, const ExperimentResult& b,
                             std::string year_a, std::string year_b) {
  TemporalReport report;
  report.year_a = std::move(year_a);
  report.year_b = std::move(year_b);

  // Per-port telescope overlap bands.
  for (const net::Port port : {net::Port{22}, net::Port{23}, net::Port{2323}, net::Port{80}}) {
    TemporalMetric metric;
    metric.name = "telescope overlap, port " + std::to_string(port) + " (cloud)";
    metric.value_a = cloud_overlap(a, port);
    metric.value_b = cloud_overlap(b, port);
    metric.stable = metric.value_a && metric.value_b &&
                    overlap_band(*metric.value_a) == overlap_band(*metric.value_b);
    report.metrics.push_back(std::move(metric));
  }

  // SSH-vs-Telnet avoidance ordering.
  {
    TemporalMetric metric;
    metric.name = "telescope overlap: Telnet/23 exceeds SSH/22";
    const auto a22 = cloud_overlap(a, 22);
    const auto a23 = cloud_overlap(a, 23);
    const auto b22 = cloud_overlap(b, 22);
    const auto b23 = cloud_overlap(b, 23);
    if (a22 && a23) metric.value_a = *a23 - *a22;
    if (b22 && b23) metric.value_b = *b23 - *b22;
    metric.stable = metric.value_a && metric.value_b && *metric.value_a > 0 &&
                    *metric.value_b > 0;
    report.metrics.push_back(std::move(metric));
  }

  // APAC payload similarity deficit vs US (negative = APAC less similar).
  {
    TemporalMetric metric;
    metric.name = "APAC payload similarity minus US (pct points)";
    metric.value_a = apac_minus_us_similarity(a);
    metric.value_b = apac_minus_us_similarity(b);
    metric.stable = metric.value_a && metric.value_b && *metric.value_a < 0 &&
                    *metric.value_b < 0;
    report.metrics.push_back(std::move(metric));
  }

  // Unexpected-protocol share on HTTP ports.
  for (const net::Port port : {net::Port{80}, net::Port{8080}}) {
    TemporalMetric metric;
    metric.name = "unexpected-protocol share, port " + std::to_string(port) + " (%)";
    metric.value_a = unexpected_share(a, port);
    metric.value_b = unexpected_share(b, port);
    // Stable if both years show a non-trivial share (the paper's claim is
    // ">= 15%", with 2022 roughly double 2021).
    metric.stable = metric.value_a && metric.value_b && *metric.value_a >= 8.0 &&
                    *metric.value_b >= 8.0;
    report.metrics.push_back(std::move(metric));
  }

  return report;
}

}  // namespace cw::core
