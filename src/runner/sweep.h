// The sweep analysis layer of runner::Fleet (fleet.h): reduces one cell's
// finished corpus to the seven table-level paper verdicts the grid tracks
// (Tables 2/4/5/7/8/9/10), each with the effect size the paper reports for
// it — Cramér's V where the finding is a chi-squared family, overlap-
// fraction deltas for the telescope-avoidance tables — and renders the
// cells × findings matrix (runner::SweepReport) as markdown.
//
// extract_findings() is a pure function of (ExperimentResult, options): it
// reads the result's shared frame/table-cache and never mutates the corpus,
// so every cell of a fleet that shares a simulation shares one set of
// cached tables, and a cell rerun standalone over the same corpus produces
// byte-identical findings (the check.sh fleet tier's invariant).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/clusters.h"
#include "core/experiment.h"

namespace cw::runner {

class ThreadPool;
struct Campaign;    // fleet.h
struct CellResult;  // fleet.h

// Per-cell analysis knobs — the DESIGN.md §6 ablation axes. Simulation
// knobs live in core::ExperimentConfig; these only shape the statistics run
// over a finished corpus, so cells that differ solely here share one
// simulated ExperimentResult inside a fleet. The Bonferroni toggle applies
// to the Table 2 neighborhood family (the axis NeighborhoodOptions exposes
// for ablation); the pairwise comparisons keep the paper's study-wide
// correction regardless.
struct AnalysisOptions {
  std::size_t top_k = 3;       // union size of the Section 3.3 recipe
  bool use_bonferroni = true;  // Table 2 neighborhood family correction
  // Attacker clustering (analysis::clusters): fingerprint malicious sources
  // and score the partition against ground-truth actor identity. Off by
  // default — only the clustering presets pay for the O(n^2) linkage.
  bool cluster_attackers = false;
  analysis::ClusterOptions cluster;
  // Co-location probe summary (DESIGN.md §8b): per colocated city, how many
  // probe-port records and distinct cross-provider sources landed on cloud
  // vantage points.
  bool colocation_probes = false;
  net::Port colocation_port = 80;
};

// The paper findings a sweep tracks across cells, in render order.
enum class PaperFinding : std::uint8_t {
  kT2NeighborhoodAses = 0,   // Table 2: neighborhoods differ in top ASes > passwords
  kT4AwsAustraliaRegion,     // Table 4: AWS's most-different region is AP-AU
  kT5ApacPayloadDivergence,  // Table 5: APAC pairs diverge in HTTP payloads
  kT7EduNetworksAlike,       // Table 7: education networks look alike
  kT8TelnetIgnoresTelescope, // Table 8: Telnet scans the telescope, SSH avoids it
  kT9SshAttackersAvoid,      // Table 9: SSH attackers avoid the telescope
  kT10TelescopeAsesDiffer,   // Table 10: telescope sees different ASes than cloud
};
inline constexpr std::size_t kPaperFindingCount = 7;

// Short row label ("T2 neighborhood ASes") and the one-line claim.
std::string_view finding_name(PaperFinding finding) noexcept;
std::string_view finding_claim(PaperFinding finding) noexcept;

// One finding's verdict in one cell. `effect` is the finding's headline
// effect size (see the per-extractor comments in sweep.cpp); `detail` is a
// deterministic human-readable summary rendered into the per-cell report.
struct FindingOutcome {
  PaperFinding finding = PaperFinding::kT2NeighborhoodAses;
  bool holds = false;
  double effect = 0.0;
  std::string detail;
};

// Outcomes indexed by PaperFinding value.
using CellFindings = std::array<FindingOutcome, kPaperFindingCount>;

// Runs the seven extractors over one corpus. `pool` shards the frame and
// table builds (nest-safe; byte-identical at any worker count, the same
// invariant the full_report golden enforces); nullptr runs sequentially.
CellFindings extract_findings(const core::ExperimentResult& result,
                              const AnalysisOptions& options, ThreadPool* pool = nullptr);

// Clusters the corpus's malicious sources and scores them against ground
// truth (options.cluster). Walks the result's segment frames when bound
// (spill mode), else the batch frame — identical scores either way.
analysis::ClusterScores extract_clusters(const core::ExperimentResult& result,
                                         const AnalysisOptions& options,
                                         ThreadPool* pool = nullptr);

// Renders the per-city co-location probe summary (empty campaign → counts of
// zero, still rendered so the block's presence tracks the toggle, not the
// traffic). Deterministic markdown, one line per colocated city.
std::string render_colocation(const core::ExperimentResult& result,
                              const AnalysisOptions& options, ThreadPool* pool = nullptr);

// Renders the adversary-side instrumentation lines for a finished cell:
// adaptive-attacker probabilities and learned-service counts, the defense's
// rotation/hit counters and final TTL, and prober pair statistics. Returns
// "" when the population holds no adversary actors, so baseline cells'
// report bytes are untouched.
std::string render_adversary(const core::ExperimentResult& result);

// One cell's standalone report block: label, sim/seed provenance, corpus
// size, then a markdown checklist of the seven verdicts. This exact string
// is what the fleet writes per cell (`cloudwatch_cli sweep --cells-dir`)
// and what a standalone rerun prints (`--cell LABEL`); the check.sh fleet
// tier diffs the two.
std::string render_cell(const CellResult& cell);

// The cross-cell aggregation report: a markdown matrix with one row per
// paper finding and one column per cell ("Y 0.412" = holds with effect
// 0.412), footer rows for per-cell provenance, and the per-cell blocks.
struct SweepReport {
  static std::string render(const Campaign& campaign, const std::vector<CellResult>& results);
  // Machine-readable variant: one JSON object with campaign provenance and a
  // `cells` array carrying every field render() prints (findings, cluster
  // scores, adversary/colocation blocks). Stable key order; bytes are as
  // deterministic as the markdown.
  static std::string render_json(const Campaign& campaign,
                                 const std::vector<CellResult>& results);
};

}  // namespace cw::runner
