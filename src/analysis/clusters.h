// analysis::clusters — behavioral attacker clustering scored against the
// simulator's ground truth (DESIGN.md §8c), after Shamsi et al.'s
// medium-interaction-honeypot clustering (PAPERS.md).
//
// Entities are source IPs. Each gets a fingerprint from the encoded
// SessionFrame columns: the set of destination ports, the sets of
// username/password/payload dictionary codes, and a log-bucketed
// inter-event-gap histogram. Pairwise distance is one minus a weighted mix
// of per-facet Jaccard similarities plus the cosine of the timing
// histograms; average-linkage agglomerative clustering (nearest-neighbor
// chain, deterministic tie-breaks) merges up to a threshold.
//
// Because the simulator knows which actor emitted every record, the
// partition is scored against ground truth: purity and the Adjusted Rand
// Index. The whole pipeline is single-threaded and order-independent over
// the frame, so cluster assignments are byte-identical at any --jobs — and
// spill-mode per-segment frames fold into the same fingerprints the
// cumulative frame produces.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/overlap.h"  // SegmentPager
#include "capture/frame.h"

namespace cw::analysis {

struct ClusterOptions {
  std::size_t min_records = 4;     // sources below this are too thin to fingerprint
  std::size_t max_entities = 2048; // cap: top sources by (records desc, src asc)
  bool malicious_only = true;      // restrict to verdict-malicious records
  // Agglomerative stop distance. Within-operator source pairs sit below
  // ~0.05 (same port, wordlist, client banner, cadence); distinct operators
  // sharing a port sit above ~0.20 — 0.12 is the middle of the stable
  // plateau where the ground-truth families separate exactly.
  double merge_threshold = 0.12;
  // Facet weights (normalized internally over their sum).
  double port_weight = 0.30;
  double username_weight = 0.15;
  double password_weight = 0.15;
  double payload_weight = 0.20;
  double timing_weight = 0.20;
  // Actors excluded from the entity set (typically the crawler ids).
  std::vector<capture::ActorId> exclude_actors;
};

struct ClusterScores {
  std::size_t entities = 0;
  std::size_t clusters = 0;
  std::size_t truth_actors = 0;
  double purity = 0.0;
  double ari = 0.0;
  // FNV-1a digest over (source, cluster id) pairs in canonical order: two
  // runs produced identical assignments iff the digests match, so a sweep
  // report line proves assignment byte-identity without printing thousands
  // of rows.
  std::uint64_t assignment_fnv = 0;
};

struct ClusterResult {
  std::vector<std::uint32_t> sources;     // entity keys, ascending
  std::vector<std::uint32_t> assignment;  // cluster id per entity (first-appearance order)
  std::vector<capture::ActorId> truth;    // ground-truth actor per entity
  ClusterScores scores;
};

// Accumulates fingerprints frame by frame (a batch corpus is the one-frame
// list; a spilled one is its per-epoch segments, paged in around each scan),
// then clusters the merged set, so the output does not depend on how the
// corpus is cut.
ClusterResult cluster_attackers(const std::vector<const capture::SessionFrame*>& frames,
                                const ClusterOptions& options = {},
                                const SegmentPager& pager = {});

}  // namespace cw::analysis
