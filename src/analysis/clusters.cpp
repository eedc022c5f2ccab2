#include "analysis/clusters.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_map>
#include <utility>

#include "capture/event.h"

namespace cw::analysis {
namespace {

constexpr std::size_t kTimingBuckets = 16;
constexpr std::size_t kNoEntity = std::numeric_limits<std::size_t>::max();

// Raw per-source accumulation: everything the fingerprint needs, mergeable
// across segments in any contiguous order (sets union, times concatenate).
struct Accumulator {
  std::uint64_t records = 0;
  std::vector<net::Port> ports;
  std::vector<std::uint32_t> users;
  std::vector<std::uint32_t> passwords;
  std::vector<std::uint32_t> payloads;
  std::vector<util::SimTime> times;
  // (actor, count): a source pool belongs to one actor, but tolerate
  // collisions with a deterministic majority vote.
  std::map<capture::ActorId, std::uint64_t> actors;
};

struct Fingerprint {
  std::uint32_t src = 0;
  std::uint64_t records = 0;
  capture::ActorId truth = 0;
  std::vector<net::Port> ports;
  std::vector<std::uint32_t> users;
  std::vector<std::uint32_t> passwords;
  std::vector<std::uint32_t> payloads;
  double timing[kTimingBuckets] = {};
  bool has_timing = false;
};

void scan_frame(const capture::SessionFrame& frame, const ClusterOptions& options,
                std::unordered_map<std::uint32_t, Accumulator>& sources) {
  const bool use_verdicts = options.malicious_only && frame.has_verdicts();
  const auto users = frame.codes(capture::CodedColumn::kUsername);
  const auto passwords = frame.codes(capture::CodedColumn::kPassword);
  const auto payloads = frame.codes(capture::CodedColumn::kPayload);
  const auto n = static_cast<std::uint32_t>(frame.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    if (use_verdicts && frame.verdict(i) != capture::SessionFrame::Verdict::kMalicious) {
      continue;
    }
    const capture::ActorId actor = frame.actor(i);
    bool excluded = false;
    for (const capture::ActorId skip : options.exclude_actors) excluded |= actor == skip;
    if (excluded) continue;
    Accumulator& acc = sources[frame.src(i)];
    ++acc.records;
    acc.ports.push_back(frame.port(i));
    if (users[i] != 0) acc.users.push_back(users[i]);
    if (passwords[i] != 0) acc.passwords.push_back(passwords[i]);
    if (payloads[i] != 0) acc.payloads.push_back(payloads[i]);
    acc.times.push_back(frame.time(i));
    ++acc.actors[actor];
  }
}

void sort_unique(std::vector<std::uint32_t>& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

void sort_unique(std::vector<net::Port>& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

Fingerprint finalize(std::uint32_t src, Accumulator&& acc) {
  Fingerprint fp;
  fp.src = src;
  fp.records = acc.records;
  fp.ports = std::move(acc.ports);
  fp.users = std::move(acc.users);
  fp.passwords = std::move(acc.passwords);
  fp.payloads = std::move(acc.payloads);
  sort_unique(fp.ports);
  sort_unique(fp.users);
  sort_unique(fp.passwords);
  sort_unique(fp.payloads);
  // Majority actor; ties break toward the smaller id (std::map order).
  std::uint64_t best = 0;
  for (const auto& [actor, count] : acc.actors) {
    if (count > best) {
      best = count;
      fp.truth = actor;
    }
  }
  // Log-bucketed inter-event gaps. Record times arrive in store order, not
  // time order (actors emit bursts with forward timestamps), so sort first —
  // which also makes the histogram independent of segment slicing.
  std::sort(acc.times.begin(), acc.times.end());
  for (std::size_t k = 1; k < acc.times.size(); ++k) {
    const auto gap = static_cast<std::uint64_t>(acc.times[k] - acc.times[k - 1]);
    const std::uint64_t seconds = gap / static_cast<std::uint64_t>(util::kSecond);
    const auto bucket = std::min<std::size_t>(kTimingBuckets - 1,
                                              std::bit_width(seconds + 1) - 1);
    fp.timing[bucket] += 1.0;
    fp.has_timing = true;
  }
  return fp;
}

template <typename T>
double jaccard(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  std::size_t common = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++common;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return static_cast<double>(common) / static_cast<double>(a.size() + b.size() - common);
}

double timing_cosine(const Fingerprint& a, const Fingerprint& b) {
  if (!a.has_timing && !b.has_timing) return 1.0;
  if (!a.has_timing || !b.has_timing) return 0.0;
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (std::size_t k = 0; k < kTimingBuckets; ++k) {
    dot += a.timing[k] * b.timing[k];
    na += a.timing[k] * a.timing[k];
    nb += b.timing[k] * b.timing[k];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

double distance(const Fingerprint& a, const Fingerprint& b, const ClusterOptions& options) {
  double wsum = options.port_weight + options.username_weight + options.password_weight +
                options.payload_weight + options.timing_weight;
  if (wsum <= 0.0) return 1.0;
  const double sim = (options.port_weight * jaccard(a.ports, b.ports) +
                      options.username_weight * jaccard(a.users, b.users) +
                      options.password_weight * jaccard(a.passwords, b.passwords) +
                      options.payload_weight * jaccard(a.payloads, b.payloads) +
                      options.timing_weight * timing_cosine(a, b)) /
                     wsum;
  return 1.0 - sim;
}

struct DisjointSet {
  std::vector<std::size_t> parent;
  explicit DisjointSet(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    // Smaller root wins: keeps representatives deterministic.
    if (b < a) std::swap(a, b);
    parent[b] = a;
  }
};

// Average-linkage agglomerative clustering via the nearest-neighbor chain
// (O(n^2) with Lance-Williams updates). Ties break toward the smaller
// active index, so the dendrogram — and therefore the threshold cut — is a
// pure function of the distance matrix. Average linkage is reducible, hence
// monotone: the merges at distance <= threshold are downward-closed in the
// dendrogram and a union over exactly those edges is the stop-at-threshold
// partition.
std::vector<std::uint32_t> agglomerate(const std::vector<Fingerprint>& entities,
                                       const ClusterOptions& options) {
  const std::size_t n = entities.size();
  std::vector<std::uint32_t> assignment(n, 0);
  if (n == 0) return assignment;

  std::vector<double> dist(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = distance(entities[i], entities[j], options);
      dist[i * n + j] = d;
      dist[j * n + i] = d;
    }
  }

  std::vector<double> weight(n, 1.0);
  std::vector<char> active(n, 1);
  DisjointSet clusters(n);
  std::vector<std::size_t> chain;
  std::size_t remaining = n;
  while (remaining > 1) {
    if (chain.empty()) {
      for (std::size_t i = 0; i < n; ++i) {
        if (active[i]) {
          chain.push_back(i);
          break;
        }
      }
    }
    for (;;) {
      const std::size_t a = chain.back();
      std::size_t best = kNoEntity;
      double best_distance = std::numeric_limits<double>::infinity();
      for (std::size_t b = 0; b < n; ++b) {
        if (!active[b] || b == a) continue;
        const double d = dist[a * n + b];
        if (d < best_distance) {
          best_distance = d;
          best = b;
        }
      }
      if (chain.size() >= 2 && best == chain[chain.size() - 2]) {
        const std::size_t i = std::min(a, best);
        const std::size_t j = std::max(a, best);
        if (best_distance <= options.merge_threshold) clusters.unite(i, j);
        for (std::size_t k = 0; k < n; ++k) {
          if (!active[k] || k == i || k == j) continue;
          const double merged = (weight[i] * dist[k * n + i] + weight[j] * dist[k * n + j]) /
                                (weight[i] + weight[j]);
          dist[k * n + i] = merged;
          dist[i * n + k] = merged;
        }
        weight[i] += weight[j];
        active[j] = 0;
        --remaining;
        chain.pop_back();
        chain.pop_back();
        break;
      }
      chain.push_back(best);
    }
  }

  // Canonical ids: first appearance in entity (ascending-src) order.
  std::unordered_map<std::size_t, std::uint32_t> id_of_root;
  std::uint32_t next_id = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = clusters.find(i);
    const auto [it, inserted] = id_of_root.try_emplace(root, next_id);
    if (inserted) ++next_id;
    assignment[i] = it->second;
  }
  return assignment;
}

double adjusted_rand_index(const std::vector<std::uint32_t>& assignment,
                           const std::vector<capture::ActorId>& truth) {
  const std::size_t n = assignment.size();
  if (n == 0) return 1.0;
  std::map<std::pair<std::uint32_t, capture::ActorId>, std::uint64_t> contingency;
  std::map<std::uint32_t, std::uint64_t> row_sums;
  std::map<capture::ActorId, std::uint64_t> col_sums;
  for (std::size_t i = 0; i < n; ++i) {
    ++contingency[{assignment[i], truth[i]}];
    ++row_sums[assignment[i]];
    ++col_sums[truth[i]];
  }
  const auto choose2 = [](std::uint64_t x) {
    return 0.5 * static_cast<double>(x) * static_cast<double>(x - 1);
  };
  double index = 0.0;
  for (const auto& [key, count] : contingency) index += choose2(count);
  double rows = 0.0;
  for (const auto& [key, count] : row_sums) rows += choose2(count);
  double cols = 0.0;
  for (const auto& [key, count] : col_sums) cols += choose2(count);
  const double total = choose2(n);
  if (total == 0.0) return 1.0;
  const double expected = rows * cols / total;
  const double maximum = 0.5 * (rows + cols);
  if (maximum == expected) return 1.0;  // both partitions degenerate and equal
  return (index - expected) / (maximum - expected);
}

ClusterResult build_result(std::unordered_map<std::uint32_t, Accumulator>&& sources,
                           const ClusterOptions& options) {
  ClusterResult result;
  std::vector<std::uint32_t> keys;
  keys.reserve(sources.size());
  for (const auto& [src, acc] : sources) {
    if (acc.records >= options.min_records) keys.push_back(src);
  }
  std::sort(keys.begin(), keys.end());
  if (options.max_entities > 0 && keys.size() > options.max_entities) {
    std::stable_sort(keys.begin(), keys.end(), [&sources](std::uint32_t a, std::uint32_t b) {
      const std::uint64_t ra = sources.at(a).records;
      const std::uint64_t rb = sources.at(b).records;
      return ra != rb ? ra > rb : a < b;
    });
    keys.resize(options.max_entities);
    std::sort(keys.begin(), keys.end());
  }

  std::vector<Fingerprint> entities;
  entities.reserve(keys.size());
  for (const std::uint32_t src : keys) {
    entities.push_back(finalize(src, std::move(sources.at(src))));
  }

  result.assignment = agglomerate(entities, options);
  result.sources.reserve(entities.size());
  result.truth.reserve(entities.size());
  for (const Fingerprint& fp : entities) {
    result.sources.push_back(fp.src);
    result.truth.push_back(fp.truth);
  }

  ClusterScores& scores = result.scores;
  scores.entities = entities.size();
  std::uint32_t max_cluster = 0;
  for (const std::uint32_t c : result.assignment) max_cluster = std::max(max_cluster, c + 1);
  scores.clusters = max_cluster;
  {
    std::vector<capture::ActorId> actors = result.truth;
    std::sort(actors.begin(), actors.end());
    actors.erase(std::unique(actors.begin(), actors.end()), actors.end());
    scores.truth_actors = actors.size();
  }
  if (!entities.empty()) {
    // Purity: every cluster votes its majority ground-truth actor.
    std::map<std::pair<std::uint32_t, capture::ActorId>, std::uint64_t> contingency;
    for (std::size_t i = 0; i < entities.size(); ++i) {
      ++contingency[{result.assignment[i], result.truth[i]}];
    }
    std::map<std::uint32_t, std::uint64_t> majority;
    for (const auto& [key, count] : contingency) {
      auto& best = majority[key.first];
      best = std::max(best, count);
    }
    std::uint64_t agreeing = 0;
    for (const auto& [cluster, count] : majority) agreeing += count;
    scores.purity = static_cast<double>(agreeing) / static_cast<double>(entities.size());
    scores.ari = adjusted_rand_index(result.assignment, result.truth);
  }
  {
    std::string bytes;
    bytes.reserve(entities.size() * 8);
    for (std::size_t i = 0; i < entities.size(); ++i) {
      const std::uint32_t values[2] = {result.sources[i], result.assignment[i]};
      bytes.append(reinterpret_cast<const char*>(values), sizeof(values));
    }
    scores.assignment_fnv = util::fnv1a64(bytes);
  }
  return result;
}

}  // namespace

ClusterResult cluster_attackers(const std::vector<const capture::SessionFrame*>& frames,
                                const ClusterOptions& options, const SegmentPager& pager) {
  std::unordered_map<std::uint32_t, Accumulator> sources;
  for_each_frame(frames, pager,
                 [&](const capture::SessionFrame& frame) { scan_frame(frame, options, sources); });
  return build_result(std::move(sources), options);
}

}  // namespace cw::analysis
