#include "analysis/overlap.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace cw::analysis {
namespace {

double intersection_fraction(const IpSet& numerator_side, const IpSet& denominator) {
  if (denominator.empty()) return 0.0;
  std::size_t shared = 0;
  // Iterate over the smaller set.
  const IpSet& small = denominator.size() <= numerator_side.size() ? denominator : numerator_side;
  const IpSet& large = denominator.size() <= numerator_side.size() ? numerator_side : denominator;
  for (std::uint32_t ip : small) {
    if (large.contains(ip)) ++shared;
  }
  // `shared` is |A ∩ B| either way.
  return static_cast<double>(shared) / static_cast<double>(denominator.size());
}

// Const lookup into the aggregation maps: absent ports yield the empty set
// instead of silently inserting one (operator[] would).
const IpSet& port_set(const PortSets& sets, net::Port port) {
  static const IpSet kEmpty;
  const auto it = sets.find(port);
  return it != sets.end() ? it->second : kEmpty;
}

bool port_flag(const PortFlags& flags, net::Port port) {
  const auto it = flags.find(port);
  return it != flags.end() && it->second;
}

}  // namespace

std::vector<OverlapRow> scanner_rows(const std::vector<net::Port>& ports, const PortSets& cloud,
                                     const PortSets& edu, const PortSets& telescope) {
  std::vector<OverlapRow> rows;
  for (net::Port port : ports) {
    OverlapRow row;
    row.port = port;
    const IpSet& c = port_set(cloud, port);
    const IpSet& e = port_set(edu, port);
    const IpSet& t = port_set(telescope, port);
    row.cloud_ips = c.size();
    row.edu_ips = e.size();
    row.telescope_ips = t.size();
    if (!c.empty()) {
      row.tel_cloud_over_cloud = intersection_fraction(t, c);
      row.cloud_edu_over_cloud = intersection_fraction(e, c);
    }
    if (!e.empty()) row.tel_edu_over_edu = intersection_fraction(t, e);
    rows.push_back(row);
  }
  return rows;
}

std::vector<MaliciousOverlapRow> attacker_rows(
    const std::vector<net::Port>& ports, const PortSets& malicious_cloud,
    const PortSets& malicious_edu, const PortSets& telescope,
    const PortFlags& cloud_measurable, const PortFlags& edu_measurable) {
  std::vector<MaliciousOverlapRow> rows;
  for (net::Port port : ports) {
    MaliciousOverlapRow row;
    row.port = port;
    const IpSet& mc = port_set(malicious_cloud, port);
    const IpSet& me = port_set(malicious_edu, port);
    const IpSet& t = port_set(telescope, port);
    row.malicious_cloud_ips = mc.size();
    row.malicious_edu_ips = me.size();
    if (port_flag(cloud_measurable, port) && !mc.empty()) {
      row.tel_over_malicious_cloud = intersection_fraction(t, mc);
    }
    if (port_flag(edu_measurable, port) && !me.empty()) {
      row.tel_over_malicious_edu = intersection_fraction(t, me);
    }
    rows.push_back(row);
  }
  return rows;
}

namespace {

// One frame's per-port posting lists folded into the (port, network type)
// source sets; union into shared sets is exactly the scan of the
// concatenated corpus.
void accumulate_scanner(const capture::SessionFrame& frame, const std::vector<net::Port>& ports,
                        const std::unordered_set<capture::ActorId>& excluded, PortSets& cloud,
                        PortSets& edu, PortSets& telescope) {
  for (net::Port port : ports) {
    frame.for_port(port).for_each([&](std::uint32_t index) {
      if (excluded.contains(frame.actor(index))) return;
      const std::uint32_t src = frame.src(index);
      switch (frame.network_type(index)) {
        case topology::NetworkType::kCloud: cloud[port].insert(src); break;
        case topology::NetworkType::kEducation: edu[port].insert(src); break;
        case topology::NetworkType::kTelescope: telescope[port].insert(src); break;
      }
    });
  }
}

}  // namespace

std::vector<OverlapRow> scanner_overlap(const std::vector<const capture::SessionFrame*>& frames,
                                        const std::vector<net::Port>& ports,
                                        const std::vector<capture::ActorId>& exclude_actors,
                                        const SegmentPager& pager) {
  const std::unordered_set<capture::ActorId> excluded(exclude_actors.begin(),
                                                      exclude_actors.end());
  PortSets cloud;
  PortSets edu;
  PortSets telescope;
  for_each_frame(frames, pager, [&](const capture::SessionFrame& frame) {
    accumulate_scanner(frame, ports, excluded, cloud, edu, telescope);
  });
  return scanner_rows(ports, cloud, edu, telescope);
}

namespace {

void accumulate_attacker(const capture::SessionFrame& frame, const std::vector<net::Port>& ports,
                         const std::unordered_set<capture::ActorId>& excluded,
                         PortSets& malicious_cloud, PortSets& malicious_edu, PortSets& telescope,
                         PortFlags& cloud_measurable, PortFlags& edu_measurable) {
  if (!frame.has_verdicts()) {
    throw std::logic_error("attacker_overlap: frame built without a verdict column");
  }
  for (net::Port port : ports) {
    frame.for_port(port).for_each([&](std::uint32_t index) {
      if (excluded.contains(frame.actor(index))) return;
      const std::uint32_t src = frame.src(index);
      const topology::NetworkType type = frame.network_type(index);
      if (type == topology::NetworkType::kTelescope) {
        telescope[port].insert(src);
        return;
      }
      const capture::SessionFrame::Verdict verdict = frame.verdict(index);
      const bool observable = verdict != capture::SessionFrame::Verdict::kUnobservable;
      const bool malicious = verdict == capture::SessionFrame::Verdict::kMalicious;
      if (type == topology::NetworkType::kCloud) {
        cloud_measurable[port] = cloud_measurable[port] || observable;
        if (malicious) malicious_cloud[port].insert(src);
      } else {
        edu_measurable[port] = edu_measurable[port] || observable;
        if (malicious) malicious_edu[port].insert(src);
      }
    });
  }
}

}  // namespace

std::vector<MaliciousOverlapRow> attacker_overlap(
    const std::vector<const capture::SessionFrame*>& frames, const std::vector<net::Port>& ports,
    const std::vector<capture::ActorId>& exclude_actors, const SegmentPager& pager) {
  const std::unordered_set<capture::ActorId> excluded(exclude_actors.begin(),
                                                      exclude_actors.end());
  PortSets malicious_cloud;
  PortSets malicious_edu;
  PortSets telescope;
  PortFlags cloud_measurable;
  PortFlags edu_measurable;
  for_each_frame(frames, pager, [&](const capture::SessionFrame& frame) {
    accumulate_attacker(frame, ports, excluded, malicious_cloud, malicious_edu, telescope,
                        cloud_measurable, edu_measurable);
  });
  return attacker_rows(ports, malicious_cloud, malicious_edu, telescope, cloud_measurable,
                       edu_measurable);
}

}  // namespace cw::analysis
