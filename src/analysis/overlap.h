// Tables 8 and 9: do the scanners (and attackers) seen at honeypots also
// appear in the telescope? Computes per-port source-IP set overlaps across
// network types.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "capture/frame.h"
#include "net/ports.h"
#include "topology/deployment.h"

namespace cw::analysis {

// Table 8 row: overlap fractions for every scanner IP seen on `port`.
struct OverlapRow {
  net::Port port = 0;
  std::size_t cloud_ips = 0;
  std::size_t edu_ips = 0;
  std::size_t telescope_ips = 0;
  // |Tel ∩ Cloud| / |Cloud| etc.; nullopt when the denominator is empty.
  std::optional<double> tel_cloud_over_cloud;
  std::optional<double> tel_edu_over_edu;
  std::optional<double> cloud_edu_over_cloud;
};

// Paging hook for segmented corpora whose frames may live out of core:
// invoked with (segment index, true) before a segment's frame is scanned and
// (segment index, false) after, so the caller can map a spilled segment in
// and release it again (see stream::Segment). An empty function means every
// frame is resident.
using SegmentPager = std::function<void(std::size_t, bool)>;

// Calls `visit(frame)` on each frame in order, paging it in around the call.
template <typename Visit>
void for_each_frame(const std::vector<const capture::SessionFrame*>& frames,
                    const SegmentPager& pager, Visit&& visit) {
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (pager) pager(i, true);
    visit(*frames[i]);
    if (pager) pager(i, false);
  }
}

// Scans the frames in order (a batch corpus is the one-frame list; a spilled
// one is its per-epoch segments), walking only the per-port posting lists.
// Overlaps are set intersections over per-port source-IP sets, and set union
// commutes with the segment split, so the rows do not depend on how the
// corpus is cut. `exclude_actors` drops infrastructure scanners (the
// search-engine crawlers) from the sets: at real scale their handful of
// source IPs is negligible, but in a scaled-down population they would
// dominate every denominator.
std::vector<OverlapRow> scanner_overlap(const std::vector<const capture::SessionFrame*>& frames,
                                        const std::vector<net::Port>& ports,
                                        const std::vector<capture::ActorId>& exclude_actors = {},
                                        const SegmentPager& pager = {});

// Table 9 row: same numerator/denominator construction but restricted to
// *attacker* IPs — sources whose cloud/EDU traffic was measured malicious.
// Cells are nullopt where the collection method cannot measure intent
// (e.g. credentials on Honeytrap EDU honeypots).
struct MaliciousOverlapRow {
  net::Port port = 0;
  std::size_t malicious_cloud_ips = 0;
  std::size_t malicious_edu_ips = 0;
  std::optional<double> tel_over_malicious_cloud;
  std::optional<double> tel_over_malicious_edu;
};

// Same scan as scanner_overlap, reading each frame's verdict column. Every
// frame must carry one (has_verdicts()); throws std::logic_error otherwise.
std::vector<MaliciousOverlapRow> attacker_overlap(
    const std::vector<const capture::SessionFrame*>& frames, const std::vector<net::Port>& ports,
    const std::vector<capture::ActorId>& exclude_actors = {}, const SegmentPager& pager = {});

// The row construction shared by the scans above and the test suite's
// row-scan oracle: per-port source-IP sets in, table rows out.
using IpSet = std::unordered_set<std::uint32_t>;
using PortSets = std::unordered_map<net::Port, IpSet>;
using PortFlags = std::unordered_map<net::Port, bool>;

std::vector<OverlapRow> scanner_rows(const std::vector<net::Port>& ports, const PortSets& cloud,
                                     const PortSets& edu, const PortSets& telescope);

// `*_measurable` records whether any cloud/EDU vantage could measure intent
// on the port at all; if not, the table cell is an "x".
std::vector<MaliciousOverlapRow> attacker_rows(const std::vector<net::Port>& ports,
                                               const PortSets& malicious_cloud,
                                               const PortSets& malicious_edu,
                                               const PortSets& telescope,
                                               const PortFlags& cloud_measurable,
                                               const PortFlags& edu_measurable);

}  // namespace cw::analysis
