// Section 4.2 / Figure 1: address-structure preferences inside the
// telescope. Produces per-address unique-scanner series (with the paper's
// 512-address rolling average) and summary avoidance/preference ratios for
// the structural classes (any-255 octet, .255 ending, first-of-/16).
#pragma once

#include <vector>

#include "capture/collector.h"
#include "capture/frame.h"
#include "net/ports.h"
#include "stats/descriptive.h"
#include "topology/deployment.h"

namespace cw::analysis {

// Unique scanning sources per telescope address on one port, indexed by the
// address's position in the telescope vantage point (contiguous order). Reads
// the telescope's per-(vantage, port) posting list.
std::vector<double> telescope_address_counts(const capture::SessionFrame& frame, net::Port port);

struct StructureStats {
  double mean_any_255 = 0.0;   // addresses with a 255 octet anywhere
  double mean_last_255 = 0.0;  // addresses ending in .255
  double mean_first_16 = 0.0;  // first address of a /16
  double mean_plain = 0.0;     // everything else

  // Ratios the paper quotes: how much less likely a structural class is to
  // be scanned than a plain address (>1 means avoidance).
  [[nodiscard]] double avoidance_any_255() const {
    return mean_any_255 > 0.0 ? mean_plain / mean_any_255 : 0.0;
  }
  [[nodiscard]] double avoidance_last_255() const {
    return mean_last_255 > 0.0 ? mean_plain / mean_last_255 : 0.0;
  }
  [[nodiscard]] double preference_first_16() const {
    return mean_plain > 0.0 ? mean_first_16 / mean_plain : 0.0;
  }
};

StructureStats structure_stats(const std::vector<double>& counts,
                               const topology::VantagePoint& telescope);

// Streaming per-address counter for full-scale telescope runs: installed as
// the collector's telescope sink so events are tallied without being
// stored. Counts connection attempts per (tracked port, address offset);
// since a sweeping scanner touches an address once per wave, the counts
// track unique-scanner curves closely.
class TelescopeCounter {
 public:
  TelescopeCounter(const topology::VantagePoint& telescope, std::vector<net::Port> ports);

  // Collector sink signature; returns true when the event was consumed.
  bool consume(const capture::ScanEvent& event, const topology::Target& target);

  [[nodiscard]] const std::vector<double>& counts(net::Port port) const;
  [[nodiscard]] std::size_t addresses() const noexcept { return size_; }

 private:
  net::IPv4Addr base_;
  std::size_t size_;
  std::vector<net::Port> ports_;
  std::vector<std::vector<double>> counts_;  // parallel to ports_
};

}  // namespace cw::analysis
