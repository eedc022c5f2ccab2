#include "analysis/structure.h"

#include <algorithm>
#include <stdexcept>

namespace cw::analysis {

std::vector<double> telescope_address_counts(const capture::SessionFrame& frame, net::Port port) {
  const topology::VantagePoint* telescope = nullptr;
  for (const topology::VantagePoint& vp : frame.deployment().vantage_points()) {
    if (vp.type == topology::NetworkType::kTelescope) {
      telescope = &vp;
      break;
    }
  }
  if (telescope == nullptr || telescope->addresses.empty()) return {};

  std::vector<std::pair<std::uint32_t, std::uint32_t>> hits;  // (neighbor, src)
  const util::PostingView indices = frame.for_vantage_port(telescope->id, port);
  hits.reserve(indices.size());
  indices.for_each([&](std::uint32_t index) {
    hits.emplace_back(frame.neighbor(index), frame.src(index));
  });
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());

  std::vector<double> counts(telescope->addresses.size(), 0.0);
  for (const auto& [neighbor, src] : hits) {
    if (neighbor < counts.size()) counts[neighbor] += 1.0;
  }
  return counts;
}

StructureStats structure_stats(const std::vector<double>& counts,
                               const topology::VantagePoint& telescope) {
  StructureStats stats;
  double sum_any = 0.0, sum_last = 0.0, sum_first = 0.0, sum_plain = 0.0;
  std::size_t n_any = 0, n_last = 0, n_first = 0, n_plain = 0;
  const std::size_t limit = std::min(counts.size(), telescope.addresses.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const net::IPv4Addr addr = telescope.addresses[i];
    if (addr.ends_in_255()) {
      sum_last += counts[i];
      ++n_last;
    } else if (addr.has_255_octet()) {
      sum_any += counts[i];
      ++n_any;
    } else if (addr.is_first_of_slash16()) {
      sum_first += counts[i];
      ++n_first;
    } else {
      sum_plain += counts[i];
      ++n_plain;
    }
  }
  if (n_any > 0) stats.mean_any_255 = sum_any / static_cast<double>(n_any);
  if (n_last > 0) stats.mean_last_255 = sum_last / static_cast<double>(n_last);
  if (n_first > 0) stats.mean_first_16 = sum_first / static_cast<double>(n_first);
  if (n_plain > 0) stats.mean_plain = sum_plain / static_cast<double>(n_plain);
  return stats;
}

TelescopeCounter::TelescopeCounter(const topology::VantagePoint& telescope,
                                   std::vector<net::Port> ports)
    : base_(telescope.addresses.empty() ? net::IPv4Addr() : telescope.addresses.front()),
      size_(telescope.addresses.size()),
      ports_(std::move(ports)) {
  counts_.assign(ports_.size(), std::vector<double>(size_, 0.0));
}

bool TelescopeCounter::consume(const capture::ScanEvent& event, const topology::Target& target) {
  (void)target;
  const std::uint32_t offset = event.dst.value() - base_.value();
  if (offset >= size_) return true;  // consumed but out of tracked range
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i] == event.dst_port) {
      counts_[i][offset] += 1.0;
      break;
    }
  }
  return true;
}

const std::vector<double>& TelescopeCounter::counts(net::Port port) const {
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i] == port) return counts_[i];
  }
  throw std::out_of_range("TelescopeCounter: untracked port");
}

}  // namespace cw::analysis
