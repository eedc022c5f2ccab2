#include "analysis/protocols.h"

#include <algorithm>
#include <unordered_map>

namespace cw::analysis {

std::vector<ProtocolBreakdownRow> protocol_breakdown(
    const std::vector<const capture::SessionFrame*>& frames, const ProtocolOptions& options,
    const SegmentPager& pager) {
  ScannerMap scanners;
  for_each_frame(frames, pager, [&](const capture::SessionFrame& frame) {
    for (net::Port port : options.ports) {
      frame.for_port(port).for_each([&](std::uint32_t index) {
        if (!frame.has_payload(index)) return;
        if (frame.collection_of(frame.vantage(index)) != topology::CollectionMethod::kHoneytrap) {
          return;
        }
        const auto key = std::make_pair(port, frame.src(index));
        if (scanners.contains(key)) return;  // first payload wins (frame order, ascending lists)
        ScannerInfo info;
        info.protocol = frame.has_protocols()
                            ? frame.protocol(index)
                            : proto::Fingerprinter::identify(
                                  frame.store().payload(frame.record(index).payload_id));
        info.actor = frame.actor(index);
        scanners.emplace(key, info);
      });
    }
  });
  return breakdown_rows(scanners, options);
}

std::vector<ProtocolBreakdownRow> breakdown_rows(const ScannerMap& scanners,
                                                 const ProtocolOptions& options) {
  std::vector<ProtocolBreakdownRow> rows;
  for (net::Port port : options.ports) {
    ProtocolBreakdownRow row;
    row.port = port;
    const net::Protocol assigned = net::iana_assignment(port);

    std::size_t expected_benign = 0;
    std::size_t expected_malicious = 0;
    std::size_t unexpected_benign = 0;
    std::size_t unexpected_malicious = 0;
    std::unordered_map<net::Protocol, std::size_t> unexpected_counts;

    for (const auto& [key, info] : scanners) {
      if (key.first != port) continue;
      ++row.scanners_total;
      const bool expected = info.protocol == assigned;
      if (expected) {
        ++row.scanners_expected;
      } else {
        ++unexpected_counts[info.protocol];
      }
      if (options.oracle != nullptr) {
        switch (options.oracle->label(info.actor)) {
          case Reputation::kBenign: (expected ? expected_benign : unexpected_benign)++; break;
          case Reputation::kMalicious:
            (expected ? expected_malicious : unexpected_malicious)++;
            break;
          case Reputation::kUnknown: break;
        }
      }
    }
    if (row.scanners_total == 0) {
      rows.push_back(row);
      continue;
    }

    const double total = static_cast<double>(row.scanners_total);
    const double unexpected_total = total - static_cast<double>(row.scanners_expected);
    row.pct_expected = 100.0 * static_cast<double>(row.scanners_expected) / total;
    row.pct_unexpected = 100.0 - row.pct_expected;
    if (row.scanners_expected > 0) {
      row.expected_benign_pct =
          100.0 * static_cast<double>(expected_benign) / static_cast<double>(row.scanners_expected);
      row.expected_malicious_pct = 100.0 * static_cast<double>(expected_malicious) /
                                   static_cast<double>(row.scanners_expected);
    }
    if (unexpected_total > 0) {
      row.unexpected_benign_pct = 100.0 * static_cast<double>(unexpected_benign) / unexpected_total;
      row.unexpected_malicious_pct =
          100.0 * static_cast<double>(unexpected_malicious) / unexpected_total;
    }
    for (const auto& [protocol, count] : unexpected_counts) {
      ProtocolShare share;
      share.protocol = protocol;
      share.scanners = count;
      share.pct_of_port = 100.0 * static_cast<double>(count) / total;
      row.unexpected_shares.push_back(share);
    }
    std::sort(row.unexpected_shares.begin(), row.unexpected_shares.end(),
              [](const ProtocolShare& a, const ProtocolShare& b) {
                if (a.scanners != b.scanners) return a.scanners > b.scanners;
                return static_cast<int>(a.protocol) < static_cast<int>(b.protocol);
              });
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace cw::analysis
