// Section 6 / Tables 11 and 17: what protocols do scanners actually speak
// on HTTP-assigned ports? Uses the LZR fingerprinter on first payloads
// captured by the Honeytrap networks (GreyNoise honeypots only collect
// assigned handshakes, so they are excluded — exactly the paper's
// methodology), and the reputation oracle for the benign/malicious
// breakdown.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "analysis/oracle.h"
#include "capture/frame.h"
#include "net/ports.h"
#include "proto/fingerprint.h"
#include "topology/deployment.h"

namespace cw::analysis {

struct ProtocolShare {
  net::Protocol protocol = net::Protocol::kUnknown;
  std::size_t scanners = 0;
  double pct_of_port = 0.0;
};

struct ProtocolBreakdownRow {
  net::Port port = 0;
  std::size_t scanners_total = 0;      // unique sources that sent a payload
  std::size_t scanners_expected = 0;   // spoke the IANA-assigned protocol
  double pct_expected = 0.0;
  double pct_unexpected = 0.0;
  // Reputation breakdown (percent of the row's scanners; the remainder is
  // unknown to the oracle).
  double expected_benign_pct = 0.0;
  double expected_malicious_pct = 0.0;
  double unexpected_benign_pct = 0.0;
  double unexpected_malicious_pct = 0.0;
  std::vector<ProtocolShare> unexpected_shares;  // sorted by share, desc
};

struct ProtocolOptions {
  std::vector<net::Port> ports = {80, 8080};
  // When null, the benign/malicious columns are left at zero (the 2022
  // repetition, Table 17, lacked GreyNoise API data).
  const ReputationOracle* oracle = nullptr;
};

// Walks the per-port posting lists and reads the protocol column
// (fingerprinted once per distinct payload at frame build).
std::vector<ProtocolBreakdownRow> protocol_breakdown(const capture::SessionFrame& frame,
                                                     const ProtocolOptions& options);

// The row construction shared with the test suite's row-scan oracle. Per
// (port, source): the fingerprint of the first payload the source sent, and
// the actor behind it (for the reputation lookup).
struct ScannerInfo {
  net::Protocol protocol = net::Protocol::kUnknown;
  capture::ActorId actor = 0;
};
using ScannerMap = std::map<std::pair<net::Port, std::uint32_t>, ScannerInfo>;

std::vector<ProtocolBreakdownRow> breakdown_rows(const ScannerMap& scanners,
                                                 const ProtocolOptions& options);

}  // namespace cw::analysis
