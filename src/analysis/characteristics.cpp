#include "analysis/characteristics.h"

#include "proto/fingerprint.h"

namespace cw::analysis {

std::string_view scope_name(TrafficScope scope) noexcept {
  switch (scope) {
    case TrafficScope::kSsh22: return "SSH/22";
    case TrafficScope::kTelnet23: return "Telnet/23";
    case TrafficScope::kHttp80: return "HTTP/80";
    case TrafficScope::kHttpAllPorts: return "HTTP/All Ports";
    case TrafficScope::kAnyAll: return "Any/All";
  }
  return "?";
}

std::string_view characteristic_name(Characteristic c) noexcept {
  switch (c) {
    case Characteristic::kTopAs: return "Top 3 AS";
    case Characteristic::kFracMalicious: return "Fraction Malicious";
    case Characteristic::kTopUsername: return "Top 3 Username";
    case Characteristic::kTopPassword: return "Top 3 Password";
    case Characteristic::kTopPayload: return "Top 3 Payloads";
  }
  return "?";
}

bool in_scope(const capture::SessionFrame& frame, std::uint32_t index, TrafficScope scope) {
  switch (scope) {
    case TrafficScope::kSsh22: return frame.port(index) == 22;
    case TrafficScope::kTelnet23: return frame.port(index) == 23;
    case TrafficScope::kHttp80: return frame.port(index) == 80;
    case TrafficScope::kHttpAllPorts: {
      if (!frame.has_payload(index)) return false;
      if (frame.has_protocols()) return frame.protocol(index) == net::Protocol::kHttp;
      const std::string& payload = frame.store().payload(frame.record(index).payload_id);
      return proto::Fingerprinter::identify(payload) == net::Protocol::kHttp;
    }
    case TrafficScope::kAnyAll: return true;
  }
  return false;
}

// Port-named scopes resolve to one per-(vantage, port) posting list, which
// holds ascending record indices.
std::optional<net::Port> scope_port(TrafficScope scope) noexcept {
  switch (scope) {
    case TrafficScope::kSsh22: return net::Port{22};
    case TrafficScope::kTelnet23: return net::Port{23};
    case TrafficScope::kHttp80: return net::Port{80};
    default: return std::nullopt;
  }
}

}  // namespace cw::analysis
