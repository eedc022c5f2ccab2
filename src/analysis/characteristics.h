// Traffic-characteristic vocabulary (Section 3.3): the "who" (scanning
// ASes), "what" (top usernames, passwords, payloads) and "why" (fraction of
// malicious traffic) of a slice of captured traffic, and the protocol scopes
// a slice selects on. The slices themselves live in CharacteristicTableCache.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "capture/frame.h"
#include "net/ports.h"

namespace cw::analysis {

// The protocol scopes the paper reports on. HTTP/AllPorts selects payloads
// that fingerprint as HTTP regardless of destination port (footnote 3);
// the port-named scopes select by destination port.
enum class TrafficScope : std::uint8_t {
  kSsh22 = 0,
  kTelnet23,
  kHttp80,
  kHttpAllPorts,
  kAnyAll,
};

std::string_view scope_name(TrafficScope scope) noexcept;

// The traffic characteristics the paper compares (Section 3.3). Lives here
// rather than comparison.h so the table cache can key on it without pulling
// in the comparison driver.
enum class Characteristic : std::uint8_t {
  kTopAs = 0,
  kFracMalicious,
  kTopUsername,
  kTopPassword,
  kTopPayload,
};

std::string_view characteristic_name(Characteristic c) noexcept;

// True if frame record `index` falls inside the scope. HTTP/AllPorts reads
// the precomputed protocol column instead of re-fingerprinting the payload.
bool in_scope(const capture::SessionFrame& frame, std::uint32_t index, TrafficScope scope);

// The destination port a port-named scope selects on, or nullopt for the
// scopes that need payload inspection (HTTP/AllPorts) or select everything
// (Any/All). Port-named scopes resolve to frame posting lists directly.
std::optional<net::Port> scope_port(TrafficScope scope) noexcept;

}  // namespace cw::analysis
