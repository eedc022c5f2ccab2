#include "net/ports.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace cw::net {
namespace {

TEST(Protocol, NamesRoundTrip) {
  for (std::size_t i = 0; i < kProtocolCount; ++i) {
    const Protocol p = static_cast<Protocol>(i);
    const auto back = protocol_from_name(protocol_name(p));
    ASSERT_TRUE(back.has_value()) << protocol_name(p);
    EXPECT_EQ(*back, p);
  }
}

TEST(Protocol, UnknownNameRejected) {
  EXPECT_FALSE(protocol_from_name("GOPHER").has_value());
  EXPECT_FALSE(protocol_from_name("").has_value());
  EXPECT_FALSE(protocol_from_name("HTTPX").has_value());
}

struct AssignmentCase {
  Port port;
  Protocol protocol;
};

void PrintTo(const AssignmentCase& c, std::ostream* os) {
  *os << c.port << " -> " << protocol_name(c.protocol);
}

class IanaAssignment : public ::testing::TestWithParam<AssignmentCase> {};

TEST_P(IanaAssignment, Matches) {
  EXPECT_EQ(iana_assignment(GetParam().port), GetParam().protocol);
}

INSTANTIATE_TEST_SUITE_P(
    KnownPorts, IanaAssignment,
    ::testing::Values(AssignmentCase{22, Protocol::kSsh}, AssignmentCase{2222, Protocol::kSsh},
                      AssignmentCase{23, Protocol::kTelnet},
                      AssignmentCase{2323, Protocol::kTelnet},
                      AssignmentCase{80, Protocol::kHttp}, AssignmentCase{8080, Protocol::kHttp},
                      AssignmentCase{7547, Protocol::kHttp}, AssignmentCase{443, Protocol::kTls},
                      AssignmentCase{445, Protocol::kSmb}, AssignmentCase{554, Protocol::kRtsp},
                      AssignmentCase{5060, Protocol::kSip}, AssignmentCase{123, Protocol::kNtp},
                      AssignmentCase{3389, Protocol::kRdp}, AssignmentCase{5555, Protocol::kAdb},
                      AssignmentCase{1911, Protocol::kFox},
                      AssignmentCase{6379, Protocol::kRedis},
                      AssignmentCase{3306, Protocol::kSql},
                      AssignmentCase{17128, Protocol::kUnknown},
                      AssignmentCase{9999, Protocol::kUnknown}),
    [](const auto& info) { return "port" + std::to_string(info.param.port); });

TEST(Ports, PortsAssignedToIsConsistent) {
  for (std::size_t i = 1; i < kProtocolCount; ++i) {
    const Protocol p = static_cast<Protocol>(i);
    for (Port port : ports_assigned_to(p)) EXPECT_EQ(iana_assignment(port), p);
  }
}

TEST(Ports, PopularPortsContainPaperSet) {
  const auto& ports = popular_ports();
  EXPECT_EQ(ports.size(), 10u);
  for (Port port : {23, 2323, 80, 8080, 21, 2222, 25, 7547, 22, 443}) {
    EXPECT_NE(std::find(ports.begin(), ports.end(), port), ports.end()) << port;
  }
}

TEST(Ports, GreyNoisePortsIncludeCowriePorts) {
  const auto& ports = greynoise_ports();
  EXPECT_GE(ports.size(), 7u);  // "at least seven popular ports"
  for (Port port : {22, 2222, 23, 2323}) {
    EXPECT_NE(std::find(ports.begin(), ports.end(), port), ports.end()) << port;
  }
}

TEST(Transport, Names) {
  EXPECT_EQ(transport_name(Transport::kTcp), "TCP");
  EXPECT_EQ(transport_name(Transport::kUdp), "UDP");
}

}  // namespace
}  // namespace cw::net
