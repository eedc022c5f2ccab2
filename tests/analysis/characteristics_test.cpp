#include "analysis/characteristics.h"

#include <gtest/gtest.h>

#include <memory>

#include "analysis/table_cache.h"

#include "ids/ruleset.h"
#include "proto/exploits.h"
#include "proto/payloads.h"
#include "support/row_scan.h"

namespace cw::analysis {
namespace {

class CharacteristicsTest : public ::testing::Test {
 protected:
  CharacteristicsTest() : engine_(ids::curated_engine()), classifier_(engine_) {
    topology::VantagePoint vp;
    vp.name = "gn";
    vp.provider = topology::Provider::kAws;
    vp.type = topology::NetworkType::kCloud;
    vp.collection = topology::CollectionMethod::kGreyNoise;
    vp.region = net::make_region("SG");
    vp.addresses = {net::IPv4Addr(3, 0, 0, 1), net::IPv4Addr(3, 0, 0, 2)};
    vp.open_ports = {22, 80, 8080};
    deployment_.add(std::move(vp));
  }

  void add(net::Port port, std::uint16_t neighbor, net::Asn asn, std::string payload,
           std::optional<proto::Credential> credential = std::nullopt) {
    capture::SessionRecord record;
    record.port = port;
    record.vantage = 0;
    record.neighbor = neighbor;
    record.src_as = asn;
    record.src = 0xb0000000u + next_src_++;
    store_.append(record, payload, credential);
  }

  // The shipped slices: a table cache over a frame of the records added so
  // far (built on first use; add nothing after).
  const CharacteristicTableCache& cache() {
    if (cache_ == nullptr) {
      frame_ = std::make_unique<capture::SessionFrame>(
          rowscan::frame_of(store_, deployment_, &classifier_));
      cache_ = std::make_unique<CharacteristicTableCache>(*frame_, classifier_);
    }
    return *cache_;
  }

  topology::Deployment deployment_;
  capture::EventStore store_;
  std::uint32_t next_src_ = 0;
  ids::RuleEngine engine_;
  MaliciousClassifier classifier_;
  std::unique_ptr<capture::SessionFrame> frame_;
  std::unique_ptr<CharacteristicTableCache> cache_;
};

TEST_F(CharacteristicsTest, ScopeSelection) {
  add(22, 0, 1, proto::ssh_client_banner());
  add(80, 0, 1, proto::http_benign_request(0));
  add(8080, 0, 1, proto::http_benign_request(0));
  add(8080, 0, 1, proto::tls_client_hello());  // TLS on 8080: not HTTP/All

  EXPECT_EQ(cache().record_count(0, TrafficScope::kSsh22), 1u);
  EXPECT_EQ(cache().record_count(0, TrafficScope::kHttp80), 1u);
  // HTTP/All catches HTTP payloads on 80 and 8080, not the TLS one.
  EXPECT_EQ(cache().record_count(0, TrafficScope::kHttpAllPorts), 2u);
  EXPECT_EQ(cache().record_count(0, TrafficScope::kAnyAll), 4u);
}

TEST_F(CharacteristicsTest, SliceNeighborSeparates) {
  add(22, 0, 1, proto::ssh_client_banner());
  add(22, 1, 2, proto::ssh_client_banner());
  add(22, 1, 3, proto::ssh_client_banner());
  EXPECT_EQ(cache().record_count(0, TrafficScope::kSsh22, 0), 1u);
  EXPECT_EQ(cache().record_count(0, TrafficScope::kSsh22, 1), 2u);
}

TEST_F(CharacteristicsTest, AsTableCountsTraffic) {
  add(22, 0, 4134, proto::ssh_client_banner());
  add(22, 0, 4134, proto::ssh_client_banner());
  add(22, 0, 174, proto::ssh_client_banner());
  const auto& table = cache().table(0, TrafficScope::kSsh22, Characteristic::kTopAs);
  EXPECT_EQ(table.count("AS4134"), 2u);
  EXPECT_EQ(table.count("AS174"), 1u);
  EXPECT_EQ(table.top_k(1).front(), "AS4134");
}

TEST_F(CharacteristicsTest, CredentialTables) {
  add(22, 0, 1, proto::ssh_client_banner(), proto::Credential{"root", "123456"});
  add(22, 0, 1, proto::ssh_client_banner(), proto::Credential{"root", "admin"});
  add(22, 0, 1, proto::ssh_client_banner(), proto::Credential{"admin", "admin"});
  add(22, 0, 1, proto::ssh_client_banner());  // no credential: skipped
  const auto& usernames = cache().table(0, TrafficScope::kSsh22, Characteristic::kTopUsername);
  const auto& passwords = cache().table(0, TrafficScope::kSsh22, Characteristic::kTopPassword);
  EXPECT_EQ(usernames.count("root"), 2u);
  EXPECT_EQ(usernames.count("admin"), 1u);
  EXPECT_EQ(passwords.count("admin"), 2u);
  EXPECT_EQ(usernames.total(), 3u);
}

TEST_F(CharacteristicsTest, PayloadTableNormalizesHttp) {
  add(80, 0, 1, "GET /x HTTP/1.1\r\nHost: a\r\n\r\n");
  add(80, 0, 1, "GET /x HTTP/1.1\r\nHost: b\r\n\r\n");  // same after normalization
  const auto& table = cache().table(0, TrafficScope::kHttp80, Characteristic::kTopPayload);
  EXPECT_EQ(table.distinct(), 1u);
  EXPECT_EQ(table.total(), 2u);
}

TEST_F(CharacteristicsTest, MaliciousCountsViaClassifier) {
  add(80, 0, 1, proto::exploit_payload(proto::ExploitKind::kLog4Shell, 0));
  add(80, 0, 1, proto::http_benign_request(0));
  const auto [malicious, benign] = cache().malicious(0, TrafficScope::kHttp80);
  EXPECT_EQ(malicious, 1u);
  EXPECT_EQ(benign, 1u);
}

TEST(ScopeName, AllScopes) {
  EXPECT_EQ(scope_name(TrafficScope::kSsh22), "SSH/22");
  EXPECT_EQ(scope_name(TrafficScope::kTelnet23), "Telnet/23");
  EXPECT_EQ(scope_name(TrafficScope::kHttp80), "HTTP/80");
  EXPECT_EQ(scope_name(TrafficScope::kHttpAllPorts), "HTTP/All Ports");
  EXPECT_EQ(scope_name(TrafficScope::kAnyAll), "Any/All");
}

}  // namespace
}  // namespace cw::analysis
