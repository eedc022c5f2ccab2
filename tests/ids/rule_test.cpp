#include "ids/rule.h"

#include <gtest/gtest.h>

#include "support/param_name.h"

namespace cw::ids {
namespace {

TEST(ParseRule, MinimalValidRule) {
  const auto rule = parse_rule(
      R"(alert tcp any any -> any 80 (msg:"test"; content:"abc"; classtype:misc-activity; sid:1;))");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->sid, 1u);
  EXPECT_EQ(rule->msg, "test");
  EXPECT_EQ(rule->class_type, ClassType::kMiscActivity);
  ASSERT_EQ(rule->contents.size(), 1u);
  EXPECT_EQ(rule->contents[0].needle, "abc");
  EXPECT_EQ(rule->dst_ports, std::vector<net::Port>{80});
}

TEST(ParseRule, AnyPortAndPortList) {
  const auto any = parse_rule(
      R"(alert tcp any any -> any any (msg:"m"; content:"x"; sid:2;))");
  ASSERT_TRUE(any.has_value());
  EXPECT_TRUE(any->dst_ports.empty());
  EXPECT_TRUE(any->applies_to_port(1234));

  const auto list = parse_rule(
      R"(alert tcp any any -> any [80,8080] (msg:"m"; content:"x"; sid:3;))");
  ASSERT_TRUE(list.has_value());
  EXPECT_TRUE(list->applies_to_port(80));
  EXPECT_TRUE(list->applies_to_port(8080));
  EXPECT_FALSE(list->applies_to_port(443));
}

TEST(ParseRule, HexContent) {
  const auto rule = parse_rule(
      R"(alert tcp any any -> any any (msg:"hex"; content:"|ff 53 4d 42|"; sid:4;))");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->contents[0].needle, std::string("\xff" "SMB", 4));
}

TEST(ParseRule, MixedTextAndHex) {
  const auto rule = parse_rule(
      R"(alert tcp any any -> any any (msg:"mix"; content:"AB|00|CD"; sid:5;))");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->contents[0].needle, std::string("AB\x00" "CD", 5));
}

TEST(ParseRule, NocaseAndBuffers) {
  const auto rule = parse_rule(
      R"(alert tcp any any -> any any (msg:"b"; content:"POST"; http_method; content:"/x"; http_uri; nocase; sid:6;))");
  ASSERT_TRUE(rule.has_value());
  ASSERT_EQ(rule->contents.size(), 2u);
  EXPECT_EQ(rule->contents[0].buffer, MatchBuffer::kHttpMethod);
  EXPECT_FALSE(rule->contents[0].nocase);
  EXPECT_EQ(rule->contents[1].buffer, MatchBuffer::kHttpUri);
  EXPECT_TRUE(rule->contents[1].nocase);
}

TEST(ParseRule, NegatedContent) {
  const auto rule = parse_rule(
      R"(alert tcp any any -> any any (msg:"n"; content:"good"; content:!"bad"; sid:7;))");
  ASSERT_TRUE(rule.has_value());
  EXPECT_FALSE(rule->contents[0].negated);
  EXPECT_TRUE(rule->contents[1].negated);
}

TEST(ParseRule, SemicolonInsideQuotedContent) {
  const auto rule = parse_rule(
      R"(alert tcp any any -> any any (msg:"semi"; content:"a;b"; sid:8;))");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->contents[0].needle, "a;b");
}

TEST(ParseRule, AllClassTypesRoundTrip) {
  for (std::size_t i = 0; i < kClassTypeCount; ++i) {
    const ClassType c = static_cast<ClassType>(i);
    const std::string text = std::string("alert tcp any any -> any any (msg:\"m\"; ") +
                             "content:\"x\"; classtype:" + std::string(class_type_name(c)) +
                             "; sid:9;)";
    const auto rule = parse_rule(text);
    ASSERT_TRUE(rule.has_value()) << class_type_name(c);
    EXPECT_EQ(rule->class_type, c);
  }
  EXPECT_FALSE(class_type_from_name("not-a-classtype").has_value());
}

TEST(ParseRule, IgnoredOptionsAccepted) {
  const auto rule = parse_rule(
      R"(alert tcp any any -> any 80 (msg:"f"; flow:established,to_server; content:"x"; depth:10; reference:cve,2021-44228; metadata:created_at 2021; sid:10; rev:3;))");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->rev, 3u);
}

struct BadRule {
  const char* text;
  const char* reason;
};

void PrintTo(const BadRule& rule, std::ostream* os) { *os << rule.reason; }

class ParseRuleRejects : public ::testing::TestWithParam<BadRule> {};

TEST_P(ParseRuleRejects, ReturnsError) {
  std::string error;
  EXPECT_FALSE(parse_rule(GetParam().text, &error).has_value()) << GetParam().reason;
  EXPECT_FALSE(error.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParseRuleRejects,
    ::testing::Values(
        BadRule{"", "empty"},
        BadRule{"# a comment", "comment"},
        BadRule{"alert tcp any any -> any 80", "no options"},
        BadRule{R"(drop tcp any any -> any 80 (msg:"m"; content:"x"; sid:1;))", "unsupported action"},
        BadRule{R"(alert icmp any any -> any 80 (msg:"m"; content:"x"; sid:1;))", "unsupported proto"},
        BadRule{R"(alert tcp any any -> any 80 (msg:"m"; content:"x";))", "missing sid"},
        BadRule{R"(alert tcp any any -> any 80 (msg:"m"; sid:1;))", "no content"},
        BadRule{R"(alert tcp any any -> any 99999 (msg:"m"; content:"x"; sid:1;))", "bad port"},
        BadRule{R"(alert tcp any any -> any 80 (msg:"m"; content:"|zz|"; sid:1;))", "bad hex"},
        BadRule{R"(alert tcp any any -> any 80 (msg:"m"; nocase; content:"x"; sid:1;))", "nocase before content"},
        BadRule{R"(alert tcp any any -> any 80 (msg:"m"; content:"x"; classtype:bogus; sid:1;))", "bad classtype"},
        BadRule{R"(alert tcp any any -> any 80 (msg:"m"; content:"x"; pcre:"/a/"; sid:1;))", "unsupported option"},
        BadRule{R"(alert tcp any any any 80 (msg:"m"; content:"x"; sid:1;))", "malformed header"}),
    [](const auto& info) { return support::param_name(info.param.reason); });

TEST(ParseRule, UdpTransport) {
  const auto rule = parse_rule(
      R"(alert udp any any -> any 123 (msg:"ntp"; content:"|1b|"; sid:11;))");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->transport, net::Transport::kUdp);
}

}  // namespace
}  // namespace cw::ids
