#include "net/asn.h"
#include "net/geo.h"

#include <gtest/gtest.h>

namespace cw::net {
namespace {

TEST(AsRegistry, FindsPaperNamedAses) {
  const AsRegistry registry = AsRegistry::standard();
  ASSERT_NE(registry.find(kAsnChinanet), nullptr);
  EXPECT_EQ(registry.find(kAsnChinanet)->name, "Chinanet");
  EXPECT_EQ(registry.find(kAsnChinanet)->country.to_string(), "CN");
  EXPECT_EQ(registry.name_of(kAsnCensys), "Censys");
  EXPECT_EQ(registry.name_of(kAsnAxtel), "Axtel");
  EXPECT_EQ(registry.name_of(kAsnPonyNet), "PonyNet");
}

TEST(AsRegistry, UnknownAsnFallsBack) {
  const AsRegistry registry = AsRegistry::standard();
  EXPECT_EQ(registry.find(999999), nullptr);
  EXPECT_EQ(registry.name_of(999999), "AS999999");
}

TEST(AsRegistry, SyntheticTailSizeScales) {
  const AsRegistry small = AsRegistry::standard(100);
  const AsRegistry large = AsRegistry::standard(600);
  EXPECT_GT(large.all().size(), small.all().size());
  EXPECT_GT(small.all().size(), 100u);  // tail + named entries
}

TEST(AsRegistry, SyntheticAsesLiveInPrivateRange) {
  const AsRegistry registry = AsRegistry::standard(50);
  for (const AsInfo& info : registry.all()) {
    if (info.name.rfind("ISP-", 0) == 0) {
      EXPECT_GE(info.asn, 64512u);
    }
  }
}

TEST(AsRegistry, InCountryFilters) {
  const AsRegistry registry = AsRegistry::standard();
  const auto cn = registry.in_country(CountryCode('C', 'N'));
  EXPECT_GE(cn.size(), 3u);  // Chinanet, China Mobile, China Unicom + tail
  for (Asn asn : cn) {
    EXPECT_EQ(registry.find(asn)->country.to_string(), "CN");
  }
}

TEST(CountryCode, ParseAndNormalize) {
  auto code = CountryCode::parse("us");
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(code->to_string(), "US");
  EXPECT_FALSE(CountryCode::parse("USA").has_value());
  EXPECT_FALSE(CountryCode::parse("1A").has_value());
  EXPECT_FALSE(CountryCode::parse("").has_value());
}

struct ContinentCase {
  const char* country;
  Continent continent;
};

void PrintTo(const ContinentCase& c, std::ostream* os) {
  *os << c.country << " -> " << continent_name(c.continent);
}

class ContinentOf : public ::testing::TestWithParam<ContinentCase> {};

TEST_P(ContinentOf, Matches) {
  const auto code = CountryCode::parse(GetParam().country);
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(continent_of(*code), GetParam().continent);
}

INSTANTIATE_TEST_SUITE_P(
    Countries, ContinentOf,
    ::testing::Values(ContinentCase{"US", Continent::kNorthAmerica},
                      ContinentCase{"CA", Continent::kNorthAmerica},
                      ContinentCase{"DE", Continent::kEurope},
                      ContinentCase{"GB", Continent::kEurope},
                      ContinentCase{"FI", Continent::kEurope},
                      ContinentCase{"SG", Continent::kAsiaPacific},
                      ContinentCase{"JP", Continent::kAsiaPacific},
                      ContinentCase{"AU", Continent::kAsiaPacific},
                      ContinentCase{"IN", Continent::kAsiaPacific},
                      ContinentCase{"TW", Continent::kAsiaPacific},
                      ContinentCase{"BR", Continent::kSouthAmerica},
                      ContinentCase{"EC", Continent::kSouthAmerica},
                      ContinentCase{"BH", Continent::kMiddleEast},
                      ContinentCase{"AE", Continent::kMiddleEast},
                      ContinentCase{"ZA", Continent::kAfrica}),
    [](const auto& info) { return std::string(info.param.country); });

TEST(GeoRegion, CodeFormat) {
  EXPECT_EQ(make_region("US", "OR").code(), "US-OR");
  EXPECT_EQ(make_region("US").code(), "US");
  EXPECT_EQ(make_region("SG").code(), "AP-SG");
  EXPECT_EQ(make_region("CA", "QC").code(), "NA-CA-QC");
  EXPECT_EQ(make_region("BR").code(), "SA-BR");
}

TEST(GeoRegion, EqualityIncludesSubdivision) {
  EXPECT_EQ(make_region("US", "OR"), make_region("US", "OR"));
  EXPECT_FALSE(make_region("US", "OR") == make_region("US", "CA"));
}

TEST(Continent, Names) {
  EXPECT_EQ(continent_name(Continent::kAsiaPacific), "Asia Pacific");
  EXPECT_EQ(continent_code(Continent::kEurope), "EU");
  EXPECT_EQ(continent_code(Continent::kNorthAmerica), "NA");
}

}  // namespace
}  // namespace cw::net
