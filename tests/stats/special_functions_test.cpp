#include "stats/special_functions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "support/param_name.h"

namespace cw::stats {
namespace {

TEST(GammaP, BoundaryValues) {
  EXPECT_DOUBLE_EQ(gamma_p(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(gamma_q(1.0, 0.0), 1.0);
  EXPECT_TRUE(std::isnan(gamma_p(0.0, 1.0)));
  EXPECT_TRUE(std::isnan(gamma_p(1.0, -1.0)));
}

TEST(GammaP, ExponentialSpecialCase) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 0.5, 1.0, 2.0, 10.0}) {
    EXPECT_NEAR(gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12) << x;
  }
}

TEST(GammaP, ComplementarityAcrossRegimes) {
  // Both the series (x < a+1) and continued-fraction (x > a+1) paths.
  for (double a : {0.5, 2.0, 7.5, 30.0}) {
    for (double x : {0.1, 1.0, 5.0, 20.0, 80.0}) {
      EXPECT_NEAR(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-10) << a << " " << x;
    }
  }
}

struct ChiSfCase {
  double x;
  double df;
  double expected;
};

void PrintTo(const ChiSfCase& c, std::ostream* os) {
  *os << "sf(" << c.x << ", df " << c.df << ") = " << c.expected;
}

class ChiSquaredSf : public ::testing::TestWithParam<ChiSfCase> {};

TEST_P(ChiSquaredSf, MatchesReferenceTables) {
  EXPECT_NEAR(chi_squared_sf(GetParam().x, GetParam().df), GetParam().expected, 5e-4);
}

// Reference values from standard chi-squared tables / scipy.stats.chi2.sf.
INSTANTIATE_TEST_SUITE_P(Reference, ChiSquaredSf,
                         ::testing::Values(ChiSfCase{3.841, 1, 0.05}, ChiSfCase{6.635, 1, 0.01},
                                           ChiSfCase{5.991, 2, 0.05}, ChiSfCase{9.210, 2, 0.01},
                                           ChiSfCase{7.815, 3, 0.05},
                                           ChiSfCase{18.307, 10, 0.05},
                                           ChiSfCase{31.410, 20, 0.05},
                                           ChiSfCase{1.0, 1, 0.3173},
                                           ChiSfCase{0.0, 5, 1.0}),
                         [](const auto& info) {
                           char name[48];
                           std::snprintf(name, sizeof name, "x%g_df%g", info.param.x,
                                         info.param.df);
                           return support::param_name(name);
                         });

TEST(ChiSquaredSf, InvalidDf) { EXPECT_TRUE(std::isnan(chi_squared_sf(1.0, 0.0))); }

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959964), 0.975, 1e-5);
  EXPECT_NEAR(normal_cdf(-1.959964), 0.025, 1e-5);
  EXPECT_NEAR(normal_cdf(3.0), 0.99865, 1e-4);
  EXPECT_NEAR(normal_cdf(-6.0), 0.0, 1e-8);
}

TEST(KolmogorovSf, KnownValues) {
  EXPECT_DOUBLE_EQ(kolmogorov_sf(0.0), 1.0);
  EXPECT_DOUBLE_EQ(kolmogorov_sf(-1.0), 1.0);
  // Q_KS(1.2238) ~= 0.10, Q_KS(1.3581) ~= 0.05 (standard KS quantiles).
  EXPECT_NEAR(kolmogorov_sf(1.2238), 0.10, 2e-3);
  EXPECT_NEAR(kolmogorov_sf(1.3581), 0.05, 2e-3);
  EXPECT_LT(kolmogorov_sf(3.0), 1e-6);
}

TEST(KolmogorovSf, MonotoneDecreasing) {
  double previous = 1.0;
  for (double lambda = 0.2; lambda < 3.0; lambda += 0.1) {
    const double sf = kolmogorov_sf(lambda);
    EXPECT_LE(sf, previous + 1e-12);
    previous = sf;
  }
}

}  // namespace
}  // namespace cw::stats
