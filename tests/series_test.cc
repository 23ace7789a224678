#include "src/arima/series.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace faas {
namespace {

TEST(DifferenceTest, FirstOrder) {
  const std::vector<double> series = {1.0, 3.0, 6.0, 10.0};
  const std::vector<double> diff = Difference(series, 1);
  EXPECT_EQ(diff, (std::vector<double>{2.0, 3.0, 4.0}));
}

TEST(DifferenceTest, SecondOrder) {
  const std::vector<double> series = {1.0, 3.0, 6.0, 10.0};
  const std::vector<double> diff = Difference(series, 2);
  EXPECT_EQ(diff, (std::vector<double>{1.0, 1.0}));
}

TEST(DifferenceTest, ZeroOrderIsIdentity) {
  const std::vector<double> series = {5.0, 7.0};
  EXPECT_EQ(Difference(series, 0), series);
}

TEST(DifferenceTest, OverDifferencingGivesEmpty) {
  const std::vector<double> series = {1.0, 2.0};
  EXPECT_TRUE(Difference(series, 3).empty());
}

TEST(IntegrateForecastTest, InvertsDifferencing) {
  const std::vector<double> series = {2.0, 5.0, 4.0, 8.0, 9.0};
  const std::vector<double> tails = DifferencingTails(series, 1);
  ASSERT_EQ(tails.size(), 1u);
  EXPECT_DOUBLE_EQ(tails[0], 9.0);
  // If the differenced series continues with {1.0, -2.0}, the original
  // continues with {10.0, 8.0}.
  const std::vector<double> restored =
      IntegrateForecast(std::vector<double>{1.0, -2.0}, tails);
  EXPECT_EQ(restored, (std::vector<double>{10.0, 8.0}));
}

TEST(IntegrateForecastTest, SecondOrderRoundTrip) {
  const std::vector<double> series = {1.0, 4.0, 9.0, 16.0, 25.0};
  const std::vector<double> tails = DifferencingTails(series, 2);
  // d=2 of squares is constant 2; forecasting {2.0, 2.0} must continue the
  // squares: 36, 49.
  const std::vector<double> restored =
      IntegrateForecast(std::vector<double>{2.0, 2.0}, tails);
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_DOUBLE_EQ(restored[0], 36.0);
  EXPECT_DOUBLE_EQ(restored[1], 49.0);
}

TEST(AcfTest, LagZeroIsOne) {
  const std::vector<double> series = {1.0, 2.0, 1.5, 3.0, 2.5};
  const std::vector<double> acf = Acf(series, 2);
  EXPECT_DOUBLE_EQ(acf[0], 1.0);
}

TEST(AcfTest, ConstantSeriesHasZeroCorrelations) {
  const std::vector<double> series(20, 4.0);
  const std::vector<double> acf = Acf(series, 5);
  for (int lag = 1; lag <= 5; ++lag) {
    EXPECT_DOUBLE_EQ(acf[static_cast<size_t>(lag)], 0.0);
  }
}

TEST(AcfTest, Ar1SeriesDecaysGeometrically) {
  Rng rng(55);
  const double phi = 0.8;
  std::vector<double> series(20'000);
  series[0] = 0.0;
  for (size_t t = 1; t < series.size(); ++t) {
    series[t] = phi * series[t - 1] + rng.NextGaussian();
  }
  const std::vector<double> acf = Acf(series, 3);
  EXPECT_NEAR(acf[1], phi, 0.03);
  EXPECT_NEAR(acf[2], phi * phi, 0.04);
  EXPECT_NEAR(acf[3], phi * phi * phi, 0.05);
}

TEST(PacfTest, Ar1CutsOffAfterLagOne) {
  Rng rng(56);
  const double phi = 0.7;
  std::vector<double> series(20'000);
  series[0] = 0.0;
  for (size_t t = 1; t < series.size(); ++t) {
    series[t] = phi * series[t - 1] + rng.NextGaussian();
  }
  const std::vector<double> pacf = Pacf(series, 4);
  EXPECT_NEAR(pacf[1], phi, 0.03);
  EXPECT_NEAR(pacf[2], 0.0, 0.03);
  EXPECT_NEAR(pacf[3], 0.0, 0.03);
}

TEST(YuleWalkerTest, RecoversAr2Coefficients) {
  Rng rng(57);
  const double phi1 = 0.5;
  const double phi2 = 0.3;
  std::vector<double> series(50'000);
  series[0] = series[1] = 0.0;
  for (size_t t = 2; t < series.size(); ++t) {
    series[t] =
        phi1 * series[t - 1] + phi2 * series[t - 2] + rng.NextGaussian();
  }
  const std::vector<double> phi = YuleWalkerAr(series, 2);
  ASSERT_EQ(phi.size(), 2u);
  EXPECT_NEAR(phi[0], phi1, 0.03);
  EXPECT_NEAR(phi[1], phi2, 0.03);
}

TEST(YuleWalkerTest, OrderZeroIsEmpty) {
  const std::vector<double> series = {1.0, 2.0, 3.0, 4.0};
  EXPECT_TRUE(YuleWalkerAr(series, 0).empty());
}

TEST(KpssTest, StationaryNoiseAccepted) {
  Rng rng(58);
  std::vector<double> series(500);
  for (double& s : series) {
    s = rng.NextGaussian();
  }
  EXPECT_TRUE(IsLevelStationaryKpss(series));
}

TEST(KpssTest, RandomWalkRejected) {
  Rng rng(59);
  std::vector<double> series(500);
  double level = 0.0;
  for (double& s : series) {
    level += rng.NextGaussian();
    s = level;
  }
  EXPECT_FALSE(IsLevelStationaryKpss(series));
}

TEST(KpssTest, ConstantSeriesIsStationary) {
  const std::vector<double> series(50, 3.0);
  EXPECT_TRUE(IsLevelStationaryKpss(series));
}

TEST(EstimateDifferencingOrderTest, StationaryNeedsNone) {
  Rng rng(60);
  std::vector<double> series(400);
  for (double& s : series) {
    s = rng.NextGaussian();
  }
  EXPECT_EQ(EstimateDifferencingOrder(series, 2), 0);
}

TEST(EstimateDifferencingOrderTest, RandomWalkNeedsOne) {
  Rng rng(61);
  std::vector<double> series(400);
  double level = 0.0;
  for (double& s : series) {
    level += rng.NextGaussian();
    s = level;
  }
  EXPECT_EQ(EstimateDifferencingOrder(series, 2), 1);
}

TEST(EstimateDifferencingOrderTest, IntegratedTwiceNeedsTwo) {
  Rng rng(62);
  std::vector<double> series(400);
  double level = 0.0;
  double slope = 0.0;
  for (double& s : series) {
    slope += rng.NextGaussian();
    level += slope;
    s = level;
  }
  EXPECT_EQ(EstimateDifferencingOrder(series, 2), 2);
}

TEST(RootsTest, EmptyAndZeroCoefficientsAreStable) {
  EXPECT_TRUE(RootsOutsideUnitCircle(std::vector<double>{}));
  EXPECT_TRUE(RootsOutsideUnitCircle(std::vector<double>{0.0, 0.0}));
}

TEST(RootsTest, StableAr1) {
  EXPECT_TRUE(RootsOutsideUnitCircle(std::vector<double>{0.5}));
  EXPECT_TRUE(RootsOutsideUnitCircle(std::vector<double>{-0.9}));
}

TEST(RootsTest, UnstableAr1) {
  EXPECT_FALSE(RootsOutsideUnitCircle(std::vector<double>{1.0}));
  EXPECT_FALSE(RootsOutsideUnitCircle(std::vector<double>{1.2}));
  EXPECT_FALSE(RootsOutsideUnitCircle(std::vector<double>{-1.05}));
}

TEST(RootsTest, Ar2StabilityTriangle) {
  // AR(2) is stationary iff phi2 + phi1 < 1, phi2 - phi1 < 1, |phi2| < 1.
  EXPECT_TRUE(RootsOutsideUnitCircle(std::vector<double>{0.5, 0.3}));
  EXPECT_TRUE(RootsOutsideUnitCircle(std::vector<double>{-0.5, 0.3}));
  EXPECT_FALSE(RootsOutsideUnitCircle(std::vector<double>{0.8, 0.3}));
  EXPECT_FALSE(RootsOutsideUnitCircle(std::vector<double>{0.0, 1.1}));
  // The polynomial is 1 - c1 z - c2 z^2: 1 - 1.5z - 0.6z^2 has a root at
  // ~0.547, 1 + 1.5z + 0.6z^2 both roots at |z| ~ 1.29.
  EXPECT_FALSE(RootsOutsideUnitCircle(std::vector<double>{1.5, 0.6}));
  EXPECT_TRUE(RootsOutsideUnitCircle(std::vector<double>{-1.5, -0.6}));
}

// Coefficients c of 1 - c1 z - ... - cp z^p for the polynomial with the
// given roots (complex roots enter with their conjugates).
class RootPolynomial {
 public:
  void AddReal(double root, int multiplicity) {
    for (int m = 0; m < multiplicity; ++m) {
      Multiply({1.0, -1.0 / root});
    }
  }
  void AddConjugatePair(double radius, double angle, int multiplicity) {
    // (1 - z/rho)(1 - z/conj(rho)) = 1 - 2 Re(1/rho) z + |rho|^-2 z^2.
    const double inv = 1.0 / radius;
    for (int m = 0; m < multiplicity; ++m) {
      Multiply({1.0, -2.0 * inv * std::cos(angle), inv * inv});
    }
  }
  size_t degree() const { return poly_.size() - 1; }
  std::vector<double> Coefficients() const {
    std::vector<double> c(degree());
    for (size_t i = 1; i < poly_.size(); ++i) {
      c[i - 1] = -poly_[i];
    }
    return c;
  }

 private:
  void Multiply(const std::vector<double>& factor) {
    std::vector<double> product(poly_.size() + factor.size() - 1, 0.0);
    for (size_t i = 0; i < poly_.size(); ++i) {
      for (size_t j = 0; j < factor.size(); ++j) {
        product[i + j] += poly_[i] * factor[j];
      }
    }
    poly_ = std::move(product);
  }

  std::vector<double> poly_ = {1.0};
};

// Root radius: mostly uniform over [0.5, 2], otherwise a value at or just
// beyond the edges of the band in which the fast path defers to
// Durand-Kerner.
double DrawRadius(Rng& rng) {
  static constexpr double kEdges[] = {0.5,        2.0,        1.0,
                                      1.0 + 1e-3, 1.0 - 1e-3, 1.0 + 1.5e-3,
                                      1.0 - 1.5e-3};
  if (rng.Bernoulli(0.4)) {
    return kEdges[rng.UniformInt(std::size(kEdges))];
  }
  return rng.UniformDouble(0.5, 2.0);
}

// Raises `poly` to exactly `degree` with random real roots and conjugate
// pairs, each repeated up to three times.
void AddRandomRoots(Rng& rng, size_t degree, RootPolynomial& poly) {
  while (poly.degree() < degree) {
    const size_t room = degree - poly.degree();
    const bool pair = room >= 2 && rng.Bernoulli(0.5);
    const size_t width = pair ? 2 : 1;
    const int multiplicity = static_cast<int>(
        1 + rng.UniformInt(std::min<uint64_t>(3, room / width)));
    const double radius = DrawRadius(rng);
    if (pair) {
      poly.AddConjugatePair(radius, rng.UniformDouble(0.05, 3.1),
                            multiplicity);
    } else {
      poly.AddReal(rng.Bernoulli(0.5) ? radius : -radius, multiplicity);
    }
  }
}

// Random polynomial of exactly `degree`, as AddRandomRoots draws it.
std::vector<double> DrawPolynomial(Rng& rng, size_t degree) {
  RootPolynomial poly;
  AddRandomRoots(rng, degree, poly);
  return poly.Coefficients();
}

TEST(RootsAgreementTest, FastPathMatchesDurandKernerOnRandomPolynomials) {
  Rng rng(2020);
  for (size_t degree = 1; degree <= 8; ++degree) {
    int stable = 0;
    int unstable = 0;
    for (int trial = 0; trial < 2000; ++trial) {
      std::vector<double> c = DrawPolynomial(rng, degree);
      // Trailing zeros (exact, or below the 1e-12 strip threshold) keep the
      // degree; a quarter of the cases append some.
      if (degree < 8 && rng.Bernoulli(0.25)) {
        const size_t extra = 1 + rng.UniformInt(8 - degree);
        for (size_t k = 0; k < extra; ++k) {
          c.push_back(rng.Bernoulli(0.5) ? 0.0 : 1e-13);
        }
      }
      const bool reference = RootsOutsideUnitCircleDurandKerner(c);
      ASSERT_EQ(RootsOutsideUnitCircle(c), reference)
          << "degree " << degree << " trial " << trial;
      (reference ? stable : unstable) += 1;
    }
    // Both verdicts occur often, so neither branch of the fast path is
    // vacuous.
    EXPECT_GT(stable, 200) << "degree " << degree;
    EXPECT_GT(unstable, 200) << "degree " << degree;
  }
}

TEST(RootsAgreementTest, NonFiniteCoefficientsMatchDurandKerner) {
  Rng rng(2021);
  const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (size_t degree = 1; degree <= 8; ++degree) {
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<double> c = DrawPolynomial(rng, degree);
      c[rng.UniformInt(degree)] = kNonFinite[rng.UniformInt(3)];
      ASSERT_EQ(RootsOutsideUnitCircle(c),
                RootsOutsideUnitCircleDurandKerner(c))
          << "degree " << degree << " trial " << trial;
    }
  }
}

TEST(RootsAgreementTest, BandEdgesMatchDurandKerner) {
  // Every degree with all roots on one radius at the band edges and just
  // beyond them, as a repeated real root and as a rotated set.
  for (const double radius :
       {1.0 - 1.5e-3, 1.0 - 1e-3, 1.0, 1.0 + 1e-3, 1.0 + 1.5e-3}) {
    for (size_t degree = 1; degree <= 8; ++degree) {
      RootPolynomial repeated;
      RootPolynomial spread;
      repeated.AddReal(radius, static_cast<int>(degree));
      if (degree % 2 == 1) {
        spread.AddReal(-radius, 1);
      }
      for (size_t k = 0; k < degree / 2; ++k) {
        spread.AddConjugatePair(
            radius, M_PI * (static_cast<double>(k) + 0.5) /
                        static_cast<double>(degree / 2 + 1),
            1);
      }
      for (const RootPolynomial* poly : {&repeated, &spread}) {
        const std::vector<double> c = poly->Coefficients();
        EXPECT_EQ(RootsOutsideUnitCircle(c),
                  RootsOutsideUnitCircleDurandKerner(c))
            << "degree " << degree << " radius " << radius;
      }
    }
  }
}

// Durand-Kerner's threshold: a root counts as inside when its modulus is at
// most this.
constexpr double kDurandKernerThreshold = 1.0 + 1e-8;

TEST(RootsAgreementTest, NearThresholdRootsMatchDurandKerner) {
  // Simple, double and triple real roots and conjugate pairs at
  // T (1 +- r), alone and beside well-separated roots well inside and well
  // outside the unit circle; r spans the decades just outside the 1e-12
  // band in which the fast path always defers to Durand-Kerner.  The double real root at T (1 - 1e-11) is why
  // the fast path needs its separation gate: the step-down alone calls it
  // inside, but Durand-Kerner's error on a double root (about 1e-8)
  // carries both of its estimates past T, so Durand-Kerner answers true.
  for (const double offset : {1e-6, 1e-8, 1e-9, 1e-10, 1e-11, 3e-12}) {
    for (const double side : {-1.0, 1.0}) {
      const double radius = kDurandKernerThreshold * (1.0 + side * offset);
      for (int multiplicity = 1; multiplicity <= 3; ++multiplicity) {
        std::vector<RootPolynomial> polys(6);
        polys[0].AddReal(radius, multiplicity);
        polys[1].AddReal(-radius, multiplicity);
        polys[2].AddConjugatePair(radius, 2.1, multiplicity);
        polys[3].AddConjugatePair(radius, 0.3, multiplicity);
        polys[4].AddReal(radius, multiplicity);
        polys[4].AddReal(-2.5, 1);
        polys[5].AddConjugatePair(radius, 2.1, multiplicity);
        polys[5].AddReal(0.4, 1);
        for (const RootPolynomial& poly : polys) {
          const std::vector<double> c = poly.Coefficients();
          EXPECT_EQ(RootsOutsideUnitCircle(c),
                    RootsOutsideUnitCircleDurandKerner(c))
              << "offset " << side * offset << " multiplicity "
              << multiplicity << " degree " << poly.degree();
        }
      }
    }
  }
}

TEST(RootsAgreementTest, RandomNearThresholdPolynomialsMatchDurandKerner) {
  // One root (or pair) at T (1 +- r) with r log-uniform in [1e-15, 1e-3],
  // the rest drawn as in the randomized comparison above.
  Rng rng(2022);
  for (size_t degree = 1; degree <= 8; ++degree) {
    for (int trial = 0; trial < 1500; ++trial) {
      RootPolynomial poly;
      const double offset = std::pow(10.0, rng.UniformDouble(-15.0, -3.0));
      const double radius = kDurandKernerThreshold *
                            (1.0 + (rng.Bernoulli(0.5) ? offset : -offset));
      if (degree >= 2 && rng.Bernoulli(0.5)) {
        poly.AddConjugatePair(radius, rng.UniformDouble(0.05, 3.1), 1);
      } else {
        poly.AddReal(rng.Bernoulli(0.5) ? radius : -radius, 1);
      }
      AddRandomRoots(rng, degree, poly);
      const std::vector<double> c = poly.Coefficients();
      ASSERT_EQ(RootsOutsideUnitCircle(c),
                RootsOutsideUnitCircleDurandKerner(c))
          << "degree " << degree << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace faas
