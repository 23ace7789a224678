#include "src/arima/auto_arima.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace faas {
namespace {

TEST(AutoArimaTest, TooShortSeriesReturnsNullopt) {
  const std::vector<double> series = {1.0, 2.0, 3.0};
  EXPECT_FALSE(AutoArima(series).has_value());
}

TEST(AutoArimaTest, WhiteNoisePrefersSmallOrders) {
  Rng rng(300);
  std::vector<double> series(1500);
  for (double& s : series) {
    s = rng.NextGaussian();
  }
  const auto model = AutoArima(series);
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->order().d, 0);
  EXPECT_LE(model->order().p + model->order().q, 2);
}

TEST(AutoArimaTest, SelectsDifferencingForRandomWalk) {
  Rng rng(301);
  std::vector<double> series(800);
  double level = 0.0;
  for (double& s : series) {
    level += rng.NextGaussian();
    s = level;
  }
  const auto model = AutoArima(series);
  ASSERT_TRUE(model.has_value());
  EXPECT_GE(model->order().d, 1);
}

TEST(AutoArimaTest, Ar2SignalGetsArTerms) {
  Rng rng(302);
  std::vector<double> series(4000);
  series[0] = series[1] = 0.0;
  for (size_t t = 2; t < series.size(); ++t) {
    series[t] = 0.6 * series[t - 1] + 0.25 * series[t - 2] +
                rng.NextGaussian();
  }
  const auto model = AutoArima(series);
  ASSERT_TRUE(model.has_value());
  EXPECT_GE(model->order().p, 1);
}

TEST(AutoArimaTest, StepwiseAndGridAgreeOnStrongSignal) {
  Rng rng(303);
  std::vector<double> series(3000);
  double x = 0.0;
  for (double& s : series) {
    x = 0.8 * x + rng.NextGaussian();
    s = x;
  }
  AutoArimaOptions grid_options;
  grid_options.stepwise = false;
  AutoArimaOptions stepwise_options;
  stepwise_options.stepwise = true;
  const auto grid = AutoArima(series, grid_options);
  const auto stepwise = AutoArima(series, stepwise_options);
  ASSERT_TRUE(grid.has_value());
  ASSERT_TRUE(stepwise.has_value());
  // Both should find models whose AIC is within a whisker of each other.
  EXPECT_NEAR(grid->Aic(), stepwise->Aic(),
              0.01 * std::fabs(grid->Aic()) + 10.0);
}

TEST(AutoArimaTest, ShortIdleTimeSeriesStillFits) {
  // The policy calls auto-ARIMA with as few as 8 idle times.
  const std::vector<double> its = {290.0, 310.0, 305.0, 295.0,
                                   300.0, 302.0, 297.0, 303.0};
  const auto model = AutoArima(its);
  ASSERT_TRUE(model.has_value());
  EXPECT_NEAR(model->ForecastOne(), 300.0, 30.0);
}

TEST(AutoArimaTest, ForecastTracksSlowDrift) {
  // Idle times drifting upward (an app slowly getting quieter).
  std::vector<double> its;
  for (int i = 0; i < 30; ++i) {
    its.push_back(250.0 + 4.0 * i);
  }
  const auto model = AutoArima(its);
  ASSERT_TRUE(model.has_value());
  // Next IT should be predicted near (or above) the last observed ~366.
  EXPECT_GT(model->ForecastOne(), 330.0);
}

TEST(AutoArimaTest, RespectsMaxOrderBounds) {
  Rng rng(304);
  std::vector<double> series(500);
  for (double& s : series) {
    s = rng.NextGaussian();
  }
  AutoArimaOptions options;
  options.max_p = 1;
  options.max_q = 0;
  const auto model = AutoArima(series, options);
  ASSERT_TRUE(model.has_value());
  EXPECT_LE(model->order().p, 1);
  EXPECT_EQ(model->order().q, 0);
}

// Golden fits: short idle-time series (lengths 4-49) whose selected orders
// cover d = 0, 1, 2 and every (p, q) with p, q <= 3 under the default
// options.  Forecast and AIC are hex-float literals; exact equality pins the
// fitter's arithmetic, so any change to the order of floating-point
// operations in the ARIMA pipeline shows here first.
struct GoldenFit {
  std::vector<double> series;
  ArimaOrder order;
  double forecast;
  double aic;
};

const std::vector<GoldenFit>& GoldenFits() {
  static const std::vector<GoldenFit> fits = {
    {{73.7, 91.8, 93.5, 96.0, 95.8, 94.1, 89.1, 83.5, 97.1, 84.9, 93.7, 89.3},
     {0, 0, 0},
     0x1.68d5555555555p+6,
     0x1.4b514b163e5dcp+6},
    {{51.5, 50.3, 52.2, 53.4, 50.9, 51.6, 49.5, 52.5, 54.9, 52.8, 53.5, 52.6,
      52.9, 54.5, 51.7, 55.5, 53.6},
     {0, 1, 1},
     0x1.ac14f6a900aecp+5,
     0x1.ff728c0589dfdp+5},
    {{29.9, 30.1, 29.9, 29.8, 29.8, 30.4, 31.4, 32.7, 33.8, 35.4, 37.2, 39.2,
      41.0, 42.6, 44.4, 45.9, 47.2, 48.1, 49.1, 50.4, 52.3, 54.6},
     {0, 2, 2},
     0x1.c918a0810df8ap+5,
     0x1.61e60bf846ce4p+3},
    {{167.4, 165.9, 170.8, 168.3, 174.6, 167.8, 168.2, 169.5, 170.7, 161.8,
      164.5, 166.7, 166.3, 170.1, 162.0, 164.4, 175.3, 161.8, 170.9, 167.6,
      165.6, 169.7, 164.4, 164.9},
     {0, 0, 3},
     0x1.4e774994cf93ep+7,
     0x1.06126246bfff4p+7},
    {{193.0, 188.8, 188.9, 184.1, 189.7, 190.7, 186.1, 184.1, 179.3, 178.2,
      174.5, 176.9, 177.2, 169.1, 166.2, 168.2, 166.7, 164.4, 159.8, 155.6,
      146.1, 148.9, 155.8, 161.0, 164.5, 173.3, 178.7, 190.7},
     {1, 1, 0},
     0x1.88f497faf7c3cp+7,
     0x1.462e4cf5b12a4p+7},
    {{199.3, 198.9, 198.3, 197.8, 197.5, 197.2, 197.2, 197.3, 197.6, 198.1,
      198.2, 198.5, 199.0, 199.4, 200.1, 200.8, 201.8, 203.6, 205.8, 207.7,
      209.3, 210.8, 211.9, 213.1, 214.5, 216.0, 217.2, 218.3, 219.5, 220.4,
      221.5, 222.5},
     {1, 2, 1},
     0x1.bed18753a626dp+7,
     0x1.337e3526bb172p+2},
    {{154.6, 150.2, 153.2, 154.3, 152.7, 151.1, 156.0, 152.3, 153.9, 155.9,
      147.6, 154.5, 154.4, 151.8, 154.1, 152.2, 154.4, 154.7, 151.0, 153.5,
      152.9, 153.8, 154.0, 154.6, 151.9, 154.1, 153.5, 149.8, 154.3, 153.4,
      150.3, 155.2, 155.0, 152.3, 152.6, 154.2},
     {1, 0, 2},
     0x1.31cb78e83b254p+7,
     0x1.05e23af3b950dp+7},
    {{192.6, 185.2, 188.6, 204.1, 221.8, 214.6, 207.3, 203.1, 221.5, 233.8,
      232.5, 235.8, 236.0, 224.6, 206.8, 211.7, 213.6, 211.4, 215.9, 228.6,
      237.9, 234.2, 248.1, 245.1, 256.6, 252.5, 268.7, 278.9, 285.9, 276.4,
      265.9, 270.2, 268.8, 287.9, 284.9, 285.2, 286.3, 289.3, 297.6, 289.5},
     {1, 1, 3},
     0x1.23902e59a2439p+8,
     0x1.1f1800931ea3ap+8},
    {{150.4, 152.2, 150.0, 153.2, 152.7, 154.1, 155.9, 155.3, 157.5, 158.7,
      162.3, 164.7, 166.4, 172.6},
     {2, 2, 0},
     0x1.5b1c1568bdec4p+7,
     0x1.acbbcc3a143p+5},
    {{178.1, 179.4, 174.1, 180.9, 174.9, 177.6, 177.7, 174.8, 181.1, 174.7,
      179.0, 179.1, 174.0, 180.6, 174.6, 178.8},
     {2, 0, 1},
     0x1.640e8974c4608p+7,
     0x1.bfebdb35e61cfp+5},
    {{132.1, 139.1, 141.8, 139.4, 134.3, 134.4, 135.8, 131.2, 149.7, 146.8,
      148.8, 141.9, 142.3, 146.8, 168.9, 156.1, 161.3, 166.9, 159.9, 151.7,
      157.8},
     {2, 1, 2},
     0x1.38912246657d7p+7,
     0x1.13b72d2983d14p+7},
    {{30.5, 32.4, 17.8, 32.0, 27.7, 18.2, 17.1, 15.4, 4.4, 1.1, 11.7, 4.3, 10.2,
      21.2, 23.9, 47.8, 47.8, 62.8, 79.3, 102.3, 106.8, 126.6, 130.8, 152.3},
     {2, 2, 3},
     0x1.42199f96d4317p+7,
     0x1.36a515391c344p+7},
    {{43.4, 43.8, 48.9, 47.0, 44.6, 52.5, 44.9, 40.0, 51.8, 40.1, 52.0, 41.4,
      50.7, 44.7, 45.1, 46.9, 45.9, 57.2, 26.3, 54.5, 56.4, 33.4, 45.9, 57.2,
      45.1, 33.5, 51.0, 56.5},
     {3, 0, 0},
     0x1.27beea0aa7edcp+5,
     0x1.4ed4232eceeb7p+7},
    {{87.0, 90.7, 93.5, 102.0, 101.9, 100.8, 90.7, 86.4, 83.6, 79.0, 80.5, 89.3,
      82.9, 83.6, 88.4, 77.8, 88.9, 84.5, 95.2, 84.9, 92.8, 90.6, 81.0, 92.6,
      76.4, 80.3, 71.0, 78.2, 81.2, 73.8},
     {3, 1, 1},
     0x1.4349de2bb0b2dp+6,
     0x1.7e9342b9c26f5p+7},
    {{188.9, 190.0, 191.2, 192.3, 193.2, 193.8, 194.5, 195.2, 196.4, 197.5,
      198.8, 200.1, 201.5, 203.1, 204.9, 206.5, 207.8, 208.8, 210.1, 211.3,
      212.5, 213.8, 215.3, 216.6, 218.0, 219.3, 220.7, 222.2, 224.0, 225.5,
      226.8, 227.7, 229.0, 230.8, 232.7, 234.5, 236.3},
     {3, 2, 2},
     0x1.dbc1b6dfe7cb8p+7,
     -0x1.5f90e7bbf5bccp+2},
    {{113.8, 123.2, 99.4, 129.5, 104.6, 120.3, 119.4, 102.9, 129.9, 97.0, 121.8,
      118.9, 102.8, 129.6, 106.5, 116.5, 104.6, 100.7, 118.6, 97.6, 128.7,
      128.0, 98.4, 127.6, 97.2, 130.8, 103.9, 119.2, 117.0, 102.5, 121.5, 116.1,
      97.4, 126.1, 111.8, 111.1, 129.2, 128.6, 107.9, 95.7},
     {3, 0, 3},
     0x1.da365c283da53p+6,
     0x1.29d7a86feae1p+8},
    {{43.7, 41.9, 37.3, 43.4},
     {0, 0, 1},
     0x1.4c99999d52923p+5,
     0x1.651b13ddc79d2p+4},
    {{159.2, 144.9, 150.6, 148.2, 151.1},
     {0, 0, 0},
     0x1.2d9999999999ap+7,
     0x1.0df863a66bbbcp+5},
    {{9.6, 11.5, 12.5, 4.6, 9.0, 6.6, 12.7, 10.3, 9.8, 7.0, 7.3, 13.2, 13.9,
      4.4, 6.0, 9.9, 18.0, 9.8, 7.0, 1.9, 13.8, 12.6, 13.9, 7.8, 7.9, 6.5, 12.8,
      11.9, 5.3, 9.3, 8.2, 12.8, 7.2, 10.2, 11.3, 10.2, 5.3, 5.2, 12.1, 12.1,
      11.0, 5.4, 2.8, 11.6, 16.0, 11.8, 7.4, 7.7, 4.7},
     {3, 0, 0},
     0x1.8e64a2fce3794p+3,
     0x1.c99eeec03892ep+7},
  };
  return fits;
}

TEST(AutoArimaGoldenTest, ForecastAicAndOrderAreBitExact) {
  std::set<std::pair<int, int>> pq;
  std::set<int> d;
  for (size_t i = 0; i < GoldenFits().size(); ++i) {
    const GoldenFit& golden = GoldenFits()[i];
    SCOPED_TRACE("golden series " + std::to_string(i));
    const auto model = AutoArima(golden.series);
    ASSERT_TRUE(model.has_value());
    EXPECT_EQ(model->order(), golden.order) << model->order().ToString();
    EXPECT_EQ(std::bit_cast<uint64_t>(model->ForecastOne()),
              std::bit_cast<uint64_t>(golden.forecast))
        << std::hexfloat << model->ForecastOne() << " vs " << golden.forecast;
    EXPECT_EQ(std::bit_cast<uint64_t>(model->Aic()),
              std::bit_cast<uint64_t>(golden.aic))
        << std::hexfloat << model->Aic() << " vs " << golden.aic;
    pq.insert({golden.order.p, golden.order.q});
    d.insert(golden.order.d);
  }
  EXPECT_EQ(pq.size(), 16u);
  EXPECT_EQ(d, (std::set<int>{0, 1, 2}));
}

}  // namespace
}  // namespace faas
