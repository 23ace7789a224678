// Time-series primitives: differencing, autocorrelation, partial
// autocorrelation, stationarity testing, and polynomial root checks.
//
// These are the building blocks of the ARIMA fitter that replaces the
// paper's use of pmdarima.auto_arima for applications whose idle times
// exceed the histogram range (Section 4.2, "Time-series analysis when
// histogram is not large enough").

#ifndef SRC_ARIMA_SERIES_H_
#define SRC_ARIMA_SERIES_H_

#include <span>
#include <vector>

namespace faas {

// d-th order differencing: returns x[t] - x[t-1] applied `d` times.
// The result has size max(0, n - d).
std::vector<double> Difference(std::span<const double> series, int d);

// Inverts one differencing step given the last observation of the original
// series at each level; `tails[i]` is the final value of the i-times
// differenced series.  Used to turn forecasts of the differenced series back
// into forecasts of the original.
std::vector<double> IntegrateForecast(std::span<const double> diff_forecast,
                                      std::span<const double> tails);

// Returns the last observation of each differencing level 0..d-1, i.e. the
// state needed by IntegrateForecast.
std::vector<double> DifferencingTails(std::span<const double> series, int d);

// Sample autocorrelation function for lags 0..max_lag (acf[0] == 1).
std::vector<double> Acf(std::span<const double> series, int max_lag);

// Partial autocorrelation via Durbin-Levinson for lags 1..max_lag.
std::vector<double> Pacf(std::span<const double> series, int max_lag);

// Yule-Walker AR(p) coefficient estimates.
std::vector<double> YuleWalkerAr(std::span<const double> series, int p);

// KPSS level-stationarity statistic with a Bartlett-window long-run variance
// (lag truncation = floor(4 * (n/100)^0.25), the standard choice).
double KpssStatistic(std::span<const double> series);

// True if the series passes the KPSS test at the 5% level (statistic below
// the 0.463 critical value), i.e. we fail to reject stationarity.
bool IsLevelStationaryKpss(std::span<const double> series);

// Smallest d in [0, max_d] whose d-times differenced series passes KPSS;
// returns max_d if none does.  Mirrors pmdarima's ndiffs(test="kpss").
int EstimateDifferencingOrder(std::span<const double> series, int max_d);

// True if all roots of 1 - c1*z - c2*z^2 - ... - cp*z^p lie strictly outside
// the unit circle (stationarity for AR coefficients, invertibility for
// negated MA coefficients).  Trailing coefficients below 1e-12 in magnitude
// are dropped; the remaining degree must be <= 8.
//
// Gives RootsOutsideUnitCircleDurandKerner's answer, faster.  A
// real-arithmetic Schur-Cohn step-down test on the radius-scaled
// coefficients c_i * r^i answers true when every root lies beyond r and
// false when some root lies within r.  It carries a bound on its own
// rounding error and abstains when that bound reaches a decision
// (clustered roots near r).  It runs at two pairs of radii:
//   - 1 +- 1e-3, for every polynomial;
//   - then T (1 +- 1e-12), where T = 1 + 1e-8 is Durand-Kerner's
//     threshold, for degrees 1 to 3 whose roots a discriminant bound
//     certifies well separated, so that Durand-Kerner's own rounding error
//     on them (certified below 5e-13) cannot carry a computed root across T.
// Everything else runs Durand-Kerner: roots within 1e-12 of T, clustered
// roots and degrees above 3 with a root within 1e-3 of the circle,
// abstentions, and non-finite coefficients.  The two agree on every check
// of twelve hybrid-policy sweeps and on the randomized and near-threshold
// comparisons in tests/series_test.cc.
bool RootsOutsideUnitCircle(std::span<const double> coefficients);

// The reference root check: Durand-Kerner iteration from the (0.4 + 0.9i)^k
// seeds, stopping when every step is below 1e-12 (at most 200 sweeps); a
// root counts as inside when its modulus is <= 1 + 1e-8.
bool RootsOutsideUnitCircleDurandKerner(std::span<const double> coefficients);

}  // namespace faas

#endif  // SRC_ARIMA_SERIES_H_
