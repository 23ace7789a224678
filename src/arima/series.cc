#include "src/arima/series.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/stats/descriptive.h"

namespace faas {

std::vector<double> Difference(std::span<const double> series, int d) {
  FAAS_CHECK(d >= 0) << "differencing order must be non-negative";
  std::vector<double> current(series.begin(), series.end());
  for (int round = 0; round < d; ++round) {
    if (current.size() <= 1) {
      return {};
    }
    std::vector<double> next(current.size() - 1);
    for (size_t i = 1; i < current.size(); ++i) {
      next[i - 1] = current[i] - current[i - 1];
    }
    current = std::move(next);
  }
  return current;
}

std::vector<double> DifferencingTails(std::span<const double> series, int d) {
  std::vector<double> tails;
  tails.reserve(static_cast<size_t>(d));
  std::vector<double> current(series.begin(), series.end());
  for (int level = 0; level < d; ++level) {
    FAAS_CHECK(!current.empty()) << "series too short for differencing order";
    tails.push_back(current.back());
    std::vector<double> next;
    next.reserve(current.size() > 0 ? current.size() - 1 : 0);
    for (size_t i = 1; i < current.size(); ++i) {
      next.push_back(current[i] - current[i - 1]);
    }
    current = std::move(next);
  }
  return tails;
}

std::vector<double> IntegrateForecast(std::span<const double> diff_forecast,
                                      std::span<const double> tails) {
  // tails[0] is the last value of the original series, tails[1] the last of
  // the once-differenced series, etc.  Invert from the deepest level up.
  std::vector<double> current(diff_forecast.begin(), diff_forecast.end());
  for (size_t level = tails.size(); level-- > 0;) {
    double previous = tails[level];
    for (double& value : current) {
      value += previous;
      previous = value;
    }
  }
  return current;
}

std::vector<double> Acf(std::span<const double> series, int max_lag) {
  const size_t n = series.size();
  FAAS_CHECK(n >= 2) << "ACF needs at least two points";
  const double mean = Mean(series);
  double denom = 0.0;
  for (double v : series) {
    const double d = v - mean;
    denom += d * d;
  }
  std::vector<double> acf(static_cast<size_t>(max_lag) + 1, 0.0);
  acf[0] = 1.0;
  if (denom == 0.0) {
    return acf;  // Constant series: define rho_k = 0 for k > 0.
  }
  for (int lag = 1; lag <= max_lag; ++lag) {
    if (static_cast<size_t>(lag) >= n) {
      break;
    }
    double num = 0.0;
    for (size_t t = static_cast<size_t>(lag); t < n; ++t) {
      num += (series[t] - mean) * (series[t - static_cast<size_t>(lag)] - mean);
    }
    acf[static_cast<size_t>(lag)] = num / denom;
  }
  return acf;
}

std::vector<double> Pacf(std::span<const double> series, int max_lag) {
  // Durbin-Levinson recursion on the sample ACF.
  const std::vector<double> rho = Acf(series, max_lag);
  std::vector<double> pacf(static_cast<size_t>(max_lag) + 1, 0.0);
  if (max_lag == 0) {
    return pacf;
  }
  std::vector<double> phi_prev(static_cast<size_t>(max_lag) + 1, 0.0);
  std::vector<double> phi_curr(static_cast<size_t>(max_lag) + 1, 0.0);
  pacf[0] = 1.0;
  phi_prev[1] = rho[1];
  pacf[1] = rho[1];
  double v = 1.0 - rho[1] * rho[1];
  for (int k = 2; k <= max_lag; ++k) {
    double num = rho[static_cast<size_t>(k)];
    for (int j = 1; j < k; ++j) {
      num -= phi_prev[static_cast<size_t>(j)] *
             rho[static_cast<size_t>(k - j)];
    }
    const double phi_kk = v > 1e-12 ? num / v : 0.0;
    for (int j = 1; j < k; ++j) {
      phi_curr[static_cast<size_t>(j)] =
          phi_prev[static_cast<size_t>(j)] -
          phi_kk * phi_prev[static_cast<size_t>(k - j)];
    }
    phi_curr[static_cast<size_t>(k)] = phi_kk;
    pacf[static_cast<size_t>(k)] = phi_kk;
    v *= (1.0 - phi_kk * phi_kk);
    std::swap(phi_prev, phi_curr);
  }
  return pacf;
}

std::vector<double> YuleWalkerAr(std::span<const double> series, int p) {
  FAAS_CHECK(p >= 0) << "AR order must be non-negative";
  if (p == 0) {
    return {};
  }
  const std::vector<double> rho = Acf(series, p);
  // Solve the Toeplitz system via Durbin-Levinson.
  std::vector<double> phi(static_cast<size_t>(p), 0.0);
  std::vector<double> prev(static_cast<size_t>(p), 0.0);
  phi[0] = rho[1];
  double v = 1.0 - rho[1] * rho[1];
  for (int k = 2; k <= p; ++k) {
    prev.assign(phi.begin(), phi.end());
    double num = rho[static_cast<size_t>(k)];
    for (int j = 1; j < k; ++j) {
      num -= prev[static_cast<size_t>(j - 1)] * rho[static_cast<size_t>(k - j)];
    }
    const double phi_kk = v > 1e-12 ? num / v : 0.0;
    for (int j = 1; j < k; ++j) {
      phi[static_cast<size_t>(j - 1)] =
          prev[static_cast<size_t>(j - 1)] -
          phi_kk * prev[static_cast<size_t>(k - j - 1)];
    }
    phi[static_cast<size_t>(k - 1)] = phi_kk;
    v *= (1.0 - phi_kk * phi_kk);
  }
  return phi;
}

double KpssStatistic(std::span<const double> series) {
  const size_t n = series.size();
  FAAS_CHECK(n >= 4) << "KPSS needs at least four points";
  const double mean = Mean(series);

  // Partial sums of demeaned residuals.
  std::vector<double> residuals(n);
  for (size_t t = 0; t < n; ++t) {
    residuals[t] = series[t] - mean;
  }
  double partial = 0.0;
  double sum_sq_partial = 0.0;
  for (size_t t = 0; t < n; ++t) {
    partial += residuals[t];
    sum_sq_partial += partial * partial;
  }

  // Long-run variance with a Bartlett kernel.
  const int lags = static_cast<int>(
      std::floor(4.0 * std::pow(static_cast<double>(n) / 100.0, 0.25)));
  double s2 = 0.0;
  for (size_t t = 0; t < n; ++t) {
    s2 += residuals[t] * residuals[t];
  }
  for (int lag = 1; lag <= lags; ++lag) {
    double gamma = 0.0;
    for (size_t t = static_cast<size_t>(lag); t < n; ++t) {
      gamma += residuals[t] * residuals[t - static_cast<size_t>(lag)];
    }
    const double weight =
        1.0 - static_cast<double>(lag) / (static_cast<double>(lags) + 1.0);
    s2 += 2.0 * weight * gamma;
  }
  s2 /= static_cast<double>(n);
  if (s2 <= 1e-300) {
    return 0.0;  // Constant series: trivially stationary.
  }
  return sum_sq_partial / (static_cast<double>(n) * static_cast<double>(n) * s2);
}

bool IsLevelStationaryKpss(std::span<const double> series) {
  // 5% critical value for the level-stationarity KPSS test.
  constexpr double kCriticalValue = 0.463;
  return KpssStatistic(series) < kCriticalValue;
}

int EstimateDifferencingOrder(std::span<const double> series, int max_d) {
  std::vector<double> current(series.begin(), series.end());
  for (int d = 0; d <= max_d; ++d) {
    if (current.size() < 4 || IsLevelStationaryKpss(current)) {
      return d;
    }
    current = Difference(current, 1);
  }
  return max_d;
}

namespace {

constexpr size_t kMaxRootDegree = 8;

constexpr double kUnitRoundoff = 0x1p-53;

// Durand-Kerner counts a root as inside when its modulus is at most this.
constexpr double kUnitRadius = 1.0 + 1e-8;

// The step-down test runs at two pairs of radii before deferring to
// Durand-Kerner.
//
// kDurandKernerBand: every polynomial is tested at 1 +- 1e-3.  Measured by
// running both on every root check of three sweeps of the benchmark's
// sweep_hybrid workload (10.9 million checks, seed 1): without the
// step-down's error bound they disagreed 0 times at widths 1e-3, 1e-4 and
// 1e-5 but 552 times at 1e-6; with it, 0 times at all four, and 0 again on
// seed 2.  The band stays at 1e-3, far above the error of Durand-Kerner
// itself on a triple root (about 1e-5).  A quarter of the checks have a
// root inside it, most from Nelder-Mead pressing the CSS fit onto the
// stationarity boundary; their roots lie 1e-4 to 1e-15 from kUnitRadius,
// spread evenly over the decades.
//
// kThresholdBand: those are tested again at kUnitRadius * (1 +- 1e-12)
// when RootsWellSeparated certifies that Durand-Kerner's rounding error on
// every root is below 1e-12 / 2, so the roots it computes fall on the same
// side of kUnitRadius as the true ones.  Roots within 1e-12 of kUnitRadius,
// clustered roots and degrees above 3 still run Durand-Kerner: 3% of the
// checks of a sweep_hybrid sweep.  Both pairs together agree with
// Durand-Kerner on every check of seeds 1 to 12.
constexpr double kDurandKernerBand = 1e-3;
constexpr double kThresholdBand = 1e-12;

// Degree of 1 - c1 z - ... - cp z^p once near-zero trailing coefficients
// are stripped.
size_t EffectiveDegree(std::span<const double> coefficients) {
  size_t degree = coefficients.size();
  while (degree > 0 && std::fabs(coefficients[degree - 1]) < 1e-12) {
    --degree;
  }
  FAAS_CHECK(degree <= kMaxRootDegree) << "root check limited to degree 8";
  return degree;
}

// True when a component of `z` already puts |z| at or above `bound`, so the
// hypot behind std::abs need not run to decide a comparison against it.
bool ComponentAtLeast(std::complex<double> z, double bound) {
  return std::fabs(z.real()) >= bound || std::fabs(z.imag()) >= bound;
}

bool DurandKernerRootsOutside(std::span<const double> coefficients,
                              size_t degree) {
  // Monic form: z^p - (c1/cp... ) -- easier to run Durand-Kerner on
  // p(z) = -c_p z^p - ... - c_1 z + 1 normalised by the leading coefficient.
  std::array<std::complex<double>, kMaxRootDegree + 1> poly;
  poly[0] = std::complex<double>(1.0, 0.0);
  for (size_t i = 1; i <= degree; ++i) {
    poly[i] = std::complex<double>(-coefficients[i - 1], 0.0);
  }
  const std::complex<double> lead = poly[degree];
  for (size_t i = 0; i <= degree; ++i) {
    poly[i] /= lead;
  }

  const auto eval = [&poly, degree](std::complex<double> z) {
    std::complex<double> acc(0.0, 0.0);
    for (size_t i = degree + 1; i-- > 0;) {
      acc = acc * z + poly[i];
    }
    return acc;
  };

  // Durand-Kerner iteration from the standard (0.4 + 0.9i)^k seeds.  The
  // loop stops once no step has a modulus of 1e-12 or more; a NaN step does
  // not hold it back.
  std::array<std::complex<double>, kMaxRootDegree> roots;
  const std::complex<double> seed(0.4, 0.9);
  std::complex<double> power(1.0, 0.0);
  for (size_t i = 0; i < degree; ++i) {
    power *= seed;
    roots[i] = power;
  }
  for (int iter = 0; iter < 200; ++iter) {
    bool converged = true;
    for (size_t i = 0; i < degree; ++i) {
      std::complex<double> denom(1.0, 0.0);
      for (size_t j = 0; j < degree; ++j) {
        if (j != i) {
          denom *= roots[i] - roots[j];
        }
      }
      if (!ComponentAtLeast(denom, 1e-300) && std::abs(denom) < 1e-300) {
        denom = std::complex<double>(1e-300, 0.0);
      }
      const std::complex<double> step = eval(roots[i]) / denom;
      roots[i] -= step;
      if (converged &&
          (ComponentAtLeast(step, 1e-12) || std::abs(step) >= 1e-12)) {
        converged = false;
      }
    }
    if (converged) {
      break;
    }
  }

  for (size_t i = 0; i < degree; ++i) {
    const std::complex<double> root = roots[i];
    if (std::fabs(root.real()) > kUnitRadius ||
        std::fabs(root.imag()) > kUnitRadius) {
      continue;
    }
    if (std::abs(root) <= kUnitRadius) {
      return false;
    }
  }
  return true;
}

enum class StepDownResult { kAllBeyond, kNotAllBeyond, kUndecided };

double MaxMagnitude(std::span<const double> values) {
  double largest = 0.0;
  for (double v : values) {
    largest = std::max(largest, std::fabs(v));
  }
  return largest;
}

// Schur-Cohn step-down (reverse Levinson) on the radius-scaled polynomial
// 1 - sum c_i r^i z^i: every root of 1 - sum c_i z^i lies beyond `radius`
// exactly when every reflection coefficient has modulus below one.
//
// Real arithmetic only, carrying a first-order bound on the rounding error
// of the working coefficients.  Each step divides by 1 - kappa^2, so near
// the unit circle (clustered or repeated roots there) that error grows
// fast; a reflection coefficient whose modulus is within its error of one
// is not trusted and the answer is kUndecided.
StepDownResult StepDownRootsBeyond(std::span<const double> coefficients,
                                   size_t degree, double radius) {
  std::array<double, kMaxRootDegree> a{};
  std::array<double, kMaxRootDegree> next{};
  double scale = 1.0;
  for (size_t i = 0; i < degree; ++i) {
    scale *= radius;
    a[i] = coefficients[i] * scale;
  }
  double magnitude = MaxMagnitude(std::span(a).first(degree));
  // Scaling by r^i rounds at most i + 1 times.
  double error = 16.0 * kUnitRoundoff * magnitude;
  for (size_t k = degree; k > 0; --k) {
    const double kappa = a[k - 1];
    const double abs_kappa = std::fabs(kappa);
    if (abs_kappa - error >= 1.0) {
      return StepDownResult::kNotAllBeyond;
    }
    if (!(abs_kappa + error < 1.0)) {
      return StepDownResult::kUndecided;  // Also catches NaN and overflow.
    }
    if (k == 1) {
      break;  // The last reflection coefficient has nothing to step down.
    }
    const double inv = 1.0 / ((1.0 - kappa) * (1.0 + kappa));
    // Relative change of 1 / (1 - kappa^2) under a kappa error of `error`.
    const double inv_drift = (2.0 * error + error * error) * inv;
    if (inv_drift > 0.25) {
      return StepDownResult::kUndecided;
    }
    for (size_t j = 0; j + 1 < k; ++j) {
      next[j] = (a[j] + kappa * a[k - j - 2]) * inv;
    }
    // New error: the numerator's (inherited plus rounding) scaled by
    // 1 / (1 - kappa^2), the numerator times that factor's drift and
    // rounding, and the final rounding, each with a factor of two to spare.
    // The numerator times 1 / (1 - kappa^2) is the new coefficient itself,
    // so its magnitude bounds that product even where the numerator
    // cancels (kappa near +-1, roots near the circle).
    const double numerator_error =
        error * (2.0 + magnitude + error) + 4.0 * kUnitRoundoff * magnitude;
    const double next_magnitude = MaxMagnitude(std::span(next).first(k - 1));
    error = 2.0 * inv * numerator_error +
            2.0 * next_magnitude * (2.0 * inv_drift + 5.0 * kUnitRoundoff) +
            kUnitRoundoff * next_magnitude;
    magnitude = next_magnitude;
    std::swap(a, next);
  }
  return StepDownResult::kAllBeyond;
}

// True when Durand-Kerner's relative rounding error on every root of
// 1 - c1 z - ... - cp z^p is certified below kThresholdBand / 2.
//
// To first order that error is the rounding error of evaluating the monic
// polynomial at the root, a small multiple of the unit roundoff u times
// sum |a_k| |z_i|^k <= 2 |z_i| prod_{j != i} (|z_i| + |z_j|), divided by
// |p'(z_i)| = prod_{j != i} |z_i - z_j|.  Relative to |z_i| that is a
// multiple of u times
//   cond_i = prod_{j != i} (|z_i| + |z_j|) / |z_i - z_j|,
// which is the same product over w = 1/z, the roots of
// w^p - c1 w^(p-1) - ... - cp.  Over the 2.1 million Durand-Kerner checks
// of the benchmark's sweep_hybrid workload, seeds 1 and 2, the multiple
// never exceeded 3.5.  The gate asks for
// 64 u cond_i <= kThresholdBand / 2, i.e. cond_i <= 70, for every root,
// bounding cond_i through the discriminant Delta = prod_{i<j} (w_i - w_j)^2
// with its rounding error carried (the bounds' own few-ulp rounding sits
// inside the factor 64):
//   p = 1: cond = 1.
//   p = 2: cond^2 = 1/2 + (c1^2 + 4|c2|) / (2|Delta|), from
//          (|w_1| + |w_2|)^2 = (|w_1 + w_2|^2 + |w_1 - w_2|^2) / 2 + 2|w_1 w_2|.
//   p = 3: each cond_i is at most the product of all three pair factors,
//          and (|w_a| + |w_b|)^2 <= 2 (|w_a|^2 + |w_b|^2), so by AM-GM
//            cond_i^2 <= 8 (2/3 sum |w|^2)^3 / |Delta|.
//          sum |w|^2 is at most the squared Frobenius norm of any diagonal
//          scaling of the companion matrix (Schur's inequality):
//            c1^2 + c2^2 s + c3^2 s^2 + 2/s for every s > 0.
// Higher degrees are not certified (the hybrid policy fits p, q <= 3).
bool RootsWellSeparated(std::span<const double> c, size_t degree) {
  constexpr double kMaxCond = kThresholdBand / (2.0 * 64.0 * kUnitRoundoff);
  if (degree == 1) {
    return true;
  }
  if (degree == 2) {
    const double scale = c[0] * c[0] + 4.0 * std::fabs(c[1]);
    const double disc = std::fabs(c[0] * c[0] + 4.0 * c[1]) -
                        4.0 * kUnitRoundoff * scale;
    return 0.5 * scale <= (kMaxCond * kMaxCond - 0.5) * disc;
  }
  if (degree == 3) {
    const double c1c2 = c[0] * c[1];
    const double terms[] = {c1c2 * c1c2, 4.0 * c[1] * c[1] * c[1],
                            -4.0 * c[0] * c[0] * c[0] * c[2],
                            -18.0 * c1c2 * c[2], -27.0 * c[2] * c[2]};
    double delta = 0.0;
    double scale = 0.0;
    for (const double term : terms) {
      delta += term;
      scale += std::fabs(term);
    }
    const double disc = std::fabs(delta) - 16.0 * kUnitRoundoff * scale;
    double sum_sq = std::numeric_limits<double>::infinity();
    for (const double s : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      sum_sq = std::min(sum_sq, c[0] * c[0] + c[1] * c[1] * s +
                                    c[2] * c[2] * s * s + 2.0 / s);
    }
    const double pair_mean = 2.0 / 3.0 * sum_sq;
    return 8.0 * pair_mean * pair_mean * pair_mean <=
           kMaxCond * kMaxCond * disc;
  }
  return false;
}

}  // namespace

bool RootsOutsideUnitCircleDurandKerner(std::span<const double> coefficients) {
  const size_t degree = EffectiveDegree(coefficients);
  return degree == 0 || DurandKernerRootsOutside(coefficients, degree);
}

bool RootsOutsideUnitCircle(std::span<const double> coefficients) {
  const size_t degree = EffectiveDegree(coefficients);
  if (degree == 0) {
    return true;
  }
  for (size_t i = 0; i < degree; ++i) {
    if (!std::isfinite(coefficients[i])) {
      return DurandKernerRootsOutside(coefficients, degree);
    }
  }
  const StepDownResult outer =
      StepDownRootsBeyond(coefficients, degree, 1.0 + kDurandKernerBand);
  if (outer == StepDownResult::kAllBeyond) {
    return true;
  }
  if (outer == StepDownResult::kNotAllBeyond &&
      StepDownRootsBeyond(coefficients, degree, 1.0 - kDurandKernerBand) ==
          StepDownResult::kNotAllBeyond) {
    return false;
  }
  if (RootsWellSeparated(coefficients, degree)) {
    if (StepDownRootsBeyond(coefficients, degree,
                            kUnitRadius * (1.0 + kThresholdBand)) ==
        StepDownResult::kAllBeyond) {
      return true;
    }
    if (StepDownRootsBeyond(coefficients, degree,
                            kUnitRadius * (1.0 - kThresholdBand)) ==
        StepDownResult::kNotAllBeyond) {
      return false;
    }
  }
  return DurandKernerRootsOutside(coefficients, degree);
}

}  // namespace faas
