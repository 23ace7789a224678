#include "src/stats/nelder_mead.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"

namespace faas {

namespace {

// One simplex vertex and its objective value.
struct Vertex {
  std::vector<double> x;
  double f = 0.0;
};

// Writes into `centroid` (size dim) the mean of every vertex but `exclude`.
void Centroid(const std::vector<Vertex>& simplex, size_t exclude,
              std::vector<double>& centroid) {
  std::fill(centroid.begin(), centroid.end(), 0.0);
  for (size_t i = 0; i < simplex.size(); ++i) {
    if (i == exclude) {
      continue;
    }
    for (size_t d = 0; d < centroid.size(); ++d) {
      centroid[d] += simplex[i].x[d];
    }
  }
  const double inv = 1.0 / static_cast<double>(simplex.size() - 1);
  for (double& c : centroid) {
    c *= inv;
  }
}

// out = base + t * (direction - base), elementwise; `out` may alias
// `direction`.
void AffineCombination(const std::vector<double>& base,
                       const std::vector<double>& direction, double t,
                       std::vector<double>& out) {
  for (size_t d = 0; d < base.size(); ++d) {
    out[d] = base[d] + t * (direction[d] - base[d]);
  }
}

// Replaces `vertex` by the candidate point in `candidate`; the vertex's old
// coordinates become the next candidate buffer, so nothing allocates.
void Accept(Vertex& vertex, std::vector<double>& candidate, double f) {
  vertex.x.swap(candidate);
  vertex.f = f;
}

}  // namespace

NelderMeadResult NelderMeadMinimize(
    const std::function<double(const std::vector<double>&)>& objective,
    const std::vector<double>& initial, const NelderMeadOptions& options) {
  FAAS_CHECK(!initial.empty()) << "Nelder-Mead needs at least one dimension";
  const size_t dim = initial.size();

  // Standard coefficients.
  constexpr double kReflect = 1.0;
  constexpr double kExpand = 2.0;
  constexpr double kContract = 0.5;
  constexpr double kShrink = 0.5;

  std::vector<Vertex> simplex(dim + 1);
  simplex[0] = {initial, objective(initial)};
  for (size_t i = 0; i < dim; ++i) {
    std::vector<double> x = initial;
    if (std::fabs(x[i]) > 1e-8) {
      x[i] *= 1.0 + options.relative_step;
    } else {
      x[i] += options.initial_step;
    }
    simplex[i + 1] = {x, objective(x)};
  }

  // Scratch for the centroid and the candidate points of one iteration.
  std::vector<double> centroid(dim);
  std::vector<double> reflected(dim);
  std::vector<double> candidate(dim);

  NelderMeadResult result;
  int iteration = 0;
  for (; iteration < options.max_iterations; ++iteration) {
    std::sort(simplex.begin(), simplex.end(),
              [](const Vertex& a, const Vertex& b) { return a.f < b.f; });

    const double spread = std::fabs(simplex.back().f - simplex.front().f);
    double diameter = 0.0;
    for (size_t i = 1; i < simplex.size(); ++i) {
      for (size_t d = 0; d < dim; ++d) {
        diameter = std::max(diameter,
                            std::fabs(simplex[i].x[d] - simplex[0].x[d]));
      }
    }
    if (spread < options.f_tolerance && diameter < options.x_tolerance &&
        std::isfinite(simplex.front().f)) {
      result.converged = true;
      break;
    }

    const size_t worst = simplex.size() - 1;
    Centroid(simplex, worst, centroid);

    // Reflection: x_r = centroid + alpha * (centroid - worst).
    AffineCombination(centroid, simplex[worst].x, -kReflect, reflected);
    const double f_reflected = objective(reflected);

    if (f_reflected < simplex[0].f) {
      // Expansion.
      AffineCombination(centroid, simplex[worst].x, -kExpand, candidate);
      const double f_expanded = objective(candidate);
      if (f_expanded < f_reflected) {
        Accept(simplex[worst], candidate, f_expanded);
      } else {
        Accept(simplex[worst], reflected, f_reflected);
      }
      continue;
    }
    if (f_reflected < simplex[worst - 1].f) {
      Accept(simplex[worst], reflected, f_reflected);
      continue;
    }
    // Contraction (toward the better of worst/reflected).
    if (f_reflected < simplex[worst].f) {
      // Outside contraction.
      AffineCombination(centroid, reflected, kContract, candidate);
      const double f_contracted = objective(candidate);
      if (f_contracted <= f_reflected) {
        Accept(simplex[worst], candidate, f_contracted);
        continue;
      }
    } else {
      // Inside contraction.
      AffineCombination(centroid, simplex[worst].x, kContract, candidate);
      const double f_contracted = objective(candidate);
      if (f_contracted < simplex[worst].f) {
        Accept(simplex[worst], candidate, f_contracted);
        continue;
      }
    }
    // Shrink everything toward the best vertex.
    for (size_t i = 1; i < simplex.size(); ++i) {
      AffineCombination(simplex[0].x, simplex[i].x, kShrink, simplex[i].x);
      simplex[i].f = objective(simplex[i].x);
    }
  }

  std::sort(simplex.begin(), simplex.end(),
            [](const Vertex& a, const Vertex& b) { return a.f < b.f; });
  result.x = simplex[0].x;
  result.f = simplex[0].f;
  result.iterations = iteration;
  return result;
}

}  // namespace faas
