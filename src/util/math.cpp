#include "util/math.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace vs2::util {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mu = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return acc / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  if (n % 2 == 1) return xs[n / 2];
  return (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  double mx = Mean(xs);
  double my = Mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    double dx = xs[i] - mx;
    double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

namespace {

/// Sequential double accumulation. The pinned pipeline digests depend on
/// this exact summation order: a lane-blocked sum rounds differently and can
/// flip near-ties in VS2-Select's disambiguation.
template <typename T>
double Cosine(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace

double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b) {
  return Cosine(a, b);
}

double CosineSimilarity(const std::vector<float>& a,
                        const std::vector<float>& b) {
  return Cosine(a, b);
}

size_t FirstInflectionPoint(const std::vector<double>& series,
                            size_t fallback) {
  if (series.size() < 3) return fallback;
  // Central second difference: f''(i) ≈ f(i+1) - 2 f(i) + f(i-1). An
  // inflection is a *sign change* of f''; zero-curvature plateaus are
  // skipped until the sign on the far side is known, so a flat spot inside
  // a convex (or concave) stretch is not an inflection, and a plateau
  // separating opposite signs reports its first flat index.
  int last_sign = 0;          // sign of the most recent nonzero f''
  size_t last_sign_index = 0;  // where that sign was observed
  for (size_t i = 1; i + 1 < series.size(); ++i) {
    double d = series[i + 1] - 2.0 * series[i] + series[i - 1];
    int sign = (d > 0.0) - (d < 0.0);
    if (sign == 0) continue;  // plateau: curvature undecided, keep scanning
    if (last_sign != 0 && sign != last_sign) {
      // Zero crossing. Adjacent opposite signs: the crossing sits at i.
      // Signs separated by a plateau: the inflection is the plateau's
      // first flat point, right after the last curved one.
      return i == last_sign_index + 1 ? i : last_sign_index + 1;
    }
    last_sign = sign;
    last_sign_index = i;
  }
  return fallback;
}

std::vector<double> MinMaxNormalize(const std::vector<double>& xs) {
  std::vector<double> out(xs.size(), 0.0);
  if (xs.empty()) return out;
  auto [lo_it, hi_it] = std::minmax_element(xs.begin(), xs.end());
  double lo = *lo_it, hi = *hi_it;
  if (hi - lo <= 0.0) return out;
  for (size_t i = 0; i < xs.size(); ++i) out[i] = (xs[i] - lo) / (hi - lo);
  return out;
}

double Clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

std::vector<double> Ranks(const std::vector<double>& xs) {
  std::vector<size_t> order(xs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(xs.size(), 0.0);
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() && xs[order[j + 1]] == xs[order[i]]) ++j;
    double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

}  // namespace vs2::util
