#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace divbench {

Distribution describe(std::vector<double> samples) {
  Distribution d;
  d.n = samples.size();
  if (samples.empty()) {
    return d;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  d.median = n % 2 == 1 ? samples[n / 2]
                        : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  if (n == 1) {
    d.q1 = d.q3 = d.median;
    return d;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i of 4 sits at
  // position i*m/4 (1-based), clamped to [1, n-1], linearly interpolated.
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const auto delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  };
  d.q1 = cut(1);
  d.q3 = cut(3);
  return d;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

Tail tail(std::vector<double> samples) {
  Tail result;
  if (samples.empty()) {
    return result;
  }
  const std::size_t n = samples.size();
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n - rank >= 10 || p == 50.0) {
      result.percentile = p;
      result.beyond = n - std::min(rank, n);
      result.value = percentile(samples, p);
      return result;
    }
  }
  return result;
}

double sum(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

}  // namespace divbench
