// Sample summaries shared by the timed run, the traced run and compare.
#pragma once

#include <cstddef>
#include <vector>

namespace divbench {

// Median and quartiles of a sample set.  The quartiles use the same
// "exclusive" interpolation as Python's statistics.quantiles(values, n=4),
// so spreads computed here and by any script over the emitted samples
// agree.  A single sample is its own median and quartiles.
struct Distribution {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

Distribution describe(std::vector<double> samples);

// Nearest-rank percentile (p in [0, 100]); 0 for an empty set.
double percentile(std::vector<double> samples, double p);

// The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that still
// has at least ten samples beyond it (the median when none does), so a
// reported tail is never one sample's noise.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;  // samples strictly above the percentile's rank
};

Tail tail(std::vector<double> samples);

double sum(const std::vector<double>& samples);

}  // namespace divbench
