#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t n = samples->size();
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const size_t idx =
      rank <= 1.0 ? 0 : std::min(n, static_cast<size_t>(rank)) - 1;
  return (*samples)[idx];
}

double Median(std::vector<double> samples) {
  return Percentile(&samples, 50.0);
}

double FastTime(std::vector<double> samples) {
  return Percentile(&samples, 25.0);
}

double FastRate(std::vector<double> samples) {
  return Percentile(&samples, 75.0);
}

}  // namespace perfbench
