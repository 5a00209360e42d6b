#include "src/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(lo),
                   values.end());
  const double lo_value = values[lo];
  if (hi == lo) {
    return lo_value;
  }
  // The next order statistic is the minimum of the upper partition.
  const double hi_value =
      *std::min_element(values.begin() + static_cast<std::ptrdiff_t>(hi), values.end());
  return lo_value + (rank - static_cast<double>(lo)) * (hi_value - lo_value);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

}  // namespace perfbench
