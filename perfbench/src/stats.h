// Order statistics for benchmark samples.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <vector>

namespace perfbench {

// The q-quantile (q in [0, 1]) by linear interpolation between the two
// nearest order statistics (rank q * (n - 1), the "inclusive" method of
// Python's statistics.quantiles). 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
