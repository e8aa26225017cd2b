// Order statistics for the benchmark: nearest-rank percentiles that carry
// their sample counts, so a reported tail is never computed from fewer
// samples than it claims to describe.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One nearest-rank percentile: `value` is the sample at 1-based rank
/// ceil(p/100 * n) of the sorted samples; `beyond` is how many samples lie
/// above that rank (n - rank).
struct Percentile {
  double p = 0.0;
  double value = 0.0;
  int64_t n = 0;
  int64_t rank = 0;
  int64_t beyond = 0;
};

/// Nearest-rank percentile for p in (0, 100]. n == 0 yields value 0 and
/// rank 0.
Percentile NearestRank(std::vector<double> samples, double p);

/// Percentile over already sorted samples.
Percentile NearestRankSorted(const std::vector<double>& sorted, double p);

double Median(std::vector<double> samples);

/// The highest whole percentile above the median that has at least 10
/// samples beyond its rank. When no such percentile exists (n too small),
/// `rank` is 0 and `n` still holds the sample count.
Percentile TailPercentile(std::vector<double> samples);

/// The nearest-rank p99 of each block of consecutive samples, in order.
/// The blocks split the samples evenly into as many blocks of at least
/// 1,000 samples as fit, so every block's p99 has at least 10 samples
/// beyond it; fewer than 2,000 samples form one block.
std::vector<Percentile> BlockP99s(const std::vector<double>& samples);

/// "p50=... (n=..., ...); tail p80=... (..., 10 beyond)" for a timing's
/// note, or a statement that no tail percentile has enough samples.
std::string DescribeTiming(const std::vector<double>& samples);

/// "p99=12.3 (n=1200, rank 1188, 12 beyond)" for logs and result files.
std::string Describe(const Percentile& q);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
