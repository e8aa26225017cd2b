#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Percentile NearestRankSorted(const std::vector<double>& sorted, double p) {
  Percentile q;
  q.p = p;
  q.n = static_cast<int64_t>(sorted.size());
  if (q.n == 0) return q;
  // ceil(p/100 * n) without the float error of e.g. 0.99 * 100 = 98.99999.
  const double exact = p * static_cast<double>(q.n) / 100.0;
  int64_t rank = static_cast<int64_t>(std::ceil(exact - 1e-9));
  rank = std::max<int64_t>(1, std::min(rank, q.n));
  q.rank = rank;
  q.value = sorted[static_cast<size_t>(rank - 1)];
  q.beyond = q.n - rank;
  return q;
}

Percentile NearestRank(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return NearestRankSorted(samples, p);
}

double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 50.0).value;
}

Percentile TailPercentile(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  for (int p = 99; p > 50; --p) {
    const Percentile q = NearestRankSorted(samples, p);
    if (q.beyond >= 10) return q;
  }
  Percentile none;
  none.n = static_cast<int64_t>(samples.size());
  return none;
}

std::vector<Percentile> BlockP99s(const std::vector<double>& samples) {
  const size_t n = samples.size();
  const size_t blocks = std::max<size_t>(1, n / 1000);
  std::vector<Percentile> out;
  for (size_t b = 0; b < blocks; ++b) {
    out.push_back(NearestRank(
        std::vector<double>(samples.begin() + n * b / blocks,
                            samples.begin() + n * (b + 1) / blocks),
        99.0));
  }
  return out;
}

std::string DescribeTiming(const std::vector<double>& samples) {
  const Percentile tail = TailPercentile(samples);
  return Describe(NearestRank(samples, 50.0)) + "; " +
         (tail.rank > 0 ? "tail " + Describe(tail)
                        : "no percentile above the median has 10 samples "
                          "beyond it at n=" + std::to_string(tail.n));
}

std::string Describe(const Percentile& q) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p%g=%.6g (n=%lld, rank %lld, %lld beyond)",
                q.p, q.value, static_cast<long long>(q.n),
                static_cast<long long>(q.rank),
                static_cast<long long>(q.beyond));
  return buf;
}

}  // namespace perfbench
