#include "src/common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace harl {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  if (n_ == 0) return 0.0;
  return std::max(0.0, m2_ / static_cast<double>(n_));
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cv() const {
  if (n_ == 0 || mean_ == 0.0) return 0.0;
  return stddev() / mean_;
}

Summary summarize(std::span<const double> xs) {
  RunningStats rs;
  for (double x : xs) rs.add(x);
  Summary s;
  s.count = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.cv = rs.cv();
  s.min = rs.min();
  s.max = rs.max();
  s.sum = rs.sum();
  return s;
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile p out of [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace harl
