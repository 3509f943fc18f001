// Streaming and batch statistics.
//
// Algorithm 1 of the paper drives region splitting off the coefficient of
// variation (CV = population standard deviation / mean) of request sizes in a
// growing window; `RunningStats` provides exactly that, incrementally and in
// a numerically stable form (Welford), with O(1) removal-free restart.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace harl {

/// Welford-style streaming mean/variance accumulator.
///
/// The paper's Algorithm 1 uses the *population* standard deviation
/// (divide by n, not n-1); `stddev()` matches that convention.
class RunningStats {
 public:
  void add(double x);

  /// Forgets all samples (Algorithm 1 line 12: "Restart with new CV").
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }

  /// Population variance (sum of squared deviations / n); 0 when empty.
  double variance() const;
  double stddev() const;

  /// Coefficient of variation: stddev / mean; defined as 0 for an empty
  /// window or a zero mean (constant-size windows have CV 0).
  double cv() const;

  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population
  double cv = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
};

/// Computes a full summary of `xs` in one pass.
Summary summarize(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100].  `xs` need not be sorted;
/// a sorted copy is made internally.  Returns 0 for an empty sample.
double percentile(std::span<const double> xs, double p);

}  // namespace harl
