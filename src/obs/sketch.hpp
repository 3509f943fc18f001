// Mergeable log-bucket quantile sketch: the one distribution type of the
// observability subsystem (DESIGN.md §15).  Metrics histograms, sketch
// families, the recorder's per-track wait/service distributions and the
// telemetry windows are all instances, differing only in sub_bits.
//
// Each power of two is split into 2^sub_bits equal-width cells, bounding any
// quantile's relative error by 1/2^sub_bits.  Counts live in a *dense*
// contiguous array over the observed index range, so the hot-path insert is
// one subtract + bounds check + increment.  The dense range always spans
// exactly the touched buckets (growth is by need, never speculative), which
// makes the representation a pure function of the multiset of samples: two
// sketches fed the same samples in any order compare equal member-by-member,
// and merge() is exact — merging per-replica sketches yields bit-identical
// state to one sketch fed the combined stream.  That is the property that
// lets the MetricsRegistry treat distribution families like counters:
// order-independent parallel aggregation.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace harl::obs {

class QuantileSketch {
 public:
  /// Relative-error knob: quantiles are exact to 1/2^sub_bits (default 6:
  /// 1.6%, tight enough that a p999 is meaningfully above a p99).
  explicit QuantileSketch(unsigned sub_bits = 6);

  void add(double x) {
    if (x > 0.0 && x <= std::numeric_limits<double>::max()) {
      // Hot path: a bucket the dense range already covers.
      const std::int64_t off = std::int64_t{bucket_index(x)} - base_;
      if (off >= 0 && off < static_cast<std::int64_t>(counts_.size())) {
        ++counts_[static_cast<std::size_t>(off)];
        sum_ += x;
        note(x);
        return;
      }
    } else if (!(x > 0.0)) {  // zero, negative, NaN: the value 0
      ++non_positive_;
      note(0.0);
      return;
    }
    add_slow(x);
  }
  /// Exact merge; requires equal sub_bits (throws std::invalid_argument).
  void merge(const QuantileSketch& other);
  void reset();

  std::uint64_t count() const { return count_; }
  std::uint64_t non_positive() const { return non_positive_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double mean() const;

  /// Quantile estimate, q in [0, 1]: linear interpolation inside the
  /// containing bucket, clamped to the exact [min, max] envelope.
  /// Non-positive samples count as the value 0.  Returns 0 when empty.
  double quantile(double q) const;
  /// Percentile convenience, p in [0, 100] (p999 == quantile(0.999)).
  double percentile(double p) const { return quantile(p / 100.0); }
  /// out[i] = quantile(qs[i]), bit for bit, from one pass over the buckets.
  /// `qs` must be ascending and as long as `out`.
  void quantiles(std::span<const double> qs, std::span<double> out) const;

  unsigned sub_bits() const { return sub_bits_; }

  /// Non-empty buckets in ascending value order (excludes non-positives).
  struct Bucket {
    double lo = 0.0;   ///< inclusive lower bound
    double hi = 0.0;   ///< exclusive upper bound
    std::uint64_t count = 0;
  };
  std::vector<Bucket> buckets() const;

  /// Member-wise equality is sample-set equality (see file comment): the
  /// dense range spans exactly the touched buckets, so identical sample
  /// multisets produce identical state regardless of insertion order.
  friend bool operator==(const QuantileSketch&, const QuantileSketch&) =
      default;

 private:
  /// Bucket of x > 0 (finite).  x = m * 2^e with m in [0.5, 1); the
  /// octave [2^(e-1), 2^e) splits into 2^sub_bits equal cells, and the
  /// index e * 2^sub_bits + cell orders buckets by value, making merge a
  /// plain per-index addition.  A normal double is (1 + f / 2^52) *
  /// 2^(E - 1023) for biased exponent E and fraction f, so e = E - 1022
  /// and the cell, floor((2m - 1) * 2^sub_bits), is the top sub_bits of f:
  /// both are read from the bits.  Subnormals go through frexp.
  std::int32_t bucket_index(double x) const {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const auto biased = static_cast<std::int32_t>((bits >> 52) & 0x7FFu);
    if (biased == 0) return subnormal_index(x);
    const auto cell = static_cast<std::int32_t>(
        (bits & ((std::uint64_t{1} << 52) - 1)) >> (52 - sub_bits_));
    return (biased - 1022) * (std::int32_t{1} << sub_bits_) + cell;
  }
  std::int32_t subnormal_index(double x) const;
  /// A positive sample that is +inf or lies outside the dense range.
  void add_slow(double x);
  /// Counts one sample of value `v` into count_, min_ and max_.
  void note(double v) {
    min_ = count_ == 0 ? v : std::min(min_, v);
    max_ = count_ == 0 ? v : std::max(max_, v);
    ++count_;
  }
  double bucket_low(std::int32_t index) const;
  /// Grows counts_ to cover `index` exactly (front or back, by need).
  std::uint64_t& slot(std::int32_t index);

  unsigned sub_bits_ = 6;
  std::int32_t base_ = 0;              ///< bucket index of counts_[0]
  std::vector<std::uint64_t> counts_;  ///< dense [base_, base_ + size())
  std::uint64_t count_ = 0;
  std::uint64_t non_positive_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace harl::obs
