#include "src/obs/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace harl::obs {

QuantileSketch::QuantileSketch(unsigned sub_bits) : sub_bits_(sub_bits) {
  if (sub_bits > 12) {
    throw std::invalid_argument("QuantileSketch sub_bits must be <= 12");
  }
}

std::int32_t QuantileSketch::subnormal_index(double x) const {
  int e = 0;
  const double m = std::frexp(x, &e);
  const auto sub = static_cast<std::int32_t>(1u << sub_bits_);
  auto cell =
      static_cast<std::int32_t>((m * 2.0 - 1.0) * static_cast<double>(sub));
  cell = std::min(std::max(cell, std::int32_t{0}), sub - 1);
  return static_cast<std::int32_t>(e) * sub + cell;
}

double QuantileSketch::bucket_low(std::int32_t index) const {
  const auto sub = static_cast<std::int32_t>(1u << sub_bits_);
  std::int32_t e = index / sub;
  std::int32_t cell = index % sub;
  if (cell < 0) {
    cell += sub;
    --e;
  }
  return std::ldexp(1.0 + static_cast<double>(cell) / static_cast<double>(sub),
                    e - 1);
}

std::uint64_t& QuantileSketch::slot(std::int32_t index) {
  if (counts_.empty()) {
    base_ = index;
    counts_.push_back(0);
    return counts_.front();
  }
  if (index < base_) {
    // Exact front growth: the dense range stays a pure function of the
    // touched index extremes (the equality/merge-determinism contract).
    counts_.insert(counts_.begin(), static_cast<std::size_t>(base_ - index),
                   0);
    base_ = index;
  } else if (const auto off = static_cast<std::size_t>(index - base_);
             off >= counts_.size()) {
    counts_.resize(off + 1, 0);
  }
  return counts_[static_cast<std::size_t>(index - base_)];
}

void QuantileSketch::add_slow(double x) {
  if (std::isinf(x)) x = std::numeric_limits<double>::max();
  ++slot(bucket_index(x));
  sum_ += x;
  note(x);
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (other.sub_bits_ != sub_bits_) {
    throw std::invalid_argument("QuantileSketch merge requires equal sub_bits");
  }
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    if (other.counts_[i] == 0) continue;
    slot(other.base_ + static_cast<std::int32_t>(i)) += other.counts_[i];
  }
  non_positive_ += other.non_positive_;
  sum_ += other.sum_;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
}

void QuantileSketch::reset() { *this = QuantileSketch{sub_bits_}; }

double QuantileSketch::mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double QuantileSketch::quantile(double q) const {
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("quantile q out of [0,1]");
  }
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_);
  double seen = static_cast<double>(non_positive_);
  // Non-positive samples sit below every bucket at the value 0; an
  // all-positive sketch must fall through to its first bucket (clamped to
  // min), not report 0 at q = 0.
  if (non_positive_ > 0 && rank <= seen) return std::min(0.0, min_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t n = counts_[i];
    if (n == 0) continue;
    const double next = seen + static_cast<double>(n);
    if (rank <= next) {
      const std::int32_t index = base_ + static_cast<std::int32_t>(i);
      const double lo = bucket_low(index);
      const double hi = bucket_low(index + 1);
      const double frac = (rank - seen) / static_cast<double>(n);
      const double v = lo + frac * (hi - lo);
      return std::min(std::max(v, min_), max_);
    }
    seen = next;
  }
  return max_;
}

void QuantileSketch::quantiles(std::span<const double> qs,
                               std::span<double> out) const {
  if (out.size() != qs.size()) {
    throw std::invalid_argument("quantiles needs one output per q");
  }
  for (std::size_t k = 0; k < qs.size(); ++k) {
    if (qs[k] < 0.0 || qs[k] > 1.0) {
      throw std::invalid_argument("quantile q out of [0,1]");
    }
    if (k > 0 && qs[k] < qs[k - 1]) {
      throw std::invalid_argument("quantiles needs ascending q");
    }
  }
  // quantile()'s walk, resumed from one q to the next: the ranks ascend
  // with q, and `seen` takes the same values in the same order.
  std::size_t k = 0;
  if (count_ == 0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const auto rank = [&](std::size_t j) {
    return qs[j] * static_cast<double>(count_);
  };
  double seen = static_cast<double>(non_positive_);
  if (non_positive_ > 0) {
    for (; k < qs.size() && rank(k) <= seen; ++k) out[k] = std::min(0.0, min_);
  }
  for (std::size_t i = 0; i < counts_.size() && k < qs.size(); ++i) {
    const std::uint64_t n = counts_[i];
    if (n == 0) continue;
    const double next = seen + static_cast<double>(n);
    if (rank(k) <= next) {
      const std::int32_t index = base_ + static_cast<std::int32_t>(i);
      const double lo = bucket_low(index);
      const double hi = bucket_low(index + 1);
      for (; k < qs.size() && rank(k) <= next; ++k) {
        const double frac = (rank(k) - seen) / static_cast<double>(n);
        const double v = lo + frac * (hi - lo);
        out[k] = std::min(std::max(v, min_), max_);
      }
    }
    seen = next;
  }
  for (; k < qs.size(); ++k) out[k] = max_;
}

std::vector<QuantileSketch::Bucket> QuantileSketch::buckets() const {
  std::vector<Bucket> out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const std::int32_t index = base_ + static_cast<std::int32_t>(i);
    out.push_back(Bucket{bucket_low(index), bucket_low(index + 1), counts_[i]});
  }
  return out;
}

}  // namespace harl::obs
