// Metrics registry: counters, gauges and quantile-sketch distributions keyed
// by a cheap interned label set.
//
// A metric *family* is registered once by name (cold path) and returns a
// small integer id; a series within it is named by a packed `LabelSet`
// (server id, tier, region, op, client — each field optional).  Hot paths
// resolve a series once to a `Series` handle and then update it by index;
// the LabelSet overloads hash the label words on every call and suit cold
// paths.  Both go through the same lookup, so they share one series.
// Registries are single-threaded by design — one per Simulator/replica — and
// `merge()` combines them deterministically afterwards, which is how the
// parallel harness aggregates per-replica metrics without locks.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/io.hpp"
#include "src/obs/sketch.hpp"

namespace harl::obs {

/// Writes `s` as a quoted JSON string: escapes `"`, `\`, `\n`, `\t` and
/// every other control byte (as \u00XX), so any name yields valid JSON.
void write_json_string(std::ostream& out, std::string_view s);

/// `out << Real{v}` writes v exactly as `out << v` does at precision 17
/// (printf "%.17g", the round-trip precision every obs export sets), but
/// through std::to_chars, which is about twice as fast as the stream's
/// printf path.  The exports write hundreds of thousands of doubles.
struct Real {
  double v;
};
std::ostream& operator<<(std::ostream& out, Real r);

/// Packed label set.  Fields default to "absent"; setters are chainable:
/// `LabelSet{}.server(3).tier(0).op(IoOp::kRead)`.
///
/// The primary word packs {server, tier, region, client, op} and is full; the
/// namespace dimensions (file, tenant) live in a second extension word that
/// is all-absent by default, so single-file workloads — which never set them
/// — key, merge and serialize exactly as before the namespace refactor.
class LabelSet {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFu;
  static constexpr std::uint32_t kNoneRegion = 0xFFFFFu;

  LabelSet() = default;

  LabelSet& server(std::uint32_t v) { return set(bits_, 0, 16, v); }
  LabelSet& tier(std::uint32_t v) { return set(bits_, 16, 8, v); }
  LabelSet& region(std::uint32_t v) { return set(bits_, 24, 20, v); }
  LabelSet& client(std::uint32_t v) { return set(bits_, 44, 16, v); }
  LabelSet& op(IoOp o) { return set(bits_, 60, 4, o == IoOp::kRead ? 0u : 1u); }
  LabelSet& file(std::uint32_t v) { return set(ext_bits_, 0, 16, v); }
  LabelSet& tenant(std::uint32_t v) { return set(ext_bits_, 16, 16, v); }

  std::uint32_t server_value() const { return get(bits_, 0, 16); }
  std::uint32_t tier_value() const { return get(bits_, 16, 8); }
  std::uint32_t region_value() const { return get(bits_, 24, 20); }
  std::uint32_t client_value() const { return get(bits_, 44, 16); }
  bool has_op() const { return get(bits_, 60, 4) != 0xFu; }
  IoOp op_value() const {
    return get(bits_, 60, 4) == 0 ? IoOp::kRead : IoOp::kWrite;
  }
  std::uint32_t file_value() const { return get(ext_bits_, 0, 16); }
  std::uint32_t tenant_value() const { return get(ext_bits_, 16, 16); }

  std::uint64_t bits() const { return bits_; }
  std::uint64_t ext_bits() const { return ext_bits_; }

  /// Rebuilds a label set from `bits()` (the pack is transparent).
  static LabelSet from_bits(std::uint64_t bits,
                            std::uint64_t ext = ~std::uint64_t{0}) {
    LabelSet l;
    l.bits_ = bits;
    l.ext_bits_ = ext;
    return l;
  }

  friend bool operator==(const LabelSet&, const LabelSet&) = default;

 private:
  LabelSet& set(std::uint64_t& word, unsigned shift, unsigned width,
                std::uint32_t v) {
    const std::uint64_t mask = ((std::uint64_t{1} << width) - 1) << shift;
    word = (word & ~mask) | ((static_cast<std::uint64_t>(v) << shift) & mask);
    return *this;
  }
  static std::uint32_t get(std::uint64_t word, unsigned shift,
                           unsigned width) {
    return static_cast<std::uint32_t>((word >> shift) &
                                      ((std::uint64_t{1} << width) - 1));
  }

  std::uint64_t bits_ = ~std::uint64_t{0};      // all fields absent
  std::uint64_t ext_bits_ = ~std::uint64_t{0};  // file/tenant absent
};

class MetricsRegistry {
 public:
  /// kHistogram and kSketch are both QuantileSketch series; they differ
  /// only in resolution and in what the JSON dump exports (a histogram has
  /// no p999).
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram, kSketch };

  /// kHistogram series: 1/2^5 = 3.2% relative quantile error.
  static constexpr unsigned kHistogramSubBits = 5;
  /// kSketch series: 1.6%, tight enough that a p999 sits above a p99.
  static constexpr unsigned kSketchSubBits = 6;

  using FamilyId = std::uint32_t;

  /// Stable handle of one series: its family plus an index into that
  /// family's scalars or sketches — an index, never a pointer, because both
  /// vectors grow.  Creating other series and merge() never move a series,
  /// so a handle stays valid for the registry's lifetime.  A default handle
  /// is unresolved; callers cache handles and resolve them on first use, so
  /// a series that is never touched is never created.
  struct Series {
    static constexpr std::uint32_t kUnresolved = 0xFFFFFFFFu;
    FamilyId family = 0;
    std::uint32_t index = kUnresolved;
    bool resolved() const { return index != kUnresolved; }
  };

  /// Registers (or finds) the family `name`; the kind must match on reuse.
  FamilyId family(std::string_view name, Kind kind);

  /// Finds or creates the series `labels` of `family`.
  Series series(FamilyId family, LabelSet labels);

  /// counter += delta, by handle (the hot path: no hashing).
  void add(Series s, double delta) {
    families_[s.family].scalars[s.index] += delta;
  }
  /// histogram or sketch <- value, by handle.
  void observe(Series s, double value) {
    families_[s.family].sketches[s.index].add(value);
  }

  /// counter += delta.
  void add(FamilyId family, LabelSet labels, double delta);
  /// gauge = value (last write wins).
  void set(FamilyId family, LabelSet labels, double value);
  /// gauge = max(gauge, value).
  void set_max(FamilyId family, LabelSet labels, double value);
  /// histogram or sketch <- value.
  void observe(FamilyId family, LabelSet labels, double value);

  /// Reads back a scalar (counter/gauge); 0 when the series doesn't exist.
  double value(std::string_view name, LabelSet labels = {}) const;
  /// Reads back a histogram or sketch series; nullptr when it doesn't
  /// exist.
  const QuantileSketch* sketch(std::string_view name,
                               LabelSet labels = {}) const;

  /// Merges `other` into this registry: counters add, gauges take the max
  /// (they are high-water marks across replicas), histograms and sketches
  /// merge exactly.  Families are matched by name, so merge order never
  /// changes the result.
  void merge(const MetricsRegistry& other);

  /// Deterministic JSON dump: families sorted by name, series by label bits.
  /// Emits one object per series with decoded labels.
  void write_json(std::ostream& out, int indent = 0) const;

  std::size_t family_count() const { return families_.size(); }

 private:
  /// 128-bit series key: the packed primary word plus the file/tenant
  /// extension word (all-absent for legacy series, so they hash and sort
  /// exactly as their pre-namespace 64-bit keys did).
  struct SeriesKey {
    std::uint64_t bits = 0;
    std::uint64_t ext = 0;
    friend bool operator==(const SeriesKey&, const SeriesKey&) = default;
    friend bool operator<(const SeriesKey& a, const SeriesKey& b) {
      return a.bits != b.bits ? a.bits < b.bits : a.ext < b.ext;
    }
  };
  struct SeriesKeyHash {
    std::size_t operator()(const SeriesKey& k) const {
      return static_cast<std::size_t>(
          (k.bits * 0x9E3779B97F4A7C15ull) ^ k.ext);
    }
  };

  struct Family {
    std::string name;
    Kind kind = Kind::kCounter;
    // label words -> index into scalars (counter/gauge) or sketches
    std::unordered_map<SeriesKey, std::size_t, SeriesKeyHash> series;
    std::vector<double> scalars;
    std::vector<QuantileSketch> sketches;
  };

  Family* find(std::string_view name);
  const Family* find(std::string_view name) const;

  std::vector<Family> families_;
  std::unordered_map<std::string, FamilyId> by_name_;
};

}  // namespace harl::obs
