// Region Stripe Table (paper Section III-E, Fig. 6).
//
// The RST is HARL's placement metadata: per file region, the offset where
// the region starts and the optimal per-tier stripe sizes.  The MDS consults
// it to answer client placement lookups; the middleware loads it at MPI_Init
// time.  Adjacent regions with equal stripe vectors are merged to shrink
// metadata (Section III-E).
//
// Since the tier-vector refactor every entry holds a stripe vector
// (s_0, ..., s_{k-1}); the paper's two-tier table is k = 2 with tier 0 =
// HServers and tier 1 = SServers.  All entries of one table must agree on k.
//
// Text serialization: two-tier tables keep the legacy "harl-rst-v1" format
// ("offset h s" rows) byte-for-byte; tables with k != 2 use "harl-rst-v2"
// ("offset s_0 ... s_{k-1}" rows, k inferred from the column count); tables
// with any member-restricted entry (device-aware plans) use "harl-rst-v3"
// ("offset s_0 ... s_{k-1} m_0 ... m_{k-1}" rows, all-zero member columns =
// entry has no restriction).  load() accepts all three, with single-space
// separated unsigned columns; a malformed row, one add() rejects included,
// throws std::runtime_error (only that) naming the line.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "src/common/units.hpp"
#include "src/pfs/region_layout.hpp"

namespace harl::core {

/// One RST row (paper Fig. 6: Region #, File_offset, HServer stripe size,
/// SServer stripe size — the region number is implicit in the row index).
struct RstEntry {
  Bytes offset = 0;
  std::vector<Bytes> stripes;  ///< per-tier stripe sizes (0 = skip the tier)
  /// Per-tier member restriction (see pfs::RegionSpec::members): only the
  /// first members[j] servers of tier j participate.  Empty = full
  /// membership; device-aware plans may restrict a tier to its fastest
  /// devices.
  std::vector<std::size_t> members;

  friend bool operator==(const RstEntry&, const RstEntry&) = default;
};

class RegionStripeTable {
 public:
  RegionStripeTable() = default;

  /// Appends a region; offsets must be added in strictly increasing order,
  /// the first must be 0, at least one stripe must be nonzero, and every
  /// entry must carry the same number of tiers.  `members` is a per-tier
  /// member restriction (empty = full membership; otherwise one count per
  /// tier).
  void add(Bytes offset, std::vector<Bytes> stripes,
           std::vector<std::size_t> members = {});

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const RstEntry& entry(std::size_t i) const { return entries_.at(i); }
  const std::vector<RstEntry>& entries() const { return entries_; }

  /// Tiers per entry (0 for an empty table).
  std::size_t num_tiers() const {
    return entries_.empty() ? 0 : entries_.front().stripes.size();
  }

  /// The stripe vector governing `offset` (binary search); the table must be
  /// non-empty.
  const RstEntry& lookup(Bytes offset) const;

  /// Index of the region containing `offset`.
  std::size_t region_of(Bytes offset) const;

  /// Merges adjacent regions with identical stripe vectors; returns the
  /// number of regions removed.
  std::size_t merge_adjacent();

  /// Text serialization: header line, then "offset s_0 ... s_{k-1}" per
  /// region (see the format note in the file header).
  void save(std::ostream& os) const;
  static RegionStripeTable load(std::istream& is);

  /// Converts to the pfs placement layout; `tier_counts[j]` servers in
  /// tier j.  Requires tier_counts.size() == num_tiers().  Tier j's first
  /// `reserved[j]` servers (none by default) are withheld from every region
  /// (the cache tier's device reservation); the table's stripe/member
  /// columns then address the remaining servers.  Used by plans whose
  /// Analysis Phase reserved the fastest devices as a read cache
  /// (Plan::cache).
  std::shared_ptr<pfs::RegionLayout> to_layout(
      std::span<const std::size_t> tier_counts,
      std::span<const std::size_t> reserved = {}) const;

  /// Two-tier convenience: M HServers and N SServers.
  std::shared_ptr<pfs::RegionLayout> to_layout(std::size_t M, std::size_t N) const;

 private:
  std::vector<RstEntry> entries_;
};

}  // namespace harl::core
