#include "src/core/rst.hpp"

#include <algorithm>
#include <stdexcept>

namespace harl::core {

void RegionStripeTable::add(Bytes offset, std::vector<Bytes> stripes,
                            std::vector<std::size_t> members) {
  if (entries_.empty()) {
    if (offset != 0) throw std::invalid_argument("first RST region must start at 0");
  } else if (offset <= entries_.back().offset) {
    throw std::invalid_argument("RST offsets must be strictly increasing");
  }
  if (stripes.empty()) {
    throw std::invalid_argument("RST region needs at least one tier");
  }
  if (!entries_.empty() && stripes.size() != entries_.back().stripes.size()) {
    throw std::invalid_argument("RST entries must agree on tier count");
  }
  if (std::all_of(stripes.begin(), stripes.end(),
                  [](Bytes s) { return s == 0; })) {
    throw std::invalid_argument("RST region needs a nonzero stripe");
  }
  if (!members.empty()) {
    if (members.size() != stripes.size()) {
      throw std::invalid_argument("RST members must match tier count");
    }
    // All-zero member vectors are the "no restriction" serialization
    // sentinel; store them canonically as empty.
    if (std::all_of(members.begin(), members.end(),
                    [](std::size_t m) { return m == 0; })) {
      members.clear();
    } else {
      bool effective = false;
      for (std::size_t j = 0; j < stripes.size(); ++j) {
        if (stripes[j] > 0 && members[j] > 0) effective = true;
      }
      if (!effective) {
        throw std::invalid_argument("RST members exclude every striped tier");
      }
    }
  }
  entries_.push_back(RstEntry{offset, std::move(stripes), std::move(members)});
}

std::size_t RegionStripeTable::region_of(Bytes offset) const {
  if (entries_.empty()) throw std::logic_error("lookup in empty RST");
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), offset,
      [](Bytes off, const RstEntry& e) { return off < e.offset; });
  return static_cast<std::size_t>(std::distance(entries_.begin(), it)) - 1;
}

const RstEntry& RegionStripeTable::lookup(Bytes offset) const {
  return entries_[region_of(offset)];
}

std::size_t RegionStripeTable::merge_adjacent() {
  if (entries_.empty()) return 0;
  std::vector<RstEntry> merged;
  merged.reserve(entries_.size());
  for (const auto& e : entries_) {
    if (!merged.empty() && merged.back().stripes == e.stripes &&
        merged.back().members == e.members) {
      continue;
    }
    merged.push_back(e);
  }
  const std::size_t removed = entries_.size() - merged.size();
  entries_ = std::move(merged);
  return removed;
}

std::shared_ptr<pfs::RegionLayout> RegionStripeTable::to_layout(
    std::span<const std::size_t> tier_counts,
    std::span<const std::size_t> reserved) const {
  if (entries_.empty()) throw std::logic_error("cannot build layout from empty RST");
  if (tier_counts.size() != num_tiers()) {
    throw std::invalid_argument("RST tier count does not match cluster tiers");
  }
  std::vector<pfs::RegionSpec> specs;
  specs.reserve(entries_.size());
  for (const auto& e : entries_) {
    specs.push_back(pfs::RegionSpec{e.offset, e.stripes, e.members});
  }
  return std::make_shared<pfs::RegionLayout>(
      std::vector<std::size_t>(tier_counts.begin(), tier_counts.end()),
      std::move(specs),
      std::vector<std::size_t>(reserved.begin(), reserved.end()));
}

}  // namespace harl::core
