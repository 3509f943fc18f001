#include "src/storage/cache_tier.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace harl::storage {

CachePolicy parse_cache_policy(std::string_view text) {
  if (text == "lru") return CachePolicy::kLru;
  if (text == "slru") return CachePolicy::kSlru;
  throw std::invalid_argument("unknown cache policy '" + std::string(text) +
                              "' (expected lru or slru)");
}

const char* to_string(CachePolicy policy) {
  return policy == CachePolicy::kLru ? "lru" : "slru";
}

CacheTier::CacheTier(Config config) : config_(config) {
  if (config_.chunk == 0) throw std::invalid_argument("cache chunk must be > 0");
  slots_ = static_cast<std::size_t>(config_.capacity / config_.chunk);
  if (config_.policy == CachePolicy::kSlru) {
    protected_slots_ = static_cast<std::size_t>(
        std::floor(static_cast<double>(slots_) * config_.protected_fraction));
  }
  entries_.reserve(slots_);
}

void CacheTier::unlink(std::uint64_t key, Entry& entry) {
  List& list = lists_[entry.segment];
  if (entry.prev != kNullKey) {
    entries_[entry.prev].next = entry.next;
  } else {
    list.head = entry.next;
  }
  if (entry.next != kNullKey) {
    entries_[entry.next].prev = entry.prev;
  } else {
    list.tail = entry.prev;
  }
  entry.prev = entry.next = kNullKey;
  --list.size;
  (void)key;
}

void CacheTier::push_front(Segment segment, std::uint64_t key, Entry& entry) {
  List& list = lists_[segment];
  entry.segment = segment;
  entry.prev = kNullKey;
  entry.next = list.head;
  if (list.head != kNullKey) entries_[list.head].prev = key;
  list.head = key;
  if (list.tail == kNullKey) list.tail = key;
  ++list.size;
}

void CacheTier::touch(std::uint64_t key, Entry& entry) {
  if (config_.policy == CachePolicy::kLru || protected_slots_ == 0) {
    unlink(key, entry);
    push_front(kProbation, key, entry);
    return;
  }
  // SLRU: a probation hit earns promotion; a protected hit refreshes.  The
  // protected segment sheds its own tail back to probation when it overflows,
  // so one-touch scans cannot flush the reuse set.
  unlink(key, entry);
  push_front(kProtected, key, entry);
  while (lists_[kProtected].size > protected_slots_) {
    const std::uint64_t demoted = lists_[kProtected].tail;
    Entry& victim = entries_[demoted];
    unlink(demoted, victim);
    push_front(kProbation, demoted, victim);
  }
}

CacheTier::State CacheTier::lookup(std::uint64_t key) {
  ++stats_.lookups;
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.state == State::kResident) {
    ++stats_.hits;
    stats_.hit_bytes += config_.chunk;
    touch(key, it->second);
    return State::kResident;
  }
  ++stats_.misses;
  stats_.miss_bytes += config_.chunk;
  return it == entries_.end() ? State::kAbsent : State::kFilling;
}

CacheTier::State CacheTier::state(std::uint64_t key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? State::kAbsent : it->second.state;
}

std::uint64_t CacheTier::evict_one() {
  // Coldest first: probation tail, then protected tail; skip pinned fills.
  for (int segment : {kProbation, kProtected}) {
    for (std::uint64_t key = lists_[segment].tail; key != kNullKey;) {
      Entry& entry = entries_[key];
      if (entry.state == State::kResident) {
        erase(key, entry);
        ++stats_.evictions;
        return key;
      }
      key = entry.prev;
    }
  }
  return kNullKey;
}

void CacheTier::erase(std::uint64_t key, Entry& entry) {
  if (entry.state == State::kResident) --resident_;
  unlink(key, entry);
  entries_.erase(key);
}

bool CacheTier::admit(std::uint64_t key, std::vector<std::uint64_t>& evicted) {
  if (slots_ == 0) return false;
  if (entries_.count(key) != 0) return false;
  while (entries_.size() >= slots_) {
    const std::uint64_t victim = evict_one();
    if (victim == kNullKey) return false;  // every slot is a pinned fill
    evicted.push_back(victim);
  }
  Entry entry;
  entry.state = State::kFilling;
  auto [it, inserted] = entries_.emplace(key, entry);
  push_front(kProbation, key, it->second);
  ++stats_.admissions;
  return true;
}

bool CacheTier::fill_complete(std::uint64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.state != State::kFilling) {
    ++stats_.fills_discarded;
    return false;
  }
  it->second.state = State::kResident;
  ++resident_;
  ++stats_.fills_completed;
  return true;
}

bool CacheTier::invalidate(std::uint64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  ++stats_.invalidations;
  erase(key, it->second);
  return true;
}

}  // namespace harl::storage
