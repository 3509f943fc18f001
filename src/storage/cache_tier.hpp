// Chunk-granular read-cache directory (HACache direction, PAPERS.md).
//
// CacheTier is the *policy* half of the cache layer: a deterministic
// directory mapping chunk keys to {absent, filling, resident} states with
// LRU or segmented-LRU (probation/protected) eviction under a byte budget.
// It knows nothing about the simulator — pfs::CacheManager drives it from
// the live data path, and core::analyze_cached replays a trace through a
// private instance to estimate per-region hit rates offline.  Keeping the
// structure pure is what makes the planner's expectation and the runtime's
// behaviour the *same* policy by construction.
//
// Entries are exactly one chunk each; a fill in flight pins its entry
// (kFilling entries are never eviction victims), and invalidation of a
// filling entry poisons the fill: the later fill_complete() finds the key
// absent and reports the fill discarded.  All bookkeeping is intrusive
// (prev/next keys inside the directory map), so no per-operation
// allocation beyond the map node itself.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/units.hpp"

namespace harl::storage {

/// Eviction policy of the read-cache directory.
enum class CachePolicy : std::uint8_t {
  kLru,   ///< single recency list
  kSlru,  ///< segmented LRU: probation + protected (hit in probation promotes)
};

/// Parses "lru" / "slru".  Throws std::invalid_argument otherwise.
CachePolicy parse_cache_policy(std::string_view text);
const char* to_string(CachePolicy policy);

class CacheTier {
 public:
  struct Config {
    Bytes capacity = 0;   ///< total cache budget in bytes
    Bytes chunk = MiB;    ///< chunk granularity; every entry is one chunk
    CachePolicy policy = CachePolicy::kLru;
    /// SLRU only: share of slots reserved for the protected segment.
    double protected_fraction = 0.8;
  };

  enum class State : std::uint8_t { kAbsent, kFilling, kResident };

  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< absent + filling lookups
    std::uint64_t admissions = 0;  ///< fills issued (kAbsent -> kFilling)
    std::uint64_t evictions = 0;   ///< resident entries dropped for room
    std::uint64_t invalidations = 0;
    std::uint64_t fills_completed = 0;
    std::uint64_t fills_discarded = 0;  ///< invalidated while the fill flew
    Bytes hit_bytes = 0;
    Bytes miss_bytes = 0;
  };

  explicit CacheTier(Config config);

  /// Number of chunk slots the budget affords (capacity / chunk).
  std::size_t slots() const { return slots_; }
  const Config& config() const { return config_; }
  const Stats& stats() const { return stats_; }

  /// One foreground read touching `key`.  Counts a hit only for resident
  /// entries (a chunk still filling cannot serve the read) and refreshes
  /// recency on hit.
  State lookup(std::uint64_t key);

  /// Peek without counting or touching recency (tests / estimator).
  State state(std::uint64_t key) const;

  /// Starts caching a missed chunk: marks it kFilling and evicts resident
  /// entries into `evicted` until there is room.  Returns false (and admits
  /// nothing) when the budget is zero, the key is already present, or every
  /// current entry is a pinned in-flight fill.
  bool admit(std::uint64_t key, std::vector<std::uint64_t>& evicted);

  /// The fill for `key` landed on the cache device.  Returns true when the
  /// chunk became resident; false when an invalidation raced the fill and
  /// the filled bytes must be discarded.
  bool fill_complete(std::uint64_t key);

  /// Records that a superseded in-flight fill landed and its bytes were
  /// dropped without consulting the directory — used when the key was
  /// re-admitted with a fresh fill after the stale one launched, so
  /// fill_complete(key) would wrongly complete the *new* fill.
  void discard_fill() { ++stats_.fills_discarded; }

  /// A foreground write overlapped `key`: drop it (resident) or poison the
  /// in-flight fill (filling).  Returns true when an entry existed.
  bool invalidate(std::uint64_t key);

  std::size_t size() const { return entries_.size(); }
  std::size_t resident() const { return resident_; }
  std::size_t filling() const { return size() - resident_; }

 private:
  static constexpr std::uint64_t kNullKey = ~std::uint64_t{0};
  enum Segment : std::uint8_t { kProbation = 0, kProtected = 1 };

  struct Entry {
    State state = State::kFilling;
    std::uint8_t segment = kProbation;
    std::uint64_t prev = kNullKey;
    std::uint64_t next = kNullKey;
  };
  struct List {
    std::uint64_t head = kNullKey;
    std::uint64_t tail = kNullKey;
    std::size_t size = 0;
  };

  void unlink(std::uint64_t key, Entry& entry);
  void push_front(Segment segment, std::uint64_t key, Entry& entry);
  void touch(std::uint64_t key, Entry& entry);
  /// Evicts the coldest *resident* entry; returns its key or kNullKey when
  /// everything left is a pinned fill.
  std::uint64_t evict_one();
  void erase(std::uint64_t key, Entry& entry);

  Config config_;
  std::size_t slots_ = 0;
  std::size_t protected_slots_ = 0;
  Stats stats_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  List lists_[2];
  std::size_t resident_ = 0;
};

}  // namespace harl::storage
