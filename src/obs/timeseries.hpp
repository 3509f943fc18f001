// Windowed per-server telemetry rollups in simulated time (DESIGN.md §15).
//
// A TimeSeries slices the simulated timeline into fixed-width windows and
// accumulates, per window and per server: a QuantileSketch of per-job
// latency (arrival -> finish; its count and sum are the job count and the
// latency sum, exact because every latency is >= 0), busy seconds
// (service span clipped to the window for utilization), and the maximum
// concurrent queue depth.  A fleet-level cache hit/miss byte pair rides in
// the same windows.  Windows live in a bounded ring: when more than
// `capacity` windows are produced the oldest are dropped and counted, never
// silently lost; late data for a window older than every window a full ring
// retains is discarded.
//
// Determinism: the owner (obs::HealthMonitor, fed by the Recorder that owns
// it) records spans in the engine's deterministic dispatch order, with the
// queue depth the recorder's disk-track InflightQueue computed, and every
// accumulation here is order-independent within a window (sums, max, sketch
// adds into log buckets).  The JSON dump is therefore byte-identical across
// runs.
#pragma once

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/common/units.hpp"
#include "src/obs/sketch.hpp"

namespace harl::obs {

class TimeSeries {
 public:
  struct Options {
    Seconds interval = 1.0;        ///< window width in simulated seconds
    std::size_t capacity = 4096;   ///< max retained windows (ring)
  };

  explicit TimeSeries(Options options);

  /// One completed job on `server`: queued at `arrival` behind a queue
  /// `depth` deep (this job included), serviced over [start, finish).
  /// Latency (finish - arrival) and depth land in the window of `arrival`
  /// (the window keeps the maximum depth); busy time is clipped to each
  /// overlapped window.
  void record_job(std::uint32_t server, Seconds arrival, Seconds start,
                  Seconds finish, std::uint64_t depth);

  /// Fleet-level cache outcome at time `now`.
  void record_cache(Bytes hit_bytes, Bytes miss_bytes, Seconds now);

  Seconds interval() const { return interval_; }
  std::size_t window_count() const { return windows_.size(); }
  std::uint64_t dropped_windows() const { return dropped_; }

  /// Index of the window containing `t` (floor(t / interval)).
  std::int64_t window_of(Seconds t) const {
    return static_cast<std::int64_t>(std::floor(t / interval_));
  }

  /// Mean per-job latency of `server` inside window `w`; 0 when idle.
  double window_latency_mean(std::int64_t w, std::uint32_t server) const;
  /// Jobs recorded for `server` inside window `w`.
  std::uint64_t window_jobs(std::int64_t w, std::uint32_t server) const;

  /// Per-server rollup of one window, servers in ascending id order; empty
  /// when the window holds no data (the HealthMonitor's scoring input).
  struct WindowServerStat {
    std::uint32_t server = 0;
    std::uint64_t jobs = 0;
    double lat_mean = 0.0;
  };
  std::vector<WindowServerStat> window_stats(std::int64_t w) const;

  bool empty() const { return windows_.empty(); }
  /// Index of the newest retained window; empty() must be false.
  std::int64_t last_window() const { return windows_.back().index; }

  /// Columnar JSON dump: one array per column, servers sorted by id,
  /// windows oldest-first.  Deterministic (see file comment).
  void write_json(std::ostream& out, int indent = 0) const;

 private:
  struct ServerCell {
    bool present = false;  ///< the server has data in this window
    double busy = 0.0;
    std::uint64_t depth_max = 0;
    QuantileSketch lat;
  };
  struct Window {
    std::int64_t index = 0;  ///< window_of() value
    /// Cells by server id; ascending index order is ascending id order.
    std::vector<ServerCell> servers;
    Bytes cache_hit = 0;
    Bytes cache_miss = 0;
  };

  /// Position of the first retained window with index >= `index`.
  std::size_t position(std::int64_t index) const;
  /// Window `index`, inserted if absent; nullptr when the ring is full
  /// and every retained window is newer (its data is discarded).
  Window* window(std::int64_t index);
  /// `server`'s cell in window(index), marked present; nullptr with it.
  ServerCell* cell(std::int64_t index, std::uint32_t server);
  const Window* find_window(std::int64_t index) const;
  /// The present cell of `server` in `win`, or nullptr.
  static const ServerCell* find_cell(const Window& win, std::uint32_t server);

  Seconds interval_ = 1.0;
  std::size_t capacity_ = 4096;
  std::vector<Window> windows_;  ///< ascending by index; bounded ring
  std::uint64_t dropped_ = 0;
};

}  // namespace harl::obs
