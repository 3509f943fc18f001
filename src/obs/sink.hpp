// Observability sink interface.
//
// Every instrumented component (FIFO resources, data servers, PFS clients)
// reports to an abstract `Sink` reached through the owning Simulator's
// observer pointer.  The default is no observer: the disabled path is one
// pointer load and branch per instrumentation point, the dispatch loop of
// the event engine itself is untouched, and nothing is allocated — the CI
// overhead guard (tools/bench_sim_report.py, obs_guard_* fields of
// bench/bench_sim_baseline.json) pins that property.  `obs::Recorder` is the
// standard implementation and the only telemetry sink: a metrics registry
// plus a simulated-time flight recorder, and — when armed — the owner of
// the straggler/SLO HealthMonitor it feeds from these same calls.  Tests
// may substitute their own sinks.
//
// All timestamps are *simulated* seconds (sim::Time == Seconds): the trace
// shows where simulated time goes, which is the quantity the paper's Fig. 1a
// and Section III-D decomposition reason about.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/io.hpp"
#include "src/common/units.hpp"

namespace harl::obs {

/// Invalid id for tracks, requests and sub-requests.
inline constexpr std::uint32_t kNoId = 0xFFFFFFFFu;

/// What a trace track represents (one track per server/client/NIC).
enum class TrackKind : std::uint8_t {
  kServerDisk,   ///< data server storage queue
  kServerNic,    ///< server network link
  kClientNic,    ///< client (compute node) network link
  kClient,       ///< per-client request track (request-lifetime spans)
  kOther,        ///< anything else (MDS queue, ad-hoc resources)
};

class Sink {
 public:
  virtual ~Sink() = default;

  // --- registration (cold path, once per entity) ---------------------------

  /// Registers a trace track; returns its id.  `entity` is the component
  /// index within its kind (server index, client index, ...), kNoId if none.
  virtual std::uint32_t track(std::string_view name, TrackKind kind,
                              std::uint32_t entity) = 0;

  /// Registers data server `server` (global index) of tier `tier` and
  /// returns the id of its storage track.
  virtual std::uint32_t register_server(std::uint32_t server,
                                        std::uint32_t tier,
                                        std::string_view name,
                                        bool is_ssd) = 0;

  /// Registers client `client` and returns the id of its request track.
  virtual std::uint32_t register_client(std::uint32_t client) = 0;

  // --- flight recorder (hot path, POD arguments only) ----------------------

  /// One FIFO resource job: arrived at `arrival`, started service at
  /// `start` (== arrival when the resource was idle), finished at `finish`.
  /// Produces the queue-wait vs service spans and feeds the per-track
  /// utilization/queue-depth timelines.  Each track is fed by one FIFO
  /// resource, so its arrivals and its finishes are both nondecreasing.
  virtual void resource_event(std::uint32_t track, Seconds arrival, Seconds start,
                              Seconds finish) = 0;

  /// One server-local access: op/region/bytes accounting per server, plus
  /// the region-boundary-crossing instant event when `region` differs from
  /// the server's previous access.
  virtual void server_access(std::uint32_t server, IoOp op,
                             std::uint32_t region, Bytes bytes, Bytes pieces,
                             Seconds now) = 0;

  // --- per-request attribution (paper Section III-D: T_X, T_S, T_T) --------

  /// Starts attribution of one client file request; returns a request id.
  /// `file` is the namespace FileId the request addresses (kNoId for the
  /// legacy single-file path — labels and per-file accounting are then
  /// suppressed, keeping single-file telemetry byte-identical).
  virtual std::uint32_t begin_request(std::uint32_t client, IoOp op,
                                      Bytes offset, Bytes size, Seconds now,
                                      std::uint32_t file = kNoId) = 0;

  /// Starts one sub-request of `request` on global server `server`
  /// addressing `region`; returns a sub-request id.
  virtual std::uint32_t begin_sub(std::uint32_t request, std::uint32_t server,
                                  std::uint32_t region, Bytes bytes,
                                  Seconds now) = 0;

  /// Storage stage of a sub-request, reported at submission (FIFO service
  /// times are fixed then): queue arrival/start, the device's startup
  /// component (measured T_S) and the total service time (T_S + T_T).
  /// For writes this is the final stage (the sub-request completes at
  /// start + service).
  virtual void sub_storage(std::uint32_t sub, Seconds arrival, Seconds start,
                           Seconds startup, Seconds service) = 0;

  /// Final network stage of a read sub-request (last byte reached the
  /// client NIC): measured T_X is `now` minus the storage finish time.
  virtual void sub_net_done(std::uint32_t sub, Seconds now) = 0;

  /// All sub-requests of `request` completed at `now`.
  virtual void end_request(std::uint32_t request, Seconds now) = 0;

  // --- telemetry plane (DESIGN.md §15, optional) ---------------------------

  /// Cache read outcome for one client call: `hit_bytes` were served from the
  /// read cache, `miss_bytes` went to the backing layout.  Emitted by the
  /// CacheManager; feeds the TimeSeries hit-rate timeline of an armed
  /// Recorder.  Defaulted to a no-op so existing sinks are unaffected.
  virtual void cache_event(Bytes hit_bytes, Bytes miss_bytes, Seconds now) {
    (void)hit_bytes;
    (void)miss_bytes;
    (void)now;
  }
};

/// Queue depth of one resource track: the finish times of its jobs still in
/// flight, ascending.  A FIFO resource finishes jobs in arrival order, so
/// every push is an append, and popping the front while it is <= the next
/// arrival leaves exactly the jobs with finish > arrival.  An out-of-order
/// finish is inserted at its sorted position, which keeps the depth exact
/// for any input whose arrivals are nondecreasing.
class InflightQueue {
 public:
  /// Adds the job [arrival, finish) and returns the jobs in flight at
  /// `arrival`, this one included.
  std::size_t arrive(Seconds arrival, Seconds finish) {
    while (head_ < finish_.size() && finish_[head_] <= arrival) ++head_;
    if (2 * head_ >= finish_.size()) {  // amortized O(1) compaction
      finish_.erase(finish_.begin(),
                    finish_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    if (finish_.empty() || finish_.back() <= finish) {
      finish_.push_back(finish);
    } else {
      finish_.insert(std::upper_bound(finish_.begin() +
                                          static_cast<std::ptrdiff_t>(head_),
                                      finish_.end(), finish),
                     finish);
    }
    return finish_.size() - head_;
  }

 private:
  std::vector<Seconds> finish_;
  std::size_t head_ = 0;  ///< finish_[0, head_) have already finished
};

}  // namespace harl::obs
