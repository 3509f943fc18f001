// Straggler/SLO health monitor (DESIGN.md §15).
//
// A HealthMonitor is a component of the flight recorder, not a sink of its
// own: a Recorder built with telemetry enabled owns one and feeds it from
// its hooks, in the engine's deterministic call order.  It owns the run's
// TimeSeries: every server storage queue job (resource_event on a
// registered server-disk track) becomes a latency/busy/depth sample, and
// cache_event feeds the fleet hit-rate timeline.
//
// When a window closes (the monotone time watermark passes its end), each
// server with at least kMinWindowJobs jobs is scored as
//     score = window mean latency / fleet median of window means,
// and a flag/recover hysteresis turns scores into discrete straggler state:
// kFlagWindows consecutive windows at score >= kFlagThreshold flag the
// server (health.straggler_flagged counter + a trace instant on the
// recorder's "health" track); kRecoverWindows consecutive windows at
// score <= kRecoverThreshold clear it.  Idle windows leave streaks
// unchanged.  An optional per-request SLO deadline is tracked at two
// levels: whole requests (latency <= slo, per op) and storage sub-requests
// (server-resident time <= slo, per server) — the per-server view is what
// localizes an SLO regression to an injected straggler.
//
// The health.* counters and gauges go straight into the owning recorder's
// MetricsRegistry.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <vector>

#include "src/common/io.hpp"
#include "src/common/units.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/timeseries.hpp"

namespace harl::obs {

class Recorder;

/// The telemetry plane's settings.  interval > 0 arms a HealthMonitor in
/// the recorder that carries them; everything else is a named constant of
/// HealthMonitor.
struct TelemetryOptions {
  Seconds interval = 0.0;  ///< scoring window width (sim seconds); 0 = off
  Seconds slo = 0.0;       ///< request deadline; 0 disables SLO tracking

  bool enabled() const { return interval > 0.0; }
};

/// Health-monitor lifecycle instants: a server's rolling slowness score
/// crossed the flag/recover hysteresis.
enum class HealthEvent : std::uint8_t {
  kStragglerFlagged,    ///< score stayed above the flag threshold
  kStragglerRecovered,  ///< score dropped back below the recover threshold
};

class HealthMonitor {
 public:
  static constexpr std::size_t kWindowCapacity = 4096;  ///< TimeSeries ring
  static constexpr double kFlagThreshold = 2.0;     ///< score => slow window
  static constexpr double kRecoverThreshold = 1.25;  ///< score => healthy
  static constexpr std::uint32_t kFlagWindows = 2;  ///< slow windows to flag
  static constexpr std::uint32_t kRecoverWindows = 2;  ///< healthy to recover
  static constexpr std::uint64_t kMinWindowJobs = 1;   ///< jobs to score

  /// Built by `owner` (see Recorder's constructor), whose registry receives
  /// the health.* families and whose trace receives the health instants.
  HealthMonitor(TelemetryOptions options, Recorder& owner);
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // --- feeds (called by the owning Recorder) ------------------------------

  /// Advances the window watermark to `t`'s window, scoring every window
  /// that closed.  Every sink call's earliest timestamp is nondecreasing in
  /// dispatch/replay order (events are emitted at sim.now()), so a closed
  /// window can never receive data afterwards.
  void advance(Seconds t) {
    const std::int64_t w = ts_.window_of(t);
    if (!started_ || w > next_to_score_) advance_to(w);
  }
  /// A registered server reports even when it stays idle.
  void add_server(std::uint32_t server) { server_state(server); }
  /// One storage job of `server`; `depth` counts the jobs in flight at
  /// `arrival`, this one included.
  void disk_job(std::uint32_t server, Seconds arrival, Seconds start,
                Seconds finish, std::uint64_t depth) {
    ts_.record_job(server, arrival, start, finish, depth);
  }
  /// A storage sub-request spent `resident` seconds (queue wait plus full
  /// service) on `server`.
  void sub_resident(std::uint32_t server, Seconds resident);
  /// A whole request of `op` completed after `latency`; `tenant` is kNoId
  /// outside namespace runs.
  void request_done(IoOp op, std::uint32_t tenant, Seconds latency);
  void cache(Bytes hit_bytes, Bytes miss_bytes, Seconds now) {
    ts_.record_cache(hit_bytes, miss_bytes, now);
  }

  // --- results -------------------------------------------------------------

  /// Scores every window up to the newest one holding data (the run's tail
  /// windows never see their end pass otherwise).  Idempotent.
  void finalize();

  /// Latest slowness score of `server` (mean / fleet median); 0 before the
  /// server's first scored window.
  double server_score(std::uint32_t server) const;
  bool is_flagged(std::uint32_t server) const;

  /// Per-tenant whole-request SLO attainment in [0, 1]; 1.0 when the tenant
  /// completed no SLO-checked requests.  Requires an SLO and the recorder's
  /// tenant mapping.
  double tenant_slo_attainment(std::uint32_t tenant) const;

  const TimeSeries& timeseries() const { return ts_; }

  /// Deterministic per-server health summary JSON: final score, flagged
  /// state, flag/recover counts and SLO attainment (per server + per op).
  void write_json(std::ostream& out, int indent = 0) const;

 private:
  struct ServerState {
    bool present = false;  ///< registered or reported on
    double score = 0.0;
    bool flagged = false;
    std::uint32_t flag_streak = 0;
    std::uint32_t recover_streak = 0;
    std::uint64_t flag_count = 0;
    std::uint64_t recover_count = 0;
    std::uint64_t slo_total = 0;  ///< storage subs checked against the SLO
    std::uint64_t slo_met = 0;
    // health.slo.subs_{total,met}, resolved on first use.
    MetricsRegistry::Series slo_total_series, slo_met_series;
  };

  void advance_to(std::int64_t w);
  void score_window(std::int64_t w);
  /// State of `server`, created (and marked present) on first use.
  ServerState& server_state(std::uint32_t server);

  TelemetryOptions options_;
  Recorder& owner_;
  TimeSeries ts_;

  std::vector<ServerState> servers_;  ///< by server id; see `present`

  bool started_ = false;
  bool finalized_ = false;
  std::int64_t next_to_score_ = 0;

  /// Whole-request SLO attainment, indexed by op (0 read, 1 write), and
  /// its health.slo.requests_{total,met} series, resolved on first use.
  std::uint64_t req_total_[2] = {0, 0};
  std::uint64_t req_met_[2] = {0, 0};
  MetricsRegistry::Series req_total_series_[2], req_met_series_[2];

  /// Per-tenant whole-request SLO attainment (namespace runs only) and its
  /// health.slo.tenant_{total,met} series, resolved on first use.
  struct TenantSlo {
    std::uint64_t total = 0;
    std::uint64_t met = 0;
    MetricsRegistry::Series total_series, met_series;
  };
  std::map<std::uint32_t, TenantSlo> tenant_slo_;

  MetricsRegistry& metrics_;  ///< the owner's registry
  MetricsRegistry::FamilyId m_windows_scored_;
  MetricsRegistry::FamilyId m_flagged_;
  MetricsRegistry::FamilyId m_recovered_;
  MetricsRegistry::FamilyId m_score_;
  MetricsRegistry::FamilyId m_slo_req_total_;
  MetricsRegistry::FamilyId m_slo_req_met_;
  MetricsRegistry::FamilyId m_slo_sub_total_;
  MetricsRegistry::FamilyId m_slo_sub_met_;
  MetricsRegistry::FamilyId m_slo_tenant_total_;
  MetricsRegistry::FamilyId m_slo_tenant_met_;
};

}  // namespace harl::obs
