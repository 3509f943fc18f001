// Flight recorder: the standard observability sink.
//
// Combines three instruments over one simulated run:
//   * a MetricsRegistry (counters/gauges/quantile-sketch distributions keyed
//     by interned labels) fed by the server/client hooks;
//   * a span-based trace in *simulated* time — one track per server disk,
//     server NIC, client NIC and client — exported as Chrome trace-event /
//     Perfetto-compatible JSON ("X" spans for FIFO service, async "b"/"e"
//     spans for queue waits so concurrent waiters never break nesting,
//     instant events for region-boundary crossings).  A ring-buffer mode
//     (Options::max_trace_events) keeps long runs bounded: the newest events
//     win and the drop count is reported;
//   * per-request attribution that measures the paper's Section III-D
//     decomposition — network transfer T_X, startup T_S, storage transfer
//     T_T — per sub-request, and reconciles each completed request against a
//     caller-supplied cost-model predictor (model-error histogram per
//     region, the distribution behind bench_micro_model_accuracy's number).
//
// A recorder built with enabled TelemetryOptions also owns the run's
// HealthMonitor (DESIGN.md §15) and feeds it from the same hooks: each hook
// first advances the monitor's window watermark, then hands it the
// telemetry it needs, then does the recorder's own work.  The monitor's
// health.* metrics land in this recorder's registry and its flag/recover
// instants on a lazily created "health" trace track.
//
// Per-track utilization and queue-depth timelines use self-scaling buckets:
// a fixed bucket count whose width doubles (adjacent buckets coalescing) as
// simulated time grows, so memory stays bounded without choosing a horizon
// up front.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/health.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sink.hpp"

namespace harl::obs {

/// Additive or max-sampled time series with a bounded bucket count: when an
/// event lands past the last bucket, adjacent buckets coalesce (width
/// doubles) until it fits.
class Timeline {
 public:
  Timeline(Seconds initial_width, std::size_t max_buckets, bool take_max);

  /// Adds the overlap of [t0, t1) to every bucket it crosses (additive
  /// mode: busy-seconds accumulation).  Inline: every resource event of the
  /// recorder lands here.
  void add_span(Seconds t0, Seconds t1) {
    if (!(t1 > t0)) return;
    if (t1 >= horizon_) fit(t1);
    const auto first = static_cast<std::size_t>(t0 / width_);
    const auto last =
        std::min(static_cast<std::size_t>(t1 / width_), max_buckets_ - 1);
    if (last >= values_.size()) values_.resize(last + 1, 0.0);
    for (std::size_t i = first; i <= last; ++i) {
      const Seconds lo = std::max(t0, width_ * static_cast<double>(i));
      const Seconds hi = std::min(t1, width_ * static_cast<double>(i + 1));
      if (hi > lo) values_[i] += hi - lo;
    }
  }
  /// Raises the bucket containing `t` to at least `v` (max mode).
  void sample_max(Seconds t, double v) {
    if (t < 0.0) return;
    if (t >= horizon_) fit(t);
    const auto idx =
        std::min(static_cast<std::size_t>(t / width_), max_buckets_ - 1);
    if (idx >= values_.size()) values_.resize(idx + 1, 0.0);
    values_[idx] = std::max(values_[idx], v);
  }

  Seconds bucket_width() const { return width_; }
  const std::vector<double>& values() const { return values_; }

 private:
  /// Coalesces until `t` lies before the horizon; callers check first.
  void fit(Seconds t);

  Seconds width_;
  Seconds horizon_;  ///< width_ * max_buckets_, the end of the last bucket
  std::size_t max_buckets_;
  bool take_max_;
  std::vector<double> values_;
};

class Recorder final : public Sink {
 public:
  struct Options {
    /// Record span/instant trace events (metrics are always collected).
    bool trace = true;
    /// Ring-buffer capacity for trace events; 0 = unbounded.
    std::size_t max_trace_events = 0;
  };

  Recorder();
  /// `telemetry.enabled()` arms the owned HealthMonitor.
  explicit Recorder(Options options, TelemetryOptions telemetry = {});
  // The owned HealthMonitor keeps a reference to this recorder.
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // --- Sink ---------------------------------------------------------------
  std::uint32_t track(std::string_view name, TrackKind kind,
                      std::uint32_t entity) override;
  std::uint32_t register_server(std::uint32_t server, std::uint32_t tier,
                                std::string_view name, bool is_ssd) override;
  std::uint32_t register_client(std::uint32_t client) override;
  void resource_event(std::uint32_t track, Seconds arrival, Seconds start,
                      Seconds finish) override;
  void server_access(std::uint32_t server, IoOp op, std::uint32_t region,
                     Bytes bytes, Bytes pieces, Seconds now) override;
  std::uint32_t begin_request(std::uint32_t client, IoOp op, Bytes offset,
                              Bytes size, Seconds now,
                              std::uint32_t file = kNoId) override;
  std::uint32_t begin_sub(std::uint32_t request, std::uint32_t server,
                          std::uint32_t region, Seconds now) override;
  void sub_storage(std::uint32_t sub, Seconds arrival, Seconds start,
                   Seconds startup, Seconds service) override;
  void sub_net_done(std::uint32_t sub, Seconds now) override;
  void end_request(std::uint32_t request, Seconds now) override;
  void cache_event(Bytes hit_bytes, Bytes miss_bytes, Seconds now) override;

  /// The telemetry plane's monitor; nullptr unless telemetry is enabled.
  HealthMonitor* health() { return health_.get(); }
  const HealthMonitor* health() const { return health_.get(); }

  // --- attribution --------------------------------------------------------

  /// Cost-model prediction hook: given (op, offset, size) returns the
  /// analytic request cost.  When set, every completed request records its
  /// relative model error into the per-region "model.rel_error" histogram.
  using Predictor = std::function<Seconds(IoOp, Bytes, Bytes)>;
  void set_predictor(Predictor predictor) { predictor_ = std::move(predictor); }

  /// Namespace tenant mapping: tenant_of[file] labels per-file series with
  /// their tenant and attributes whole-request SLO attainment to it.  Files
  /// beyond the vector (and the legacy kNoId path) get no tenant.
  void set_tenant_of(std::vector<std::uint32_t> tenant_of) {
    tenant_of_ = std::move(tenant_of);
    file_series_.clear();  // their labels carry the old tenants
  }

  /// Requests ended so far (a stale end_request is not counted).
  std::uint64_t requests_completed() const { return requests_completed_; }

  // --- summaries ----------------------------------------------------------

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  struct ResourceSummary {
    std::string name;
    TrackKind kind = TrackKind::kOther;
    std::uint32_t entity = kNoId;  ///< server/client index within the kind
    std::uint32_t tier = kNoId;
    bool is_ssd = false;
    Seconds busy = 0.0;         ///< service->sum()
    Seconds queue_delay = 0.0;  ///< wait->sum()
    std::uint64_t jobs = 0;     ///< wait->count()
    std::uint64_t depth_max = 0;
    const QuantileSketch* wait = nullptr;     ///< per-job queue wait
    const QuantileSketch* service = nullptr;  ///< per-job service time
    const Timeline* busy_timeline = nullptr;
    const Timeline* depth_timeline = nullptr;
  };
  /// One summary per registered track, in track order.
  std::vector<ResourceSummary> resource_summaries() const;

  /// Latest simulated timestamp seen by any hook (the observed horizon).
  Seconds last_time() const { return last_time_; }
  std::uint64_t trace_events_recorded() const { return events_recorded_; }
  std::uint64_t trace_events_dropped() const { return events_dropped_; }

  // --- export -------------------------------------------------------------

  /// Complete Chrome trace-event JSON object for this recorder alone.
  void write_trace_json(std::ostream& out,
                        std::string_view process_name = "harl") const;

  /// Appends this recorder's trace events (plus its process/thread metadata)
  /// to an already-open traceEvents array; `first` tracks comma placement
  /// across recorders so several runs can share one file, one pid each.
  void append_trace_events(std::ostream& out, std::uint32_t pid,
                           std::string_view process_name, bool& first) const;

  /// Structured metrics JSON for this run: per-resource summaries with
  /// utilization/queue-depth timelines, request attribution histograms and
  /// the raw registry dump.  `indent` is the base indentation.
  void write_metrics_json(std::ostream& out, int indent = 0) const;

 private:
  // Trace event storage: one compact POD per logical span/instant; async
  // begin/end pairs are expanded at export time.
  enum class EventType : std::uint8_t { kService, kWait, kInstant, kRequest };
  struct TraceEvent {
    Seconds ts = 0.0;
    Seconds dur = 0.0;
    std::uint32_t track = 0;
    EventType type = EventType::kService;
    std::uint8_t op = 0xFF;
    std::uint64_t id = 0;   ///< async-pair id
    std::uint64_t arg = 0;  ///< region / bytes
  };

  struct TrackState {
    std::string name;
    TrackKind kind = TrackKind::kOther;
    std::uint32_t entity = kNoId;
    std::uint32_t tier = kNoId;
    bool is_ssd = false;
    /// Storage track of data server `entity` (register_server).
    bool is_server = false;
    std::uint64_t depth_max = 0;
    /// Per-job queue wait and service time.  Every sample is >= 0, so
    /// count() is the job count and sum() the exact queue delay / busy
    /// time (the sketch leaves zeros out of its sum; they add nothing).
    QuantileSketch wait{MetricsRegistry::kHistogramSubBits};
    QuantileSketch service{MetricsRegistry::kHistogramSubBits};
    Timeline busy_timeline;
    Timeline depth_timeline;
    InflightQueue inflight;

    TrackState(std::string name_, TrackKind kind_, std::uint32_t entity_);
  };

  struct ActiveSub {
    std::uint32_t request = kNoId;
    std::uint32_t server = 0;
    Seconds issue = 0.0;
    Seconds arrival = -1.0;
    Seconds start = -1.0;
    Seconds startup = 0.0;
    Seconds service = 0.0;
    bool live = false;  ///< begun and not yet finalized
  };

  struct ActiveRequest {
    std::uint32_t client = 0;
    IoOp op = IoOp::kRead;
    Bytes offset = 0;
    Bytes size = 0;
    std::uint32_t region = kNoId;
    std::uint32_t file = kNoId;
    Seconds issue = 0.0;
    bool live = false;  ///< begun and not yet ended
  };

  using Series = MetricsRegistry::Series;

  /// One op's pfs.server.{accesses,bytes,pieces,time} series of a server.
  struct ServerOpSeries {
    Series accesses, bytes, pieces, time;
  };
  struct ServerMeta {
    std::uint32_t track = kNoId;
    std::uint32_t tier = kNoId;
    std::uint32_t last_region = kNoId;
    bool is_ssd = false;
    // Resolved on first use with the tier above; registration resets them.
    ServerOpSeries by_op[2];
    Series region_switches;
  };
  /// One op's request.{queue_wait,t_s,t_t,tx} series of a tier.
  struct TierOpSeries {
    Series wait, t_s, t_t, t_x;
  };
  /// One file's pfs.file.{bytes,latency} series, by op.
  struct FileSeries {
    Series bytes[2], latency[2];
  };

  friend class HealthMonitor;
  /// A straggler flag/recover instant of the owned HealthMonitor.
  void health_instant(HealthEvent event, std::uint32_t server, double score,
                      Seconds now);

  void push_event(const TraceEvent& event);
  void note_time(Seconds t) { last_time_ = std::max(last_time_, t); }
  void finalize_sub(std::uint32_t sub, Seconds t_x, Seconds done);
  /// {file, tenant} labels for a namespace file (no-op labels for kNoId).
  LabelSet file_labels(std::uint32_t file) const;
  /// `handle`, resolved on first use to the series `labels` of `family`.
  Series& resolve(Series& handle, MetricsRegistry::FamilyId family,
                  LabelSet labels) {
    if (!handle.resolved()) handle = metrics_.series(family, labels);
    return handle;
  }

  Options options_;
  MetricsRegistry metrics_;
  Predictor predictor_;

  std::vector<TrackState> tracks_;
  std::vector<ServerMeta> servers_;        // by global server index
  std::vector<std::uint32_t> client_tracks_;  // by client index
  std::uint32_t health_track_ = kNoId;     // lazily created on first event

  std::vector<TraceEvent> events_;  // ring when max_trace_events > 0
  std::size_t ring_next_ = 0;
  std::uint64_t events_recorded_ = 0;
  std::uint64_t events_dropped_ = 0;
  std::uint64_t next_async_id_ = 0;

  std::vector<ActiveRequest> req_slots_;
  std::vector<std::uint32_t> req_free_;
  std::vector<ActiveSub> sub_slots_;
  std::vector<std::uint32_t> sub_free_;

  std::uint64_t requests_completed_ = 0;

  Seconds last_time_ = 0.0;

  // Pre-registered metric families (hot-path observations index these).
  MetricsRegistry::FamilyId m_bytes_;
  MetricsRegistry::FamilyId m_accesses_;
  MetricsRegistry::FamilyId m_pieces_;
  MetricsRegistry::FamilyId m_region_switches_;
  MetricsRegistry::FamilyId m_latency_;
  MetricsRegistry::FamilyId m_wait_;
  MetricsRegistry::FamilyId m_ts_;
  MetricsRegistry::FamilyId m_tt_;
  MetricsRegistry::FamilyId m_tx_;
  MetricsRegistry::FamilyId m_rel_error_;
  MetricsRegistry::FamilyId m_server_time_;
  MetricsRegistry::FamilyId m_file_bytes_;
  MetricsRegistry::FamilyId m_file_latency_;

  // Resolved-once series of the per-sub-request and per-request paths.
  std::vector<TierOpSeries> tier_series_;  // by (tier & 0xFF) * 2 + op
  Series latency_series_[2];               // by op
  // Grown on first use.  rel_error by masked region label * 2 + op (equal
  // masks share a series, so they share a handle); files by FileId up to
  // the label's 16-bit width, beyond which the labels alias and the series
  // are looked up per request.
  static constexpr std::uint32_t kMaxCachedFiles = LabelSet::kNone;
  std::vector<Series> rel_error_series_;
  std::vector<FileSeries> file_series_;

  std::vector<std::uint32_t> tenant_of_;  // by FileId; empty = no tenants

  std::unique_ptr<HealthMonitor> health_;  // telemetry plane, when enabled
};

}  // namespace harl::obs
