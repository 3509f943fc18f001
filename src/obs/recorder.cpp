#include "src/obs/recorder.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace harl::obs {

namespace {

Real to_us(Seconds t) { return Real{t * 1e6}; }

std::size_t op_index(IoOp op) { return op == IoOp::kRead ? 0 : 1; }

const char* kind_name(TrackKind k) {
  switch (k) {
    case TrackKind::kServerDisk: return "server_disk";
    case TrackKind::kServerNic: return "server_nic";
    case TrackKind::kClientNic: return "client_nic";
    case TrackKind::kClient: return "client";
    case TrackKind::kOther: return "other";
  }
  return "other";
}

}  // namespace

// --- Timeline ---------------------------------------------------------------

Timeline::Timeline(Seconds initial_width, std::size_t max_buckets,
                   bool take_max)
    : width_(initial_width),
      horizon_(initial_width * static_cast<double>(max_buckets)),
      max_buckets_(max_buckets),
      take_max_(take_max) {
  if (!(initial_width > 0.0) || max_buckets < 2) {
    throw std::invalid_argument("Timeline requires width > 0 and >= 2 buckets");
  }
}

void Timeline::fit(Seconds t) {
  while (t >= horizon_) {
    // Coalesce adjacent pairs; the bucket width doubles.
    const std::size_t half = (values_.size() + 1) / 2;
    for (std::size_t i = 0; i < half; ++i) {
      const double a = values_[2 * i];
      const double b = 2 * i + 1 < values_.size() ? values_[2 * i + 1] : 0.0;
      values_[i] = take_max_ ? std::max(a, b) : a + b;
    }
    values_.resize(half);
    width_ *= 2.0;
    horizon_ = width_ * static_cast<double>(max_buckets_);
  }
}

// --- Recorder ---------------------------------------------------------------

Recorder::TrackState::TrackState(std::string name_, TrackKind kind_,
                                 std::uint32_t entity_, const Options& opts)
    : name(std::move(name_)),
      kind(kind_),
      entity(entity_),
      busy_timeline(opts.timeline_initial_width, opts.timeline_buckets, false),
      depth_timeline(opts.timeline_initial_width, opts.timeline_buckets, true) {}

Recorder::Recorder() : Recorder(Options{}) {}

Recorder::Recorder(Options options, TelemetryOptions telemetry)
    : options_(options) {
  using Kind = MetricsRegistry::Kind;
  m_bytes_ = metrics_.family("pfs.server.bytes", Kind::kCounter);
  m_accesses_ = metrics_.family("pfs.server.accesses", Kind::kCounter);
  m_pieces_ = metrics_.family("pfs.server.pieces", Kind::kCounter);
  m_region_switches_ =
      metrics_.family("pfs.server.region_switches", Kind::kCounter);
  m_latency_ = metrics_.family("client.request.latency", Kind::kHistogram);
  m_wait_ = metrics_.family("request.queue_wait", Kind::kHistogram);
  m_ts_ = metrics_.family("request.t_s", Kind::kHistogram);
  m_tt_ = metrics_.family("request.t_t", Kind::kHistogram);
  m_tx_ = metrics_.family("request.t_x", Kind::kHistogram);
  m_rel_error_ = metrics_.family("model.rel_error", Kind::kHistogram);
  m_server_time_ = metrics_.family("pfs.server.time", Kind::kSketch);
  m_mds_time_ = metrics_.family("pfs.mds.time", Kind::kSketch);
  m_file_bytes_ = metrics_.family("pfs.file.bytes", Kind::kCounter);
  m_file_latency_ = metrics_.family("pfs.file.latency", Kind::kHistogram);
  if (options_.max_trace_events > 0) {
    events_.reserve(options_.max_trace_events);
  }
  if (telemetry.enabled()) {
    health_ = std::make_unique<HealthMonitor>(telemetry, *this);
  }
}

std::uint32_t Recorder::track(std::string_view name, TrackKind kind,
                              std::uint32_t entity) {
  const auto id = static_cast<std::uint32_t>(tracks_.size());
  tracks_.emplace_back(std::string(name), kind, entity, options_);
  tracks_.back().is_mds = kind == TrackKind::kOther && name == "mds";
  return id;
}

std::uint32_t Recorder::register_server(std::uint32_t server,
                                        std::uint32_t tier,
                                        std::string_view name, bool is_ssd) {
  const std::uint32_t id = track(name, TrackKind::kServerDisk, server);
  tracks_[id].tier = tier;
  tracks_[id].is_ssd = is_ssd;
  tracks_[id].is_server = true;
  if (health_) health_->add_server(server);
  if (server >= servers_.size()) servers_.resize(server + 1);
  ServerMeta& meta = servers_[server];
  meta = ServerMeta{};
  meta.track = id;
  meta.tier = tier;
  meta.is_ssd = is_ssd;
  return id;
}

std::uint32_t Recorder::register_client(std::uint32_t client) {
  const std::uint32_t id =
      track("client " + std::to_string(client), TrackKind::kClient, client);
  if (client >= client_tracks_.size()) {
    client_tracks_.resize(client + 1, kNoId);
  }
  client_tracks_[client] = id;
  return id;
}

void Recorder::push_event(const TraceEvent& event) {
  ++events_recorded_;
  if (options_.max_trace_events == 0) {
    events_.push_back(event);
    return;
  }
  if (events_.size() < options_.max_trace_events) {
    events_.push_back(event);
    return;
  }
  events_[ring_next_] = event;
  ring_next_ = (ring_next_ + 1) % events_.size();
  ++events_dropped_;
}

void Recorder::resource_event(std::uint32_t track, Seconds arrival,
                              Seconds start, Seconds finish) {
  if (health_) health_->advance(arrival);
  if (track >= tracks_.size()) return;
  TrackState& t = tracks_[track];
  const auto depth =
      static_cast<std::uint64_t>(t.inflight.arrive(arrival, finish));
  if (health_ && t.is_server) {
    health_->disk_job(t.entity, arrival, start, finish, depth);
  }
  note_time(finish);
  const Seconds wait = start - arrival;
  const Seconds service = finish - start;
  t.wait.add(wait);
  t.service.add(service);
  t.busy_timeline.add_span(start, finish);
  t.depth_max = std::max(t.depth_max, depth);
  t.depth_timeline.sample_max(arrival, static_cast<double>(depth));
  if (t.is_mds) {
    // MDS resident time (queue wait + lookup service): contention across
    // colliding opens shows up in this sketch's tail exactly as the
    // per-server pfs.server.time sketches expose storage stragglers.
    metrics_.observe(resolve(mds_time_series_, m_mds_time_, LabelSet{}),
                     finish - arrival);
  }
  if (options_.trace) {
    push_event(TraceEvent{start, service, track, EventType::kService, 0xFF,
                          0, 0});
    if (wait > 0.0) {
      push_event(TraceEvent{arrival, wait, track, EventType::kWait, 0xFF,
                            next_async_id_++, 0});
    }
  }
}

void Recorder::server_access(std::uint32_t server, IoOp op,
                             std::uint32_t region, Bytes bytes, Bytes pieces,
                             Seconds now) {
  if (health_) health_->advance(now);
  note_time(now);
  if (server >= servers_.size()) servers_.resize(server + 1);
  ServerMeta& meta = servers_[server];
  ServerOpSeries& h = meta.by_op[op_index(op)];
  const LabelSet labels = LabelSet{}.server(server).tier(meta.tier).op(op);
  metrics_.add(resolve(h.accesses, m_accesses_, labels), 1.0);
  metrics_.add(resolve(h.bytes, m_bytes_, labels), static_cast<double>(bytes));
  metrics_.add(resolve(h.pieces, m_pieces_, labels),
               static_cast<double>(pieces));
  if (meta.last_region != region) {
    if (meta.last_region != kNoId) {
      metrics_.add(resolve(meta.region_switches, m_region_switches_,
                           LabelSet{}.server(server).tier(meta.tier)),
                   1.0);
      if (options_.trace && meta.track != kNoId) {
        push_event(TraceEvent{now, 0.0, meta.track, EventType::kInstant, 0xFF,
                              0, region});
      }
    }
    meta.last_region = region;
  }
}

std::uint32_t Recorder::begin_request(std::uint32_t client, IoOp op,
                                      Bytes offset, Bytes size, Seconds now,
                                      std::uint32_t file) {
  if (health_) health_->advance(now);
  note_time(now);
  std::uint32_t id;
  if (!req_free_.empty()) {
    id = req_free_.back();
    req_free_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(req_slots_.size());
    req_slots_.emplace_back();
  }
  ActiveRequest& r = req_slots_[id];
  r.client = client;
  r.op = op;
  r.offset = offset;
  r.size = size;
  r.region = kNoId;
  r.file = file;
  r.issue = now;
  r.subs.clear();  // keeps the buffer end_request handed back
  r.live = true;
  return id;
}

std::uint32_t Recorder::begin_sub(std::uint32_t request, std::uint32_t server,
                                  std::uint32_t region, Bytes bytes,
                                  Seconds now) {
  if (health_) health_->advance(now);
  note_time(now);
  if (request >= req_slots_.size() || !req_slots_[request].live) return kNoId;
  ActiveRequest& r = req_slots_[request];
  if (r.region == kNoId) r.region = region;
  std::uint32_t id;
  if (!sub_free_.empty()) {
    id = sub_free_.back();
    sub_free_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(sub_slots_.size());
    sub_slots_.emplace_back();
  }
  ActiveSub& s = sub_slots_[id];
  s = ActiveSub{};
  s.request = request;
  s.server = server;
  s.region = region;
  s.bytes = bytes;
  s.issue = now;
  s.live = true;
  return id;
}

void Recorder::sub_storage(std::uint32_t sub, Seconds arrival, Seconds start,
                           Seconds startup, Seconds service) {
  if (health_) health_->advance(arrival);
  if (sub >= sub_slots_.size() || !sub_slots_[sub].live) return;
  ActiveSub& s = sub_slots_[sub];
  // Server-resident time: queue wait plus the full storage service.
  if (health_) health_->sub_resident(s.server, (start - arrival) + service);
  s.arrival = arrival;
  s.start = start;
  s.startup = startup;
  s.service = service;
  note_time(start + service);
  if (s.request < req_slots_.size() &&
      req_slots_[s.request].op == IoOp::kWrite) {
    // The disk is a write's final stage: T_X is the client -> server
    // delivery time and the sub-request completes when service does.
    finalize_sub(sub, arrival - s.issue, start + service);
  }
}

void Recorder::sub_net_done(std::uint32_t sub, Seconds now) {
  if (health_) health_->advance(now);
  if (sub >= sub_slots_.size() || !sub_slots_[sub].live) return;
  const ActiveSub& s = sub_slots_[sub];
  // T_X for a read: time from storage completion to the last byte landing
  // at the client NIC.
  finalize_sub(sub, now - (s.start + s.service), now);
}

void Recorder::finalize_sub(std::uint32_t sub, Seconds t_x, Seconds done) {
  ActiveSub& s = sub_slots_[sub];
  note_time(done);
  const std::uint32_t tier =
      s.server < servers_.size() ? servers_[s.server].tier : kNoId;
  const Seconds wait = s.start - s.arrival;
  const Seconds t_t = s.service - s.startup;
  if (s.request < req_slots_.size()) {
    ActiveRequest& r = req_slots_[s.request];
    if (options_.max_request_samples > 0) {
      r.subs.push_back(SubSample{s.server, tier, s.region, s.bytes, s.issue,
                                 wait, s.startup, t_t, t_x, done});
    }
    const std::size_t slot = (tier & 0xFFu) * 2 + op_index(r.op);
    if (slot >= tier_series_.size()) tier_series_.resize(slot + 1);
    TierOpSeries& h = tier_series_[slot];
    const LabelSet labels = LabelSet{}.tier(tier).op(r.op);
    metrics_.observe(resolve(h.wait, m_wait_, labels), wait);
    metrics_.observe(resolve(h.t_s, m_ts_, labels), s.startup);
    metrics_.observe(resolve(h.t_t, m_tt_, labels), t_t);
    metrics_.observe(resolve(h.t_x, m_tx_, labels), t_x);
    // Server-resident time per {server,tier,op}: the straggler scheduler's
    // per-server tail input (p50/p95/p99/p999 via the sketch family).
    const LabelSet server_labels =
        LabelSet{}.server(s.server).tier(tier).op(r.op);
    const Seconds resident = wait + s.startup + t_t;
    if (s.server < servers_.size()) {
      metrics_.observe(
          resolve(servers_[s.server].by_op[op_index(r.op)].time,
                  m_server_time_, server_labels),
          resident);
    } else {
      metrics_.observe(m_server_time_, server_labels, resident);
    }
  }
  s.live = false;
  sub_free_.push_back(sub);
}

void Recorder::end_request(std::uint32_t request, Seconds now) {
  if (health_) health_->advance(now);
  if (request >= req_slots_.size() || !req_slots_[request].live) return;
  ActiveRequest& r = req_slots_[request];
  if (health_) {
    // kNoId (the single-file path) is never below tenant_of_.size().
    health_->request_done(
        r.op, r.file < tenant_of_.size() ? tenant_of_[r.file] : kNoId,
        now - r.issue);
  }
  note_time(now);
  ++requests_completed_;

  metrics_.observe(resolve(latency_series_[op_index(r.op)], m_latency_,
                           LabelSet{}.op(r.op)),
                   now - r.issue);
  if (r.file < kMaxCachedFiles) {
    if (r.file >= file_series_.size()) file_series_.resize(r.file + 1);
    FileSeries& fs = file_series_[r.file];
    const LabelSet labels = file_labels(r.file).op(r.op);
    metrics_.add(resolve(fs.bytes[op_index(r.op)], m_file_bytes_, labels),
                 static_cast<double>(r.size));
    metrics_.observe(
        resolve(fs.latency[op_index(r.op)], m_file_latency_, labels),
        now - r.issue);
  } else if (r.file != kNoId) {
    const LabelSet labels = file_labels(r.file).op(r.op);
    metrics_.add(m_file_bytes_, labels, static_cast<double>(r.size));
    metrics_.observe(m_file_latency_, labels, now - r.issue);
  }
  Seconds predicted = -1.0;
  if (predictor_) {
    predicted = predictor_(r.op, r.offset, r.size);
    if (predicted > 0.0 && now > r.issue) {
      const double rel =
          std::abs(predicted - (now - r.issue)) / (now - r.issue);
      const LabelSet labels = LabelSet{}.region(r.region).op(r.op);
      if (labels.region_value() == LabelSet::kNoneRegion) {
        // A request without sub-requests: rare, not worth a handle slot.
        metrics_.observe(m_rel_error_, labels, rel);
      } else {
        const std::size_t slot =
            std::size_t{labels.region_value()} * 2 + op_index(r.op);
        if (slot >= rel_error_series_.size()) {
          rel_error_series_.resize(slot + 1);
        }
        metrics_.observe(
            resolve(rel_error_series_[slot], m_rel_error_, labels), rel);
      }
    }
  }

  if (options_.trace && r.client < client_tracks_.size() &&
      client_tracks_[r.client] != kNoId) {
    push_event(TraceEvent{r.issue, now - r.issue, client_tracks_[r.client],
                          EventType::kRequest,
                          static_cast<std::uint8_t>(r.op == IoOp::kRead ? 0 : 1),
                          next_async_id_++, r.size});
  }

  if (options_.max_request_samples > 0) {
    RequestSample* sample;
    if (samples_.size() < options_.max_request_samples) {
      sample = &samples_.emplace_back();
    } else {
      sample = &samples_[samples_next_];
      samples_next_ = (samples_next_ + 1) % samples_.size();
    }
    sample->client = r.client;
    sample->op = r.op;
    sample->offset = r.offset;
    sample->size = r.size;
    sample->region = r.region;
    sample->file = r.file;
    sample->issue = r.issue;
    sample->done = now;
    sample->predicted = predicted;
    // Swap, not move: the evicted sample's buffer goes back to the request
    // slot, so a full ring costs no allocation per request.
    sample->subs.clear();
    sample->subs.swap(r.subs);
  }
  r.live = false;
  req_free_.push_back(request);
}

LabelSet Recorder::file_labels(std::uint32_t file) const {
  LabelSet l;
  if (file == kNoId) return l;
  l.file(file);
  if (file < tenant_of_.size()) l.tenant(tenant_of_[file]);
  return l;
}

void Recorder::cache_event(Bytes hit_bytes, Bytes miss_bytes, Seconds now) {
  if (!health_) return;
  health_->advance(now);
  health_->cache(hit_bytes, miss_bytes, now);
}

void Recorder::health_instant(HealthEvent event, std::uint32_t server,
                              double score, Seconds now) {
  note_time(now);
  if (!options_.trace) return;
  if (health_track_ == kNoId) {
    health_track_ = track("health", TrackKind::kOther, kNoId);
  }
  // Health instants carry the event kind in the op byte with bit 7 set
  // (region-switch instants keep the 0xFF sentinel); server in `id`, score
  // (micro-units) in `arg`.
  push_event(TraceEvent{
      now, 0.0, health_track_, EventType::kInstant,
      static_cast<std::uint8_t>(0x80u | static_cast<std::uint8_t>(event)),
      server, static_cast<std::uint64_t>(score * 1e6)});
}

std::vector<Recorder::ResourceSummary> Recorder::resource_summaries() const {
  std::vector<ResourceSummary> out;
  out.reserve(tracks_.size());
  for (const TrackState& t : tracks_) {
    ResourceSummary s;
    s.name = t.name;
    s.kind = t.kind;
    s.entity = t.entity;
    s.tier = t.tier;
    s.is_ssd = t.is_ssd;
    s.busy = t.service.sum();
    s.queue_delay = t.wait.sum();
    s.jobs = t.wait.count();
    s.depth_max = t.depth_max;
    s.wait = &t.wait;
    s.service = &t.service;
    s.busy_timeline = &t.busy_timeline;
    s.depth_timeline = &t.depth_timeline;
    out.push_back(std::move(s));
  }
  return out;
}

// --- export -----------------------------------------------------------------

void Recorder::append_trace_events(std::ostream& out, std::uint32_t pid,
                                   std::string_view process_name,
                                   bool& first) const {
  // Round-trip precision: the default 6 significant digits would round
  // microsecond timestamps enough to make adjacent spans appear to overlap.
  out.precision(17);
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n  ";
  };

  sep();
  out << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << pid
      << ", \"tid\": 0, \"args\": {\"name\": ";
  write_json_string(out, process_name);
  out << "}}";
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    sep();
    out << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " << pid
        << ", \"tid\": " << i + 1 << ", \"args\": {\"name\": ";
    write_json_string(out, tracks_[i].name);
    out << "}}";
    sep();
    out << "{\"ph\": \"M\", \"name\": \"thread_sort_index\", \"pid\": " << pid
        << ", \"tid\": " << i + 1 << ", \"args\": {\"sort_index\": " << i
        << "}}";
  }

  // Ring mode stores events out of order once wrapped; export oldest-first.
  const std::size_t n = events_.size();
  const std::size_t begin =
      options_.max_trace_events > 0 && n == options_.max_trace_events
          ? ring_next_
          : 0;
  for (std::size_t k = 0; k < n; ++k) {
    const TraceEvent& e = events_[(begin + k) % n];
    const std::uint32_t tid = e.track + 1;
    switch (e.type) {
      case EventType::kService:
        sep();
        out << "{\"ph\": \"X\", \"name\": \"service\", \"cat\": \"resource\", "
               "\"pid\": "
            << pid << ", \"tid\": " << tid << ", \"ts\": " << to_us(e.ts)
            << ", \"dur\": " << to_us(e.dur) << "}";
        break;
      case EventType::kWait:
      case EventType::kRequest: {
        const bool is_wait = e.type == EventType::kWait;
        const char* name = is_wait ? "wait"
                           : e.op == 0 ? "read" : "write";
        const char* cat = is_wait ? "queue" : "request";
        sep();
        out << "{\"ph\": \"b\", \"name\": \"" << name << "\", \"cat\": \""
            << cat << "\", \"id\": " << e.id << ", \"pid\": " << pid
            << ", \"tid\": " << tid << ", \"ts\": " << to_us(e.ts);
        if (!is_wait) out << ", \"args\": {\"bytes\": " << e.arg << "}";
        out << "}";
        sep();
        out << "{\"ph\": \"e\", \"name\": \"" << name << "\", \"cat\": \""
            << cat << "\", \"id\": " << e.id << ", \"pid\": " << pid
            << ", \"tid\": " << tid << ", \"ts\": " << to_us(e.ts + e.dur)
            << "}";
        break;
      }
      case EventType::kInstant:
        sep();
        if (e.op == 0xFF) {
          out << "{\"ph\": \"i\", \"name\": \"region_switch\", \"cat\": "
                 "\"region\", \"s\": \"t\", \"pid\": "
              << pid << ", \"tid\": " << tid << ", \"ts\": " << to_us(e.ts)
              << ", \"args\": {\"region\": " << e.arg << "}}";
        } else {
          const char* name =
              (e.op & 0x7Fu) ==
                      static_cast<std::uint8_t>(HealthEvent::kStragglerFlagged)
                  ? "straggler_flagged"
                  : "straggler_recovered";
          out << "{\"ph\": \"i\", \"name\": \"" << name
              << "\", \"cat\": \"health\", \"s\": \"t\", \"pid\": " << pid
              << ", \"tid\": " << tid << ", \"ts\": " << to_us(e.ts)
              << ", \"args\": {\"server\": " << e.id
              << ", \"score\": " << Real{static_cast<double>(e.arg) / 1e6}
              << "}}";
        }
        break;
    }
  }
}

void Recorder::write_trace_json(std::ostream& out,
                                std::string_view process_name) const {
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  append_trace_events(out, 1, process_name, first);
  out << "\n]}\n";
}

void Recorder::write_metrics_json(std::ostream& out, int indent) const {
  out.precision(17);
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const Seconds horizon = last_time_;
  out << "{\n";
  out << pad << "  \"horizon_s\": " << Real{horizon} << ",\n";
  out << pad << "  \"requests_completed\": " << requests_completed_ << ",\n";
  out << pad << "  \"trace_events_recorded\": " << events_recorded_ << ",\n";
  out << pad << "  \"trace_events_dropped\": " << events_dropped_ << ",\n";
  out << pad << "  \"resources\": [";
  bool first = true;
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const TrackState& t = tracks_[i];
    if (!first) out << ",";
    first = false;
    out << "\n" << pad << "    {\"track\": " << i << ", \"name\": ";
    write_json_string(out, t.name);
    out << ", \"kind\": \"" << kind_name(t.kind) << "\"";
    if (t.entity != kNoId) out << ", \"entity\": " << t.entity;
    if (t.tier != kNoId) {
      out << ", \"tier\": " << t.tier
          << ", \"is_ssd\": " << (t.is_ssd ? "true" : "false");
    }
    const Seconds busy = t.service.sum();
    out << ", \"jobs\": " << t.wait.count() << ", \"busy_s\": " << Real{busy}
        << ", \"queue_delay_s\": " << Real{t.wait.sum()}
        << ", \"utilization\": " << Real{horizon > 0.0 ? busy / horizon : 0.0}
        << ", \"depth_max\": " << t.depth_max
        << ", \"wait_p99_s\": " << Real{t.wait.percentile(99.0)}
        << ", \"service_p99_s\": " << Real{t.service.percentile(99.0)};
    out << ", \"busy_timeline\": {\"bucket_s\": "
        << Real{t.busy_timeline.bucket_width()} << ", \"busy_s\": [";
    bool f2 = true;
    for (double v : t.busy_timeline.values()) {
      if (!f2) out << ", ";
      f2 = false;
      out << Real{v};
    }
    out << "]}, \"depth_timeline\": {\"bucket_s\": "
        << Real{t.depth_timeline.bucket_width()} << ", \"depth_max\": [";
    f2 = true;
    for (double v : t.depth_timeline.values()) {
      if (!f2) out << ", ";
      f2 = false;
      out << Real{v};
    }
    out << "]}}";
  }
  out << "\n" << pad << "  ],\n";
  out << pad << "  \"metrics\": ";
  metrics_.write_json(out, indent + 2);
  out << "\n" << pad << "}";
}

}  // namespace harl::obs
