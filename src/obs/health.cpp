#include "src/obs/health.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "src/obs/recorder.hpp"

namespace harl::obs {

HealthMonitor::HealthMonitor(TelemetryOptions options, Recorder& owner)
    : options_(options),
      owner_(owner),
      ts_(TimeSeries::Options{options.interval, kWindowCapacity}),
      metrics_(owner.metrics()),
      m_windows_scored_(
          metrics_.family("health.windows_scored",
                          MetricsRegistry::Kind::kCounter)),
      m_flagged_(metrics_.family("health.straggler_flagged",
                                 MetricsRegistry::Kind::kCounter)),
      m_recovered_(metrics_.family("health.recovered",
                                   MetricsRegistry::Kind::kCounter)),
      m_score_(metrics_.family("health.score",
                               MetricsRegistry::Kind::kGauge)),
      m_slo_req_total_(metrics_.family("health.slo.requests_total",
                                       MetricsRegistry::Kind::kCounter)),
      m_slo_req_met_(metrics_.family("health.slo.requests_met",
                                     MetricsRegistry::Kind::kCounter)),
      m_slo_sub_total_(metrics_.family("health.slo.subs_total",
                                       MetricsRegistry::Kind::kCounter)),
      m_slo_sub_met_(metrics_.family("health.slo.subs_met",
                                     MetricsRegistry::Kind::kCounter)),
      m_slo_tenant_total_(metrics_.family("health.slo.tenant_total",
                                          MetricsRegistry::Kind::kCounter)),
      m_slo_tenant_met_(metrics_.family("health.slo.tenant_met",
                                        MetricsRegistry::Kind::kCounter)) {}

// --- feeds -------------------------------------------------------------------

void HealthMonitor::sub_resident(std::uint32_t server, Seconds resident) {
  if (!(options_.slo > 0.0) || server == kNoId) return;
  ServerState& st = server_state(server);
  ++st.slo_total;
  const LabelSet labels = LabelSet{}.server(server);
  metrics_.add(
      owner_.resolve(st.slo_total_series, m_slo_sub_total_, labels), 1.0);
  if (resident <= options_.slo) {
    ++st.slo_met;
    metrics_.add(
        owner_.resolve(st.slo_met_series, m_slo_sub_met_, labels), 1.0);
  }
}

void HealthMonitor::request_done(IoOp op, std::uint32_t tenant,
                                 Seconds latency) {
  if (!(options_.slo > 0.0)) return;
  const std::size_t i = op == IoOp::kRead ? 0 : 1;
  ++req_total_[i];
  const LabelSet labels = LabelSet{}.op(op);
  metrics_.add(
      owner_.resolve(req_total_series_[i], m_slo_req_total_, labels), 1.0);
  const bool met = latency <= options_.slo;
  if (met) {
    ++req_met_[i];
    metrics_.add(
        owner_.resolve(req_met_series_[i], m_slo_req_met_, labels), 1.0);
  }
  if (tenant != kNoId) {
    TenantSlo& ts = tenant_slo_[tenant];
    ++ts.total;
    const LabelSet tl = LabelSet{}.tenant(tenant);
    metrics_.add(owner_.resolve(ts.total_series, m_slo_tenant_total_, tl), 1.0);
    if (met) {
      ++ts.met;
      metrics_.add(owner_.resolve(ts.met_series, m_slo_tenant_met_, tl), 1.0);
    }
  }
}

HealthMonitor::ServerState& HealthMonitor::server_state(std::uint32_t server) {
  if (server >= servers_.size()) servers_.resize(server + 1);
  ServerState& s = servers_[server];
  s.present = true;
  return s;
}

// --- scoring -----------------------------------------------------------------

void HealthMonitor::advance_to(std::int64_t w) {
  if (!started_) {
    started_ = true;
    next_to_score_ = w;
    return;
  }
  while (next_to_score_ < w) {
    score_window(next_to_score_);
    ++next_to_score_;
  }
}

void HealthMonitor::score_window(std::int64_t w) {
  const auto stats = ts_.window_stats(w);
  std::vector<double> means;
  for (const auto& s : stats) {
    if (s.jobs >= kMinWindowJobs) means.push_back(s.lat_mean);
  }
  if (means.empty()) return;  // idle window: streaks unchanged
  std::sort(means.begin(), means.end());
  const std::size_t n = means.size();
  const double median = n % 2 == 1
                            ? means[n / 2]
                            : 0.5 * (means[n / 2 - 1] + means[n / 2]);
  if (!(median > 0.0)) return;
  metrics_.add(m_windows_scored_, LabelSet{}, 1.0);
  const Seconds window_end =
      static_cast<double>(w + 1) * options_.interval;
  for (const auto& s : stats) {
    if (s.jobs < kMinWindowJobs) continue;
    const double score = s.lat_mean / median;
    ServerState& st = server_state(s.server);
    st.score = score;
    metrics_.set(m_score_, LabelSet{}.server(s.server), score);
    if (score >= kFlagThreshold) {
      ++st.flag_streak;
      st.recover_streak = 0;
      if (!st.flagged && st.flag_streak >= kFlagWindows) {
        st.flagged = true;
        ++st.flag_count;
        metrics_.add(m_flagged_, LabelSet{}.server(s.server), 1.0);
        owner_.health_instant(HealthEvent::kStragglerFlagged, s.server,
                              score, window_end);
      }
    } else if (score <= kRecoverThreshold) {
      ++st.recover_streak;
      st.flag_streak = 0;
      if (st.flagged && st.recover_streak >= kRecoverWindows) {
        st.flagged = false;
        ++st.recover_count;
        metrics_.add(m_recovered_, LabelSet{}.server(s.server), 1.0);
        owner_.health_instant(HealthEvent::kStragglerRecovered, s.server,
                              score, window_end);
      }
    } else {
      // Hysteresis dead band: neither streak advances.
      st.flag_streak = 0;
      st.recover_streak = 0;
    }
  }
}

void HealthMonitor::finalize() {
  if (finalized_ || !started_) {
    finalized_ = true;
    return;
  }
  finalized_ = true;
  if (ts_.empty()) return;
  const std::int64_t last = ts_.last_window();
  while (next_to_score_ <= last) {
    score_window(next_to_score_);
    ++next_to_score_;
  }
}

// --- results -----------------------------------------------------------------

double HealthMonitor::server_score(std::uint32_t server) const {
  return server < servers_.size() ? servers_[server].score : 0.0;
}

bool HealthMonitor::is_flagged(std::uint32_t server) const {
  return server < servers_.size() && servers_[server].flagged;
}

double HealthMonitor::tenant_slo_attainment(std::uint32_t tenant) const {
  auto it = tenant_slo_.find(tenant);
  if (it == tenant_slo_.end() || it->second.total == 0) return 1.0;
  return static_cast<double>(it->second.met) /
         static_cast<double>(it->second.total);
}

void HealthMonitor::write_json(std::ostream& out, int indent) const {
  out.precision(17);
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  out << "{\n" << pad << "  \"interval_s\": " << options_.interval << ",\n"
      << pad << "  \"slo_s\": " << options_.slo << ",\n"
      << pad << "  \"flag_threshold\": " << kFlagThreshold << ",\n"
      << pad << "  \"recover_threshold\": " << kRecoverThreshold
      << ",\n"
      << pad << "  \"requests\": {\"read_total\": " << req_total_[0]
      << ", \"read_met\": " << req_met_[0]
      << ", \"write_total\": " << req_total_[1]
      << ", \"write_met\": " << req_met_[1] << "},\n";
  if (!tenant_slo_.empty()) {
    out << pad << "  \"tenants\": [";
    bool tf = true;
    for (const auto& [tenant, s] : tenant_slo_) {
      if (!tf) out << ",";
      tf = false;
      out << "\n" << pad << "    {\"tenant\": " << tenant
          << ", \"total\": " << s.total << ", \"met\": " << s.met
          << ", \"attainment\": "
          << (s.total > 0
                  ? static_cast<double>(s.met) / static_cast<double>(s.total)
                  : 1.0)
          << '}';
    }
    out << "\n" << pad << "  ],\n";
  }
  out << pad << "  \"servers\": [";
  bool first = true;
  for (std::size_t id = 0; id < servers_.size(); ++id) {
    const ServerState& s = servers_[id];
    if (!s.present) continue;
    if (!first) out << ",";
    first = false;
    out << "\n" << pad << "    {\"server\": " << id
        << ", \"score\": " << s.score
        << ", \"flagged\": " << (s.flagged ? "true" : "false")
        << ", \"flag_count\": " << s.flag_count
        << ", \"recover_count\": " << s.recover_count
        << ", \"slo_subs_total\": " << s.slo_total
        << ", \"slo_subs_met\": " << s.slo_met << '}';
  }
  out << "\n" << pad << "  ]\n" << pad << '}';
}

}  // namespace harl::obs
