#include "src/obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <stdexcept>

namespace harl::obs {

TimeSeries::TimeSeries(Options options)
    : interval_(options.interval), capacity_(options.capacity) {
  if (!(interval_ > 0.0)) {
    throw std::invalid_argument("TimeSeries interval must be > 0");
  }
  if (capacity_ == 0) capacity_ = 1;
}

std::int64_t TimeSeries::window_of(Seconds t) const {
  return static_cast<std::int64_t>(std::floor(t / interval_));
}

TimeSeries::Window& TimeSeries::window(std::int64_t index) {
  auto it = std::lower_bound(
      windows_.begin(), windows_.end(), index,
      [](const Window& w, std::int64_t i) { return w.index < i; });
  if (it == windows_.end() || it->index != index) {
    Window w;
    w.index = index;
    it = windows_.insert(it, std::move(w));
    if (windows_.size() > capacity_) {
      windows_.erase(windows_.begin());
      ++dropped_;
      it = std::lower_bound(
          windows_.begin(), windows_.end(), index,
          [](const Window& w2, std::int64_t i) { return w2.index < i; });
    }
  }
  return *it;
}

TimeSeries::ServerCell& TimeSeries::cell(std::int64_t index,
                                         std::uint32_t server) {
  return window(index).servers[server];
}

const TimeSeries::Window* TimeSeries::find_window(std::int64_t index) const {
  auto it = std::lower_bound(
      windows_.begin(), windows_.end(), index,
      [](const Window& w, std::int64_t i) { return w.index < i; });
  return (it == windows_.end() || it->index != index) ? nullptr : &*it;
}

void TimeSeries::record_span(std::uint32_t server, Seconds arrival,
                             Seconds start, Seconds finish) {
  const std::int64_t wa = window_of(arrival);
  if (dropped_ == 0 || windows_.empty() || wa >= windows_.front().index) {
    cell(wa, server).lat.add(finish - arrival);
  }
  // Busy time is clipped per overlapped window so utilization is exact even
  // for services that straddle a boundary.
  const std::int64_t w0 = window_of(start);
  const std::int64_t w1 = window_of(finish);
  for (std::int64_t w = w0; w <= w1; ++w) {
    const double lo = std::max(start, static_cast<double>(w) * interval_);
    const double hi =
        std::min(finish, static_cast<double>(w + 1) * interval_);
    if (hi <= lo) continue;
    if (dropped_ > 0 && !windows_.empty() && w < windows_.front().index) {
      continue;
    }
    cell(w, server).busy += hi - lo;
  }
}

void TimeSeries::record_depth(std::uint32_t server, Seconds now,
                              std::uint64_t depth) {
  const std::int64_t w = window_of(now);
  if (dropped_ > 0 && !windows_.empty() && w < windows_.front().index) return;
  ServerCell& c = cell(w, server);
  c.depth_max = std::max(c.depth_max, depth);
}

void TimeSeries::record_cache(Bytes hit_bytes, Bytes miss_bytes, Seconds now) {
  const std::int64_t w = window_of(now);
  if (dropped_ > 0 && !windows_.empty() && w < windows_.front().index) return;
  Window& win = window(w);
  win.cache_hit += hit_bytes;
  win.cache_miss += miss_bytes;
}

double TimeSeries::window_latency_mean(std::int64_t w,
                                       std::uint32_t server) const {
  const Window* win = find_window(w);
  if (win == nullptr) return 0.0;
  auto it = win->servers.find(server);
  return it == win->servers.end() ? 0.0 : it->second.lat.mean();
}

std::uint64_t TimeSeries::window_jobs(std::int64_t w,
                                      std::uint32_t server) const {
  const Window* win = find_window(w);
  if (win == nullptr) return 0;
  auto it = win->servers.find(server);
  return it == win->servers.end() ? 0 : it->second.lat.count();
}

std::vector<TimeSeries::WindowServerStat> TimeSeries::window_stats(
    std::int64_t w) const {
  std::vector<WindowServerStat> out;
  const Window* win = find_window(w);
  if (win == nullptr) return out;
  for (const auto& [id, c] : win->servers) {
    WindowServerStat s;
    s.server = id;
    s.jobs = c.lat.count();
    s.lat_mean = c.lat.mean();
    out.push_back(s);
  }
  return out;
}

void TimeSeries::write_json(std::ostream& out, int indent) const {
  out.precision(17);
  const std::string pad(static_cast<std::size_t>(indent), ' ');

  std::set<std::uint32_t> server_ids;
  for (const Window& w : windows_) {
    for (const auto& [id, c] : w.servers) server_ids.insert(id);
  }

  out << "{\n" << pad << "  \"interval_s\": " << interval_ << ",\n"
      << pad << "  \"windows\": " << windows_.size() << ",\n"
      << pad << "  \"first_window\": "
      << (windows_.empty() ? 0 : windows_.front().index) << ",\n"
      << pad << "  \"dropped_windows\": " << dropped_ << ",\n"
      << pad << "  \"window_index\": [";
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << windows_[i].index;
  }
  out << "],\n" << pad << "  \"cache\": {\"hit_bytes\": [";
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << windows_[i].cache_hit;
  }
  out << "], \"miss_bytes\": [";
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << windows_[i].cache_miss;
  }
  out << "]},\n" << pad << "  \"servers\": [";

  bool first_server = true;
  for (std::uint32_t id : server_ids) {
    if (!first_server) out << ",";
    first_server = false;
    out << "\n" << pad << "    {\"server\": " << id;
    auto column = [&](const char* name, auto&& value) {
      out << ", \"" << name << "\": [";
      for (std::size_t i = 0; i < windows_.size(); ++i) {
        auto it = windows_[i].servers.find(id);
        const ServerCell* c =
            it == windows_[i].servers.end() ? nullptr : &it->second;
        out << (i == 0 ? "" : ", ");
        value(c);
      }
      out << ']';
    };
    column("jobs",
           [&](const ServerCell* c) { out << (c ? c->lat.count() : 0); });
    column("busy_s",
           [&](const ServerCell* c) { out << (c ? c->busy : 0.0); });
    column("utilization", [&](const ServerCell* c) {
      out << (c ? c->busy / interval_ : 0.0);
    });
    column("depth_max",
           [&](const ServerCell* c) { out << (c ? c->depth_max : 0); });
    column("lat_mean_s", [&](const ServerCell* c) {
      out << (c ? c->lat.mean() : 0.0);
    });
    column("lat_p50_s", [&](const ServerCell* c) {
      out << (c ? c->lat.percentile(50.0) : 0.0);
    });
    column("lat_p95_s", [&](const ServerCell* c) {
      out << (c ? c->lat.percentile(95.0) : 0.0);
    });
    column("lat_p99_s", [&](const ServerCell* c) {
      out << (c ? c->lat.percentile(99.0) : 0.0);
    });
    out << '}';
  }
  out << "\n" << pad << "  ]\n" << pad << '}';
}

}  // namespace harl::obs
