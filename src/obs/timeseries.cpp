#include "src/obs/timeseries.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <stdexcept>
#include <string>

#include "src/obs/metrics.hpp"

namespace harl::obs {

TimeSeries::TimeSeries(Options options)
    : interval_(options.interval), capacity_(options.capacity) {
  if (!(interval_ > 0.0)) {
    throw std::invalid_argument("TimeSeries interval must be > 0");
  }
  if (capacity_ == 0) capacity_ = 1;
}

std::size_t TimeSeries::position(std::int64_t index) const {
  // Samples arrive in simulated-time order and recent windows are nearly
  // always contiguous, so counting back from the newest usually hits.
  if (windows_.empty() || index > windows_.back().index) {
    return windows_.size();
  }
  const std::int64_t back = windows_.back().index - index;
  if (back < static_cast<std::int64_t>(windows_.size())) {
    const std::size_t guess =
        windows_.size() - 1 - static_cast<std::size_t>(back);
    if (windows_[guess].index == index) return guess;
  }
  return static_cast<std::size_t>(
      std::lower_bound(
          windows_.begin(), windows_.end(), index,
          [](const Window& w, std::int64_t i) { return w.index < i; }) -
      windows_.begin());
}

TimeSeries::Window* TimeSeries::window(std::int64_t index) {
  std::size_t at = position(index);
  if (at < windows_.size() && windows_[at].index == index) {
    return &windows_[at];
  }
  if (windows_.size() >= capacity_) {
    // A full ring makes room by dropping its oldest window, unless the new
    // one would be older still: it would be the one dropped.
    if (at == 0) return nullptr;
    windows_.erase(windows_.begin());
    ++dropped_;
    --at;
  }
  Window w;
  w.index = index;
  windows_.insert(windows_.begin() + static_cast<std::ptrdiff_t>(at),
                  std::move(w));
  return &windows_[at];
}

TimeSeries::ServerCell* TimeSeries::cell(std::int64_t index,
                                         std::uint32_t server) {
  Window* win = window(index);
  if (win == nullptr) return nullptr;
  std::vector<ServerCell>& cells = win->servers;
  if (server >= cells.size()) cells.resize(server + 1);
  ServerCell& c = cells[server];
  c.present = true;
  return &c;
}

const TimeSeries::ServerCell* TimeSeries::find_cell(const Window& win,
                                                    std::uint32_t server) {
  return server < win.servers.size() && win.servers[server].present
             ? &win.servers[server]
             : nullptr;
}

const TimeSeries::Window* TimeSeries::find_window(std::int64_t index) const {
  const std::size_t at = position(index);
  return at == windows_.size() || windows_[at].index != index ? nullptr
                                                              : &windows_[at];
}

void TimeSeries::record_job(std::uint32_t server, Seconds arrival,
                            Seconds start, Seconds finish,
                            std::uint64_t depth) {
  const std::int64_t wa = window_of(arrival);
  ServerCell* c = cell(wa, server);
  if (c != nullptr) {
    c->depth_max = std::max(c->depth_max, depth);
    c->lat.add(finish - arrival);
  }
  // Busy time is clipped per overlapped window so utilization is exact even
  // for services that straddle a boundary.  When service starts no earlier
  // than the arrival window, that window can only be the first pass, before
  // any insertion could move `c`.
  const std::int64_t w0 = window_of(start);
  const std::int64_t w1 = window_of(finish);
  for (std::int64_t w = w0; w <= w1; ++w) {
    const double lo = std::max(start, static_cast<double>(w) * interval_);
    const double hi =
        std::min(finish, static_cast<double>(w + 1) * interval_);
    if (hi <= lo) continue;
    ServerCell* b = w == wa && w0 >= wa ? c : cell(w, server);
    if (b != nullptr) b->busy += hi - lo;
  }
}

void TimeSeries::record_cache(Bytes hit_bytes, Bytes miss_bytes, Seconds now) {
  if (Window* win = window(window_of(now))) {
    win->cache_hit += hit_bytes;
    win->cache_miss += miss_bytes;
  }
}

double TimeSeries::window_latency_mean(std::int64_t w,
                                       std::uint32_t server) const {
  const Window* win = find_window(w);
  const ServerCell* c = win == nullptr ? nullptr : find_cell(*win, server);
  return c == nullptr ? 0.0 : c->lat.mean();
}

std::uint64_t TimeSeries::window_jobs(std::int64_t w,
                                      std::uint32_t server) const {
  const Window* win = find_window(w);
  const ServerCell* c = win == nullptr ? nullptr : find_cell(*win, server);
  return c == nullptr ? 0 : c->lat.count();
}

std::vector<TimeSeries::WindowServerStat> TimeSeries::window_stats(
    std::int64_t w) const {
  std::vector<WindowServerStat> out;
  const Window* win = find_window(w);
  if (win == nullptr) return out;
  for (std::size_t id = 0; id < win->servers.size(); ++id) {
    const ServerCell& c = win->servers[id];
    if (!c.present) continue;
    WindowServerStat s;
    s.server = static_cast<std::uint32_t>(id);
    s.jobs = c.lat.count();
    s.lat_mean = c.lat.mean();
    out.push_back(s);
  }
  return out;
}

void TimeSeries::write_json(std::ostream& out, int indent) const {
  out.precision(17);
  const std::string pad(static_cast<std::size_t>(indent), ' ');

  std::vector<bool> has_data;  // by server id: present in any window
  for (const Window& w : windows_) {
    if (w.servers.size() > has_data.size()) has_data.resize(w.servers.size());
    for (std::size_t id = 0; id < w.servers.size(); ++id) {
      if (w.servers[id].present) has_data[id] = true;
    }
  }

  out << "{\n" << pad << "  \"interval_s\": " << Real{interval_} << ",\n"
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
  std::vector<std::array<double, 3>> lat_q;  // by window, for one server
  for (std::size_t sid = 0; sid < has_data.size(); ++sid) {
    if (!has_data[sid]) continue;
    const auto id = static_cast<std::uint32_t>(sid);
    if (!first_server) out << ",";
    first_server = false;
    out << "\n" << pad << "    {\"server\": " << id;
    auto column = [&](const char* name, auto&& value) {
      out << ", \"" << name << "\": [";
      for (std::size_t i = 0; i < windows_.size(); ++i) {
        const ServerCell* c = find_cell(windows_[i], id);
        out << (i == 0 ? "" : ", ");
        value(c);
      }
      out << ']';
    };
    column("jobs",
           [&](const ServerCell* c) { out << (c ? c->lat.count() : 0); });
    column("busy_s",
           [&](const ServerCell* c) { out << Real{c ? c->busy : 0.0}; });
    column("utilization", [&](const ServerCell* c) {
      out << Real{c ? c->busy / interval_ : 0.0};
    });
    column("depth_max",
           [&](const ServerCell* c) { out << (c ? c->depth_max : 0); });
    column("lat_mean_s", [&](const ServerCell* c) {
      out << Real{c ? c->lat.mean() : 0.0};
    });
    // p50/p95/p99 of every window, from one pass over each cell's sketch.
    static constexpr double kQs[] = {0.5, 0.95, 0.99};
    lat_q.assign(windows_.size(), {});
    for (std::size_t i = 0; i < windows_.size(); ++i) {
      if (const ServerCell* c = find_cell(windows_[i], id)) {
        c->lat.quantiles(kQs, lat_q[i]);
      }
    }
    for (std::size_t j = 0; j < std::size(kQs); ++j) {
      static constexpr const char* kNames[] = {"lat_p50_s", "lat_p95_s",
                                               "lat_p99_s"};
      out << ", \"" << kNames[j] << "\": [";
      for (std::size_t i = 0; i < windows_.size(); ++i) {
        out << (i == 0 ? "" : ", ") << Real{lat_q[i][j]};
      }
      out << ']';
    }
    out << '}';
  }
  out << "\n" << pad << "  ]\n" << pad << '}';
}

}  // namespace harl::obs
