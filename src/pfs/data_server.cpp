#include "src/pfs/data_server.hpp"

#include <algorithm>
#include <cmath>
#include <utility>


namespace harl::pfs {

DataServer::DataServer(sim::Simulator& sim,
                       std::unique_ptr<storage::StorageDevice> device,
                       std::string name, bool is_ssd,
                       Seconds per_stripe_overhead, double speed_factor)
    : sim_(sim),
      device_(std::move(device)),
      name_(std::move(name)),
      is_ssd_(is_ssd),
      per_stripe_overhead_(per_stripe_overhead),
      speed_factor_(speed_factor),
      queue_(sim_, name_ + "/disk") {}

void DataServer::submit(IoOp op, std::uint32_t object, Bytes offset, Bytes size,
                        Bytes pieces, sim::InlineTask on_complete,
                        std::uint32_t obs_sub) {
  const Bytes device_offset = static_cast<Bytes>(object) * kObjectStride + offset;
  // FIFO order equals arrival order, so sampling the device at submission
  // time preserves the sequential-access detection of stateful devices.
  Seconds service =
      device_->service_time(op, device_offset, size) +
      per_stripe_overhead_ * static_cast<double>(std::max<Bytes>(pieces, 1));
  if (gc_period_ > 0.0 &&
      std::fmod(sim_.now(), gc_period_) < gc_duration_) {
    // Inside a GC pause: inflate the whole access (a pure function of
    // simulated time).
    service *= gc_factor_;
  }
  if (op == IoOp::kRead) {
    bytes_read_ += size;
  } else {
    bytes_written_ += size;
  }
  if (obs::Sink* obs = sim_.observer();
      obs != nullptr && obs_server_ != obs::kNoId) [[unlikely]] {
    const sim::Time arrival = sim_.now();
    obs->server_access(obs_server_, op, object, size, pieces, arrival);
    if (obs_sub != obs::kNoId) {
      const sim::Time start = std::max(arrival, queue_.next_free());
      obs->sub_storage(obs_sub, arrival, start, device_->last_startup(),
                       service);
    }
  }
  queue_.submit(service, std::move(on_complete));
}

void DataServer::attach_observer(std::uint32_t server, std::uint32_t tier) {
  if (obs::Sink* obs = sim_.observer(); obs != nullptr) {
    obs_server_ = server;
    queue_.set_obs_track(obs->register_server(server, tier, name_, is_ssd_));
  }
}

void DataServer::reset_stats() {
  bytes_read_ = 0;
  bytes_written_ = 0;
  device_->reset();
  queue_.reset_stats();
}

}  // namespace harl::pfs
