#include "src/sim/resource.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/obs/sink.hpp"

namespace harl::sim {

FifoResource::FifoResource(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)), lane_(sim.open_lane()) {}

void FifoResource::submit(Seconds service, InlineTask on_complete) {
  // `!(service >= 0)` also rejects NaN, and before any state changes.
  if (!(service >= 0.0)) {
    throw std::invalid_argument("service time must be >= 0");
  }
  const Time arrival = sim_.now();
  const Time start = std::max(arrival, next_free_);
  const Time finish = start + service;
  // finish >= next_free_ (the lane's tail) and seq only grows, so this
  // append keeps the lane sorted.
  sim_.schedule_in_lane(lane_, finish, std::move(on_complete));
  next_free_ = finish;
  busy_ += service;
  queue_delay_ += start - arrival;
  ++jobs_;
  if (obs::Sink* obs = sim_.observer();
      obs != nullptr && obs_track_ != obs::kNoId) [[unlikely]] {
    obs->resource_event(obs_track_, arrival, start, finish);
  }
}

Time FifoResource::next_free() const { return next_free_; }

void FifoResource::reset_stats() {
  busy_ = 0.0;
  queue_delay_ = 0.0;
  jobs_ = 0;
}

JoinCounter::JoinCounter(std::uint64_t expected, InlineTask on_all_done)
    : remaining_(expected), on_all_done_(std::move(on_all_done)) {
  if (expected == 0) throw std::invalid_argument("JoinCounter needs >= 1 child");
}

void JoinCounter::done() {
  if (remaining_ == 0) throw std::logic_error("JoinCounter over-notified");
  if (--remaining_ == 0 && on_all_done_) on_all_done_();
}

}  // namespace harl::sim
