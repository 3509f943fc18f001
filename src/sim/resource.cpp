#include "src/sim/resource.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/obs/sink.hpp"

namespace harl::sim {

FifoResource::FifoResource(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

void FifoResource::submit(Seconds service, InlineTask on_complete) {
  if (service < 0.0) throw std::invalid_argument("negative service time");
  const Time arrival = sim_.now();
  const Time start = std::max(arrival, next_free_);
  const Time finish = start + service;
  next_free_ = finish;
  busy_ += service;
  queue_delay_ += start - arrival;
  ++jobs_;
  if (obs::Sink* obs = sim_.observer();
      obs != nullptr && obs_track_ != obs::kNoId) [[unlikely]] {
    obs->resource_event(obs_track_, arrival, start, finish);
  }
  sim_.schedule_at(finish, std::move(on_complete));
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
