// Unit tests for the discrete-event simulator and FIFO resources.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/obs/recorder.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/simulator.hpp"

namespace harl::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, DispatchesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesBreakInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, CallbacksCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.schedule_after(1.0, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 2.0);
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilLeavesLaterEventsQueued) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CountsDispatchedEvents) {
  Simulator sim;
  for (int i = 0; i < 25; ++i) sim.schedule_at(static_cast<Time>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_dispatched(), 25u);
}

TEST(FifoResource, IdleResourceServesImmediately) {
  Simulator sim;
  FifoResource res(sim, "disk");
  Time done = -1.0;
  res.submit(2.0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 2.0);
  EXPECT_EQ(res.busy_time(), 2.0);
  EXPECT_EQ(res.jobs(), 1u);
  EXPECT_EQ(res.total_queue_delay(), 0.0);
}

TEST(FifoResource, JobsQueueInFifoOrder) {
  Simulator sim;
  FifoResource res(sim, "disk");
  std::vector<Time> done;
  // Three jobs submitted at t=0 with service 1, 2, 3: finish at 1, 3, 6.
  res.submit(1.0, [&] { done.push_back(sim.now()); });
  res.submit(2.0, [&] { done.push_back(sim.now()); });
  res.submit(3.0, [&] { done.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(done, (std::vector<Time>{1.0, 3.0, 6.0}));
  EXPECT_EQ(res.busy_time(), 6.0);
  EXPECT_EQ(res.total_queue_delay(), 1.0 + 3.0);
}

TEST(FifoResource, LateArrivalsDoNotQueueBehindIdleTime) {
  Simulator sim;
  FifoResource res(sim, "disk");
  Time done = 0.0;
  sim.schedule_at(10.0, [&] {
    res.submit(1.0, [&] { done = sim.now(); });
  });
  res.submit(1.0, [] {});
  sim.run();
  EXPECT_EQ(done, 11.0);  // idle gap between jobs is not charged
  EXPECT_EQ(res.busy_time(), 2.0);
}

TEST(FifoResource, UtilizationAgainstHorizon) {
  Simulator sim;
  FifoResource res(sim, "x");
  res.submit(2.0, [] {});
  sim.run();
  EXPECT_DOUBLE_EQ(res.utilization(4.0), 0.5);
  EXPECT_DOUBLE_EQ(res.utilization(0.0), 0.0);
}

TEST(FifoResource, RejectsNegativeService) {
  Simulator sim;
  FifoResource res(sim, "x");
  EXPECT_THROW(res.submit(-0.5, [] {}), std::invalid_argument);
}

TEST(FifoResource, RejectsNaNServiceWithoutMutatingState) {
  // NaN passes a `service < 0` test; it must be rejected before the
  // horizon, the counters, the observer or the event queue see it.
  Simulator sim;
  obs::Recorder recorder;
  sim.set_observer(&recorder);
  FifoResource res(sim, "disk");
  res.set_obs_track(recorder.register_server(0, 0, "disk", false));
  res.submit(2.0, [] {});
  const std::uint64_t recorded = recorder.trace_events_recorded();
  bool fired = false;
  EXPECT_THROW(res.submit(std::nan(""), [&] { fired = true; }),
               std::invalid_argument);
  EXPECT_EQ(res.next_free(), 2.0);
  EXPECT_EQ(res.busy_time(), 2.0);
  EXPECT_EQ(res.total_queue_delay(), 0.0);
  EXPECT_EQ(res.jobs(), 1u);
  EXPECT_EQ(recorder.trace_events_recorded(), recorded);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_dispatched(), 1u);
  EXPECT_EQ(sim.now(), 2.0);
}

TEST(FifoResource, ResetStatsKeepsCommitments) {
  Simulator sim;
  FifoResource res(sim, "x");
  res.submit(5.0, [] {});
  res.reset_stats();
  EXPECT_EQ(res.busy_time(), 0.0);
  EXPECT_EQ(res.jobs(), 0u);
  // The horizon survives: a new job queues behind the in-flight one.
  Time done = 0.0;
  res.submit(1.0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 6.0);
}

TEST(JoinCounter, FiresAfterLastChild) {
  Simulator sim;
  bool fired = false;
  auto join = std::make_shared<JoinCounter>(3, [&] { fired = true; });
  join->done();
  join->done();
  EXPECT_FALSE(fired);
  join->done();
  EXPECT_TRUE(fired);
}

TEST(JoinCounter, RejectsZeroChildrenAndOverNotification) {
  EXPECT_THROW(JoinCounter(0, [] {}), std::invalid_argument);
  JoinCounter j(1, [] {});
  j.done();
  EXPECT_THROW(j.done(), std::logic_error);
}

}  // namespace
}  // namespace harl::sim
