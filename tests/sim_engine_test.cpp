// Event-engine tests: the InlineTask small-buffer callable, the arena /
// resource-lane / now-lane / ascending-lane / heap queue machinery behind
// Simulator, and a randomized property test pinning the dispatch order to a
// reference (time, seq) priority-queue model — the bit-reproducibility
// invariant every figure bench depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/sim/inline_task.hpp"
#include "src/sim/resource.hpp"
#include "src/sim/simulator.hpp"

namespace harl::sim {
namespace {

// --- InlineTask ------------------------------------------------------------

TEST(InlineTask, SmallCapturesStayInline) {
  int hits = 0;
  int* p = &hits;
  InlineTask task([p] { ++*p; });
  EXPECT_TRUE(task.stored_inline());
  task();
  EXPECT_EQ(hits, 1);
}

TEST(InlineTask, CapacitySizedCaptureStaysInline) {
  struct Capture {
    unsigned char bytes[InlineTask::kCapacity] = {};
  };
  bool inline_checked = InlineTask(
                            [c = Capture{}] { (void)c; })
                            .stored_inline();
  EXPECT_TRUE(inline_checked);
}

TEST(InlineTask, OversizedCapturesFallBackToHeap) {
  struct Big {
    unsigned char bytes[InlineTask::kCapacity + 1] = {};
  };
  Big big;
  big.bytes[0] = 42;
  int seen = 0;
  InlineTask task([big, &seen] { seen = big.bytes[0]; });
  EXPECT_FALSE(task.stored_inline());
  task();
  EXPECT_EQ(seen, 42);
}

TEST(InlineTask, AcceptsMoveOnlyCallables) {
  auto owner = std::make_unique<int>(7);
  int seen = 0;
  InlineTask task([owner = std::move(owner), &seen] { seen = *owner; });
  InlineTask moved = std::move(task);
  EXPECT_FALSE(static_cast<bool>(task));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(moved));
  moved();
  EXPECT_EQ(seen, 7);
}

TEST(InlineTask, MoveOnlyOversizedCallableSurvivesMoves) {
  struct Payload {
    std::unique_ptr<int> value;
    unsigned char pad[InlineTask::kCapacity] = {};
  };
  Payload payload;
  payload.value = std::make_unique<int>(11);
  int seen = 0;
  InlineTask a([payload = std::move(payload), &seen] {
    seen = *payload.value;
  });
  EXPECT_FALSE(a.stored_inline());
  InlineTask b = std::move(a);
  InlineTask c;
  c = std::move(b);
  c();
  EXPECT_EQ(seen, 11);
}

TEST(InlineTask, DestroysCallableExactlyOnce) {
  struct Counter {
    int* live;
    explicit Counter(int* l) : live(l) { ++*live; }
    Counter(const Counter& o) : live(o.live) { ++*live; }
    Counter(Counter&& o) noexcept : live(o.live) { ++*live; }
    ~Counter() { --*live; }
    void operator()() const {}
  };
  int live = 0;
  {
    InlineTask task{Counter(&live)};
    EXPECT_GE(live, 1);
  }
  EXPECT_EQ(live, 0);
  {
    InlineTask task{Counter(&live)};
    InlineTask other = std::move(task);
    other.reset();
    EXPECT_EQ(live, 0);
  }
  EXPECT_EQ(live, 0);
}

// --- dispatch-order property test ------------------------------------------

/// Reference model: a plain std::priority_queue over (time, seq) — the
/// specified total order, with none of the engine's lane/arena machinery.
class ReferenceQueue {
 public:
  void schedule(double time, std::uint64_t id) {
    queue_.push(Entry{time, seq_++, id});
  }
  bool empty() const { return queue_.empty(); }
  double top_time() const { return queue_.top().time; }
  std::pair<double, std::uint64_t> pop() {
    const Entry top = queue_.top();
    queue_.pop();
    return {top.time, top.id};
  }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    std::uint64_t id;
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::uint64_t seq_ = 0;
};

/// Reference engine: ReferenceQueue order plus FIFO resources modelled as a
/// bare next-free horizon per resource.  Same surface as EngineUnderTest.
class ReferenceEngine {
 public:
  double now() const { return now_; }
  void schedule_at(double t, std::function<void()> fn) {
    queue_.schedule(t, tasks_.size());
    tasks_.push_back(std::move(fn));
  }
  std::size_t add_resource() {
    next_free_.push_back(0.0);
    return next_free_.size() - 1;
  }
  void submit(std::size_t resource, double service, std::function<void()> fn) {
    const double start = std::max(now_, next_free_[resource]);
    next_free_[resource] = start + service;
    schedule_at(start + service, std::move(fn));
  }
  std::uint64_t park(std::function<void()> fn) {
    parked_.push_back(std::move(fn));
    return parked_.size() - 1;
  }
  void fire_parked(std::uint64_t handle) {
    std::function<void()> fn = std::move(parked_[handle]);
    fn();
  }
  void run_until(double limit) {
    while (!queue_.empty() && queue_.top_time() <= limit) dispatch();
  }
  void run() {
    while (!queue_.empty()) dispatch();
  }

 private:
  void dispatch() {
    const auto [t, id] = queue_.pop();
    now_ = t;
    std::function<void()> fn = std::move(tasks_[id]);
    fn();
  }

  ReferenceQueue queue_;
  std::vector<std::function<void()>> tasks_;
  std::vector<std::function<void()>> parked_;
  std::vector<double> next_free_;
  double now_ = 0.0;
};

/// The Simulator and real FifoResources behind ReferenceEngine's surface.
class EngineUnderTest {
 public:
  double now() const { return sim_.now(); }
  void schedule_at(double t, std::function<void()> fn) {
    sim_.schedule_at(t, std::move(fn));
  }
  std::size_t add_resource() {
    resources_.push_back(std::make_unique<FifoResource>(sim_, "r"));
    return resources_.size() - 1;
  }
  void submit(std::size_t resource, double service, std::function<void()> fn) {
    resources_[resource]->submit(service, std::move(fn));
  }
  std::uint64_t park(std::function<void()> fn) {
    return sim_.park(std::move(fn));
  }
  void fire_parked(std::uint64_t handle) {
    sim_.fire_parked(static_cast<Simulator::TaskHandle>(handle));
  }
  void run_until(double limit) { sim_.run_until(limit); }
  void run() { sim_.run(); }
  const Simulator& sim() const { return sim_; }

 private:
  Simulator sim_;
  std::vector<std::unique_ptr<FifoResource>> resources_;
};

/// One randomized script, replayed identically on either engine: top-level
/// bursts of generic events (zero delay, repeated offsets for exact ties,
/// jitter) and FIFO submissions (zero, repeated and jittered service), each
/// followed by a run_until prefix.  Fired events spawn children from an RNG
/// keyed by their id: generic events, submissions made from inside the
/// callback, and parked continuations fired by a later event.  Returns the
/// (id, time) dispatch log.
template <typename Engine>
std::vector<std::pair<std::uint64_t, double>> run_script(Engine& engine,
                                                         std::uint64_t seed) {
  std::vector<std::pair<std::uint64_t, double>> log;
  std::mt19937_64 rng(seed);
  std::uint64_t next_id = 0;
  std::vector<std::size_t> resources;
  for (int r = 0; r < 4; ++r) resources.push_back(engine.add_resource());

  const auto pick_time = [&engine](std::mt19937_64& g) {
    switch (std::uniform_int_distribution<int>(0, 9)(g)) {
      case 0:
      case 1:
        return engine.now();  // zero delay -> now lane
      case 2:
        return engine.now() + 1.0;  // repeated offsets -> exact ties
      default:
        return engine.now() +
               std::uniform_real_distribution<double>(0.0, 4.0)(g);
    }
  };
  const auto pick_service = [](std::mt19937_64& g) {
    switch (std::uniform_int_distribution<int>(0, 9)(g)) {
      case 0:
      case 1:
        return 0.0;
      case 2:
        return 1.0;
      default:
        return std::uniform_real_distribution<double>(0.0, 2.0)(g);
    }
  };

  // An event's body: log it, then (depth-limited) spawn its children.
  std::function<std::function<void()>(int)> make_event;
  make_event = [&](int depth) -> std::function<void()> {
    const std::uint64_t id = next_id++;
    return [&, id, depth] {
      log.emplace_back(id, engine.now());
      if (depth >= 3) return;
      std::mt19937_64 g(seed * 1000003u + id);
      const int children = std::uniform_int_distribution<int>(0, 2)(g);
      for (int c = 0; c < children; ++c) {
        switch (std::uniform_int_distribution<int>(0, 2)(g)) {
          case 0:
            engine.schedule_at(pick_time(g), make_event(depth + 1));
            break;
          case 1:
            engine.submit(resources[g() % resources.size()], pick_service(g),
                          make_event(depth + 1));
            break;
          default: {
            // A parked continuation fired by a later event, which then
            // submits to a resource from inside the parked task.
            const std::size_t r = resources[g() % resources.size()];
            const double service = pick_service(g);
            auto child = make_event(depth + 1);
            const std::uint64_t handle =
                engine.park([&engine, r, service, child]() mutable {
                  engine.submit(r, service, std::move(child));
                });
            engine.schedule_at(pick_time(g), [&engine, handle] {
              engine.fire_parked(handle);
            });
            break;
          }
        }
      }
    };
  };

  std::uniform_int_distribution<int> action(0, 9);
  for (int round = 0; round < 300; ++round) {
    const int burst = action(rng);
    for (int i = 0; i < burst; ++i) {
      if (action(rng) < 5) {
        engine.schedule_at(pick_time(rng), make_event(0));
      } else {
        engine.submit(resources[rng() % resources.size()], pick_service(rng),
                      make_event(0));
      }
    }
    // A run_until prefix that sometimes lands exactly on a pending time.
    engine.run_until(action(rng) < 3 ? engine.now() + 1.0
                                     : engine.now() + 0.5 * action(rng));
  }
  engine.run();
  return log;
}

TEST(SimulatorProperty, DispatchOrderMatchesReferenceModel) {
  // Randomized interleavings of scheduling and dispatching, heavy on the
  // engine's special cases: zero-delay events (now lane), equal timestamps
  // (seq tie-break), in-order appends (ascending lane), out-of-order inserts
  // (heap), FIFO resources (one lane each) with zero service, submissions
  // from callbacks and parked tasks, and run_until prefixes.  The simulator
  // must dispatch exactly the reference order at the same times, every seed.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    ReferenceEngine reference;
    EngineUnderTest engine;
    const auto expected = run_script(reference, seed);
    const auto dispatched = run_script(engine, seed);
    ASSERT_GT(expected.size(), 1000u) << "seed " << seed;
    ASSERT_EQ(dispatched.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(dispatched[i], expected[i])
          << "seed " << seed << " position " << i;
    }
    // Every route of the engine was exercised.
    const Simulator::Stats stats = engine.sim().stats();
    EXPECT_GT(stats.lane_events, 0u) << "seed " << seed;
    EXPECT_GT(stats.now_lane_events, 0u) << "seed " << seed;
    EXPECT_GT(stats.ascending_events, 0u) << "seed " << seed;
    EXPECT_GT(stats.events_dispatched,
              stats.lane_events + stats.now_lane_events +
                  stats.ascending_events)
        << "seed " << seed << ": no generic event reached the heap";
  }
}

TEST(SimulatorProperty, RunUntilDispatchesExactlyTheReferencePrefix) {
  Simulator sim;
  ReferenceQueue reference;
  std::vector<std::uint64_t> dispatched;
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(0.0, 10.0);
  for (std::uint64_t id = 0; id < 200; ++id) {
    const double t = dist(rng);
    reference.schedule(t, id);
    sim.schedule_at(t, [&dispatched, id] { dispatched.push_back(id); });
  }
  sim.run_until(5.0);
  std::vector<std::uint64_t> expected;
  while (!reference.empty()) {
    const auto [t, id] = reference.pop();
    if (t <= 5.0) expected.push_back(id);
  }
  EXPECT_EQ(dispatched, expected);
  sim.run();
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, ZeroDelayRunsBeforeEqualTimeHeapEvent) {
  // A (earlier seq, scheduled from the future via the heap) vs B (zero-delay
  // at the same timestamp, scheduled later from inside a callback): seq
  // order must win — A fires before B only if A's seq is lower.
  Simulator sim;
  std::vector<char> order;
  sim.schedule_at(1.0, [&] {
    // now == 1.0; C enters the now lane with a later seq than D below.
    sim.schedule_after(0.0, [&] { order.push_back('C'); });
  });
  sim.schedule_at(1.0, [&] { order.push_back('D'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'D', 'C'}));
}

TEST(Simulator, EqualTimesAcrossLanesFollowSeqOrder) {
  // Events at one timestamp land in different structures — ascending lane,
  // heap (out-of-order inserts) and now lane (zero-delay) — and dispatch
  // must still interleave them purely by insertion seq.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(9); });  // ascending lane
  sim.schedule_at(2.0, [&] { order.push_back(0); });  // heap (out of order)
  sim.schedule_at(2.0, [&] {                          // heap, next seq
    order.push_back(1);
    sim.schedule_after(0.0, [&] { order.push_back(3); });  // now lane
  });
  sim.schedule_at(2.0, [&] { order.push_back(2); });  // heap
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 9}));
}

TEST(Simulator, LaneEventsInterleaveWithGenericEventsBySeq) {
  // A resource lane's head competes in the heap with generic events: equal
  // times still dispatch in scheduling order, whichever structure holds them.
  Simulator sim;
  std::vector<int> order;
  const Simulator::LaneId a = sim.open_lane();
  const Simulator::LaneId b = sim.open_lane();
  sim.schedule_in_lane(a, 1.0, [&] { order.push_back(0); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_in_lane(b, 1.0, [&] {
    order.push_back(2);
    sim.schedule_in_lane(a, 1.0, [&] { order.push_back(5); });  // zero delay
    sim.schedule_after(0.0, [&] { order.push_back(6); });
  });
  sim.schedule_in_lane(a, 1.0, [&] { order.push_back(3); });
  sim.schedule_at(0.5, [&] { order.push_back(-1); });  // heap, out of order
  sim.schedule_in_lane(b, 2.0, [&] { order.push_back(7); });
  sim.schedule_at(1.0, [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sim.stats().lane_events, 5u);
}

// --- engine instrumentation ------------------------------------------------

TEST(SimulatorStats, CountsLanesPoolAndDispatches) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(static_cast<Time>(i + 1), [&] { ++fired; });
  }
  sim.schedule_at(0.0, [&] {
    ++fired;
    sim.schedule_after(0.0, [&] { ++fired; });
  });
  sim.run();
  const Simulator::Stats stats = sim.stats();
  EXPECT_EQ(fired, 12);
  EXPECT_EQ(stats.events_dispatched, 12u);
  // Both the t == now() == 0 schedule and the zero-delay reschedule.
  EXPECT_EQ(stats.now_lane_events, 2u);
  EXPECT_EQ(stats.ascending_events, 10u);  // the in-order loop appends
  EXPECT_GE(stats.peak_queue_depth, 11u);
  EXPECT_EQ(stats.pool_misses, 1u);  // one chunk covers 12 concurrent slots
  EXPECT_EQ(stats.pool_chunks, 1u);
  EXPECT_EQ(stats.pool_hits + stats.pool_misses, 12u);
  EXPECT_EQ(stats.inline_callbacks, 12u);
  EXPECT_EQ(stats.heap_callbacks, 0u);
}

TEST(SimulatorStats, SteadyStateReusesSlotsWithoutGrowth) {
  // Self-perpetuating chain: one live event at a time, so after the first
  // chunk every slot request must be a pool hit (zero allocations/event).
  Simulator sim;
  int remaining = 10000;
  std::function<void()> next = [&] {
    if (remaining-- > 0) sim.schedule_after(1e-6, next);
  };
  next();
  sim.run();
  const Simulator::Stats stats = sim.stats();
  EXPECT_EQ(stats.events_dispatched, 10000u);
  EXPECT_EQ(stats.pool_misses, 1u);
  EXPECT_EQ(stats.pool_chunks, 1u);
  EXPECT_EQ(stats.pool_hits, 9999u);
}

TEST(SimulatorStats, OversizedCallablesCountAsSpilled) {
  struct Big {
    unsigned char bytes[128] = {};
  };
  Simulator sim;
  Big big;
  sim.schedule_at(1.0, [big] { (void)big; });
  sim.run();
  EXPECT_EQ(sim.stats().heap_callbacks, 1u);
  EXPECT_EQ(sim.stats().inline_callbacks, 0u);
}

// --- parked continuations --------------------------------------------------

TEST(SimulatorPark, FiresParkedTaskAndReusesSlot) {
  Simulator sim;
  int fired = 0;
  const Simulator::TaskHandle h = sim.park([&] { ++fired; });
  EXPECT_EQ(fired, 0);
  sim.fire_parked(h);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorPark, ParkedTaskMayParkNewWork) {
  Simulator sim;
  std::vector<int> order;
  const Simulator::TaskHandle first = sim.park([&] {
    order.push_back(1);
    const Simulator::TaskHandle second = sim.park([&] { order.push_back(2); });
    sim.fire_parked(second);
  });
  sim.fire_parked(first);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorPark, ParkDoesNotPerturbDispatchOrder) {
  // park() consumes an arena slot but no seq number, so interleaving parks
  // with schedules must leave the (time, seq) dispatch order untouched.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  const Simulator::TaskHandle h = sim.park([&] { order.push_back(99); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.run();
  sim.fire_parked(h);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 99}));
}

// --- guard rails -----------------------------------------------------------

TEST(SimulatorGuards, RejectsPastAndNaNTimes) {
  Simulator sim;
  sim.schedule_at(2.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(std::nan(""), [] {}),
               std::invalid_argument);
}

TEST(SimulatorGuards, LaneAppendBelowTailThrowsAndChangesNothing) {
  // A lane is only sorted because its producer never goes back in time; an
  // append below the tail is a broken invariant, reported as logic_error
  // (not the past-time invalid_argument: t is still >= now).
  Simulator sim;
  std::vector<int> order;
  const Simulator::LaneId lane = sim.open_lane();
  const Simulator::LaneId other = sim.open_lane();
  sim.schedule_in_lane(lane, 2.0, [&] { order.push_back(2); });
  bool threw_logic_error = false;
  try {
    sim.schedule_in_lane(lane, 1.0, [&] { order.push_back(-1); });
  } catch (const std::invalid_argument&) {
    ADD_FAILURE() << "below-tail append reported as invalid_argument";
  } catch (const std::logic_error&) {
    threw_logic_error = true;
  }
  EXPECT_TRUE(threw_logic_error);
  // Equal time appends (seq breaks the tie); other lanes are independent.
  sim.schedule_in_lane(lane, 2.0, [&] { order.push_back(3); });
  sim.schedule_in_lane(other, 1.0, [&] { order.push_back(1); });
  EXPECT_THROW(sim.schedule_in_lane(other, std::nan(""), [] {}),
               std::invalid_argument);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.stats().events_dispatched, 3u);
  EXPECT_EQ(sim.stats().peak_queue_depth, 3u);
  EXPECT_THROW(sim.schedule_in_lane(lane, 1.0, [] {}), std::invalid_argument);
}

TEST(SimulatorGuards, NegativeZeroDelayIsZeroDelay) {
  // -0.0 must canonicalize: it equals now(), so it takes the now lane and
  // packs to the same key bits as +0.0.
  Simulator sim;
  int fired = 0;
  sim.schedule_after(-0.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.stats().now_lane_events, 1u);
}

}  // namespace
}  // namespace harl::sim
