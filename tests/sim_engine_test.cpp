// Event-engine tests: the InlineTask small-buffer callable, the arena /
// now-lane / ascending-lane / heap queue machinery behind Simulator, and a
// randomized property test pinning the dispatch order to a reference
// (time, seq) priority-queue model — the bit-reproducibility invariant every
// figure bench depends on.
#include <gtest/gtest.h>

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

TEST(SimulatorProperty, DispatchOrderMatchesReferenceModel) {
  // Randomized interleavings of scheduling and dispatching, heavy on the
  // engine's special cases: zero-delay events (now lane), equal timestamps
  // (seq tie-break), in-order appends (ascending lane) and out-of-order
  // inserts (heap).  The simulator must dispatch exactly the reference
  // order, every seed.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    std::mt19937_64 rng(seed);
    Simulator sim;
    ReferenceQueue reference;
    std::vector<std::uint64_t> dispatched;
    std::vector<std::pair<double, std::uint64_t>> expected;

    std::uint64_t next_id = 0;
    // A few timestamps repeat on purpose so ties are common.
    std::uniform_real_distribution<double> jitter(0.0, 4.0);
    std::uniform_int_distribution<int> action(0, 9);

    const auto schedule_random = [&] {
      double t;
      switch (action(rng)) {
        case 0:
        case 1:
          t = sim.now();  // zero delay -> now lane
          break;
        case 2:
          t = sim.now() + 1.0;  // repeated offsets -> frequent exact ties
          break;
        default:
          t = sim.now() + jitter(rng);
          break;
      }
      const std::uint64_t id = next_id++;
      reference.schedule(t, id);
      sim.schedule_at(t, [&dispatched, id] { dispatched.push_back(id); });
    };

    for (int round = 0; round < 400; ++round) {
      const int burst = action(rng);
      for (int i = 0; i < burst; ++i) schedule_random();
      // Drain a random prefix so scheduling interleaves with dispatching at
      // many different `now` values.
      const int drain = action(rng);
      for (int i = 0; i < drain && !reference.empty(); ++i) {
        expected.push_back(reference.pop());
        sim.run_until(expected.back().first);
      }
    }
    while (!reference.empty()) expected.push_back(reference.pop());
    sim.run();

    ASSERT_EQ(dispatched.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(dispatched[i], expected[i].second)
          << "seed " << seed << " position " << i;
    }
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
