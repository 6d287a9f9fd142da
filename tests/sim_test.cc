/**
 * @file
 * Unit tests for the discrete-event kernel (exec::SimExecutor) and
 * simulated time.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "exec/sim_executor.hh"
#include "obs/metrics.hh"
#include "sim/time.hh"

namespace hydra::sim {
namespace {

using Simulator = exec::SimExecutor;
using EventId = exec::TaskId;

TEST(SimTimeTest, UnitConversions)
{
    EXPECT_EQ(milliseconds(5), 5'000'000u);
    EXPECT_EQ(seconds(1), 1'000'000'000u);
    EXPECT_DOUBLE_EQ(toMilliseconds(milliseconds(7)), 7.0);
    EXPECT_DOUBLE_EQ(toSeconds(seconds(3)), 3.0);
}

TEST(SimTimeTest, CyclesToTimeRoundsUp)
{
    // 1 cycle at 2.4 GHz is 0.41666 ns -> rounds up to 1 ns.
    EXPECT_EQ(cyclesToTime(1, 2.4), 1u);
    // 2400 cycles at 2.4 GHz is exactly 1000 ns.
    EXPECT_EQ(cyclesToTime(2400, 2.4), 1000u);
}

TEST(SimTimeTest, TransferTime)
{
    // 125 bytes at 1 Gbps = 1000 bits / 1e9 bps = 1000 ns.
    EXPECT_EQ(transferTime(125, 1.0), 1000u);
    // Higher bandwidth, shorter time.
    EXPECT_LT(transferTime(125, 8.0), transferTime(125, 1.0));
}

TEST(SimulatorTest, FiresInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(30, [&]() { order.push_back(3); });
    sim.schedule(10, [&]() { order.push_back(1); });
    sim.schedule(20, [&]() { order.push_back(2); });
    sim.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30u);
}

TEST(SimulatorTest, FifoAmongEqualTimestamps)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        sim.schedule(100, [&order, i]() { order.push_back(i); });
    sim.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NestedSchedulingAdvancesClock)
{
    Simulator sim;
    SimTime inner_fired = 0;
    sim.schedule(10, [&]() {
        sim.schedule(5, [&]() { inner_fired = sim.now(); });
    });
    sim.runToCompletion();
    EXPECT_EQ(inner_fired, 15u);
}

TEST(SimulatorTest, CancelPreventsExecution)
{
    Simulator sim;
    bool fired = false;
    const EventId id = sim.schedule(10, [&]() { fired = true; });
    sim.cancel(id);
    sim.runToCompletion();
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.eventsDispatched(), 0u);
}

TEST(SimulatorTest, CancelOneOfMany)
{
    Simulator sim;
    int count = 0;
    sim.schedule(10, [&]() { ++count; });
    const EventId id = sim.schedule(10, [&]() { count += 100; });
    sim.schedule(10, [&]() { ++count; });
    sim.cancel(id);
    sim.runToCompletion();
    EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, RunUntilStopsAndAdvancesClock)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(10, [&]() { ++fired; });
    sim.schedule(100, [&]() { ++fired; });
    sim.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 50u);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.runUntil(200);
    EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, PeriodicRunsUntilFalse)
{
    Simulator sim;
    int ticks = 0;
    sim.schedulePeriodic(10, [&]() { return ++ticks < 5; });
    sim.runToCompletion();
    EXPECT_EQ(ticks, 5);
    EXPECT_EQ(sim.now(), 50u);
}

TEST(SimulatorTest, PeriodicCancellable)
{
    Simulator sim;
    int ticks = 0;
    const EventId id = sim.schedulePeriodic(10, [&]() {
        ++ticks;
        return true;
    });
    sim.schedule(35, [&]() { sim.cancel(id); });
    sim.runUntil(1000);
    EXPECT_EQ(ticks, 3); // fired at 10, 20, 30; cancelled before 40
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty)
{
    Simulator sim;
    EXPECT_FALSE(sim.step());
    sim.schedule(1, []() {});
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime)
{
    Simulator sim;
    SimTime fired_at = 0;
    sim.scheduleAt(123, [&]() { fired_at = sim.now(); });
    sim.runToCompletion();
    EXPECT_EQ(fired_at, 123u);
}

TEST(SimulatorTest, CancelOfUnissuedIdIsIgnored)
{
    Simulator sim;
    // Ids never handed out cannot be pending; remembering them would
    // also wrongly cancel the future event that gets that id.
    sim.cancel(12345);
    EXPECT_EQ(sim.cancelledBacklog(), 0u);

    bool fired = false;
    sim.schedule(1, [&]() { fired = true; });
    sim.runToCompletion();
    EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelledPendingEventsLeaveNoResidue)
{
    Simulator sim;
    for (int i = 0; i < 100; ++i)
        sim.cancel(sim.schedule(10, []() {}));
    sim.runToCompletion();
    // Every tombstone was consumed when its event was popped.
    EXPECT_EQ(sim.cancelledBacklog(), 0u);
    EXPECT_EQ(sim.eventsDispatched(), 0u);
}

/** Callable that counts how often it is copied (moves are free). */
struct CopyCountingCallback
{
    std::shared_ptr<int> copies;

    explicit CopyCountingCallback(std::shared_ptr<int> counter)
        : copies(std::move(counter))
    {
    }
    CopyCountingCallback(const CopyCountingCallback &other)
        : copies(other.copies)
    {
        ++*copies;
    }
    CopyCountingCallback(CopyCountingCallback &&) noexcept = default;

    void operator()() const {}
};

TEST(SimulatorTest, DispatchMovesCallbacksOutOfTheQueue)
{
    // The hot path (one pop per event) must move the callback and its
    // captured state out of the heap, never copy it.
    Simulator sim;
    auto copies = std::make_shared<int>(0);
    for (int i = 0; i < 100; ++i)
        sim.schedule(static_cast<SimTime>(i),
                     CopyCountingCallback(copies));
    const int afterScheduling = *copies;
    sim.runToCompletion();
    EXPECT_EQ(sim.eventsDispatched(), 100u);
    EXPECT_EQ(*copies, afterScheduling);
}

TEST(SimulatorTest, ManyEventsStressOrdering)
{
    Simulator sim;
    SimTime last = 0;
    bool monotonic = true;
    for (int i = 0; i < 10000; ++i) {
        const SimTime when = static_cast<SimTime>((i * 7919) % 10007);
        sim.scheduleAt(when, [&, when]() {
            if (when < last)
                monotonic = false;
            last = when;
        });
    }
    sim.runToCompletion();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(sim.eventsDispatched(), 10000u);
}

TEST(SimulatorTest, DispatchOrderIsTimeThenSchedulingOrder)
{
    // Many equal timestamps, cancellations, and callbacks that
    // schedule more (some at zero delay): the dispatch sequence must be
    // exactly (when, scheduling order), the order the ids encode.
    Simulator sim;
    std::uint64_t state = 99;
    const auto draw = [&state](std::uint64_t bound) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return (state >> 33) % bound;
    };
    std::uint64_t issued = 0;
    std::vector<std::pair<SimTime, std::uint64_t>> fired;
    std::vector<EventId> ids;
    std::function<void(SimTime)> add = [&](SimTime when) {
        const std::uint64_t order = issued++;
        ids.push_back(sim.scheduleAt(when, [&, when, order]() {
            fired.emplace_back(when, order);
            if (fired.size() < 4000 && draw(3) == 0)
                add(sim.now() + draw(4)); // often the same instant
        }));
    };
    for (int i = 0; i < 3000; ++i)
        add(draw(50));
    for (int i = 0; i < 300; ++i)
        sim.cancel(ids[draw(ids.size())]);
    sim.runToCompletion();
    for (std::size_t i = 1; i < fired.size(); ++i)
        ASSERT_LT(fired[i - 1], fired[i]) << "at dispatch " << i;
    const std::uint64_t cancelled = issued - fired.size();
    EXPECT_GT(cancelled, 0u);
    EXPECT_LE(cancelled, 300u);
    EXPECT_EQ(sim.eventsDispatched(), fired.size());
}

TEST(SimulatorTest, CancelAfterSlotReuseLeavesNewEventAlone)
{
    // The fired event's slab slot is recycled by the next schedule;
    // cancelling the stale id must not reach the event now in it.
    Simulator sim;
    const EventId old = sim.schedule(1, []() {});
    sim.runToCompletion();
    bool fired = false;
    const EventId fresh = sim.schedule(1, [&]() { fired = true; });
    ASSERT_NE(old, fresh);
    sim.cancel(old);
    sim.runToCompletion();
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.eventsDispatched(), 2u);
}

TEST(SimulatorTest, CallbackGrowingTheSlabRunsClean)
{
    // A callback that schedules 10k events grows (and moves) the
    // callback slab while it is itself running; its captured state
    // must stay valid to the end (ASan checks the reads).
    Simulator sim;
    auto payload = std::make_shared<std::vector<int>>(64, 7);
    int fired = 0;
    int checksum = 0;
    sim.schedule(1, [&sim, &fired, &checksum, payload]() {
        for (int i = 0; i < 10000; ++i)
            sim.schedule(static_cast<SimTime>(1 + i % 17),
                         [&fired]() { ++fired; });
        for (int v : *payload)
            checksum += v;
    });
    sim.runToCompletion();
    EXPECT_EQ(fired, 10000);
    EXPECT_EQ(checksum, 64 * 7);
    EXPECT_EQ(sim.eventsDispatched(), 10001u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorTest, KernelCountsPublishAtRegistryRead)
{
    // sim.events_* and sim.queue_depth are published from the
    // kernel's own counts when the registry is read, with the same
    // values per-event counting gave.
    auto &registry = obs::MetricsRegistry::instance();
    registry.reset();
    Simulator sim;
    sim.schedule(5, []() {});
    sim.schedule(5, []() {});
    const EventId gone = sim.schedule(7, []() {});
    sim.cancel(gone);
    sim.schedule(9, []() {});
    sim.step(); // dispatches one; three keys remain (one cancelled)
    EXPECT_EQ(registry.counterValue("sim.events_scheduled"), 4u);
    EXPECT_EQ(registry.counterValue("sim.events_dispatched"), 1u);
    EXPECT_EQ(registry.counterValue("sim.events_cancelled"), 1u);
    const obs::RegistrySnapshot snap = registry.snapshot();
    double depth = -1;
    for (const auto &[key, value] : snap.gauges)
        if (key == "sim.queue_depth")
            depth = value;
    EXPECT_EQ(depth, 3.0);
    registry.reset();
    EXPECT_EQ(registry.counterValue("sim.events_dispatched"), 0u);
    sim.runToCompletion();
    EXPECT_EQ(registry.counterValue("sim.events_dispatched"), 2u);
    {
        // A retiring kernel publishes what it counted.
        Simulator other;
        other.schedule(1, []() {});
        other.runToCompletion();
    }
    EXPECT_EQ(registry.counterValue("sim.events_dispatched"), 3u);
}

} // namespace
} // namespace hydra::sim
