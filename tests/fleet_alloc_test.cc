/**
 * @file
 * Heap allocations per remote message in the fleet open loop.
 *
 * This binary replaces the global operator new with a counting one.
 * Two sim-engine runs of the same fleet and streams differ only in
 * their measurement window, so setup, bring-up and teardown allocate
 * the same in both; the difference in allocations, divided by the
 * difference in delivered messages, is what one more message costs in
 * steady state. The wire path (loadgen write, remote channel, DMA,
 * bus, NIC, fabric, receive demux, delivery) must cost nothing beyond
 * pooled payload buffers, which recycle.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "exec/sim_executor.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"

namespace {

std::atomic<std::uint64_t> gAllocations{0};

void *
countedAlloc(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    const auto alignment = static_cast<std::size_t>(align);
    const std::size_t rounded =
        (size + alignment - 1) / alignment * alignment;
    if (void *p = std::aligned_alloc(alignment, rounded ? rounded
                                                        : alignment))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace hydra::fleet {
namespace {

struct Measured
{
    std::uint64_t allocations = 0;
    std::uint64_t delivered = 0;
};

/** One fresh fleet and open-loop run; allocations over the whole of it. */
Measured
run(sim::SimTime duration)
{
    const std::uint64_t before =
        gAllocations.load(std::memory_order_relaxed);
    exec::SimExecutor executor;
    FleetConfig config;
    config.hosts = 4;
    Measured measured;
    {
        Fleet fleet(executor, config);
        LoadgenConfig load;
        load.streams = 400;
        load.messageBytes = 256;
        load.offeredMsgsPerSec = 1e6;
        load.duration = duration;
        load.remoteOnly = true;
        const LoadgenReport report = runOpenLoop(fleet, load);
        EXPECT_EQ(report.writeFailures, 0u);
        EXPECT_EQ(report.localStreams, 0u);
        EXPECT_EQ(report.wireCopies, report.offered);
        measured.delivered = report.delivered;
    }
    measured.allocations =
        gAllocations.load(std::memory_order_relaxed) - before;
    return measured;
}

TEST(FleetAllocTest, RemoteMessagesAllocateNothingInSteadyState)
{
    // A first run warms the process-wide pools (payload freelist,
    // registry series) so both measured runs start from the same state.
    run(sim::milliseconds(5));
    const Measured shorter = run(sim::milliseconds(10));
    const Measured longer = run(sim::milliseconds(30));

    ASSERT_GT(longer.delivered, shorter.delivered + 15000);
    const std::uint64_t extraMessages =
        longer.delivered - shorter.delivered;
    const std::uint64_t extraAllocations =
        longer.allocations > shorter.allocations
            ? longer.allocations - shorter.allocations
            : 0;
    const double perMessage = static_cast<double>(extraAllocations) /
                              static_cast<double>(extraMessages);
    RecordProperty("allocations_per_message", std::to_string(perMessage));
    std::printf("steady state: %llu allocations over %llu messages "
                "(%.4f per message)\n",
                static_cast<unsigned long long>(extraAllocations),
                static_cast<unsigned long long>(extraMessages), perMessage);
    EXPECT_EQ(extraAllocations, 0u);
}

} // namespace
} // namespace hydra::fleet
