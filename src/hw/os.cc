#include "hw/os.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hydra::hw {

OsKernel::OsKernel(exec::Executor &executor, Cpu &cpu, CacheModel &l2,
                   OsConfig config, std::uint64_t noise_seed)
    : exec_(executor), cpu_(cpu), l2_(l2), config_(config), rng_(noise_seed)
{
    hotSet_ = allocRegion(config_.hotSetBytes);
    backgroundStream_ = allocRegion(config_.backgroundStreamBytes);
}

Addr
OsKernel::allocRegion(std::size_t bytes)
{
    // Keep regions line-aligned and non-adjacent so cache interactions
    // between unrelated buffers stay intentional.
    const std::size_t rounded = (bytes + 4095) / 4096 * 4096 + 4096;
    return nextAddr_.fetch_add(rounded, std::memory_order_relaxed);
}

sim::SimTime
OsKernel::syscall(std::uint64_t extra_cycles)
{
    return cpu_.runCycles(config_.syscallCycles + extra_cycles);
}

sim::SimTime
OsKernel::copyBytes(Addr src, Addr dst, std::size_t bytes)
{
    l2_.access(src, bytes, false);
    l2_.access(dst, bytes, true);
    const auto cycles =
        config_.copyBaseCycles +
        static_cast<std::uint64_t>(config_.copyCyclesPerByte *
                                   static_cast<double>(bytes));
    return cpu_.runCycles(cycles);
}

sim::SimTime
OsKernel::contextSwitch()
{
    // A switch drags the incoming task's state through the cache.
    l2_.access(hotSet_, config_.contextSwitchFootprint, false);
    return cpu_.runCycles(config_.contextSwitchCycles);
}

sim::SimTime
OsKernel::handleInterrupt()
{
    return cpu_.runCycles(config_.interruptCycles);
}

sim::SimTime
OsKernel::wakeAfter(sim::SimTime duration)
{
    const sim::SimTime now = exec_.now();
    const sim::SimTime earliest = now + duration;
    // Timer-wheel semantics: the timer fires on the jiffy after the
    // one containing the expiry instant (floor + 1).
    const sim::SimTime tick = config_.tickPeriod;
    sim::SimTime wake = earliest / tick * tick + tick;
    // Occasionally a competing task holds the CPU for a whole tick.
    if (rng_.chance(config_.preemptionProbability))
        wake += tick;
    // Run-queue delay: half-normal noise.
    const double noise = std::abs(
        rng_.normal(0.0, static_cast<double>(config_.wakeupNoiseSigma)));
    wake += static_cast<sim::SimTime>(noise);
    return wake;
}

sim::SimTime
OsKernel::ioWake()
{
    const sim::SimTime now = exec_.now();
    const sim::SimTime tick = config_.tickPeriod;
    sim::SimTime wake = now / tick * tick + tick;
    if (rng_.chance(config_.preemptionProbability))
        wake += tick;
    const double noise = std::abs(
        rng_.normal(0.0, static_cast<double>(config_.wakeupNoiseSigma)));
    wake += static_cast<sim::SimTime>(noise);
    return wake;
}

void
OsKernel::dmaDelivered(Addr dst, std::size_t bytes)
{
    l2_.snoopInvalidate(dst, bytes);
}

void
OsKernel::startBackgroundLoad()
{
    if (backgroundRunning_)
        return;
    backgroundRunning_ = true;
    exec_.schedulePeriodic(config_.tickPeriod, [this]() {
        housekeepingTick();
        return true;
    });
}

void
OsKernel::housekeepingTick()
{
    // Busy time: tick handler plus daemons, with mild variation.
    const double busy = std::max(
        0.0, rng_.normal(static_cast<double>(config_.housekeepingPerTick),
                         static_cast<double>(
                             config_.housekeepingJitterSigma)));
    cpu_.runFor(static_cast<sim::SimTime>(busy));

    // Cache behaviour: hot kernel set (mostly hits) plus a slowly
    // advancing stream (all misses) to give the idle system a stable
    // non-zero baseline miss rate.
    l2_.retouch(hotSet_, config_.hotSetBytes, hotSetStamp_);
    l2_.access(backgroundStream_ + streamOffset_,
               config_.backgroundStreamPerTick, false);
    streamOffset_ += config_.backgroundStreamPerTick;
    if (streamOffset_ + config_.backgroundStreamPerTick >
        config_.backgroundStreamBytes)
        streamOffset_ = 0;
}

} // namespace hydra::hw
