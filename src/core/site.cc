#include "core/site.hh"

namespace hydra::core {

HostSite::HostSite(hw::Machine &machine)
    : machine_(machine), name_(machine.name() + ".host")
{
}

sim::SimTime
HostSite::run(std::uint64_t cycles)
{
    return machine_.cpu().runCycles(cycles);
}

void
HostSite::timerAfter(sim::SimTime delay, std::function<void()> done)
{
    // Host timers are quantized to the scheduler tick and disturbed
    // by run-queue noise; the wakeup also costs a context switch.
    const sim::SimTime wake = machine_.os().wakeAfter(delay);
    machine_.executor().scheduleAt(wake, [this, done = std::move(done)]() {
        machine_.os().contextSwitch();
        done();
    });
}

DeviceSite::DeviceSite(hw::Machine &host, dev::Device &device)
    : host_(host), device_(device)
{
}

sim::SimTime
DeviceSite::run(std::uint64_t cycles)
{
    return device_.runFirmware(cycles);
}

void
DeviceSite::timerAfter(sim::SimTime delay, std::function<void()> done)
{
    device_.timerAfter(delay, std::move(done));
}

} // namespace hydra::core
