/**
 * @file
 * Execution sites: where an Offcode's thread of control runs.
 *
 * A site abstracts the differences the paper cares about — compute
 * speed, timer precision, and whether work burdens the host CPU and
 * cache. HostSite charges the host CPU through the OS model (tick-
 * quantized timers); DeviceSite charges a peripheral's firmware core
 * (microsecond-precise hardware timers).
 */

#ifndef HYDRA_CORE_SITE_HH
#define HYDRA_CORE_SITE_HH

#include <functional>
#include <string>

#include "dev/device.hh"
#include "hw/machine.hh"
#include "sim/time.hh"

namespace hydra::core {

/** Abstract execution locus for Offcodes. */
class ExecutionSite
{
  public:
    virtual ~ExecutionSite() = default;

    virtual const std::string &name() const = 0;
    virtual bool isHost() const = 0;

    /** Charge @p cycles of compute; returns completion time. */
    virtual sim::SimTime run(std::uint64_t cycles) = 0;

    /** Arm a timer with this site's precision semantics. */
    virtual void timerAfter(sim::SimTime delay,
                            std::function<void()> done) = 0;

    /** The peripheral behind this site, or nullptr for the host. */
    virtual dev::Device *device() = 0;

    /** The host machine this site belongs to. */
    virtual hw::Machine &machine() = 0;

    /** The CPU that run() charges. */
    virtual hw::Cpu &cpu() = 0;

    /** Where one dispatch's CPU charge starts (see endCharge). */
    struct ChargeMark
    {
        sim::SimTime busy = 0;
        sim::SimTime charged = 0;
    };

    ChargeMark beginCharge() { return {cpu().busyTime(), chargedNs_}; }

    /**
     * Busy ns this site's CPU added since @p mark, net of what nested
     * dispatches on this site already charged, so a handler that
     * synchronously dispatches to a co-located Offcode is not charged
     * twice. Only the site's own thread writes its Cpu, so the
     * difference is exact on both engines.
     */
    sim::SimTime
    endCharge(ChargeMark mark)
    {
        const sim::SimTime own = (cpu().busyTime() - mark.busy) -
                                 (chargedNs_ - mark.charged);
        chargedNs_ += own;
        return own;
    }

  private:
    /** Cumulative busy ns charged to dispatches on this site. */
    sim::SimTime chargedNs_ = 0;
};

/** Offcode execution on the host CPU under the OS. */
class HostSite : public ExecutionSite
{
  public:
    explicit HostSite(hw::Machine &machine);

    const std::string &name() const override { return name_; }
    bool isHost() const override { return true; }
    sim::SimTime run(std::uint64_t cycles) override;
    void timerAfter(sim::SimTime delay,
                    std::function<void()> done) override;
    dev::Device *device() override { return nullptr; }
    hw::Machine &machine() override { return machine_; }
    hw::Cpu &cpu() override { return machine_.cpu(); }

  private:
    hw::Machine &machine_;
    std::string name_;
};

/** Offcode execution on a peripheral's firmware processor. */
class DeviceSite : public ExecutionSite
{
  public:
    DeviceSite(hw::Machine &host, dev::Device &device);

    const std::string &name() const override { return device_.name(); }
    bool isHost() const override { return false; }
    sim::SimTime run(std::uint64_t cycles) override;
    void timerAfter(sim::SimTime delay,
                    std::function<void()> done) override;
    dev::Device *device() override { return &device_; }
    hw::Machine &machine() override { return host_; }
    hw::Cpu &cpu() override { return device_.firmwareCpu(); }

  private:
    hw::Machine &host_;
    dev::Device &device_;
};

} // namespace hydra::core

#endif // HYDRA_CORE_SITE_HH
