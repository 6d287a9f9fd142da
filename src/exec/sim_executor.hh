/**
 * @file
 * SimExecutor: the deterministic discrete-event engine (DESIGN.md §10).
 *
 * Every hardware and software model advances by scheduling callbacks
 * on its EventKernel, which fires them in (when, id) order, so a
 * fixed seed replays byte for byte; post(site, fn) is a zero-delay
 * event, so cross-site handoffs fire in global scheduling order.
 */

#ifndef HYDRA_EXEC_SIM_EXECUTOR_HH
#define HYDRA_EXEC_SIM_EXECUTOR_HH

#include <atomic>
#include <vector>

#include "exec/event_kernel.hh"

namespace hydra::exec {

/** Deterministic single-threaded engine (the default). */
class SimExecutor : public Executor
{
  public:
    SimExecutor();
    ~SimExecutor() override;

    const char *backendName() const override { return "sim"; }

    Time now() const override { return kernel_.now(); }

    TaskId
    schedule(Time delay, Callback fn) override
    {
        return scheduleAt(kernel_.now() + delay, std::move(fn));
    }

    TaskId scheduleAt(Time when, Callback fn) override;
    TaskId schedulePeriodic(Time period, std::function<bool()> fn) override;
    void cancel(TaskId id) override;

    SiteId addSite(const std::string &name) override;
    std::size_t siteCount() const override { return siteNames_.size(); }

    void post(SiteId site, Callback fn) override;

    void runUntil(Time until) override;
    void runToCompletion() override;
    bool step() override;
    void drain() override;

    std::uint64_t
    eventsDispatched() const override
    {
        return dispatched_.load(std::memory_order_relaxed);
    }

    std::size_t pendingEvents() const override { return kernel_.size(); }

    /** One thread runs every event: model locks are skipped. */
    bool concurrent() const override { return false; }

    /** EventKernel::cancelledBacklog() (tests). */
    std::size_t cancelledBacklog() const { return kernel_.cancelledBacklog(); }

  private:
    /** Marks this kernel as running on this thread; on exit it
     * publishes the depth of its last dispatch. */
    class RunScope;
    friend class KernelCounts;

    /** Count and run a callback the kernel popped. */
    void dispatch(const Callback &fn);

    /** Single-writer count bump: a relaxed load and store, no RMW. */
    static void
    bump(std::atomic<std::uint64_t> &count)
    {
        count.store(count.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    }

    EventKernel kernel_{false};

    /**
     * Counts of the kernel's traffic. `sim.events_*` and
     * `sim.queue_depth` are published from them when the metrics
     * registry is read, so the dispatch loop pays no atomic RMW or
     * gauge store. Written by the running thread only; atomic so a
     * reader elsewhere is race-free.
     */
    std::atomic<std::uint64_t> scheduled_{0};
    std::atomic<std::uint64_t> dispatched_{0};
    std::atomic<std::uint64_t> cancels_{0};
    /** Heap size right after the last dispatch popped its key. */
    std::atomic<std::size_t> lastDepth_{0};
    /** Counts already added to the registry (under the kernel list's
     * lock). */
    std::uint64_t publishedScheduled_ = 0;
    std::uint64_t publishedDispatched_ = 0;
    std::uint64_t publishedCancels_ = 0;
    /** Dispatch count when the depth gauge was last set (touched
     * only by the thread running this kernel). */
    std::uint64_t depthPublishedAt_ = 0;

    std::vector<std::string> siteNames_;
    /** Chaos: virtual time each site is wedged until (0 = healthy). */
    std::vector<Time> stallUntil_;
};

} // namespace hydra::exec

#endif // HYDRA_EXEC_SIM_EXECUTOR_HH
