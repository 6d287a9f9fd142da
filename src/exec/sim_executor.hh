/**
 * @file
 * SimExecutor: the deterministic discrete-event engine and the one
 * event kernel (DESIGN.md §10).
 *
 * Every hardware and software model advances by scheduling callbacks
 * here. Events fire in (when, id) order, so events at equal
 * timestamps fire in scheduling order, which keeps runs deterministic
 * for a fixed seed; post(site, fn) is a zero-delay event, so
 * cross-site handoffs fire in global scheduling order.
 *
 * The min-heap holds 24 B POD keys (when, id, slot); each key's
 * callback lives in a slab slot that is recycled once the event has
 * fired or been discarded, so heap moves never touch a std::function.
 */

#ifndef HYDRA_EXEC_SIM_EXECUTOR_HH
#define HYDRA_EXEC_SIM_EXECUTOR_HH

#include <atomic>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/slab.hh"
#include "exec/executor.hh"

namespace hydra::exec {

/** Deterministic single-threaded engine (the default). */
class SimExecutor : public Executor
{
  public:
    SimExecutor();
    ~SimExecutor() override;

    const char *backendName() const override { return "sim"; }

    Time now() const override { return now_; }

    TaskId
    schedule(Time delay, Callback fn) override
    {
        return scheduleAt(now_ + delay, std::move(fn));
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

    std::size_t pendingEvents() const override { return heap_.size(); }

    /** One thread runs every event: model locks are skipped. */
    bool concurrent() const override { return false; }

    /**
     * Cancelled ids remembered but not yet matched against a fired or
     * popped event. Bounded: cancel() ignores ids that cannot be
     * pending and prunes entries whose events are long gone (tests).
     */
    std::size_t cancelledBacklog() const { return cancelled_.size(); }

  private:
    /** Heap entry: ordering key plus the slab slot of its callback. */
    struct Key
    {
        Time when;
        TaskId id;
        std::uint32_t slot;

        /** (when, id) order: FIFO among equal timestamps. Bitwise, not
         * short-circuit, so heap comparisons need no extra branch. */
        bool
        before(const Key &other) const
        {
            return (when < other.when) |
                   ((when == other.when) & (id < other.id));
        }
    };

    struct Periodic
    {
        Time period;
        std::function<bool()> fn;
    };

    /** Marks this kernel as running on this thread; on exit it
     * publishes the depth of its last dispatch. */
    class RunScope;
    friend class KernelCounts;

    void push(Time when, TaskId id, Callback fn);
    /** Remove and return the earliest key. */
    Key popTop();
    /** Pop the top key; true when it was cancelled (slot freed). */
    bool popCancelled();
    /** Pop and run the top key (known live and due). */
    void dispatchTop();
    void firePeriodic(TaskId series_id);
    void pruneCancelled();

    /** Single-writer count bump: a relaxed load and store, no RMW. */
    static void
    bump(std::atomic<std::uint64_t> &count)
    {
        count.store(count.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    }

    /** Binary min-heap on (when, id) of 24 B keys. */
    std::vector<Key> heap_;
    Slab<Callback> slots_;
    std::unordered_set<TaskId> cancelled_;
    std::unordered_map<TaskId, Periodic> periodics_;
    /** Series erased by cancel(): a firing whose count did not move
     * knows its entry (and a reference to it) is still valid. */
    std::uint64_t periodicErasures_ = 0;
    Time now_ = 0;
    TaskId nextId_ = 1;

    /**
     * The kernel's own counts. `sim.events_*` and `sim.queue_depth`
     * are published from them when the metrics registry is read, so
     * the dispatch loop pays no atomic RMW or gauge store. Written by
     * the running thread only; atomic so a reader elsewhere is
     * race-free.
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
