/**
 * @file
 * ThreadedExecutor: a real multi-threaded execution engine.
 *
 * Thread model (DESIGN.md §10):
 *  - The *coordinator* is the thread that constructed the executor.
 *    It owns virtual time: timer events (schedule/scheduleAt/
 *    schedulePeriodic) dispatch on it in (when, id) order, exactly
 *    like the deterministic simulator.
 *  - Each addSite() spawns a dedicated *worker* thread. post(site,
 *    fn) hands fn to that worker through a mutex-free SPSC ring —
 *    one ring per (producer, site) pair, so device-to-device
 *    pipelines never contend on a shared queue. Rings carry
 *    std::function closures which in turn carry refcounted Payload
 *    buffers, so cross-thread handoff moves a pointer, not bytes.
 *  - Workers that schedule timers or cancel tasks inject them into
 *    the coordinator through a mutex-guarded inbox (cold path); the
 *    coordinator drains it between timer dispatches.
 *
 * Time semantics: virtual time never advances while posted work is
 * outstanding — runUntil()/drain() are synchronization barriers
 * against the workers. Posted work itself executes in wall-clock
 * concurrency and is therefore not deterministically ordered across
 * sites (per (producer, site) pair, posting order is preserved).
 */

#ifndef HYDRA_EXEC_THREADED_EXECUTOR_HH
#define HYDRA_EXEC_THREADED_EXECUTOR_HH

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/executor.hh"
#include "exec/spsc_queue.hh"

namespace hydra::obs {
class Counter;
class Gauge;
class Histogram;
} // namespace hydra::obs

namespace hydra::exec {

/** Thread-per-device-site engine. */
class ThreadedExecutor : public Executor
{
  public:
    struct Config
    {
        /** Slots per SPSC ring (rounded up to a power of two). */
        std::size_t ringCapacity = 256;
        /** Idle scan+yield passes before a worker parks on its cv. */
        int spinBeforePark = 64;
        /**
         * Ceiling on the adaptive drain quantum: the most closures a
         * worker consumes from one lane per popBatch. The quantum
         * starts at 1 (eager, latency-first) and only grows toward
         * this cap while observed occupancy exceeds it — batching is
         * earned by backlog, never bought with a delay.
         */
        std::size_t batchMax = 64;
    };

    /** Producers: kMainSite + up to this many sites. */
    static constexpr std::size_t kMaxSites = 64;

    ThreadedExecutor();
    explicit ThreadedExecutor(Config config);
    ~ThreadedExecutor() override;

    const char *backendName() const override { return "threaded"; }

    Time
    now() const override
    {
        return now_.load(std::memory_order_acquire);
    }

    TaskId schedule(Time delay, Callback fn) override;
    TaskId scheduleAt(Time when, Callback fn) override;
    TaskId schedulePeriodic(Time period,
                            std::function<bool()> fn) override;
    void cancel(TaskId id) override;

    SiteId addSite(const std::string &name) override;
    std::size_t siteCount() const override;

    /** A post is a batch of one: it forwards to postBatch(). */
    void post(SiteId site, Callback fn) override;
    void postBatch(SiteId site, std::span<Callback> fns) override;

    void runUntil(Time until) override;
    void runToCompletion() override;
    bool step() override;
    void drain() override;

    std::uint64_t
    eventsDispatched() const override
    {
        return dispatched_.load(std::memory_order_relaxed) +
               postsExecuted_.load(std::memory_order_relaxed);
    }

    std::size_t pendingEvents() const override;

    /** Posts handed off and executed (tests). */
    std::uint64_t
    postsExecuted() const
    {
        return postsExecuted_.load(std::memory_order_relaxed);
    }

  private:
    struct TimerRecord
    {
        Time when;
        TaskId id;
        Callback fn;

        bool
        operator>(const TimerRecord &other) const
        {
            if (when != other.when)
                return when > other.when;
            return id > other.id; // FIFO among equal timestamps
        }
    };

    struct Periodic
    {
        Time period;
        std::function<bool()> fn;
    };

    /**
     * One producer's lane into a site: a mutex-free SPSC ring plus a
     * mutex-guarded overflow spill for bursts. Per-producer FIFO
     * order is kept by the `overflowSize` gate: once a post spills,
     * the producer keeps spilling until the worker has drained the
     * overflow — otherwise a later ring push could overtake an older
     * spilled closure (the worker scans rings before overflows).
     */
    struct Inbox
    {
        explicit Inbox(std::size_t capacity) : ring(capacity) {}

        SpscQueue<Callback> ring;
        std::mutex mutex;
        std::deque<Callback> overflow;
        std::atomic<std::size_t> overflowSize{0};
    };

    /** One site's worker thread and its inboxes. */
    struct Worker
    {
        std::string name;
        SiteId id = 0;
        std::thread thread;

        /** inboxes[p]: lane from producer p (lazily created). The
         * ring half is SPSC — only the coordinator (p == kMainSite)
         * or the worker running site p may push it; unregistered
         * threads serialize through inbox[kMainSite]'s overflow. */
        std::array<std::atomic<Inbox *>, kMaxSites + 1> inboxes{};

        /** Parking protocol: flag + cv, mutex touched only to park. */
        std::atomic<bool> parked{false};
        std::mutex parkMutex;
        std::condition_variable cv;
        /**
         * Doorbell-coalescing latch. The first producer to ring a
         * parked site (false→true transition) pays the mutex+notify;
         * every later producer sees true, counts a coalesced
         * doorbell, and returns. The worker consumes the latch at
         * unpark (after clearing `parked`, under the park mutex), so
         * one latch cycle maps to exactly one park episode.
         */
        std::atomic<bool> doorbell{false};

        /** Adaptive drain quantum (worker-private; see drainInbox). */
        std::size_t quantum = 1;
        /** Scratch batch buffer, sized to batchMax (worker-private). */
        std::vector<Callback> drainBuffer;

        /** Per-site instruments (`{site=name}`), set at addSite(). */
        obs::Counter *parks = nullptr;
        obs::Counter *wakes = nullptr;
        obs::Counter *doorbellsCoalesced = nullptr;
        obs::Histogram *ringOccupancy = nullptr;
        obs::Histogram *batchSize = nullptr;
        obs::Gauge *ringDepth = nullptr;

        ~Worker();
    };

    bool onCoordinator() const;
    void pushTimer(TimerRecord record);
    TimerRecord popTimer();
    void firePeriodic(TaskId series_id);
    void moveInjected();
    /** Dispatch the earliest timer if due by @p until; false if not. */
    bool dispatchDueTimer(Time until);
    bool postsOutstanding() const;

    Inbox &inboxFor(Worker &worker, SiteId producer);
    void wake(Worker &worker);
    void workerLoop(Worker &worker);
    std::size_t drainInbox(Worker &worker);
    /** Record every site's queued depth into its occupancy
     * instruments. Workers sample at service time; the coordinator
     * calls this periodically so sites whose work arrives through
     * virtual-time timers (no posts) still report their — empty —
     * rings instead of an absent series. */
    void sampleSiteOccupancy();

    /** Timer dispatches between coordinator occupancy samples. */
    static constexpr std::uint64_t kOccupancySampleMask = 63;

    Config config_;
    std::thread::id coordinator_;

    // --- coordinator-owned virtual time (same shape as sim) ---
    std::vector<TimerRecord> heap_;
    std::unordered_set<TaskId> cancelled_;
    std::unordered_map<TaskId, Periodic> periodics_;
    std::atomic<Time> now_{0};
    std::atomic<TaskId> nextId_{1};
    std::atomic<std::uint64_t> dispatched_{0};

    // --- cross-thread injection into the coordinator (cold path) ---
    mutable std::mutex injectMutex_;
    std::vector<TimerRecord> injectedTimers_;
    std::vector<TaskId> injectedCancels_;
    std::atomic<std::size_t> injectedCount_{0};

    // --- sites ---
    mutable std::mutex sitesMutex_;
    std::vector<std::unique_ptr<Worker>> workers_;
    /** Lock-free site lookup for post(): siteTable_[id] once set is
     * immutable for the executor's lifetime. */
    std::array<std::atomic<Worker *>, kMaxSites + 1> siteTable_{};
    std::atomic<std::size_t> siteCount_{0};
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> postsPending_{0};
    std::atomic<std::uint64_t> postsExecuted_{0};
};

} // namespace hydra::exec

#endif // HYDRA_EXEC_THREADED_EXECUTOR_HH
