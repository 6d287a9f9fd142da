#include "exec/sim_executor.hh"

#include <algorithm>
#include <mutex>

#include "chaos/chaos.hh"
#include "obs/metrics.hh"

namespace hydra::exec {

namespace {

/** Process-wide instruments for the deterministic engine. */
struct SimExecMetrics
{
    obs::Counter &posts =
        obs::counter("exec.posts", {{"executor", "sim"}});
    obs::Gauge &sites = obs::gauge("exec.sites", {{"executor", "sim"}});
};

SimExecMetrics &
simExecMetrics()
{
    static SimExecMetrics metrics;
    return metrics;
}

/**
 * The kernel instruments. Every SimExecutor feeds the same series; a
 * test or bench scopes them by resetting the registry before the run
 * it cares about. Registered at a kernel's first schedule, cancel or
 * dispatch, so they take the same place in the registry's order as
 * when every event bumped them.
 */
struct SimMetrics
{
    SimMetrics();

    obs::Counter &dispatched = obs::counter("sim.events_dispatched");
    obs::Counter &scheduled = obs::counter("sim.events_scheduled");
    obs::Counter &cancelled = obs::counter("sim.events_cancelled");
    obs::Gauge &queueDepth = obs::gauge("sim.queue_depth");
};

SimMetrics &
simMetrics()
{
    static SimMetrics metrics;
    return metrics;
}

/** The kernel whose run loop this thread is inside, if any. */
thread_local SimExecutor *tlsRunning = nullptr;

} // namespace

/**
 * Live kernels, whose counts a registry read publishes as deltas: a
 * reset between reads zeroes exactly what it did when every event
 * bumped the counters, and a retiring kernel publishes what is left.
 * The depth gauge follows the last dispatch: a kernel sets it when a
 * run loop exits, and a read from inside a run loop sets it from that
 * kernel. Only a kernel with new counts touches the instruments, and
 * its first schedule, cancel or dispatch registered them.
 */
class KernelCounts
{
  public:
    static void
    enlist(SimExecutor &kernel)
    {
        State &s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        s.live.push_back(&kernel);
    }

    static void
    retire(SimExecutor &kernel)
    {
        State &s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        publishCounts(kernel);
        std::erase(s.live, &kernel);
    }

    /** The registry collector: bring every series up to date. */
    static void
    publishAll()
    {
        State &s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        for (SimExecutor *kernel : s.live)
            publishCounts(*kernel);
        if (tlsRunning)
            publishDepth(*tlsRunning);
    }

    /**
     * Set the gauge if @p k dispatched since it last set it. Runs only
     * on the thread inside @p k's run loop (its own exit, or a registry
     * read from one of its callbacks), so depthPublishedAt_ needs no
     * lock.
     */
    static void
    publishDepth(SimExecutor &k)
    {
        const std::uint64_t dispatched =
            k.dispatched_.load(std::memory_order_relaxed);
        if (dispatched == k.depthPublishedAt_)
            return;
        simMetrics().queueDepth.set(static_cast<double>(
            k.lastDepth_.load(std::memory_order_relaxed)));
        k.depthPublishedAt_ = dispatched;
    }

  private:
    struct State
    {
        std::mutex mutex;
        std::vector<SimExecutor *> live;
    };

    static State &
    state()
    {
        // Leaked: kernels may outlive static destruction order.
        static State *s = new State;
        return *s;
    }

    static void
    publishCounts(SimExecutor &k)
    {
        const std::uint64_t scheduled =
            k.scheduled_.load(std::memory_order_relaxed);
        const std::uint64_t dispatched =
            k.dispatched_.load(std::memory_order_relaxed);
        const std::uint64_t cancels =
            k.cancels_.load(std::memory_order_relaxed);
        if (scheduled == k.publishedScheduled_ &&
            dispatched == k.publishedDispatched_ &&
            cancels == k.publishedCancels_)
            return; // so a kernel that never ran registers nothing
        SimMetrics &m = simMetrics();
        m.scheduled.add(scheduled - k.publishedScheduled_);
        m.dispatched.add(dispatched - k.publishedDispatched_);
        m.cancelled.add(cancels - k.publishedCancels_);
        k.publishedScheduled_ = scheduled;
        k.publishedDispatched_ = dispatched;
        k.publishedCancels_ = cancels;
    }
};

SimMetrics::SimMetrics()
{
    obs::MetricsRegistry::instance().addCollector(
        [] { KernelCounts::publishAll(); });
}

class SimExecutor::RunScope
{
  public:
    explicit RunScope(SimExecutor &kernel)
        : kernel_(kernel), prev_(tlsRunning)
    {
        tlsRunning = &kernel;
    }

    ~RunScope()
    {
        tlsRunning = prev_;
        KernelCounts::publishDepth(kernel_);
    }

    RunScope(const RunScope &) = delete;
    RunScope &operator=(const RunScope &) = delete;

  private:
    SimExecutor &kernel_;
    SimExecutor *prev_;
};

SimExecutor::SimExecutor()
{
    simExecMetrics();
    KernelCounts::enlist(*this);
}

SimExecutor::~SimExecutor()
{
    KernelCounts::retire(*this);
}

TaskId
SimExecutor::scheduleAt(Time when, Callback fn)
{
    simMetrics();
    const TaskId id = kernel_.scheduleAt(when, std::move(fn));
    bump(scheduled_);
    return id;
}

TaskId
SimExecutor::schedulePeriodic(Time period, std::function<bool()> fn)
{
    return kernel_.schedulePeriodic(period, std::move(fn));
}

void
SimExecutor::cancel(TaskId id)
{
    simMetrics();
    bump(cancels_);
    kernel_.cancel(id);
}

void
SimExecutor::dispatch(const Callback &fn)
{
    bump(dispatched_);
    lastDepth_.store(kernel_.size(), std::memory_order_relaxed);
    fn();
}

bool
SimExecutor::step()
{
    if (kernel_.empty())
        return false;
    simMetrics();
    RunScope scope(*this);
    const Callback fn = kernel_.popDue(EventKernel::kForever);
    if (!fn)
        return false;
    dispatch(fn);
    return true;
}

void
SimExecutor::runUntil(Time until)
{
    if (!kernel_.empty()) {
        simMetrics();
        RunScope scope(*this);
        while (const Callback fn = kernel_.popDue(until))
            dispatch(fn);
    }
    kernel_.advanceTo(until);
}

void
SimExecutor::runToCompletion()
{
    while (step()) {
    }
}

SiteId
SimExecutor::addSite(const std::string &name)
{
    siteNames_.push_back(name);
    simExecMetrics().sites.set(static_cast<double>(siteNames_.size()));
    return static_cast<SiteId>(siteNames_.size());
}

void
SimExecutor::post(SiteId site, Callback fn)
{
    // Site affinity is meaningless on a single thread; a zero-delay
    // event preserves global FIFO order, which keeps runs
    // deterministic (the property the sim engine exists to provide).
    simExecMetrics().posts.increment();

    chaos::ChaosEngine &chaosEngine = chaos::ChaosEngine::instance();
    if (chaosEngine.enabled()) {
        // Chaos under sim is still deterministic: a stalled site
        // parks subsequent posts at a fixed future instant, a slow
        // draw delays one task — both via scheduleAt, which preserves
        // FIFO among equal timestamps, so a seeded run replays
        // byte-for-byte.
        const Time now = kernel_.now();
        Time amount = 0;
        if (chaosEngine.stallSite(now, amount)) {
            if (stallUntil_.size() <= site)
                stallUntil_.resize(site + 1, 0);
            stallUntil_[site] = std::max(stallUntil_[site], now + amount);
        }
        Time when = now;
        if (site < stallUntil_.size())
            when = std::max(when, stallUntil_[site]);
        if (chaosEngine.slowPost(now, amount))
            when += amount;
        if (when > now) {
            scheduleAt(when, std::move(fn));
            return;
        }
    }
    scheduleAt(kernel_.now(), std::move(fn));
}

void
SimExecutor::drain()
{
    // Run everything due at the current instant — post() chains
    // schedule zero-delay events, so a pipeline drains fully — but
    // leave future timers for runUntil().
    runUntil(kernel_.now());
}

const char *
executorKindName(ExecutorKind kind)
{
    switch (kind) {
      case ExecutorKind::Sim: return "sim";
      case ExecutorKind::Threaded: return "threaded";
    }
    return "?";
}

bool
parseExecutorKind(const std::string &name, ExecutorKind &out)
{
    if (name == "sim") {
        out = ExecutorKind::Sim;
        return true;
    }
    if (name == "threaded") {
        out = ExecutorKind::Threaded;
        return true;
    }
    return false;
}

} // namespace hydra::exec
