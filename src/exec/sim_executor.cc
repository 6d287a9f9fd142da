#include "exec/sim_executor.hh"

#include <algorithm>
#include <cassert>
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

void
SimExecutor::push(Time when, TaskId id, Callback fn)
{
    const Key key{when, id, slots_.put(std::move(fn))};
    std::size_t hole = heap_.size();
    heap_.push_back(key);
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (!key.before(heap_[parent]))
            break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    heap_[hole] = key;
}

SimExecutor::Key
SimExecutor::popTop()
{
    // Floyd's pop: walk the hole from the root to a leaf along the
    // earlier child (picked by arithmetic, not a branch, since which
    // child is earlier is a coin flip), then sift the last key up
    // from there; it rarely climbs far.
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return top;
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child + 1 < n) {
        child += heap_[child + 1].before(heap_[child]);
        heap_[hole] = heap_[child];
        hole = child;
        child = 2 * hole + 1;
    }
    if (child < n) {
        heap_[hole] = heap_[child];
        hole = child;
    }
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (!last.before(heap_[parent]))
            break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    heap_[hole] = last;
    return top;
}

TaskId
SimExecutor::scheduleAt(Time when, Callback fn)
{
    assert(when >= now_);
    simMetrics();
    const TaskId id = nextId_++;
    push(when, id, std::move(fn));
    bump(scheduled_);
    return id;
}

TaskId
SimExecutor::schedulePeriodic(Time period, std::function<bool()> fn)
{
    assert(period > 0);
    // The series lives in the periodics_ registry; each firing looks
    // itself up by id, so cancellation is just an erase and nothing
    // holds a self-referential closure.
    const TaskId seriesId = nextId_++;
    periodics_[seriesId] = Periodic{period, std::move(fn)};
    push(now_ + period, nextId_++,
         [this, seriesId]() { firePeriodic(seriesId); });
    return seriesId;
}

void
SimExecutor::firePeriodic(TaskId series_id)
{
    auto it = periodics_.find(series_id);
    if (it == periodics_.end())
        return; // cancelled
    // Run the callback out of the map: it may cancel its own series
    // (erasing the entry) or add series (a rehash moves no element).
    Periodic &series = it->second;
    const std::uint64_t erasures = periodicErasures_;
    std::function<bool()> fn = std::move(series.fn);
    const bool again = fn();
    if (periodicErasures_ != erasures &&
        periodics_.find(series_id) == periodics_.end())
        return; // cancelled itself
    if (!again) {
        periodics_.erase(series_id);
        return;
    }
    series.fn = std::move(fn);
    push(now_ + series.period, nextId_++,
         [this, series_id]() { firePeriodic(series_id); });
}

void
SimExecutor::cancel(TaskId id)
{
    simMetrics();
    bump(cancels_);
    if (periodics_.erase(id)) {
        ++periodicErasures_;
        return;
    }
    // Ids never handed out cannot be pending; remembering them would
    // grow cancelled_ forever with nothing to erase them.
    if (id >= nextId_)
        return;
    cancelled_.insert(id);
    pruneCancelled();
}

void
SimExecutor::pruneCancelled()
{
    // Cancelling an already-fired id leaves a tombstone no pop will
    // ever claim. Once the set clearly outgrows the pending queue,
    // intersect it with the ids actually still scheduled.
    constexpr std::size_t kSlack = 64;
    if (cancelled_.size() <= heap_.size() + kSlack)
        return;
    std::unordered_set<TaskId> live;
    live.reserve(heap_.size());
    for (const Key &key : heap_)
        live.insert(key.id);
    std::erase_if(cancelled_,
                  [&live](TaskId id) { return !live.count(id); });
}

bool
SimExecutor::popCancelled()
{
    if (cancelled_.empty() || !cancelled_.erase(heap_.front().id))
        return false;
    slots_.take(popTop().slot); // drop the captured state now
    return true;
}

void
SimExecutor::dispatchTop()
{
    const Key key = popTop();
    // Move the callback out before running it: the callback may
    // schedule, which can grow (and move) the slab under it.
    Callback fn = slots_.take(key.slot);
    assert(key.when >= now_);
    now_ = key.when;
    bump(dispatched_);
    lastDepth_.store(heap_.size(), std::memory_order_relaxed);
    fn();
}

bool
SimExecutor::step()
{
    if (heap_.empty())
        return false;
    simMetrics();
    RunScope scope(*this);
    while (!heap_.empty()) {
        if (popCancelled())
            continue;
        dispatchTop();
        return true;
    }
    return false;
}

void
SimExecutor::runUntil(Time until)
{
    if (!heap_.empty()) {
        simMetrics();
        RunScope scope(*this);
        while (!heap_.empty()) {
            if (popCancelled())
                continue;
            if (heap_.front().when > until)
                break;
            dispatchTop();
        }
    }
    if (now_ < until)
        now_ = until;
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
        Time amount = 0;
        if (chaosEngine.stallSite(now_, amount)) {
            if (stallUntil_.size() <= site)
                stallUntil_.resize(site + 1, 0);
            stallUntil_[site] = std::max(stallUntil_[site], now_ + amount);
        }
        Time when = now_;
        if (site < stallUntil_.size())
            when = std::max(when, stallUntil_[site]);
        if (chaosEngine.slowPost(now_, amount))
            when += amount;
        if (when > now_) {
            scheduleAt(when, std::move(fn));
            return;
        }
    }
    scheduleAt(now_, std::move(fn));
}

void
SimExecutor::postBatch(SiteId site, std::span<Callback> fns)
{
    // One zero-delay event per element, in span order: exactly the
    // event ids, counters, and dispatch order N individual post()
    // calls would produce, so a batched run replays byte-identical to
    // an unbatched one. Batching under sim is a pure API convenience
    // (and chaos draws fire per element, same as unbatched).
    for (Callback &fn : fns)
        post(site, std::move(fn));
}

void
SimExecutor::drain()
{
    // Run everything due at the current instant — post() chains
    // schedule zero-delay events, so a pipeline drains fully — but
    // leave future timers for runUntil().
    runUntil(now_);
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
