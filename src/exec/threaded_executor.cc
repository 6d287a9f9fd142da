#include "exec/threaded_executor.hh"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "chaos/chaos.hh"
#include "obs/metrics.hh"

namespace hydra::exec {

namespace {

/** Process-wide instruments for the threaded engine. */
struct ThreadedExecMetrics
{
    obs::Counter &posts =
        obs::counter("exec.posts", {{"executor", "threaded"}});
    obs::Counter &overflow = obs::counter("exec.post_ring_full",
                                          {{"executor", "threaded"}});
    obs::Counter &timerEvents =
        obs::counter("exec.timer_events", {{"executor", "threaded"}});
    obs::Counter &parks =
        obs::counter("exec.worker_parks", {{"executor", "threaded"}});
    obs::Gauge &sites =
        obs::gauge("exec.sites", {{"executor", "threaded"}});
};

ThreadedExecMetrics &
metrics()
{
    static ThreadedExecMetrics instance;
    return instance;
}

/** Site the current thread runs as (kMainSite off the workers). */
thread_local SiteId tl_currentSite = kMainSite;

} // namespace

ThreadedExecutor::Worker::~Worker()
{
    for (auto &slot : inboxes)
        delete slot.load(std::memory_order_acquire);
}

ThreadedExecutor::ThreadedExecutor() : ThreadedExecutor(Config{}) {}

ThreadedExecutor::ThreadedExecutor(Config config)
    : config_(config), coordinator_(std::this_thread::get_id())
{
    if (config_.batchMax == 0)
        config_.batchMax = 1; // a zero quantum could never drain
    metrics();
}

ThreadedExecutor::~ThreadedExecutor()
{
    stop_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(sitesMutex_);
    for (auto &worker : workers_) {
        wake(*worker);
        if (worker->thread.joinable())
            worker->thread.join();
    }
}

bool
ThreadedExecutor::onCoordinator() const
{
    return std::this_thread::get_id() == coordinator_;
}

void
ThreadedExecutor::pushTimer(TimerRecord record)
{
    heap_.push_back(std::move(record));
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

ThreadedExecutor::TimerRecord
ThreadedExecutor::popTimer()
{
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    TimerRecord record = std::move(heap_.back());
    heap_.pop_back();
    return record;
}

TaskId
ThreadedExecutor::schedule(Time delay, Callback fn)
{
    return scheduleAt(now() + delay, std::move(fn));
}

TaskId
ThreadedExecutor::scheduleAt(Time when, Callback fn)
{
    const TaskId id = nextId_.fetch_add(1, std::memory_order_relaxed);
    if (onCoordinator()) {
        assert(when >= now());
        pushTimer(TimerRecord{when, id, std::move(fn)});
    } else {
        // Worker path: completion callbacks re-enter virtual time
        // through the coordinator's inbox.
        std::lock_guard<std::mutex> lock(injectMutex_);
        injectedTimers_.push_back(TimerRecord{when, id, std::move(fn)});
        injectedCount_.fetch_add(1, std::memory_order_release);
    }
    return id;
}

TaskId
ThreadedExecutor::schedulePeriodic(Time period, std::function<bool()> fn)
{
    assert(period > 0);
    assert(onCoordinator() && "periodic series belong to the main loop");
    const TaskId seriesId = nextId_.fetch_add(1, std::memory_order_relaxed);
    periodics_[seriesId] = Periodic{period, std::move(fn)};
    const TaskId eventId = nextId_.fetch_add(1, std::memory_order_relaxed);
    pushTimer(TimerRecord{now() + period, eventId,
                          [this, seriesId]() { firePeriodic(seriesId); }});
    return seriesId;
}

void
ThreadedExecutor::firePeriodic(TaskId series_id)
{
    auto it = periodics_.find(series_id);
    if (it == periodics_.end())
        return; // cancelled
    if (!it->second.fn()) {
        periodics_.erase(series_id);
        return;
    }
    it = periodics_.find(series_id); // fn may cancel its own series
    if (it == periodics_.end())
        return;
    const TaskId eventId = nextId_.fetch_add(1, std::memory_order_relaxed);
    pushTimer(TimerRecord{now() + it->second.period, eventId,
                          [this, series_id]() { firePeriodic(series_id); }});
}

void
ThreadedExecutor::cancel(TaskId id)
{
    if (!onCoordinator()) {
        std::lock_guard<std::mutex> lock(injectMutex_);
        injectedCancels_.push_back(id);
        injectedCount_.fetch_add(1, std::memory_order_release);
        return;
    }
    if (periodics_.erase(id))
        return;
    if (id >= nextId_.load(std::memory_order_relaxed))
        return;
    cancelled_.insert(id);
}

void
ThreadedExecutor::moveInjected()
{
    if (injectedCount_.load(std::memory_order_acquire) == 0)
        return;
    std::vector<TimerRecord> timers;
    std::vector<TaskId> cancels;
    {
        std::lock_guard<std::mutex> lock(injectMutex_);
        timers.swap(injectedTimers_);
        cancels.swap(injectedCancels_);
        injectedCount_.store(0, std::memory_order_release);
    }
    for (TimerRecord &record : timers) {
        // A worker may have raced the clock; never schedule into the
        // past.
        record.when = std::max(record.when, now());
        pushTimer(std::move(record));
    }
    for (TaskId id : cancels) {
        if (!periodics_.erase(id))
            cancelled_.insert(id);
    }
}

SiteId
ThreadedExecutor::addSite(const std::string &name)
{
    std::lock_guard<std::mutex> lock(sitesMutex_);
    if (workers_.size() >= kMaxSites)
        return kMainSite; // out of site slots; run on the main loop
    auto worker = std::make_unique<Worker>();
    worker->name = name;
    worker->id = static_cast<SiteId>(workers_.size() + 1);
    // Per-site instruments are resolved once here so the worker's hot
    // paths only chase cached pointers.
    worker->parks = &obs::counter("exec.site_parks", {{"site", name}});
    worker->wakes = &obs::counter("exec.site_wakes", {{"site", name}});
    worker->doorbellsCoalesced =
        &obs::counter("exec.doorbells_coalesced", {{"site", name}});
    worker->ringOccupancy =
        &obs::histogram("exec.ring_occupancy", {{"site", name}});
    worker->batchSize = &obs::histogram("exec.batch_size", {{"site", name}});
    worker->ringDepth = &obs::gauge("exec.ring_depth", {{"site", name}});
    worker->drainBuffer.resize(config_.batchMax);
    Worker *raw = worker.get();
    workers_.push_back(std::move(worker));
    siteTable_[raw->id].store(raw, std::memory_order_release);
    siteCount_.store(workers_.size(), std::memory_order_release);
    metrics().sites.set(static_cast<double>(workers_.size()));
    raw->thread = std::thread([this, raw]() { workerLoop(*raw); });
    return raw->id;
}

std::size_t
ThreadedExecutor::siteCount() const
{
    return siteCount_.load(std::memory_order_acquire);
}

ThreadedExecutor::Inbox &
ThreadedExecutor::inboxFor(Worker &worker, SiteId producer)
{
    std::atomic<Inbox *> &slot = worker.inboxes[producer];
    Inbox *inbox = slot.load(std::memory_order_acquire);
    if (inbox)
        return *inbox;
    auto *fresh = new Inbox(config_.ringCapacity);
    Inbox *expected = nullptr;
    if (slot.compare_exchange_strong(expected, fresh,
                                     std::memory_order_acq_rel)) {
        return *fresh;
    }
    delete fresh; // another thread won the race
    return *expected;
}

void
ThreadedExecutor::wake(Worker &worker)
{
    if (!worker.parked.load(std::memory_order_acquire))
        return;
    // Doorbell coalescing: N producers ringing one parked site cost
    // one notify. Only the false→true winner pays the mutex; later
    // ringers piggyback on the notify already in flight (the latch is
    // consumed by the worker at unpark, so "in flight" holds until
    // the sleeper it targets is awake and rescanning). Items are
    // pushed before wake() is called, so the post-wake drain sees
    // every coalesced producer's work.
    if (worker.doorbell.exchange(true, std::memory_order_acq_rel)) {
        worker.doorbellsCoalesced->increment();
        return;
    }
    {
        // Taking the mutex orders this notify after the worker's
        // park decision, closing the lost-wakeup window.
        std::lock_guard<std::mutex> lock(worker.parkMutex);
    }
    worker.cv.notify_one();
    worker.wakes->increment();
}

void
ThreadedExecutor::post(SiteId site, Callback fn)
{
    postBatch(site, {&fn, 1});
}

void
ThreadedExecutor::postBatch(SiteId site, std::span<Callback> fns)
{
    if (fns.empty())
        return;
    metrics().posts.add(fns.size());
    Worker *worker = site <= kMaxSites
                         ? siteTable_[site].load(std::memory_order_acquire)
                         : nullptr;
    if (!worker) {
        // The main loop is its own site: each callback runs as a
        // zero-delay event, in span order.
        for (Callback &fn : fns) {
            if (onCoordinator()) {
                pushTimer(TimerRecord{
                    now(), nextId_.fetch_add(1, std::memory_order_relaxed),
                    std::move(fn)});
            } else {
                scheduleAt(now(), std::move(fn));
            }
        }
        return;
    }
    postsPending_.fetch_add(fns.size(), std::memory_order_acq_rel);

    // Only the coordinator and site workers own a producer slot; any
    // other thread would alias the coordinator's ring (tl_currentSite
    // defaults to kMainSite), so it serializes through the overflow
    // lane instead of breaking the ring's single-producer contract.
    const SiteId producer = tl_currentSite;
    const bool ownsRing = producer != kMainSite || onCoordinator();
    Inbox &inbox = inboxFor(*worker, producer);
    std::size_t pushed = 0;
    if (ownsRing &&
        inbox.overflowSize.load(std::memory_order_acquire) == 0) {
        // One tail publish for however much of the span fits.
        pushed = inbox.ring.pushBatch(fns);
    }
    if (pushed < fns.size()) {
        // Remainder (ring full in a burst, or a foreign producer):
        // spill to the mutex-guarded overflow lane under ONE lock hold
        // rather than block. The overflowSize gate then keeps this
        // producer spilling until the worker catches up, preserving
        // per-(producer, site) FIFO order.
        const std::size_t spilled = fns.size() - pushed;
        metrics().overflow.add(spilled);
        std::lock_guard<std::mutex> lock(inbox.mutex);
        for (std::size_t i = pushed; i < fns.size(); ++i)
            inbox.overflow.push_back(std::move(fns[i]));
        inbox.overflowSize.fetch_add(spilled, std::memory_order_release);
    }
    // One park/unpark decision — and at most one notify — for the
    // whole batch.
    wake(*worker);
}

std::size_t
ThreadedExecutor::drainInbox(Worker &worker)
{
    std::size_t executed = 0;
    std::size_t depth = 0;
    Callback *batch = worker.drainBuffer.data();
    const std::size_t producers = siteCount() + 1;
    for (SiteId p = 0; p < producers && p <= kMaxSites; ++p) {
        Inbox *inbox = worker.inboxes[p].load(std::memory_order_acquire);
        if (!inbox)
            continue;
        // Occupancy is sampled at service time: how much was queued
        // across this site's lanes when the worker got to them.
        const std::size_t queued =
            inbox->ring.sizeHint() +
            inbox->overflowSize.load(std::memory_order_acquire);
        depth += queued;
        // Adapt the drain quantum to the occupancy this visit
        // observes: double it while the lane is running ahead of it
        // (backlog — amortize the index publishes), halve it once the
        // lane runs far emptier (so a quiet site returns to
        // one-item-eager service). The quantum only bounds how much
        // one popBatch may take; it never waits for a batch to form,
        // which is what keeps low-load latency at the unbatched
        // floor.
        if (queued > worker.quantum)
            worker.quantum = std::min(worker.quantum * 2, config_.batchMax);
        else if (worker.quantum > 1 && queued * 4 < worker.quantum)
            worker.quantum /= 2;
        // Ring first (older), then this producer's spill; per-producer
        // order is preserved across the handback because the producer
        // re-enters the ring only once overflowSize reaches zero.
        for (;;) {
            const std::size_t n =
                inbox->ring.popBatch(batch, worker.quantum);
            if (n == 0)
                break;
            worker.batchSize->record(n);
            for (std::size_t i = 0; i < n; ++i) {
                batch[i]();
                batch[i] = nullptr;
            }
            executed += n;
        }
        // Swap the whole spill out under one lock hold (shorter than
        // the old pop-per-lock loop). overflowSize drops before these
        // closures run, which re-opens the ring to the producer — per
        // producer FIFO still holds because anything it pushes now is
        // popped on a later visit, after this older spill executes.
        if (inbox->overflowSize.load(std::memory_order_acquire) > 0) {
            std::deque<Callback> spill;
            {
                std::lock_guard<std::mutex> lock(inbox->mutex);
                spill.swap(inbox->overflow);
                inbox->overflowSize.store(0, std::memory_order_release);
            }
            if (!spill.empty())
                worker.batchSize->record(spill.size());
            for (Callback &fn : spill) {
                fn();
                fn = nullptr;
                ++executed;
            }
        }
    }
    if (executed > 0) {
        postsExecuted_.fetch_add(executed, std::memory_order_relaxed);
        postsPending_.fetch_sub(executed, std::memory_order_acq_rel);
        worker.ringOccupancy->record(depth);
        worker.ringDepth->set(static_cast<double>(depth));
    }
    return executed;
}

void
ThreadedExecutor::workerLoop(Worker &worker)
{
    tl_currentSite = worker.id;
    int idle = 0;
    chaos::ChaosEngine &chaosEngine = chaos::ChaosEngine::instance();
    while (!stop_.load(std::memory_order_acquire)) {
        if (drainInbox(worker) > 0) {
            idle = 0;
            // Chaos: a stuck/slow worker naps on the wall clock for a
            // bounded slice after servicing a batch. Virtual time and
            // posted work are untouched — the fault only delays when
            // this thread gets back to its rings, which is exactly
            // what a wedged firmware core looks like from outside.
            if (chaosEngine.enabled()) {
                sim::SimTime amount = 0;
                const Time at = now_.load(std::memory_order_acquire);
                if (chaosEngine.stallSite(at, amount) ||
                    chaosEngine.slowPost(at, amount)) {
                    const auto cap =
                        std::min<sim::SimTime>(amount, sim::milliseconds(2));
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(cap));
                }
            }
            continue;
        }
        if (++idle < config_.spinBeforePark) {
            std::this_thread::yield();
            continue;
        }
        metrics().parks.increment();
        worker.parks->increment();
        std::unique_lock<std::mutex> lock(worker.parkMutex);
        worker.parked.store(true, std::memory_order_release);
        // Re-check under the parked flag so a producer's wake() can't
        // slip between our last scan and the wait. The timeout is a
        // belt-and-braces bound, not the wakeup mechanism.
        bool empty = true;
        for (SiteId p = 0; p <= kMaxSites && empty; ++p) {
            Inbox *inbox =
                worker.inboxes[p].load(std::memory_order_acquire);
            if (inbox &&
                (inbox->ring.sizeHint() > 0 ||
                 inbox->overflowSize.load(std::memory_order_acquire) > 0))
                empty = false;
        }
        if (empty && !stop_.load(std::memory_order_acquire))
            worker.cv.wait_for(lock, std::chrono::milliseconds(2));
        worker.parked.store(false, std::memory_order_release);
        // Consume the doorbell only after clearing `parked`: a
        // producer observing the stale parked flag now either rings a
        // fresh latch (spurious but harmless notify) or piggybacks on
        // one whose unpark hasn't completed — never on a notify this
        // cycle already spent.
        worker.doorbell.store(false, std::memory_order_release);
        idle = 0;
    }
    // Complete handed-off work so drain() callers never lose posts.
    drainInbox(worker);
}

bool
ThreadedExecutor::postsOutstanding() const
{
    return postsPending_.load(std::memory_order_acquire) != 0;
}

void
ThreadedExecutor::sampleSiteOccupancy()
{
    const std::size_t producers = siteCount() + 1;
    for (std::size_t s = 1; s < producers && s <= kMaxSites; ++s) {
        Worker *worker = siteTable_[s].load(std::memory_order_acquire);
        if (!worker)
            continue;
        std::size_t depth = 0;
        for (SiteId p = 0; p < producers && p <= kMaxSites; ++p) {
            Inbox *inbox =
                worker->inboxes[p].load(std::memory_order_acquire);
            if (!inbox)
                continue;
            depth += inbox->ring.sizeHint() +
                     inbox->overflowSize.load(std::memory_order_acquire);
        }
        worker->ringOccupancy->record(depth);
        worker->ringDepth->set(static_cast<double>(depth));
    }
}

bool
ThreadedExecutor::dispatchDueTimer(Time until)
{
    while (!heap_.empty()) {
        const TimerRecord &top = heap_.front();
        if (cancelled_.erase(top.id)) {
            popTimer();
            continue;
        }
        if (top.when > until)
            return false;
        TimerRecord record = popTimer();
        assert(record.when >= now());
        now_.store(record.when, std::memory_order_release);
        const std::uint64_t n =
            dispatched_.fetch_add(1, std::memory_order_relaxed);
        if ((n & kOccupancySampleMask) == 0)
            sampleSiteOccupancy();
        metrics().timerEvents.increment();
        record.fn();
        return true;
    }
    return false;
}

void
ThreadedExecutor::runUntil(Time until)
{
    assert(onCoordinator());
    for (;;) {
        moveInjected();
        if (dispatchDueTimer(until))
            continue;
        if (postsOutstanding() ||
            injectedCount_.load(std::memory_order_acquire) != 0) {
            // Let workers finish; their completions may inject more
            // timers inside the window.
            std::this_thread::yield();
            continue;
        }
        break;
    }
    if (now() < until)
        now_.store(until, std::memory_order_release);
}

void
ThreadedExecutor::runToCompletion()
{
    assert(onCoordinator());
    for (;;) {
        moveInjected();
        if (dispatchDueTimer(static_cast<Time>(-1)))
            continue;
        if (postsOutstanding() ||
            injectedCount_.load(std::memory_order_acquire) != 0) {
            std::this_thread::yield();
            continue;
        }
        break;
    }
}

bool
ThreadedExecutor::step()
{
    assert(onCoordinator());
    moveInjected();
    return dispatchDueTimer(static_cast<Time>(-1));
}

void
ThreadedExecutor::drain()
{
    assert(onCoordinator());
    for (;;) {
        moveInjected();
        if (dispatchDueTimer(now()))
            continue;
        if (postsOutstanding() ||
            injectedCount_.load(std::memory_order_acquire) != 0) {
            std::this_thread::yield();
            continue;
        }
        break;
    }
}

std::size_t
ThreadedExecutor::pendingEvents() const
{
    // Coordinator-accurate; racy (but safe) from elsewhere.
    return heap_.size() + injectedCount_.load(std::memory_order_acquire);
}

} // namespace hydra::exec
