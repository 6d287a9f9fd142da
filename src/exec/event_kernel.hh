/**
 * @file
 * EventKernel: the virtual-time event kernel both engines drive
 * (DESIGN.md §10). Events fire in (when, id) order, FIFO among equal
 * timestamps. The min-heap holds 24 B POD keys (when, id, slot) whose
 * callbacks live in a recycled slab, so heap moves never touch a
 * std::function. Cancellation is lazy: a cancelled id is dropped when
 * its key reaches the top. A periodic series takes one id for itself
 * and one per firing.
 *
 * Only the engine's driving thread calls it, except now() and, with
 * shared ids, issueId().
 */

#ifndef HYDRA_EXEC_EVENT_KERNEL_HH
#define HYDRA_EXEC_EVENT_KERNEL_HH

#include <atomic>
#include <cassert>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/slab.hh"
#include "exec/executor.hh"

namespace hydra::exec {

class EventKernel
{
  public:
    using Callback = Executor::Callback;

    /** Due-by bound that every event meets. */
    static constexpr Time kForever = std::numeric_limits<Time>::max();

    /** @p sharedIds: other threads issue ids too (threaded workers),
     * so issueId() needs an atomic RMW, not a load and a store. */
    explicit EventKernel(bool sharedIds) : sharedIds_(sharedIds) {}

    /** Series firings capture `this`. */
    EventKernel(const EventKernel &) = delete;
    EventKernel &operator=(const EventKernel &) = delete;

    Time now() const { return now_.load(std::memory_order_acquire); }

    /** Move the clock forward to @p when; never back. */
    void
    advanceTo(Time when)
    {
        if (now() < when)
            now_.store(when, std::memory_order_release);
    }

    TaskId
    issueId()
    {
        if (sharedIds_)
            return nextId_.fetch_add(1, std::memory_order_relaxed);
        const TaskId id = nextId_.load(std::memory_order_relaxed);
        nextId_.store(id + 1, std::memory_order_relaxed);
        return id;
    }

    TaskId
    scheduleAt(Time when, Callback fn)
    {
        assert(when >= now());
        const TaskId id = issueId();
        push(when, id, std::move(fn));
        return id;
    }

    /** Queue @p fn at @p when under an id issueId() handed out. */
    void
    push(Time when, TaskId id, Callback fn)
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

    TaskId
    schedulePeriodic(Time period, std::function<bool()> fn)
    {
        assert(period > 0);
        // Each firing looks its series up by id, so cancellation is
        // just an erase and nothing holds a self-referential closure.
        const TaskId seriesId = issueId();
        periodics_[seriesId] = Periodic{period, std::move(fn)};
        push(now() + period, issueId(),
             [this, seriesId]() { firePeriodic(seriesId); });
        return seriesId;
    }

    void
    cancel(TaskId id)
    {
        if (periodics_.erase(id)) {
            ++periodicErasures_;
            return;
        }
        // Ids never handed out cannot be pending; remembering them
        // would grow cancelled_ forever with nothing to erase them.
        if (id >= nextId_.load(std::memory_order_relaxed))
            return;
        cancelled_.insert(id);
        pruneCancelled();
    }

    /**
     * Pop the earliest live event due by @p until, move the clock to
     * its time and return its callback (moved out, so it may grow the
     * slab while it runs); empty when none is due.
     */
    Callback
    popDue(Time until)
    {
        while (!heap_.empty()) {
            if (popCancelled())
                continue;
            if (heap_.front().when > until)
                return nullptr;
            const Key key = popTop();
            assert(key.when >= now());
            now_.store(key.when, std::memory_order_release);
            return slots_.take(key.slot);
        }
        return nullptr;
    }

    bool empty() const { return heap_.empty(); }

    /** Keys in the heap, cancelled ones not yet popped included. */
    std::size_t size() const { return heap_.size(); }

    /**
     * Cancelled ids remembered but not yet matched against a fired or
     * popped event. Bounded: cancel() ignores ids that cannot be
     * pending and prunes entries whose events are long gone.
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

    /** Remove and return the earliest key. */
    Key
    popTop()
    {
        // Floyd's pop: walk the hole from the root to a leaf along the
        // earlier child (picked by arithmetic, not a branch, since
        // which child is earlier is a coin flip), then sift the last
        // key up from there; it rarely climbs far.
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

    /** Pop the top key; true when it was cancelled (slot freed). */
    bool
    popCancelled()
    {
        if (cancelled_.empty() || !cancelled_.erase(heap_.front().id))
            return false;
        slots_.take(popTop().slot); // drop the captured state now
        return true;
    }

    void
    firePeriodic(TaskId series_id)
    {
        auto it = periodics_.find(series_id);
        if (it == periodics_.end())
            return; // cancelled
        // Run the callback out of the map: it may cancel its own
        // series (erasing the entry) or add series (a rehash moves no
        // element).
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
        push(now() + series.period, issueId(),
             [this, series_id]() { firePeriodic(series_id); });
    }

    void
    pruneCancelled()
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

    /** Binary min-heap on (when, id) of 24 B keys. */
    std::vector<Key> heap_;
    Slab<Callback> slots_;
    std::unordered_set<TaskId> cancelled_;
    std::unordered_map<TaskId, Periodic> periodics_;
    /** Series erased by cancel(): a firing whose count did not move
     * knows its entry (and a reference to it) is still valid. */
    std::uint64_t periodicErasures_ = 0;
    /** Written by the driving thread only; atomic so other threads
     * may read the clock. */
    std::atomic<Time> now_{0};
    std::atomic<TaskId> nextId_{1};
    const bool sharedIds_;
};

} // namespace hydra::exec

#endif // HYDRA_EXEC_EVENT_KERNEL_HH
