/**
 * @file
 * Tracing decorator for hydra::exec::Executor, owned by the benchmark.
 *
 * SpanExecutor forwards every call to an inner engine and wraps each
 * callback it is handed, so every dispatch records one span: the wall
 * time the callback ran, labelled by the function that created it
 * (the demangled target type of the std::function, cut before its
 * parameter list, e.g. "hydra::net::Network::send"). This is
 * dispatch-origin time, not self time: nested work the callback does
 * inline counts toward its origin.
 *
 * The span buffer is preallocated and bounded. Per-label totals are
 * exact for every dispatch; individual spans past the capacity are
 * dropped and counted, so a long traced run cannot grow memory.
 */

#ifndef PERFBENCH_SPAN_EXECUTOR_HH
#define PERFBENCH_SPAN_EXECUTOR_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <unordered_map>
#include <vector>

#include "exec/executor.hh"

namespace perfbench {

/** Fixed-capacity in-memory log of callback spans. */
class SpanLog
{
  public:
    struct Span
    {
        std::uint64_t startNs = 0;
        std::uint32_t durNs = 0;
        std::uint32_t label = 0;
    };

    struct LabelTotals
    {
        std::string name;
        std::uint64_t count = 0;
        std::uint64_t ns = 0;
    };

    /** Summed runUntil() calls: their wall ns, the callback ns inside
     * them, the decorator's ns wrapping what those callbacks scheduled
     * (part of the callback ns), and the events they dispatched. */
    struct Window
    {
        std::uint64_t wallNs = 0;
        std::uint64_t callbackNs = 0;
        std::uint64_t wrapNs = 0;
        std::uint64_t events = 0;
    };

    explicit SpanLog(std::size_t capacity);

    /** Label id for a callback of dynamic type @p type. */
    std::uint32_t labelOf(const std::type_info &type);

    /** Nanoseconds since the log was created (steady clock). */
    std::uint64_t
    clockNs() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    void
    record(std::uint32_t label, std::uint64_t startNs, std::uint64_t durNs)
    {
        LabelTotals &totals = labels_[label];
        ++totals.count;
        totals.ns += durNs;
        if (size_ == spans_.size()) {
            ++dropped_;
            return;
        }
        spans_[size_++] = Span{startNs, static_cast<std::uint32_t>(durNs),
                               label};
    }

    void addWrapNs(std::uint64_t ns) { wrapNs_ += ns; }
    std::uint64_t wrapNs() const { return wrapNs_; }

    void
    addWindow(const Window &window)
    {
        window_.wallNs += window.wallNs;
        window_.callbackNs += window.callbackNs;
        window_.wrapNs += window.wrapNs;
        window_.events += window.events;
    }

    const Window &window() const { return window_; }
    const std::vector<LabelTotals> &labels() const { return labels_; }
    std::uint64_t dropped() const { return dropped_; }

    /** Summed wall ns of every dispatched callback, all labels. */
    std::uint64_t callbackNs() const;

    /** Summed ns and count of labels containing @p needle. */
    LabelTotals totalsMatching(const std::string &needle) const;

    /** One "construct<TAB>label<TAB>start_ns<TAB>dur_ns" line per span. */
    void write(std::ostream &out, const std::string &construct) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t wrapNs_ = 0;
    Window window_;
    std::vector<LabelTotals> labels_;
    // Keyed by address: hashing a type_index hashes the type's name.
    std::unordered_map<const std::type_info *, std::uint32_t> labelIds_;
};

/** Executor decorator that records one span per dispatched callback. */
class SpanExecutor final : public hydra::exec::Executor
{
  public:
    SpanExecutor(std::unique_ptr<hydra::exec::Executor> inner, SpanLog &log)
        : inner_(std::move(inner)), log_(log)
    {
    }

    const char *backendName() const override { return inner_->backendName(); }
    hydra::exec::Time now() const override { return inner_->now(); }

    hydra::exec::TaskId
    schedule(hydra::exec::Time delay, Callback fn) override
    {
        return inner_->schedule(delay, wrap(std::move(fn)));
    }

    hydra::exec::TaskId
    scheduleAt(hydra::exec::Time when, Callback fn) override
    {
        return inner_->scheduleAt(when, wrap(std::move(fn)));
    }

    hydra::exec::TaskId
    schedulePeriodic(hydra::exec::Time period,
                     std::function<bool()> fn) override
    {
        return inner_->schedulePeriodic(period, wrap(std::move(fn)));
    }

    void cancel(hydra::exec::TaskId id) override { inner_->cancel(id); }

    hydra::exec::SiteId
    addSite(const std::string &name) override
    {
        return inner_->addSite(name);
    }
    std::size_t siteCount() const override { return inner_->siteCount(); }

    void
    post(hydra::exec::SiteId site, Callback fn) override
    {
        inner_->post(site, wrap(std::move(fn)));
    }

    void
    postBatch(hydra::exec::SiteId site, std::span<Callback> fns) override
    {
        for (Callback &fn : fns)
            fn = wrap(std::move(fn));
        inner_->postBatch(site, fns);
    }

    void
    runUntil(hydra::exec::Time until) override
    {
        const std::uint64_t start = log_.clockNs();
        const std::uint64_t callbackNs = log_.callbackNs();
        const std::uint64_t wrapNs = log_.wrapNs();
        const std::uint64_t events = inner_->eventsDispatched();
        inner_->runUntil(until);
        log_.addWindow({log_.clockNs() - start, log_.callbackNs() - callbackNs,
                        log_.wrapNs() - wrapNs,
                        inner_->eventsDispatched() - events});
    }
    void runToCompletion() override { inner_->runToCompletion(); }
    bool step() override { return inner_->step(); }
    void drain() override { inner_->drain(); }

    std::uint64_t
    eventsDispatched() const override
    {
        return inner_->eventsDispatched();
    }
    std::size_t pendingEvents() const override
    {
        return inner_->pendingEvents();
    }

  private:
    /** Times itself, so the callback share can leave the wrapping out. */
    template <typename R>
    std::function<R()>
    wrap(std::function<R()> fn)
    {
        const std::uint64_t start = log_.clockNs();
        const std::uint32_t label = log_.labelOf(fn.target_type());
        std::function<R()> wrapped = [&log = log_, label, fn = std::move(fn)]() -> R {
            const std::uint64_t start = log.clockNs();
            if constexpr (std::is_void_v<R>) {
                fn();
                log.record(label, start, log.clockNs() - start);
            } else {
                R result = fn();
                log.record(label, start, log.clockNs() - start);
                return result;
            }
        };
        log_.addWrapNs(log_.clockNs() - start);
        return wrapped;
    }

    std::unique_ptr<hydra::exec::Executor> inner_;
    SpanLog &log_;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_EXECUTOR_HH
