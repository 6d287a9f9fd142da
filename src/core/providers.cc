#include "core/providers.hh"

#include <algorithm>

#include "chaos/chaos.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hydra::core {

namespace {

/** Per-transport send instruments (issue: latency per channel type). */
struct TransportMetrics
{
    obs::Counter &sent;
    obs::Counter &bytes;
    obs::Counter &dropped;
    obs::LatencyHistogram &latencyNs;

    explicit TransportMetrics(const char *transport)
        : sent(obs::counter("channel.messages_sent",
                            {{"transport", transport}})),
          bytes(obs::counter("channel.bytes_sent",
                             {{"transport", transport}})),
          dropped(obs::counter("channel.messages_dropped",
                               {{"transport", transport}})),
          latencyNs(obs::histogram("channel.send_latency_ns",
                                   {{"transport", transport}}))
    {
    }
};

/**
 * Message-buffer copies performed by the channel layer, by buffering
 * mode. The zero-copy counter exists so its absence of increments is
 * observable: every hop shares one refcounted Payload, so the
 * zero-copy path performs no copies per delivery (asserted by the
 * TiVo integration test). Copying mode stages a copy into the ring
 * slot on send and out of it on receive, exactly as modeled by
 * OsKernel::copyBytes.
 */
struct CopyMetrics
{
    obs::Counter &zeroCopy = obs::counter(
        "channel.payload_copies", {{"buffering", "zero-copy"}});
    obs::Counter &copying = obs::counter(
        "channel.payload_copies", {{"buffering", "copying"}});
};

CopyMetrics &
copyMetrics()
{
    static CopyMetrics metrics;
    return metrics;
}

TransportMetrics &
localMetrics()
{
    static TransportMetrics metrics("local");
    return metrics;
}

TransportMetrics &
ringMetrics()
{
    static TransportMetrics metrics("dma-ring");
    return metrics;
}

} // namespace

namespace {

/** Transport cost constants shared by the ring channel. */
struct RingCosts
{
    std::uint64_t hostDescriptorCycles = 400;
    std::uint64_t deviceDescriptorCycles = 300;
    std::uint64_t deviceRxCycles = 500;
    std::uint64_t hostRxCopySetupCycles = 250;
    sim::SimTime localLatency = sim::nanoseconds(600);
};

/** Both endpoints live on the same execution locus. */
class LocalChannel : public Channel
{
  public:
    LocalChannel(ChannelConfig config, exec::Executor &executor)
        : Channel(std::move(config)), exec_(executor)
    {
    }

    Status
    writeBatchFrom(std::size_t from, std::span<Payload> messages) override
    {
        const sim::SimTime sentAt = exec_.now();
        const Admitted admitted =
            admit(from, messages, config_.maxMessageBytes, sentAt);
        if (admitted.count == 0)
            return admitted.status;
        stats_.messagesSent += admitted.count;
        stats_.bytesSent += admitted.bytes;
        localMetrics().sent.add(admitted.count);
        localMetrics().bytes.add(admitted.bytes);

        // Enqueue costs a little compute per message at the sender's
        // site. run() accrues site busy time without advancing the
        // clock, so a batch costs the same cycles and stamps the same
        // sentAt as the messages written one by one.
        if (endpoints_[from].site)
            endpoints_[from].site->run(250 * admitted.count);

        // Capture the sender's causal context; delivery runs later
        // from the scheduler with an empty one.
        const obs::SpanContext ctx = obs::activeContext();
        const std::span<const Payload> sent =
            messages.first(admitted.count);
        for (std::size_t ep = 0; ep < endpoints_.size(); ++ep) {
            if (ep == from)
                continue;
            // ONE scheduled event (and one clock read on arrival)
            // delivers the batch to this destination; its copy shares
            // the sender's buffers (refcount bumps), so every
            // destination of a fan-out sees the same bytes.
            exec_.schedule(
                costs_.localLatency,
                [this, ep, from, sentAt, ctx,
                 batch = std::vector<Payload>(sent.begin(), sent.end())]() {
                    const sim::SimTime deliveredAt = exec_.now();
                    for (std::size_t i = 0; i < batch.size(); ++i)
                        localMetrics().latencyNs.record(deliveredAt -
                                                        sentAt);
                    obs::ContextScope scope(ctx);
                    obs::Span span;
                    ExecutionSite *dst = endpoints_[ep].site;
                    if (HYDRA_TRACE_ACTIVE() && dst)
                        span.open(dst->machine().name(), dst->name(),
                                  "channel.send", "channel", sentAt);
                    span.end(deliveredAt);
                    deliverBatchTo(ep, batch, from, sentAt, deliveredAt);
                });
        }
        return admitted.status;
    }

  private:
    exec::Executor &exec_;
    RingCosts costs_;
};

/**
 * The paper's zero-copy channel: per-destination descriptor rings,
 * pre-posted buffers, device DMA, host interrupts.
 */
class RingChannel : public Channel
{
  public:
    RingChannel(ChannelConfig config, exec::Executor &executor,
                bool bus_multicast)
        : Channel(std::move(config)), exec_(executor),
          busMulticast_(bus_multicast)
    {
        // Register both buffering-mode copy counters up front so a
        // zero-copy run exports an observable 0, not an absent metric.
        copyMetrics();
    }

    Result<std::size_t>
    addEndpoint(ExecutionSite &site) override
    {
        auto index = Channel::addEndpoint(site);
        if (!index)
            return index;
        EpState state;
        if (site.isHost()) {
            // Host endpoints own ring buffers in host memory (the
            // InRing/OutRing of Fig. 6) plus a user-visible buffer
            // for Copying mode.
            hw::OsKernel &os = site.machine().os();
            state.ringBuffer = os.allocRegion(config_.ringDepth *
                                              config_.maxMessageBytes);
            state.userBuffer = os.allocRegion(config_.maxMessageBytes);
        }
        state_.push_back(state);
        return index;
    }

    Status
    writeBatchFrom(std::size_t from, std::span<Payload> messages) override
    {
        const sim::SimTime sentAt = exec_.now();
        const Admitted admitted =
            admit(from, messages, config_.maxMessageBytes, sentAt);
        if (admitted.count == 0)
            return admitted.status;
        stats_.messagesSent += admitted.count;
        stats_.bytesSent += admitted.bytes;
        ringMetrics().sent.add(admitted.count);
        ringMetrics().bytes.add(admitted.bytes);

        // Sender-side descriptor preparation: the CPU builds one
        // descriptor per message (a batch saves doorbells and bus
        // turnarounds, not descriptor writes).
        ExecutionSite *src = endpoints_[from].site;
        if (src->isHost()) {
            hw::Machine &machine = src->machine();
            machine.cpu().runCycles(costs_.hostDescriptorCycles *
                                    admitted.count);
            if (config_.buffering == ChannelConfig::Buffering::Copying) {
                // Staged copy into the ring slot (pollutes L2).
                copyMetrics().copying.add(admitted.count);
                EpState &st = state_[from];
                for (std::size_t i = 0; i < admitted.count; ++i) {
                    const hw::Addr slot =
                        st.ringBuffer + st.slot * config_.maxMessageBytes;
                    st.slot = (st.slot + 1) % config_.ringDepth;
                    machine.os().copyBytes(st.userBuffer, slot,
                                           messages[i].size());
                }
            }
        } else {
            src->run(costs_.deviceDescriptorCycles * admitted.count);
        }

        // One multicast bus transaction can cover all device
        // destinations when the fabric supports it.
        const obs::SpanContext ctx = obs::activeContext();
        bool sharedCrossingCharged = false;
        for (std::size_t ep = 0; ep < endpoints_.size(); ++ep) {
            if (ep == from)
                continue;
            const bool charge =
                !busMulticast_ || !sharedCrossingCharged ||
                endpoints_[ep].site->isHost();
            transport(from, ep, messages.first(admitted.count), charge,
                      sentAt, ctx);
            if (!endpoints_[ep].site->isHost())
                sharedCrossingCharged = true;
        }
        return admitted.status;
    }

  private:
    /** A sender's (possibly partial) batch awaiting descriptors. */
    struct BacklogEntry
    {
        std::size_t from = 0;
        std::vector<Payload> messages; ///< share the sender's buffers
        sim::SimTime sentAt = 0;
        obs::SpanContext ctx;
    };

    struct EpState
    {
        std::size_t inFlight = 0;
        std::deque<BacklogEntry> backlog;
        hw::Addr ringBuffer = 0;
        hw::Addr userBuffer = 0;
        std::size_t slot = 0;
    };

    /**
     * Move one sender's batch from endpoint @p from to @p to. The
     * prefix that fits the destination's free descriptors travels as
     * ONE descriptor chain (one DMA program, one bus transaction, one
     * completion interrupt); the remainder backpressures as a single
     * backlog entry (reliable) or drops (unreliable).
     */
    void
    transport(std::size_t from, std::size_t to,
              std::span<const Payload> messages, bool charge_bus,
              sim::SimTime sent_at, const obs::SpanContext &ctx)
    {
        EpState &dst_state = state_[to];
        std::size_t avail =
            config_.ringDepth > dst_state.inFlight
                ? config_.ringDepth - dst_state.inFlight
                : 0;
        // Chaos: pretend the consumer has not freed any descriptors
        // this cycle. Only legal while completions are in flight —
        // the backlog drains exclusively from completeDelivery(), so
        // an empty ring forced shut would never reopen.
        if (avail > 0 && dst_state.inFlight > 0 &&
            chaos::ChaosEngine::instance().overflowRing(exec_.now()))
            avail = 0;
        const std::size_t fit = std::min(avail, messages.size());
        if (fit < messages.size()) {
            const std::size_t excess = messages.size() - fit;
            if (config_.reliable) {
                BacklogEntry entry;
                entry.from = from;
                entry.messages.assign(messages.begin() + fit,
                                      messages.end());
                entry.sentAt = sent_at;
                entry.ctx = ctx;
                dst_state.backlog.push_back(std::move(entry));
            } else {
                stats_.messagesDropped += excess;
                ringMetrics().dropped.add(excess);
            }
        }
        if (fit == 0)
            return;
        dst_state.inFlight += fit;
        startDma(from, to,
                 std::vector<Payload>(messages.begin(),
                                      messages.begin() + fit),
                 charge_bus, sent_at, ctx);
    }

    void
    startDma(std::size_t from, std::size_t to,
             std::vector<Payload> messages, bool charge_bus,
             sim::SimTime sent_at, const obs::SpanContext &ctx)
    {
        ExecutionSite *src = endpoints_[from].site;
        ExecutionSite *dst = endpoints_[to].site;
        std::size_t bytes = 0;
        for (const Payload &message : messages)
            bytes += message.size();

        // The completion closure holds references, not copies.
        auto finish = [this, from, to, sent_at, ctx,
                       msgs = std::move(messages)]() {
            completeDelivery(from, to, msgs, sent_at, ctx);
        };

        // Pick the bus-mastering engine: the device side of the pair.
        dev::Device *engineOwner =
            src->device() ? src->device() : dst->device();

        if (!engineOwner) {
            // Host-to-host ring: no bus, a kernel handoff.
            src->machine().cpu().runCycles(costs_.hostRxCopySetupCycles);
            exec_.schedule(costs_.localLatency, std::move(finish));
            return;
        }
        if (!charge_bus) {
            // Covered by a multicast transaction charged already.
            exec_.schedule(sim::microseconds(1), std::move(finish));
            return;
        }
        // One bus transaction moves the whole descriptor chain.
        ++stats_.busCrossings;
        engineOwner->dma().start(bytes, std::move(finish));
    }

    void
    completeDelivery(std::size_t from, std::size_t to,
                     const std::vector<Payload> &messages,
                     sim::SimTime sent_at, const obs::SpanContext &ctx)
    {
        ExecutionSite *dst = endpoints_[to].site;
        EpState &dst_state = state_[to];

        for (std::size_t i = 0; i < messages.size(); ++i)
            ringMetrics().latencyNs.record(exec_.now() - sent_at);
        obs::ContextScope scope(ctx);
        obs::Span span;
        if (HYDRA_TRACE_ACTIVE() && dst)
            span.open(dst->machine().name(), dst->name(),
                      "channel.send", "channel", sent_at);

        if (dst->isHost()) {
            hw::Machine &machine = dst->machine();
            for (const Payload &message : messages) {
                const hw::Addr slot =
                    dst_state.ringBuffer +
                    dst_state.slot * config_.maxMessageBytes;
                dst_state.slot = (dst_state.slot + 1) % config_.ringDepth;
                machine.os().dmaDelivered(slot, message.size());
                if (config_.buffering ==
                    ChannelConfig::Buffering::Copying) {
                    // Copy out of the ring into the user buffer.
                    copyMetrics().copying.increment();
                    machine.os().copyBytes(slot, dst_state.userBuffer,
                                           message.size());
                }
            }
            // Interrupt coalescing falls out of the descriptor chain:
            // one completion interrupt covers the whole batch.
            machine.os().handleInterrupt();
        } else {
            dst->run(costs_.deviceRxCycles * messages.size());
        }

        // The clock may have advanced past the entry read (device RX
        // cycles, interrupt handling); stamp delivery at this instant
        // and hand it down so the channel needn't re-read the clock.
        const sim::SimTime deliveredAt = exec_.now();
        span.end(deliveredAt);
        deliverBatchTo(to, messages, from, sent_at, deliveredAt);

        // Descriptors recycled; refill them from the backlog,
        // batch-aware: each drained entry keeps its own batch shape
        // (and DMA chain) up to the descriptors actually free.
        dst_state.inFlight -= std::min(dst_state.inFlight,
                                       messages.size());
        while (!dst_state.backlog.empty() &&
               dst_state.inFlight < config_.ringDepth) {
            BacklogEntry &entry = dst_state.backlog.front();
            const std::size_t avail =
                config_.ringDepth - dst_state.inFlight;
            if (entry.messages.size() <= avail) {
                BacklogEntry whole = std::move(entry);
                dst_state.backlog.pop_front();
                dst_state.inFlight += whole.messages.size();
                startDma(whole.from, to, std::move(whole.messages), true,
                         whole.sentAt, whole.ctx);
            } else {
                // Split: launch the prefix that fits, keep the rest
                // queued at the front (order preserved).
                std::vector<Payload> prefix(
                    entry.messages.begin(),
                    entry.messages.begin() + avail);
                entry.messages.erase(entry.messages.begin(),
                                     entry.messages.begin() + avail);
                dst_state.inFlight += prefix.size();
                startDma(entry.from, to, std::move(prefix), true,
                         entry.sentAt, entry.ctx);
            }
        }
    }

    exec::Executor &exec_;
    bool busMulticast_;
    RingCosts costs_;
    std::vector<EpState> state_;
};

} // namespace

LocalChannelProvider::LocalChannelProvider(exec::Executor &executor)
    : exec_(executor)
{
}

bool
LocalChannelProvider::canServe(const ChannelConfig &config,
                               ExecutionSite &creator,
                               ExecutionSite *target) const
{
    (void)config;
    if (!target)
        return true; // connectionless until attached
    return target == &creator ||
           (creator.isHost() && target->isHost() &&
            &creator.machine() == &target->machine());
}

ChannelCost
LocalChannelProvider::estimateCost(const ChannelConfig &config,
                                   ExecutionSite &creator,
                                   ExecutionSite *target,
                                   std::size_t bytes) const
{
    (void)config;
    (void)creator;
    (void)target;
    (void)bytes;
    return ChannelCost{sim::nanoseconds(800), 40.0};
}

std::unique_ptr<Channel>
LocalChannelProvider::create(const ChannelConfig &config,
                             ExecutionSite &creator)
{
    auto channel = std::make_unique<LocalChannel>(config, exec_);
    channel->connectCreator(creator);
    return channel;
}

DmaRingChannelProvider::DmaRingChannelProvider(exec::Executor &executor,
                                               bool bus_multicast)
    : exec_(executor), busMulticast_(bus_multicast)
{
}

bool
DmaRingChannelProvider::canServe(const ChannelConfig &config,
                                 ExecutionSite &creator,
                                 ExecutionSite *target) const
{
    (void)config;
    if (!target)
        return true; // connectionless until attached
    // The ring transport spans any site pair on ONE machine: the
    // descriptor rings and DMA engine live on the creator's bus.
    // Cross-machine pairs belong to the fleet's remote provider.
    return &creator.machine() == &target->machine();
}

ChannelCost
DmaRingChannelProvider::estimateCost(const ChannelConfig &config,
                                     ExecutionSite &creator,
                                     ExecutionSite *target,
                                     std::size_t bytes) const
{
    ChannelCost cost;
    const bool crossing =
        !target || target->device() != creator.device() ||
        creator.device() == nullptr;
    cost.perMessageLatency =
        crossing ? sim::microseconds(6) : sim::microseconds(1);
    cost.throughputGbps = creator.machine().bus().bandwidthGbps();
    if (config.buffering == ChannelConfig::Buffering::Copying)
        cost.perMessageLatency += sim::nanoseconds(bytes);
    return cost;
}

std::unique_ptr<Channel>
DmaRingChannelProvider::create(const ChannelConfig &config,
                               ExecutionSite &creator)
{
    auto channel =
        std::make_unique<RingChannel>(config, exec_, busMulticast_);
    channel->connectCreator(creator);
    return channel;
}

} // namespace hydra::core
