#include "fleet/fleet.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "sim/time.hh"

namespace hydra::fleet {

namespace {

/** Remote-transport cost constants (paper-scale: gigabit fabric). */
struct RemoteCosts
{
    /** Host/firmware cycles to build or retire one tx descriptor. */
    std::uint64_t txDescriptorCycles = 400;
    /** Endpoint-site cycles to consume one delivered frame. */
    std::uint64_t rxDescriptorCycles = 300;
    /** Sender-site cycles for a same-machine enqueue (cf. local). */
    std::uint64_t enqueueCycles = 250;
    /** Same-machine leg of a multicast: in-memory enqueue latency. */
    sim::SimTime localLatency = sim::nanoseconds(600);
};

constexpr RemoteCosts kCosts{};

static_assert(std::endian::native == std::endian::little,
              "the wire header is encoded as a little-endian struct");

/** Per-transport instruments, mirroring providers.cc's locals. */
struct RemoteMetrics
{
    obs::Counter &sent = obs::counter("channel.messages_sent",
                                      {{"transport", "remote"}});
    obs::Counter &bytes = obs::counter("channel.bytes_sent",
                                       {{"transport", "remote"}});
    obs::Counter &dropped = obs::counter("channel.messages_dropped",
                                         {{"transport", "remote"}});
    /**
     * The exactly-one wire copy per remote leg: header + body staged
     * into the frame buffer. Zero increments here would mean the wire
     * was never exercised; more than one per message is a regression
     * the fleet test asserts against.
     */
    obs::Counter &wireCopies = obs::counter(
        "channel.payload_copies", {{"buffering", "wire"}});
    /** Frames that arrived for a since-destroyed ChannelId. */
    obs::Counter &orphans = obs::counter("fleet.orphan_frames");
    /** Per-sender sequence gaps observed by receivers (loss/reorder;
     * zero on a lossless fabric — the FIFO test's invariant). */
    obs::Counter &seqGaps = obs::counter("fleet.seq_gaps");
};

RemoteMetrics &
remoteMetrics()
{
    static RemoteMetrics metrics;
    return metrics;
}

/**
 * Count a frame dropped undelivered: shorter than the header, or
 * naming an endpoint absent from (or not on) the receiving host. The
 * series registers at the first such frame, so a clean run's metrics
 * list it not at all.
 */
void
countMalformedFrame()
{
    static obs::Counter &malformed = obs::counter("fleet.malformed_frames");
    malformed.increment();
}

} // namespace

/**
 * Cross-machine transport: frames messages over the sender host's
 * NIC onto the shared fabric. FIFO per (sender endpoint, receiver
 * endpoint) holds structurally: one sender endpoint lives on one
 * host, its frames serialize through that host's DMA engine and
 * uplink, and the fabric delivers in order per (src, dst) node pair.
 *
 * Thread model: a write may run on any driver site; delivery runs
 * on the coordinator (scheduled events). A per-channel recursive
 * mutex guards endpoints_/stats_; recursive so a receive handler may
 * write back into the same channel synchronously.
 */
class RemoteChannel : public core::Channel
{
  public:
    RemoteChannel(core::ChannelConfig config, Fleet &fleet, Host &home)
        : Channel(std::move(config)), fleet_(fleet), home_(home),
          wireLimit_(fleet.config().network.maxPayload > kWireHeaderBytes
                         ? fleet.config().network.maxPayload -
                               kWireHeaderBytes
                         : 0),
          mutex_(home.machine().executor())
    {
    }

    ~RemoteChannel() override
    {
        // Unroute everywhere first: after this no fabric handler can
        // reach us (removeRoute blocks on any in-flight delivery).
        for (Host *host : routedHosts_)
            host->removeRoute(id());
    }

    Status
    writeBatchFrom(std::size_t from, std::span<Payload> messages) override
    {
        std::lock_guard<exec::EngineRecursiveMutex> lock(mutex_);
        // A refused message never counts as sent, so the ledger
        // (sent == delivered + dropped) holds on every transport.
        const sim::SimTime sentAt = home_.machine().executor().now();
        const Admitted admitted =
            admit(from, messages,
                  std::min(config_.maxMessageBytes, wireLimit_), sentAt);
        if (admitted.count == 0)
            return admitted.status;
        stats_.messagesSent += admitted.count;
        RemoteMetrics &metrics = remoteMetrics();
        metrics.sent.add(admitted.count);
        metrics.bytes.add(admitted.bytes);

        const Host *srcHost = wires_[from].host;
        for (const Payload &message : messages.first(admitted.count)) {
            for (std::size_t to = 0; to < endpoints_.size(); ++to) {
                if (to == from)
                    continue;
                if (wires_[to].host == srcHost)
                    sendLocalLeg(from, to, message, sentAt);
                else
                    sendWireLeg(from, to, message, sentAt);
            }
        }
        return admitted.status;
    }

    /** The executive assigned our id: route it on every endpoint's
     * host (the creator attached before the id existed). */
    void
    bindId(core::ChannelId id) override
    {
        Channel::bindId(id);
        registerRoutes();
    }

  protected:
    Result<std::size_t>
    addEndpoint(core::ExecutionSite &site) override
    {
        Host *owner = fleet_.hostOf(site.machine());
        if (!owner)
            return Error(ErrorCode::InvalidArgument,
                         "site's machine is not a fleet member");
        std::size_t index = 0;
        {
            std::lock_guard<exec::EngineRecursiveMutex> lock(mutex_);
            auto added = Channel::addEndpoint(site);
            if (!added)
                return added;
            index = added.value();
            Wire wire;
            wire.host = owner;
            if (site.isHost())
                wire.txBuffer = owner->machine().os().allocRegion(
                    config_.maxMessageBytes + kWireHeaderBytes);
            wires_.push_back(wire);
            // Re-lay the pair counters for one more endpoint.
            const std::size_t n = wires_.size();
            std::vector<std::uint64_t> seqs(2 * n * n, 0);
            for (std::size_t f = 0; f + 1 < n; ++f)
                for (std::size_t t = 0; t + 1 < n; ++t)
                    for (std::size_t k = 0; k < 2; ++k)
                        seqs[pairIndex(f, t, n) + k] =
                            seqs_[pairIndex(f, t, n - 1) + k];
            seqs_ = std::move(seqs);
        }
        // Outside the channel lock: route registration takes the
        // host's fabric lock, which delivery holds while calling back
        // into the channel — never nest the two in reverse order.
        registerRoutes();
        return index;
    }

  private:
    friend class Host;

    /** Per-endpoint wire state, parallel to endpoints_. */
    struct Wire
    {
        Host *host = nullptr;
        /** Host-side tx staging region (0 for device endpoints). */
        hw::Addr txBuffer = 0;
    };

    /**
     * Index of the (from, to) pair in seqs_ for @p n endpoints. The
     * pair's two counters share a cache line: the next sequence `from`
     * sends to `to`, then the frames `to` has received from `from`.
     */
    static std::size_t
    pairIndex(std::size_t from, std::size_t to, std::size_t n)
    {
        return 2 * (from * n + to);
    }

    /**
     * Register this channel's id on every endpoint host's fabric not
     * yet carrying it. Runs when the id binds and when an endpoint
     * attaches, never per write; before the id binds it is a no-op.
     */
    void
    registerRoutes()
    {
        if (id() == core::kInvalidChannel)
            return;
        std::vector<Host *> owners;
        {
            std::lock_guard<exec::EngineRecursiveMutex> lock(mutex_);
            for (const Wire &wire : wires_)
                if (std::find(routedHosts_.begin(), routedHosts_.end(),
                              wire.host) == routedHosts_.end()) {
                    routedHosts_.push_back(wire.host);
                    owners.push_back(wire.host);
                }
        }
        for (Host *host : owners)
            host->addRoute(id(), this);
    }

    /** Same-machine leg of a multicast: zero-copy in-memory enqueue
     * (deliberately no channel.payload_copies increment — that
     * counter counts copies performed, and this path performs none).
     * The channel is resolved by id at delivery time, so a stream
     * destroyed with this leg in flight is dropped, not dereferenced. */
    void
    sendLocalLeg(std::size_t from, std::size_t to, const Payload &message,
                 sim::SimTime sentAt)
    {
        if (endpoints_[from].site)
            endpoints_[from].site->run(kCosts.enqueueCycles);
        Host *owner = wires_[from].host;
        const core::ChannelId channel = id();
        owner->machine().executor().schedule(
            kCosts.localLatency,
            [owner, channel, from, to, message, sentAt]() {
                auto *resolved = static_cast<RemoteChannel *>(
                    owner->executive().findChannel(channel));
                if (!resolved)
                    return;
                resolved->deliverLocal(to, from, message, sentAt);
            });
    }

    /** Cross-machine leg: ONE copy into the wire frame, then the
     * sender host's NIC (host path: DMA crossing; device path: pure
     * firmware) puts it on the fabric. */
    void
    sendWireLeg(std::size_t from, std::size_t to, const Payload &message,
                sim::SimTime sentAt)
    {
        Wire &src = wires_[from];
        const std::uint64_t seq = seqs_[pairIndex(from, to, wires_.size())]++;

        const WireHeader header{id(), static_cast<std::uint32_t>(from),
                                static_cast<std::uint32_t>(to), seq,
                                static_cast<std::uint64_t>(sentAt)};
        PayloadBuilder builder;
        Bytes &frame = builder.buffer();
        frame.resize(kWireHeaderBytes + message.size());
        std::memcpy(frame.data(), &header, kWireHeaderBytes);
        if (!message.empty())
            std::memcpy(frame.data() + kWireHeaderBytes, message.data(),
                        message.size());
        remoteMetrics().wireCopies.increment();

        net::Packet packet;
        packet.dst = wires_[to].host->node();
        packet.dstPort = endpoints_[to].site->isHost() ? kFleetHostPort
                                                       : kFleetDevicePort;
        packet.srcPort = endpoints_[from].site->isHost()
                             ? kFleetHostPort
                             : kFleetDevicePort;
        packet.seq = seq;
        packet.payload = builder.seal();

        if (endpoints_[from].site)
            endpoints_[from].site->run(kCosts.txDescriptorCycles);
        Status sent = endpoints_[from].site->isHost()
                          ? src.host->nic().sendFromHost(
                                std::move(packet), src.txBuffer)
                          : src.host->nic().sendFromDevice(
                                std::move(packet));
        if (!sent) {
            remoteMetrics().dropped.increment();
            ++stats_.messagesDropped;
        }
    }

    void
    deliverLocal(std::size_t to, std::size_t from, const Payload &message,
                 sim::SimTime sentAt)
    {
        std::lock_guard<exec::EngineRecursiveMutex> lock(mutex_);
        if (closed_ || to >= endpoints_.size())
            return;
        deliverBatchTo(to, {&message, 1}, from, sentAt);
    }

    /** Inbound frame from @p host's fabric table (called with that
     * host's fabric lock held — see Host::onFabric). A frame naming
     * an endpoint that does not exist or does not live on @p host is
     * dropped as malformed, never delivered elsewhere. */
    void
    deliverWire(const Host &host, const WireHeader &header,
                const Payload &body)
    {
        std::lock_guard<exec::EngineRecursiveMutex> lock(mutex_);
        if (closed_)
            return;
        const std::size_t to = header.to;
        const std::size_t from = header.from;
        if (to >= endpoints_.size() || from >= endpoints_.size() ||
            to == from || wires_[to].host != &host) {
            countMalformedFrame();
            return;
        }
        std::uint64_t &seen = seqs_[pairIndex(from, to, wires_.size()) + 1];
        if (header.seq != seen)
            remoteMetrics().seqGaps.increment();
        seen = header.seq + 1;
        if (endpoints_[to].site)
            endpoints_[to].site->run(kCosts.rxDescriptorCycles);
        deliverBatchTo(to, {&body, 1}, from,
                       static_cast<sim::SimTime>(header.sentAt));
    }

    Fleet &fleet_;
    Host &home_;
    std::size_t wireLimit_;
    exec::EngineRecursiveMutex mutex_;
    std::vector<Wire> wires_;
    /** Per-(from, to) sequence counters, laid out by pairIndex(). */
    std::vector<std::uint64_t> seqs_;
    /** Hosts whose fabric tables carry our id (dtor unregisters). */
    std::vector<Host *> routedHosts_;
};

namespace {

/** Serves cross-machine channel pairs between fleet members. */
class RemoteChannelProvider : public core::ChannelProvider
{
  public:
    RemoteChannelProvider(Fleet &fleet, Host &home)
        : fleet_(fleet), home_(home)
    {
    }

    const std::string &name() const override { return name_; }

    bool
    canServe(const core::ChannelConfig &config,
             core::ExecutionSite &creator,
             core::ExecutionSite *target) const override
    {
        (void)config;
        if (!target)
            return false; // a connectionless channel stays local
        if (&creator.machine() == &target->machine())
            return false; // intra-host belongs to local/dma-ring
        return fleet_.hostOf(creator.machine()) != nullptr &&
               fleet_.hostOf(target->machine()) != nullptr;
    }

    core::ChannelCost
    estimateCost(const core::ChannelConfig &config,
                 core::ExecutionSite &creator,
                 core::ExecutionSite *target,
                 std::size_t bytes) const override
    {
        (void)config;
        (void)creator;
        (void)target;
        const net::NetworkConfig &net = fleet_.config().network;
        core::ChannelCost cost;
        // Uplink + downlink serialization, propagation both ways, the
        // switch, and the DMA/firmware/interrupt overheads on both
        // ends (~6 us on the modeled gigabit testbed).
        cost.perMessageLatency =
            2 * sim::transferTime(bytes + kWireHeaderBytes + 42,
                                  net.linkGbps) +
            2 * net.linkLatency + net.switchLatency +
            sim::microseconds(6);
        cost.throughputGbps = net.linkGbps;
        return cost;
    }

    std::unique_ptr<core::Channel>
    create(const core::ChannelConfig &config,
           core::ExecutionSite &creator) override
    {
        auto channel =
            std::make_unique<RemoteChannel>(config, fleet_, home_);
        channel->connectCreator(creator);
        return channel;
    }

  private:
    Fleet &fleet_;
    Host &home_;
    std::string name_ = "remote";
};

} // namespace

RemoteChannel *
RouteTable::find(core::ChannelId id) const
{
    if (slots_.empty() || id == core::kInvalidChannel)
        return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(id);; i = (i + 1) & mask) {
        if (slots_[i].id == id)
            return slots_[i].channel;
        if (slots_[i].id == core::kInvalidChannel)
            return nullptr;
    }
}

void
RouteTable::insert(core::ChannelId id, RemoteChannel *channel)
{
    if (id == core::kInvalidChannel)
        return;
    if ((used_ + 1) * 2 > slots_.size())
        grow(); // load factor <= 1/2 keeps probe runs short
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(id);; i = (i + 1) & mask) {
        if (slots_[i].id == id) {
            slots_[i].channel = channel;
            return;
        }
        if (slots_[i].id == core::kInvalidChannel) {
            slots_[i] = Slot{id, channel};
            ++used_;
            return;
        }
    }
}

void
RouteTable::erase(core::ChannelId id)
{
    if (slots_.empty() || id == core::kInvalidChannel)
        return;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = home(id);
    while (slots_[hole].id != id) {
        if (slots_[hole].id == core::kInvalidChannel)
            return; // absent
        hole = (hole + 1) & mask;
    }
    // Backward shift: pull later entries of the probe run into the
    // hole unless that would move them before their home slot.
    for (std::size_t next = (hole + 1) & mask;
         slots_[next].id != core::kInvalidChannel;
         next = (next + 1) & mask) {
        const std::size_t want = home(slots_[next].id);
        const bool movable = hole <= next ? (want <= hole || want > next)
                                          : (want <= hole && want > next);
        if (movable) {
            slots_[hole] = slots_[next];
            hole = next;
        }
    }
    slots_[hole] = Slot{};
    --used_;
}

void
RouteTable::grow()
{
    std::vector<Slot> old = std::move(slots_);
    const std::size_t capacity = old.empty() ? 16 : old.size() * 2;
    slots_.assign(capacity, Slot{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    used_ = 0;
    for (const Slot &slot : old)
        if (slot.id != core::kInvalidChannel)
            insert(slot.id, slot.channel);
}

Host::Host(exec::Executor &executor, net::Network &network,
           const FleetConfig &config, std::size_t index)
    : exec_(executor), index_(index),
      name_("host" + std::to_string(index)), fabricMutex_(executor)
{
    hw::MachineConfig machineConfig = config.machine;
    machineConfig.name = name_;
    machineConfig.noiseSeed = config.seed * 1000003 + index * 131 + 1;
    if (config.quietHosts) {
        machineConfig.os.wakeupNoiseSigma = 0;
        machineConfig.os.preemptionProbability = 0.0;
        machineConfig.os.housekeepingJitterSigma = 0;
    }
    machine_ = std::make_unique<hw::Machine>(exec_, machineConfig);
    if (config.backgroundLoad)
        machine_->os().startBackgroundLoad();

    node_ = network.addNode(name_ + "-nic");
    dev::DeviceConfig nicConfig = dev::ProgrammableNic::nicDefaultConfig();
    nicConfig.name = name_ + "-nic";
    nicConfig.noiseSeed = machineConfig.noiseSeed + 7;
    nic_ = std::make_unique<dev::ProgrammableNic>(
        exec_, machine_->bus(), network, node_, nicConfig,
        config.nicCosts);

    runtime_ = std::make_unique<core::Runtime>(*machine_, config.runtime);
    Status attached = runtime_->attachDevice(*nic_);
    if (!attached) {
        LOG_DEBUG << name_
                  << ": nic attach failed: " << attached.error().describe();
    }

    driverSite_ = exec_.addSite(name_ + ".driver", name_);

    // Fabric demux: ONE device-path port and ONE host-path port per
    // host; frames carry the ChannelId, so stream count is unbounded
    // by the 16-bit port space.
    fabricRxBuffer_ = machine_->os().allocRegion(64 * 1024);
    nic_->bindDevicePort(kFleetDevicePort, [this](const net::Packet &p) {
        onFabric(p);
    });
    nic_->bindHostPort(kFleetHostPort, machine_->os(), fabricRxBuffer_,
                       [this](const net::Packet &p) { onFabric(p); });
}

Host::~Host()
{
    nic_->unbindPort(kFleetDevicePort);
    nic_->unbindPort(kFleetHostPort);
}

std::uint64_t
Host::orphanFrames() const
{
    std::lock_guard<exec::EngineMutex> lock(fabricMutex_);
    return orphans_;
}

void
Host::addRoute(core::ChannelId id, RemoteChannel *channel)
{
    std::lock_guard<exec::EngineMutex> lock(fabricMutex_);
    routes_.insert(id, channel);
}

void
Host::removeRoute(core::ChannelId id)
{
    std::lock_guard<exec::EngineMutex> lock(fabricMutex_);
    routes_.erase(id);
}

void
Host::onFabric(const net::Packet &packet)
{
    const Payload &frame = packet.payload;
    if (frame.size() < kWireHeaderBytes) {
        countMalformedFrame();
        LOG_DEBUG << name_ << ": malformed fleet frame (" << frame.size()
                  << " bytes)";
        return;
    }
    WireHeader header;
    std::memcpy(&header, frame.data(), kWireHeaderBytes);
    const Payload body =
        frame.slice(kWireHeaderBytes, frame.size() - kWireHeaderBytes);

    // Route under the fabric lock and deliver while still holding it:
    // a concurrent destroyChannel blocks in removeRoute until we are
    // done, so the channel cannot be freed under us.
    std::lock_guard<exec::EngineMutex> lock(fabricMutex_);
    RemoteChannel *channel = routes_.find(header.channel);
    if (!channel) {
        ++orphans_;
        remoteMetrics().orphans.increment();
        return;
    }
    channel->deliverWire(*this, header, body);
}

Fleet::Fleet(exec::Executor &executor, FleetConfig config)
    : exec_(executor), config_(std::move(config))
{
    net_ = std::make_unique<net::Network>(exec_, config_.network);
    const std::size_t count = config_.hosts ? config_.hosts : 1;
    hosts_.reserve(count);
    std::vector<std::string> names;
    for (std::size_t i = 0; i < count; ++i) {
        hosts_.push_back(
            std::make_unique<Host>(exec_, *net_, config_, i));
        names.push_back(hosts_.back()->name());
    }
    ring_.rebuild(names, config_.vnodesPerHost);

    // Stitch the shards: cross-host name resolution plus the remote
    // provider, per host.
    for (auto &host : hosts_) {
        host->executive().setRemoteSiteLookup(
            [this](const std::string &name) { return findSite(name); });
        host->executive().registerProvider(
            std::make_unique<RemoteChannelProvider>(*this, *host));
    }
}

Fleet::~Fleet()
{
    // Tear every shard's channels down while all hosts still exist: a
    // remote channel removes its id from each endpoint host's route
    // table as it dies, and a host destroyed first would leave it
    // erasing from freed memory.
    for (auto &host : hosts_)
        host->runtime_.reset();
}

Host *
Fleet::hostByName(std::string_view name)
{
    for (auto &host : hosts_)
        if (host->name() == name)
            return host.get();
    return nullptr;
}

Host *
Fleet::hostOf(const hw::Machine &machine)
{
    for (auto &host : hosts_)
        if (&host->machine() == &machine)
            return host.get();
    return nullptr;
}

Host &
Fleet::homeOf(std::string_view key)
{
    Host *host = hostByName(ring_.hostFor(key));
    return host ? *host : *hosts_.front();
}

core::ExecutionSite *
Fleet::findSite(const std::string &name)
{
    if (name == "host")
        return nullptr; // the generic alias never crosses hosts
    for (auto &host : hosts_)
        if (core::ExecutionSite *site = host->runtime().siteByName(name))
            return site;
    return nullptr;
}

} // namespace hydra::fleet
