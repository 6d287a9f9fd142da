#include "fleet/loadgen.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <memory>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"

namespace hydra::fleet {

namespace {

static_assert(std::endian::native == std::endian::little,
              "messages carry their write time little-endian");

/** One long-lived stream: a channel homed by the placement ring. */
struct Stream
{
    std::string key;
    Host *home = nullptr;
    Host *target = nullptr;
    core::Channel *channel = nullptr;
    core::ChannelId id = core::kInvalidChannel;
};

/** Shared run state the pacer, drivers, and handlers touch. */
struct RunState
{
    Fleet &fleet;
    const LoadgenConfig &config;
    obs::LatencyHistogram &latency;
    std::vector<Stream> streams;
    /** streams index lists, partitioned by home host. */
    std::vector<std::vector<std::size_t>> byHome;
    /** Deliveries counted at the receiving host (atomic: handlers
     * fire on the coordinator while drivers churn). */
    std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> delivered;
    std::atomic<std::uint64_t> churned{0};
    std::atomic<std::uint64_t> writeFailures{0};
    /** Per stream: some write succeeded. Bytes beside, not inside,
     * Stream keep it one cache line; only the home driver writes one. */
    std::vector<std::uint8_t> wrote;
};

Host &
pickTarget(Fleet &fleet, const LoadgenConfig &config, Host &home,
           const std::string &key)
{
    const std::size_t n = fleet.hostCount();
    if (n < 2)
        return home;
    if (config.remoteOnly || config.useDrivers) {
        // Deterministic cross-host peer, never the home itself.
        const std::uint64_t hash = placementHash(key + "#peer");
        return fleet.host((home.index() + 1 + hash % (n - 1)) % n);
    }
    return fleet.homeOf(key + "#peer");
}

/** Create (or re-create, under churn) one stream's channel. */
bool
buildStream(RunState &state, Stream &stream)
{
    core::ChannelConfig config;
    config.name = state.config.channelName;
    config.targetDevice = stream.target->nic().name();

    auto created = stream.home->executive().createChannel(
        config, stream.home->runtime().hostSite(),
        state.config.messageBytes);
    if (!created) {
        LOG_DEBUG << "loadgen: create failed for " << stream.key << ": "
                  << created.error().describe();
        return false;
    }
    stream.channel = created.value();
    stream.id = stream.channel->id();

    core::ExecutionSite *site =
        stream.target->runtime().siteByName(config.targetDevice);
    if (!site)
        return false;
    auto endpoint = stream.channel->connectSite(*site);
    if (!endpoint)
        return false;

    exec::Executor &executor = state.fleet.executor();
    obs::LatencyHistogram &latency = state.latency;
    std::atomic<std::uint64_t> *count =
        state.delivered[stream.target->index()].get();
    stream.channel->installHandler(
        endpoint.value(),
        [&executor, &latency, count](const Payload &message, std::size_t) {
            std::uint64_t stamp = 0;
            if (message.size() >= sizeof(stamp)) {
                std::memcpy(&stamp, message.data(), sizeof(stamp));
                latency.record(executor.now() -
                               static_cast<sim::SimTime>(stamp));
            }
            count->fetch_add(1, std::memory_order_relaxed);
        });
    return true;
}

void
writeOne(RunState &state, Stream &stream)
{
    if (!stream.channel)
        return;
    // The write time, little-endian, then zero padding.
    const auto stamp =
        static_cast<std::uint64_t>(state.fleet.executor().now());
    PayloadBuilder builder;
    Bytes &buffer = builder.buffer();
    buffer.resize(std::max(sizeof(stamp), state.config.messageBytes));
    std::memcpy(buffer.data(), &stamp, sizeof(stamp));
    Status written = stream.channel->write(builder.seal());
    if (!written) {
        state.writeFailures.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    std::uint8_t &wrote = state.wrote[&stream - state.streams.data()];
    if (!wrote)
        wrote = 1; // test first: no store per write
}

/** Destroy + recreate one stream (the churn path). */
void
churnOne(RunState &state, Stream &stream)
{
    if (stream.channel) {
        Status destroyed =
            stream.home->executive().destroyChannel(stream.id);
        if (!destroyed) {
            LOG_DEBUG << "loadgen: destroy failed for " << stream.key;
        }
        stream.channel = nullptr;
        stream.id = core::kInvalidChannel;
    }
    if (buildStream(state, stream))
        state.churned.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

LoadgenReport
runOpenLoop(Fleet &fleet, const LoadgenConfig &config)
{
    exec::Executor &executor = fleet.executor();
    LoadgenReport report;
    report.hosts = fleet.hostCount();
    report.streams = config.streams;
    if (config.streams == 0 || fleet.hostCount() == 0)
        return report;

    if (config.resetMetrics)
        obs::MetricsRegistry::instance().reset();

    RunState state{fleet, config,
                   obs::histogram("fleet.delivery_ns"),
                   {}, {}, {}, {}, {}, {}};
    state.streams.resize(config.streams);
    state.wrote.assign(config.streams, 0);
    state.byHome.resize(fleet.hostCount());
    for (std::size_t h = 0; h < fleet.hostCount(); ++h)
        state.delivered.push_back(
            std::make_unique<std::atomic<std::uint64_t>>(0));

    const std::uint64_t latencyBase = state.latency.summary().count;
    auto &registry = obs::MetricsRegistry::instance();
    const std::uint64_t wireBase = registry.counterValue(
        "channel.payload_copies", {{"buffering", "wire"}});
    const std::uint64_t zeroBase = registry.counterValue(
        "channel.payload_copies", {{"buffering", "zero-copy"}});
    std::vector<std::uint64_t> busyBase(fleet.hostCount(), 0);

    // --- stand up the streams ---
    for (std::size_t i = 0; i < config.streams; ++i) {
        Stream &stream = state.streams[i];
        stream.key = "stream/" + std::to_string(i);
        stream.home = &fleet.homeOf(stream.key);
        stream.target =
            &pickTarget(fleet, config, *stream.home, stream.key);
        if (buildStream(state, stream)) {
            if (stream.home == stream.target)
                ++report.localStreams;
            else
                ++report.remoteStreams;
        }
        state.byHome[stream.home->index()].push_back(i);
    }
    executor.drain();

    // Baseline per-host busy AFTER setup so the report measures the
    // steady state, not channel bring-up.
    obs::CpuAttribution::instance().sync(executor.now());
    const auto busyOf = [&](Host &host) {
        const obs::Labels hostCpu{{"site", host.name() + ".host"},
                                  {"host", host.name()}};
        const obs::Labels nicCpu{{"site", host.nic().name()},
                                 {"host", host.name()}};
        return registry.counterValue("exec.site_busy_ns", hostCpu) +
               registry.counterValue("exec.site_busy_ns", nicCpu);
    };
    for (std::size_t h = 0; h < fleet.hostCount(); ++h)
        busyBase[h] = busyOf(fleet.host(h));

    // --- open-loop pacer ---
    const sim::SimTime start = executor.now();
    const sim::SimTime end = start + config.duration;
    std::uint64_t issued = 0;
    std::size_t cursor = 0;
    std::vector<std::size_t> churnCursor(fleet.hostCount(), 0);
    std::size_t churnHost = 0;

    executor.schedulePeriodic(config.tick, [&]() -> bool {
        const sim::SimTime now = executor.now();
        if (now >= end)
            return false;
        const double elapsedSec =
            static_cast<double>(now - start) / 1e9;
        const auto target = static_cast<std::uint64_t>(
            config.offeredMsgsPerSec * elapsedSec);
        std::uint64_t due = target > issued ? target - issued : 0;

        if (!config.useDrivers) {
            for (std::uint64_t k = 0; k < due; ++k) {
                Stream &stream =
                    state.streams[cursor++ % state.streams.size()];
                writeOne(state, stream);
            }
            for (std::size_t c = 0; c < config.churnPerTick; ++c) {
                Stream &stream =
                    state.streams[cursor++ % state.streams.size()];
                churnOne(state, stream);
            }
            issued += due;
            return true;
        }

        // Driver mode: partition this tick's writes (and churn) by
        // home host and hand each host's slice to its driver site in
        // one post. Per-host single-writer: a stream is only ever
        // touched by its home driver.
        //
        // Churn rotates across hosts rather than dividing: with
        // churnPerTick < hostCount a proportional share would floor
        // to zero everywhere and no churn would ever happen.
        std::vector<std::size_t> churnByHost(fleet.hostCount(), 0);
        for (std::size_t c = 0; c < config.churnPerTick; ++c) {
            do {
                churnHost = (churnHost + 1) % fleet.hostCount();
            } while (state.byHome[churnHost].empty());
            ++churnByHost[churnHost];
        }
        for (std::size_t h = 0; h < fleet.hostCount(); ++h) {
            const std::vector<std::size_t> &homed = state.byHome[h];
            if (homed.empty())
                continue;
            const std::uint64_t share =
                due * homed.size() / state.streams.size();
            const std::size_t churnShare = churnByHost[h];
            if (share == 0 && churnShare == 0)
                continue;
            issued += share;
            std::size_t &hostCursor = churnCursor[h];
            const std::size_t begin = hostCursor;
            hostCursor += share + churnShare;
            executor.post(
                fleet.host(h).driverSite(),
                [&state, &homed, begin, share, churnShare]() {
                    for (std::uint64_t k = 0; k < share; ++k)
                        writeOne(state,
                                 state.streams[homed[(begin + k) %
                                                     homed.size()]]);
                    for (std::size_t c = 0; c < churnShare; ++c)
                        churnOne(
                            state,
                            state.streams[homed[(begin + share + c) %
                                                homed.size()]]);
                });
        }
        return true;
    });

    const auto wallStart = std::chrono::steady_clock::now();
    executor.runUntil(end + config.drain);
    executor.drain();
    const auto wallEnd = std::chrono::steady_clock::now();

    // --- collect ---
    obs::CpuAttribution::instance().sync(executor.now());
    report.offered = issued;
    report.churned = state.churned.load(std::memory_order_relaxed);
    report.elapsed = config.duration;
    const obs::HistogramSummary all = state.latency.summary();
    report.latency = all;
    report.latency.count = all.count - latencyBase;
    report.wireCopies = registry.counterValue("channel.payload_copies",
                                              {{"buffering", "wire"}}) -
                        wireBase;
    report.zeroCopies =
        registry.counterValue("channel.payload_copies",
                              {{"buffering", "zero-copy"}}) -
        zeroBase;
    for (std::size_t h = 0; h < fleet.hostCount(); ++h) {
        Host &host = fleet.host(h);
        LoadgenHostReport slice;
        slice.host = host.name();
        slice.streamsHomed = state.byHome[h].size();
        slice.delivered =
            state.delivered[h]->load(std::memory_order_relaxed);
        slice.busyNs = busyOf(host) - busyBase[h];
        report.delivered += slice.delivered;
        report.perHost.push_back(std::move(slice));
    }
    report.deliveredPerVirtualSec =
        static_cast<double>(report.delivered) /
        (static_cast<double>(config.duration) / 1e9);
    report.writeFailures =
        state.writeFailures.load(std::memory_order_relaxed);
    report.activeStreams = static_cast<std::size_t>(
        std::count(state.wrote.begin(), state.wrote.end(), 1));
    report.wallMs = std::chrono::duration<double, std::milli>(
                        wallEnd - wallStart)
                        .count();

    // Tear the streams down before the handlers' run-local capture
    // state goes out of scope (the fleet may keep running after us).
    for (Stream &stream : state.streams)
        if (stream.channel)
            stream.home->executive().destroyChannel(stream.id);
    executor.drain();
    return report;
}

} // namespace hydra::fleet
