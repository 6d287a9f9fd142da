/**
 * @file
 * Wall-clock microbenchmarks (google-benchmark) of the framework's
 * hot primitives: event dispatch, Call marshaling, RLE codec, XML
 * parsing, cache-model accesses, and the branch-and-bound solver.
 * These guard the simulator's own performance — a 10-minute
 * evaluation run replays ~10^7 events.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <vector>

#include "core/call.hh"
#include "core/executive.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"
#include "core/offcode.hh"
#include "core/providers.hh"
#include "dev/nic.hh"
#include "hw/cache.hh"
#include "hw/machine.hh"
#include "ilp/layout.hh"
#include "net/network.hh"
#include "obs/histogram.hh"
#include "obs/metrics.hh"
#include "odf/odf.hh"
#include "exec/sim_executor.hh"
#include "exec/threaded_executor.hh"
#include "tivo/mpeg.hh"

namespace {

using namespace hydra;

void
BM_SimulatorDispatch(benchmark::State &state)
{
    for (auto _ : state) {
        exec::SimExecutor sim;
        int counter = 0;
        for (int i = 0; i < 1000; ++i)
            sim.schedule(static_cast<sim::SimTime>(i), [&]() { ++counter; });
        sim.runToCompletion();
        benchmark::DoNotOptimize(counter);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorDispatch);

void
BM_CallRoundTrip(benchmark::State &state)
{
    core::Call call;
    call.targetOffcode = Guid(1);
    call.interfaceGuid = Guid(2);
    call.method = "Decode";
    call.arguments.assign(static_cast<std::size_t>(state.range(0)), 7);
    for (auto _ : state) {
        const Payload wire = call.serialize();
        auto decoded = core::Call::deserialize(wire);
        benchmark::DoNotOptimize(decoded);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CallRoundTrip)->Arg(64)->Arg(1024)->Arg(16384);

void
BM_MpegEncodeDecode(benchmark::State &state)
{
    tivo::MpegConfig config;
    tivo::SyntheticVideo source(config, 42);
    std::uint32_t seq = 0;
    tivo::MpegEncoder encoder(config);
    tivo::MpegDecoder decoder;
    for (auto _ : state) {
        auto encoded = encoder.encode(source.frame(seq++));
        auto raw = decoder.decode(encoded.value());
        benchmark::DoNotOptimize(raw);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpegEncodeDecode);

void
BM_XmlParseOdf(benchmark::State &state)
{
    const std::string xml = R"(<offcode>
      <package><bindname>bench.Offcode</bindname>
        <interface name="I"><method name="m1"/><method name="m2"/>
        </interface></package>
      <sw-env><import><bindname>peer</bindname>
        <reference type="Pull" pri="1"/></import>
        <requires memory="65536"><capability name="dma"/></requires>
      </sw-env>
      <targets><device-class id="0x0001"><name>NIC</name></device-class>
        <host-fallback/></targets>
      <price bus="0.2"/></offcode>)";
    for (auto _ : state) {
        auto doc = odf::OdfDocument::parse(xml);
        benchmark::DoNotOptimize(doc);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XmlParseOdf);

void
BM_CacheAccess(benchmark::State &state)
{
    hw::CacheModel cache(256 * 1024, 64, 8);
    hw::Addr addr = 0;
    for (auto _ : state) {
        cache.access(addr, 64, false);
        addr = (addr + 4096) % (8 * 1024 * 1024);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

/**
 * Wall cost of simulating one idle host: per simulated millisecond,
 * one OS housekeeping tick (kernel hot-set re-touch plus the
 * background stream) on a warm L2. One item is one simulated ms.
 */
void
BM_IdleHostTick(benchmark::State &state)
{
    exec::SimExecutor sim;
    hw::Machine machine(sim, hw::MachineConfig{});
    machine.os().startBackgroundLoad();
    sim::SimTime until = sim::milliseconds(100); // warm the L2
    sim.runUntil(until);
    for (auto _ : state) {
        until += sim::milliseconds(1);
        sim.runUntil(until);
    }
    benchmark::DoNotOptimize(machine.l2().totals().misses);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IdleHostTick);

void
BM_IlpTivoLayout(benchmark::State &state)
{
    ilp::LayoutSpec spec;
    spec.numOffcodes = 6;
    spec.numDevices = 4;
    spec.compatible = {
        {true, false, false, false}, {true, true, false, false},
        {true, false, true, false},  {true, true, false, true},
        {true, false, false, true},  {true, false, true, false},
    };
    spec.edges = {{1, 3, ilp::LayoutConstraint::Gang},
                  {1, 2, ilp::LayoutConstraint::Gang},
                  {3, 4, ilp::LayoutConstraint::Pull},
                  {2, 5, ilp::LayoutConstraint::Pull}};
    for (auto _ : state) {
        auto solution = ilp::solveLayout(spec);
        benchmark::DoNotOptimize(solution);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IlpTivoLayout);

// ------------------------------------------------- telemetry hot path

/**
 * Cost of one Histogram::record() — the price every instrumented
 * delivery/dispatch site pays. The value stream cycles through a
 * precomputed table spanning all octaves so the bucket-index math
 * (bit_width + shift) sees realistic inputs, while the per-iteration
 * overhead beyond record() stays at one load and a mask. Gated by
 * scripts/check.sh --bench-smoke at HYDRA_HIST_RECORD_NS_MAX.
 */
void
BM_HistogramRecord(benchmark::State &state)
{
    obs::Histogram h;
    std::uint64_t values[1024];
    std::uint64_t seed = 0x2545f4914f6cdd1dull;
    for (std::uint64_t &v : values) {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        v = seed >> (seed % 48); // spread across the octave range
    }
    std::size_t i = 0;
    for (auto _ : state) {
        h.record(values[i++ & 1023]);
    }
    benchmark::DoNotOptimize(h.count());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

// --------------------------------------------------- channel data path

/** Discards deliveries; the channel machinery is what's measured. */
class SinkOffcode : public core::Offcode
{
  public:
    SinkOffcode() : Offcode("bench.Sink") {}

    void
    onData(const Payload &payload, core::ChannelHandle) override
    {
        received += 1;
        receivedBytes += payload.size();
    }

    std::uint64_t received = 0;
    std::uint64_t receivedBytes = 0;
};

/** Minimal simulated machine + NIC + executive for channel benches. */
struct ChannelBenchWorld
{
    ChannelBenchWorld()
        : machine(sim, hw::MachineConfig{}),
          net(sim, net::NetworkConfig{}),
          hostSite(machine)
    {
        nicNode = net.addNode("nic");
        nic = std::make_unique<dev::ProgrammableNic>(sim, machine.bus(),
                                                     net, nicNode);
        deviceSite = std::make_unique<core::DeviceSite>(machine, *nic);
        executive = std::make_unique<core::ChannelExecutive>(
            [this](const std::string &name) -> core::ExecutionSite * {
                if (name == hostSite.name())
                    return &hostSite;
                if (name == deviceSite->name())
                    return deviceSite.get();
                return nullptr;
            });
        executive->registerProvider(
            std::make_unique<core::LocalChannelProvider>(sim));
        executive->registerProvider(
            std::make_unique<core::DmaRingChannelProvider>(sim, false));
    }

    void
    place(core::Offcode &offcode, core::ExecutionSite &site)
    {
        core::OffcodeContext ctx;
        ctx.site = &site;
        offcode.doInitialize(ctx);
        offcode.doStart();
    }

    exec::SimExecutor sim;
    hw::Machine machine;
    net::Network net;
    net::NodeId nicNode = 0;
    std::unique_ptr<dev::ProgrammableNic> nic;
    core::HostSite hostSite;
    std::unique_ptr<core::DeviceSite> deviceSite;
    std::unique_ptr<core::ChannelExecutive> executive;
};

void
BM_ChannelThroughput(benchmark::State &state)
{
    const auto messageBytes = static_cast<std::size_t>(state.range(0));
    const bool dma = state.range(1) != 0;
    const bool copying = state.range(2) != 0;
    const bool hist = state.range(3) != 0;

    ChannelBenchWorld world;
    SinkOffcode sink;
    world.place(sink, dma ? static_cast<core::ExecutionSite &>(
                                *world.deviceSite)
                          : world.hostSite);

    core::ChannelConfig config;
    // hist:1 names the channel so every delivery records into the
    // per-channel latency histogram; hist:0 leaves it anonymous. The
    // pair isolates the telemetry overhead within one run, immune to
    // machine drift between sessions (gated by bench_gate.py).
    if (hist)
        config.name = "bench.sink";
    config.targetDevice =
        dma ? world.deviceSite->name() : world.hostSite.name();
    config.buffering = copying ? core::ChannelConfig::Buffering::Copying
                               : core::ChannelConfig::Buffering::ZeroCopy;
    config.reliable = true;
    auto channel = world.executive->createChannel(config, world.hostSite);
    channel.value()->connectOffcode(sink);

    const auto message = core::encodeData(Bytes(messageBytes, 0x5a));
    constexpr int kBatch = 64;
    for (auto _ : state) {
        for (int i = 0; i < kBatch; ++i)
            channel.value()->write(message);
        world.sim.runToCompletion();
    }
    benchmark::DoNotOptimize(sink.received);
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.SetBytesProcessed(state.iterations() * kBatch *
                            static_cast<std::int64_t>(messageBytes));
}
BENCHMARK(BM_ChannelThroughput)
    ->ArgNames({"bytes", "dma", "copying", "hist"})
    ->Args({64, 0, 0, 0})
    ->Args({64, 0, 0, 1})
    ->Args({64, 0, 1, 0})
    ->Args({64, 0, 1, 1})
    ->Args({16384, 0, 0, 0})
    ->Args({16384, 0, 0, 1})
    ->Args({16384, 0, 1, 0})
    ->Args({16384, 0, 1, 1})
    ->Args({64, 1, 0, 0})
    ->Args({64, 1, 0, 1})
    ->Args({64, 1, 1, 0})
    ->Args({64, 1, 1, 1})
    ->Args({16384, 1, 0, 0})
    ->Args({16384, 1, 0, 1})
    ->Args({16384, 1, 1, 0})
    ->Args({16384, 1, 1, 1});

/**
 * Batched channel writes: the same 64-message burst as
 * BM_ChannelThroughput, but issued through ONE writeBatch() call per
 * iteration — one transport visit, one clock resolve, one scheduled
 * delivery event (local) or one DMA descriptor chain (ring) for the
 * whole burst. The unbatched rows above are the baseline pair.
 */
void
BM_ChannelBatchThroughput(benchmark::State &state)
{
    const auto messageBytes = static_cast<std::size_t>(state.range(0));
    const bool dma = state.range(1) != 0;

    ChannelBenchWorld world;
    SinkOffcode sink;
    world.place(sink, dma ? static_cast<core::ExecutionSite &>(
                                *world.deviceSite)
                          : world.hostSite);

    core::ChannelConfig config;
    config.targetDevice =
        dma ? world.deviceSite->name() : world.hostSite.name();
    config.reliable = true;
    auto channel = world.executive->createChannel(config, world.hostSite);
    channel.value()->connectOffcode(sink);

    const auto message = core::encodeData(Bytes(messageBytes, 0x5a));
    constexpr int kBatch = 64;
    std::vector<Payload> batch;
    for (auto _ : state) {
        batch.assign(static_cast<std::size_t>(kBatch), message);
        channel.value()->writeBatch(std::move(batch));
        world.sim.runToCompletion();
    }
    benchmark::DoNotOptimize(sink.received);
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.SetBytesProcessed(state.iterations() * kBatch *
                            static_cast<std::int64_t>(messageBytes));
}
BENCHMARK(BM_ChannelBatchThroughput)
    ->ArgNames({"bytes", "dma"})
    ->Args({64, 0})
    ->Args({16384, 0})
    ->Args({64, 1})
    ->Args({16384, 1});

/**
 * Low-load delivery latency, batched vs unbatched write, measured in
 * VIRTUAL time: one message in flight at a time, so there is no
 * backlog for batching to exploit — the adaptivity invariant says the
 * batched path must then cost nothing extra. Each variant records
 * into its own named channel histogram and exports the virtual-time
 * p99 as the `p99_ns` counter; bench_gate.py pairs batched:1 against
 * batched:0 (budget 1.05). A single write() is a batch of one, so both
 * variants run the one writeBatchFrom() path and the ratio is exactly
 * 1.0 by construction — the gate exists to catch a future regression
 * that gives the two a different hop again.
 */
void
BM_ChannelLowLoad(benchmark::State &state)
{
    const bool batched = state.range(0) != 0;

    ChannelBenchWorld world;
    SinkOffcode sink;
    world.place(sink, world.hostSite);

    core::ChannelConfig config;
    config.name = batched ? "bench.lowload.batched"
                          : "bench.lowload.unbatched";
    config.targetDevice = world.hostSite.name();
    config.reliable = true;
    auto channel = world.executive->createChannel(config, world.hostSite);
    channel.value()->connectOffcode(sink);

    const auto message = core::encodeData(Bytes(64, 0x5a));
    std::vector<Payload> one;
    for (auto _ : state) {
        if (batched) {
            one.assign(1, message);
            channel.value()->writeBatch(std::move(one));
        } else {
            channel.value()->write(message);
        }
        world.sim.runToCompletion();
    }
    benchmark::DoNotOptimize(sink.received);
    state.SetItemsProcessed(state.iterations());
    state.counters["p99_ns"] = benchmark::Counter(
        obs::histogram("channel.delivery_latency_ns",
                       {{"channel", config.name},
                        {"host", world.machine.name()}})
            .percentile(99.0));
}
BENCHMARK(BM_ChannelLowLoad)
    ->ArgNames({"batched"})
    ->Arg(0)
    ->Arg(1);

void
BM_MulticastFanout(benchmark::State &state)
{
    const auto messageBytes = static_cast<std::size_t>(state.range(0));
    constexpr int kEndpoints = 8;

    ChannelBenchWorld world;
    core::ChannelConfig config;
    config.type = core::ChannelConfig::Type::Multicast;
    config.targetDevice = world.deviceSite->name();
    config.reliable = true;
    auto channel = world.executive->createChannel(config, world.hostSite);

    std::vector<std::unique_ptr<SinkOffcode>> sinks;
    for (int i = 0; i < kEndpoints; ++i) {
        sinks.push_back(std::make_unique<SinkOffcode>());
        world.place(*sinks.back(), *world.deviceSite);
        channel.value()->connectOffcode(*sinks.back());
    }

    const auto message = core::encodeData(Bytes(messageBytes, 0x5a));
    constexpr int kBatch = 16;
    for (auto _ : state) {
        for (int i = 0; i < kBatch; ++i)
            channel.value()->write(message);
        world.sim.runToCompletion();
    }
    benchmark::DoNotOptimize(sinks.front()->received);
    state.SetItemsProcessed(state.iterations() * kBatch * kEndpoints);
    state.SetBytesProcessed(state.iterations() * kBatch * kEndpoints *
                            static_cast<std::int64_t>(messageBytes));
}
BENCHMARK(BM_MulticastFanout)->Arg(64)->Arg(16384);

// ------------------------------------------------ executor pipelines

/**
 * TiVo-shaped stage pipeline over the executor's post() primitive:
 * each message is a refcounted Payload handed site-to-site
 * (NIC -> decode -> display in miniature), with a checksum per hop
 * standing in for stage work. Args: (sites, threaded). Under the sim
 * engine every hop is a zero-delay event through the global heap;
 * under the threaded engine each hop is an SPSC ring handoff to that
 * site's worker thread. The comparison (same site count, threaded=0
 * vs 1) isolates the per-hop dispatch cost of the two engines.
 */
struct BenchPipeline
{
    BenchPipeline(exec::Executor &engine_, int stages) : engine(engine_)
    {
        for (int i = 0; i < stages; ++i)
            sites.push_back(engine.addSite("stage-" + std::to_string(i)));
    }

    void
    stage(std::size_t index, Payload message)
    {
        // Constant-time stage work: touch the buffer ends so the
        // handoff is real (the bytes must be resident and shared),
        // without per-byte work masking the dispatch cost under test.
        benchmark::DoNotOptimize(message.data()[0] +
                                 message.data()[message.size() - 1]);
        if (index + 1 < sites.size()) {
            engine.post(sites[index + 1],
                        [this, index, m = std::move(message)]() mutable {
                            stage(index + 1, std::move(m));
                        });
        } else {
            processed.fetch_add(1, std::memory_order_relaxed);
        }
    }

    void
    feed(Payload message)
    {
        engine.post(sites[0],
                    [this, m = std::move(message)]() mutable {
                        stage(0, std::move(m));
                    });
    }

    exec::Executor &engine;
    std::vector<exec::SiteId> sites;
    std::atomic<std::uint64_t> processed{0};
};

void
BM_PipelineParallel(benchmark::State &state)
{
    const int stages = static_cast<int>(state.range(0));
    const bool threaded = state.range(1) != 0;

    std::unique_ptr<exec::Executor> engine;
    if (threaded) {
        exec::ThreadedExecutor::Config config;
        // A whole batch fits in each ring, so on few-core hosts the
        // producer enqueues a burst and each worker drains it in one
        // scheduling quantum instead of ping-ponging per message.
        config.ringCapacity = 4096;
        engine = std::make_unique<exec::ThreadedExecutor>(config);
    } else {
        engine = std::make_unique<exec::SimExecutor>();
    }
    BenchPipeline pipeline(*engine, stages);

    // Small control-plane sized message: keeps per-hop payload work
    // (the crc touch) minor so the measurement isolates dispatch cost.
    const Payload message{Bytes(64, 0x5a)};
    constexpr int kMessages = 1024;
    for (auto _ : state) {
        for (int i = 0; i < kMessages; ++i)
            pipeline.feed(message);
        engine->drain();
    }
    if (pipeline.processed.load() !=
        state.iterations() * static_cast<std::uint64_t>(kMessages))
        state.SkipWithError("pipeline lost messages");
    state.SetItemsProcessed(state.iterations() * kMessages);
    state.counters["hops"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * kMessages * stages,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineParallel)
    ->ArgNames({"sites", "threaded"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->UseRealTime();

/**
 * The batched hot path end to end: messages travel the same
 * site-to-site pipeline, but the handoff unit is a batch — the feeder
 * publishes every batch closure with ONE postBatch() (one ring index
 * store, at most one doorbell), and each hop forwards its whole batch
 * in one closure, the shape the channel layer's writeBatch()/
 * deliverBatchTo() produce. batch:1 degenerates to the per-message
 * pipeline (the unbatched baseline bench_gate.py pairs against);
 * items/s at sites=4 threaded=1 batch=64 versus BM_PipelineParallel
 * sites=4 threaded=1 is the headline ≥5x acceptance number.
 */
struct BatchPipeline
{
    BatchPipeline(exec::Executor &engine_, int stages) : engine(engine_)
    {
        for (int i = 0; i < stages; ++i)
            sites.push_back(engine.addSite("stage-" + std::to_string(i)));
    }

    void
    stage(std::size_t index, std::vector<Payload> batch)
    {
        for (const Payload &message : batch)
            benchmark::DoNotOptimize(
                message.data()[0] + message.data()[message.size() - 1]);
        if (index + 1 < sites.size()) {
            engine.post(sites[index + 1],
                        [this, index, b = std::move(batch)]() mutable {
                            stage(index + 1, std::move(b));
                        });
        } else {
            processed.fetch_add(batch.size(), std::memory_order_relaxed);
        }
    }

    void
    feedAll(const Payload &message, int total, int batchSize)
    {
        std::vector<exec::Executor::Callback> closures;
        closures.reserve(static_cast<std::size_t>(
            (total + batchSize - 1) / batchSize));
        for (int fed = 0; fed < total; fed += batchSize) {
            const int count = std::min(batchSize, total - fed);
            std::vector<Payload> batch(
                static_cast<std::size_t>(count), message);
            closures.push_back([this, b = std::move(batch)]() mutable {
                stage(0, std::move(b));
            });
        }
        engine.postBatch(sites[0], closures);
    }

    exec::Executor &engine;
    std::vector<exec::SiteId> sites;
    std::atomic<std::uint64_t> processed{0};
};

void
BM_BatchedPipeline(benchmark::State &state)
{
    const int stages = static_cast<int>(state.range(0));
    const bool threaded = state.range(1) != 0;
    const int batchSize = static_cast<int>(state.range(2));

    std::unique_ptr<exec::Executor> engine;
    if (threaded) {
        exec::ThreadedExecutor::Config config;
        config.ringCapacity = 4096;
        engine = std::make_unique<exec::ThreadedExecutor>(config);
    } else {
        engine = std::make_unique<exec::SimExecutor>();
    }
    BatchPipeline pipeline(*engine, stages);

    const Payload message{Bytes(64, 0x5a)};
    constexpr int kMessages = 1024;
    for (auto _ : state) {
        pipeline.feedAll(message, kMessages, batchSize);
        engine->drain();
    }
    if (pipeline.processed.load() !=
        state.iterations() * static_cast<std::uint64_t>(kMessages))
        state.SkipWithError("pipeline lost messages");
    state.SetItemsProcessed(state.iterations() * kMessages);
}
BENCHMARK(BM_BatchedPipeline)
    ->ArgNames({"sites", "threaded", "batch"})
    ->Args({4, 0, 1})
    ->Args({4, 0, 64})
    ->Args({2, 1, 64})
    ->Args({4, 1, 1})
    ->Args({4, 1, 64})
    ->UseRealTime();

/**
 * Fleet smoke: a saturating open-loop run on 1 vs 4 hosts. real_time
 * guards the wall-clock cost of simulating a fleet (bench_compare's
 * 2x gate); the `vmsgs_per_sec` counter carries the virtual-time
 * goodput, whose hosts:4 / hosts:1 ratio bench_gate.py holds to the
 * >= 2x scaling bar. The sim engine makes the counter deterministic.
 * `run_ms` is the loadgen's measured run wall per iteration
 * (LoadgenReport::wallMs), so real_time - run_ms is what building and
 * tearing down the fleet and its streams costs.
 */
void
BM_FleetOpenLoop(benchmark::State &state)
{
    const auto hosts = static_cast<std::size_t>(state.range(0));
    double goodput = 0.0;
    double runMs = 0.0;
    for (auto _ : state) {
        exec::SimExecutor sim;
        fleet::FleetConfig config;
        config.hosts = hosts;
        fleet::Fleet fleet(sim, config);

        fleet::LoadgenConfig load;
        load.streams = 500;
        load.messageBytes = 256;
        load.offeredMsgsPerSec = 5e6; // saturating for one host
        load.duration = sim::milliseconds(10);
        const fleet::LoadgenReport report =
            fleet::runOpenLoop(fleet, load);
        if (report.delivered == 0 || report.writeFailures != 0) {
            state.SkipWithError("fleet run did not deliver cleanly");
            break;
        }
        goodput = report.deliveredPerVirtualSec;
        runMs += report.wallMs;
    }
    state.counters["vmsgs_per_sec"] = benchmark::Counter(goodput);
    state.counters["run_ms"] =
        benchmark::Counter(runMs, benchmark::Counter::kAvgIterations);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetOpenLoop)
    ->ArgNames({"hosts"})
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
