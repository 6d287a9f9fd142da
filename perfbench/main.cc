/**
 * @file
 * End-to-end benchmark of HYDRA on two clocks.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans-out FILE]
 *
 * Workloads (all on the deterministic SimExecutor):
 *  - tivo_offloaded: the paper's TiVoPC, offloaded server -> offloaded
 *    client. The data path runs in device firmware, so host wall time
 *    is mostly the idle-OS housekeeping tick touching the host L2.
 *  - tivo_copy: simple copy-based server -> user-space client. Every
 *    chunk crosses syscalls and user/kernel copies through the L2.
 *  - fleet_open_loop: 4 hosts, ~4000 streams of 256 B messages, an
 *    open-loop pacer at 1M msg/s (below the ~1.9M msg/s knee), no
 *    background load: the exec kernel, channels, net and NIC firmware
 *    do the work and the housekeeping tick does none.
 *
 * The seed only generates inputs (TiVo: the testbed seed behind the
 * OS/NIC noise and the movie; fleet: stream count and fabric seeds).
 *
 * Untraced runs (--trace 0) repeat the workload in fresh testbeds until
 * S wall seconds have passed and report host-clock medians across the
 * repetitions, plus the virtual-clock metrics, which are exact and
 * must agree between repetitions. Traced runs (--trace 1) report the
 * per-layer split: registry counts, an idle/workload ladder, and spans
 * from a SpanExecutor-driven hosts-only rig and fleet.
 *
 * Output: a human-readable report, then one JSON line with every
 * metric, the digest of the simulated statistics, and the invariant
 * violations (run.py turns it into the benchmark's result line).
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "exec/executor.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"
#include "fleet/placement.hh"
#include "hw/machine.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"
#include "span_executor.hh"
#include "tivo/harness.hh"

namespace {

using namespace hydra;
using perfbench::SpanExecutor;
using perfbench::SpanLog;
using Clock = std::chrono::steady_clock;

enum class Workload { TivoOffloaded, TivoCopy, FleetOpenLoop };

// TiVo: 80 simulated seconds after the testbed's 2 s warmup gives
// >= 11k client inter-arrivals on both TiVo workloads, so p99.9 has at
// least ten samples beyond it, and 16 five-second CPU/L2 windows.
constexpr sim::SimTime kTivoWarmup = sim::seconds(2);
constexpr sim::SimTime kTivoDuration = sim::seconds(80);

constexpr std::size_t kFleetHosts = 4;
constexpr double kFleetRate = 1e6;
constexpr std::size_t kFleetMessageBytes = 256;
constexpr sim::SimTime kFleetDuration = sim::milliseconds(200);

constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;
// Span label of the periodic housekeeping tick (hw::OsKernel).
constexpr const char *kTickLabel = "OsKernel::startBackgroundLoad";
constexpr int kTraceReps = 3;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string
number(double value)
{
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
    return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string
number(std::uint64_t value)
{
    return std::to_string(value);
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

void
put(Metrics &metrics, std::string name, double value, std::string unit)
{
    metrics.push_back({std::move(name), value, std::move(unit)});
}

/** Hash of "key=value;" over every simulated statistic of a run. */
class Digest
{
  public:
    void add(const std::string &key, std::uint64_t v) { text_ += key + "=" + number(v) + ";"; }
    void add(const std::string &key, double v) { text_ += key + "=" + number(v) + ";"; }

    void
    add(const std::string &key, const SampleSet &samples)
    {
        add(key + ".n", static_cast<std::uint64_t>(samples.count()));
        add(key + ".min", samples.min());
        add(key + ".max", samples.max());
        add(key + ".mean", samples.mean());
        add(key + ".std", samples.stddev());
        add(key + ".p50", samples.median());
        add(key + ".p999", samples.percentile(99.9));
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(fleet::placementHash(text_)));
        return buf;
    }

  private:
    std::string text_;
};

/** One repetition of a workload. */
struct Rep
{
    double setupS = 0.0;
    double wallMs = 0.0;
    double simS = 0.0;
    std::uint64_t events = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> violations;
    std::string digest;
    /** OS model of the workload's hosts (the hosts-only rig copies it). */
    hw::OsConfig os;
    /** Virtual-clock metrics (exact under SimExecutor). */
    Metrics virtualMetrics;
};

void
require(Rep &rep, bool ok, const std::string &what)
{
    if (!ok)
        rep.violations.push_back(what);
}

std::uint64_t
chaosInjected()
{
    return obs::MetricsRegistry::instance().counterTotal("chaos.injected");
}

// ---------------------------------------------------------------------------
// Registry-derived per-layer counts
// ---------------------------------------------------------------------------

/** Merge every histogram series named @p name (all label sets). */
obs::HistogramSummary
mergedHistogram(const std::string &name)
{
    auto &registry = obs::MetricsRegistry::instance();
    obs::Histogram merged;
    for (const auto &[key, summary] : registry.snapshot().histograms) {
        std::string seriesName;
        obs::Labels labels;
        if (!obs::parseDisplayKey(key, seriesName, labels) || seriesName != name)
            continue;
        if (const obs::Histogram *h = registry.findHistogram(name, labels))
            merged.merge(*h);
    }
    return merged.summary();
}

/** Value of the label @p key in a display key, "" when absent. */
std::string
labelValue(const std::string &displayKey, const std::string &key)
{
    std::string name;
    obs::Labels labels;
    if (!obs::parseDisplayKey(displayKey, name, labels))
        return {};
    for (const auto &[k, v] : labels)
        if (k == key)
            return v;
    return {};
}

/**
 * Layer counts of the run that just finished. Registry values cover
 * the whole run (the registry is reset before each testbed is built).
 */
void
registryLayers(const std::vector<hw::Machine *> &machines,
               exec::Executor &executor, double simS, Metrics &layers,
               std::ostream &detail)
{
    auto &registry = obs::MetricsRegistry::instance();
    obs::CpuAttribution::instance().sync(executor.now());
    const obs::RegistrySnapshot snap = registry.snapshot();

    put(layers, "exec.events_per_sim_s",
        static_cast<double>(executor.eventsDispatched()) / simS, "1/s");

    std::uint64_t accesses = 0, misses = 0, crossings = 0, busy = 0;
    for (hw::Machine *m : machines) {
        const hw::CacheStats &l2 = m->l2().totals();
        const hw::BusStats bus = m->bus().stats();
        accesses += l2.accesses;
        misses += l2.misses;
        crossings += bus.transactions;
        busy += m->cpu().busyTime();
        detail << "  host " << m->name() << ": l2.accesses=" << l2.accesses
               << " l2.misses=" << l2.misses
               << " bus.crossings=" << bus.transactions
               << " cpu.busy_ns=" << m->cpu().busyTime() << "\n";
    }
    put(layers, "hw.l2.accesses_per_sim_s", accesses / simS, "1/s");
    put(layers, "hw.l2.misses_per_sim_s", misses / simS, "1/s");
    put(layers, "hw.bus.crossings", static_cast<double>(crossings), "count");
    put(layers, "hw.bus.stall_p99_ns", mergedHistogram("bus.stall_ns").p99, "ns");
    put(layers, "hw.cpu.busy_ns", static_cast<double>(busy), "ns");

    put(layers, "net.packets_per_sim_s",
        registry.counterValue("net.packets_delivered") / simS, "1/s");
    put(layers, "net.flight_p99_ns", mergedHistogram("net.flight_ns").p99, "ns");

    std::uint64_t transfers = 0, fwBusy = 0;
    for (const auto &[key, summary] : snap.histograms) {
        if (key.rfind("dma.transfer_ns{", 0) != 0)
            continue;
        transfers += summary.count;
        detail << "  " << key << ": n=" << summary.count
               << " p99=" << number(summary.p99) << "\n";
    }
    for (const auto &[key, value] : snap.counters) {
        if (key.rfind("exec.site_busy_ns{", 0) != 0)
            continue;
        const std::string site = labelValue(key, "site");
        if (site.size() >= 5 && site.compare(site.size() - 5, 5, ".host") == 0)
            continue;
        fwBusy += value;
        detail << "  dev.fw_busy_ns{" << site << "}: " << value << "\n";
    }
    put(layers, "dev.dma_transfers", static_cast<double>(transfers), "count");
    put(layers, "dev.dma_p99_ns", mergedHistogram("dma.transfer_ns").p99, "ns");
    put(layers, "dev.fw_busy_ns", static_cast<double>(fwBusy), "ns");

    put(layers, "core.messages_delivered",
        static_cast<double>(registry.counterValue("channel.messages_delivered")),
        "count");
    for (const char *buffering : {"copying", "zero-copy", "wire"})
        detail << "  core.payload_copies{" << buffering << "}: "
               << registry.counterValue("channel.payload_copies",
                                        {{"buffering", buffering}})
               << "\n";
    put(layers, "core.payload_copies",
        static_cast<double>(registry.counterTotal("channel.payload_copies")),
        "count");
    put(layers, "fleet.wire_copies",
        static_cast<double>(registry.counterValue("channel.payload_copies",
                                                  {{"buffering", "wire"}})),
        "count");
    put(layers, "core.delivery_p99_ns",
        mergedHistogram("channel.delivery_latency_ns").p99, "ns");
    put(layers, "core.offcode_service_p99_ns",
        mergedHistogram("offcode.service_ns").p99, "ns");

    const double hits = static_cast<double>(registry.counterValue("payload.pool_hits"));
    const double fresh = static_cast<double>(registry.counterValue("payload.allocations"));
    put(layers, "payload.pool_hit_ratio",
        hits + fresh > 0 ? hits / (hits + fresh) : 0.0, "ratio");

    put(layers, "obs.series",
        static_cast<double>(snap.counters.size() + snap.gauges.size() +
                            snap.histograms.size()),
        "count");
    put(layers, "tivo.frames_presented",
        static_cast<double>(registry.counterValue("tivo.frames_presented")),
        "count");
}

// ---------------------------------------------------------------------------
// TiVo workloads
// ---------------------------------------------------------------------------

tivo::TestbedConfig
tivoConfig(Workload workload, std::uint64_t seed)
{
    tivo::TestbedConfig config;
    if (workload == Workload::TivoOffloaded) {
        config.server = tivo::ServerKind::Offloaded;
        config.client = tivo::ClientKind::Offloaded;
    } else {
        config.server = tivo::ServerKind::Simple;
        config.client = tivo::ClientKind::UserSpace;
    }
    config.warmup = kTivoWarmup;
    config.duration = kTivoDuration;
    config.seed = Rng(seed).next() >> 16;
    return config;
}

Rep
runTivo(const tivo::TestbedConfig &config, Metrics *layers = nullptr,
        std::ostream *detail = nullptr)
{
    obs::MetricsRegistry::instance().reset();
    Rep rep;
    const auto setupStart = Clock::now();
    auto testbed = std::make_unique<tivo::Testbed>(config);
    rep.setupS = secondsSince(setupStart);
    const auto runStart = Clock::now();
    const tivo::ScenarioResult r = testbed->run();
    rep.wallMs = secondsSince(runStart) * 1e3;
    rep.simS = static_cast<double>(config.warmup + config.duration) / 1e9;
    rep.events = testbed->executor().eventsDispatched();
    rep.os = testbed->serverMachine().os().config();
    if (layers)
        registryLayers({&testbed->serverMachine(), &testbed->clientMachine()},
                       testbed->executor(), rep.simS, *layers, *detail);

    const bool idle = config.server == tivo::ServerKind::None;
    rep.attempted = r.chunksSent;
    rep.failed = !r.deploymentOk ? r.chunksSent
                 : r.packetsReceived < r.chunksSent
                     ? r.chunksSent - r.packetsReceived
                     : 0;
    require(rep, r.deploymentOk, "deployment failed");
    require(rep, idle || r.chunksSent > 0, "no chunks sent");
    require(rep, r.packetsReceived == r.chunksSent,
            "packets received != chunks sent at drop 0");
    require(rep, r.networkDrops == 0, "network drops at drop 0");
    require(rep, chaosInjected() == 0, "chaos.injected != 0");

    Digest digest;
    digest.add("chunksSent", r.chunksSent);
    digest.add("packetsReceived", r.packetsReceived);
    digest.add("framesDisplayed", r.framesDisplayed);
    digest.add("serverBusCrossings", r.serverBusCrossings);
    digest.add("clientBusCrossings", r.clientBusCrossings);
    digest.add("networkDrops", r.networkDrops);
    digest.add("deploymentOk", std::uint64_t{r.deploymentOk});
    digest.add("interarrivalMs", r.interarrivalMs);
    digest.add("serverCpuPct", r.serverCpuPct);
    digest.add("clientCpuPct", r.clientCpuPct);
    digest.add("serverL2MissRate", r.serverL2MissRate);
    digest.add("clientL2MissRate", r.clientL2MissRate);
    rep.digest = digest.hex();

    Metrics &v = rep.virtualMetrics;
    const double serverCpu = r.serverCpuPct.median();
    const double clientCpu = r.clientCpuPct.median();
    const double serverL2 = r.serverL2MissRate.median();
    const double clientL2 = r.clientL2MissRate.median();
    put(v, "latency_p50_ms", r.interarrivalMs.median(), "ms");
    put(v, "latency_p999_ms", r.interarrivalMs.percentile(99.9), "ms");
    put(v, "cpu_pct", (serverCpu + clientCpu) / 2, "%");
    put(v, "gap_p50_ms", r.interarrivalMs.median(), "ms");
    put(v, "gap_p999_ms", r.interarrivalMs.percentile(99.9), "ms");
    put(v, "gap_std_ms", r.interarrivalMs.stddev(), "ms");
    put(v, "gap_samples", static_cast<double>(r.interarrivalMs.count()), "count");
    put(v, "server_cpu_pct", serverCpu, "%");
    put(v, "client_cpu_pct", clientCpu, "%");
    put(v, "server_l2_miss_rate", serverL2, "ratio");
    put(v, "client_l2_miss_rate", clientL2, "ratio");
    put(v, "fail_ratio",
        rep.attempted ? static_cast<double>(rep.failed) / rep.attempted : 0.0,
        "ratio");
    return rep;
}

// ---------------------------------------------------------------------------
// Fleet workload
// ---------------------------------------------------------------------------

struct FleetInputs
{
    fleet::FleetConfig fleet;
    fleet::LoadgenConfig load;
};

FleetInputs
fleetInputs(std::uint64_t seed)
{
    Rng rng(seed);
    FleetInputs in;
    in.fleet.hosts = kFleetHosts;
    in.fleet.seed = rng.next() >> 16;
    in.fleet.network.seed = rng.next() >> 16;
    in.load.streams = static_cast<std::size_t>(rng.uniformInt(3900, 4100));
    in.load.messageBytes = kFleetMessageBytes;
    in.load.offeredMsgsPerSec = kFleetRate;
    in.load.duration = kFleetDuration;
    return in;
}

/**
 * Messages the pacer writes to cross-host streams. The pacer writes
 * message k to stream k mod N; a stream is cross-host when the
 * placement ring homes its "#peer" key on another host.
 */
std::uint64_t
remoteMessages(fleet::Fleet &fleet, std::size_t streams, std::uint64_t offered,
               std::size_t &remoteStreams)
{
    std::uint64_t remote = 0;
    remoteStreams = 0;
    for (std::size_t i = 0; i < streams; ++i) {
        const std::string key = "stream/" + std::to_string(i);
        if (&fleet.homeOf(key) == &fleet.homeOf(key + "#peer"))
            continue;
        ++remoteStreams;
        remote += offered / streams + (i < offered % streams ? 1 : 0);
    }
    return remote;
}

Rep
runFleet(const FleetInputs &in, std::unique_ptr<exec::Executor> executor,
         Metrics *layers = nullptr, std::ostream *detail = nullptr)
{
    obs::MetricsRegistry::instance().reset();
    Rep rep;
    const auto setupStart = Clock::now();
    fleet::Fleet fleet(*executor, in.fleet);
    const double buildS = secondsSince(setupStart);
    const auto loopStart = Clock::now();
    const fleet::LoadgenReport r = fleet::runOpenLoop(fleet, in.load);
    // runOpenLoop brings its streams up and tears them down around the
    // measured window; that is set-up work too.
    rep.setupS = buildS + secondsSince(loopStart) - r.wallMs / 1e3;
    rep.wallMs = r.wallMs;
    rep.simS = static_cast<double>(in.load.duration + in.load.drain) / 1e9;
    rep.events = executor->eventsDispatched();
    rep.os = fleet.host(0).machine().os().config();

    std::vector<hw::Machine *> machines;
    for (std::size_t h = 0; h < fleet.hostCount(); ++h)
        machines.push_back(&fleet.host(h).machine());
    if (layers)
        registryLayers(machines, *executor, rep.simS, *layers, *detail);
    std::uint64_t accesses = 0, misses = 0;
    for (hw::Machine *m : machines) {
        accesses += m->l2().totals().accesses;
        misses += m->l2().totals().misses;
    }

    std::size_t remoteStreams = 0;
    const std::uint64_t remote =
        remoteMessages(fleet, in.load.streams, r.offered, remoteStreams);
    rep.attempted = r.offered;
    rep.failed = (r.offered > r.delivered ? r.offered - r.delivered : 0) +
                 r.writeFailures;
    require(rep, r.offered > 0, "no messages offered");
    require(rep, r.delivered == r.offered, "delivered != offered");
    require(rep, r.writeFailures == 0, "write failures");
    require(rep, remoteStreams == r.remoteStreams,
            "remote stream count differs from placement");
    require(rep, r.wireCopies == remote, "wire copies != remote messages");
    require(rep, r.zeroCopies == 0, "copies on the zero-copy path");
    require(rep, chaosInjected() == 0, "chaos.injected != 0");

    Digest digest;
    digest.add("hosts", static_cast<std::uint64_t>(r.hosts));
    digest.add("streams", static_cast<std::uint64_t>(r.streams));
    digest.add("remoteStreams", static_cast<std::uint64_t>(r.remoteStreams));
    digest.add("localStreams", static_cast<std::uint64_t>(r.localStreams));
    digest.add("offered", r.offered);
    digest.add("delivered", r.delivered);
    digest.add("churned", r.churned);
    digest.add("writeFailures", r.writeFailures);
    digest.add("wireCopies", r.wireCopies);
    digest.add("zeroCopies", r.zeroCopies);
    digest.add("latency.n", r.latency.count);
    digest.add("latency.min", r.latency.min);
    digest.add("latency.max", r.latency.max);
    digest.add("latency.p50", r.latency.p50);
    digest.add("latency.p90", r.latency.p90);
    digest.add("latency.p99", r.latency.p99);
    digest.add("latency.p999", r.latency.p999);
    digest.add("elapsed", static_cast<std::uint64_t>(r.elapsed));
    digest.add("l2.accesses", accesses);
    digest.add("l2.misses", misses);
    double busyShare = 0.0;
    for (const fleet::LoadgenHostReport &host : r.perHost) {
        digest.add(host.host + ".streamsHomed",
                   static_cast<std::uint64_t>(host.streamsHomed));
        digest.add(host.host + ".delivered", host.delivered);
        digest.add(host.host + ".busyNs", host.busyNs);
        busyShare += static_cast<double>(host.busyNs) /
                     static_cast<double>(r.elapsed);
    }
    rep.digest = digest.hex();

    Metrics &v = rep.virtualMetrics;
    const double cpuPct = r.perHost.empty() ? 0.0 : 100.0 * busyShare / r.perHost.size();
    put(v, "latency_p50_ms", r.latency.p50 / 1e6, "ms");
    put(v, "latency_p999_ms", r.latency.p999 / 1e6, "ms");
    put(v, "cpu_pct", cpuPct, "%");
    put(v, "delivery_p50_us", r.latency.p50 / 1e3, "us");
    put(v, "delivery_p999_us", r.latency.p999 / 1e3, "us");
    put(v, "delivery_samples", static_cast<double>(r.latency.count), "count");
    put(v, "fleet_cpu_pct", cpuPct, "%");
    put(v, "fail_ratio",
        rep.attempted ? static_cast<double>(rep.failed) / rep.attempted : 0.0,
        "ratio");
    return rep;
}

// ---------------------------------------------------------------------------
// Ladders and rigs for the traced run
// ---------------------------------------------------------------------------

/**
 * An untraced, load-free copy of the workload's machines at the same
 * simulated length: the idle rung of the idle/workload ladder.
 */
Rep
idleRep(Workload workload, std::uint64_t seed)
{
    if (workload == Workload::FleetOpenLoop) {
        const FleetInputs in = fleetInputs(seed);
        auto executor = exec::makeExecutor(exec::ExecutorKind::Sim);
        fleet::Fleet fleet(*executor, in.fleet);
        Rep rep;
        const auto start = Clock::now();
        executor->runUntil(executor->now() + in.load.duration + in.load.drain);
        rep.wallMs = secondsSince(start) * 1e3;
        return rep;
    }
    tivo::TestbedConfig config = tivoConfig(workload, seed);
    config.server = tivo::ServerKind::None;
    config.client = tivo::ClientKind::None;
    return runTivo(config);
}

/** What one run of the hosts-only rig measured. */
struct RigRun
{
    double wallMs = 0.0;
    std::uint64_t events = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
};

/**
 * Two bare hw::Machines with the workload's OS model and the idle-OS
 * background load, as the TiVo testbed's two hosts run it, for the
 * TiVo workloads' simulated length: the housekeeping tick in isolation.
 */
RigRun
runHostsRig(exec::Executor &executor, std::uint64_t seed, const hw::OsConfig &os)
{
    Rng rng(seed);
    std::vector<std::unique_ptr<hw::Machine>> machines;
    for (const char *name : {"rig-server", "rig-client"}) {
        hw::MachineConfig config;
        config.name = name;
        config.os = os;
        config.noiseSeed = rng.next() >> 16;
        machines.push_back(std::make_unique<hw::Machine>(executor, config));
        machines.back()->os().startBackgroundLoad();
    }
    RigRun run;
    const auto start = Clock::now();
    executor.runUntil(kTivoWarmup + kTivoDuration);
    run.wallMs = secondsSince(start) * 1e3;
    run.events = executor.eventsDispatched();
    for (const auto &m : machines) {
        run.l2Accesses += m->l2().totals().accesses;
        run.l2Misses += m->l2().totals().misses;
    }
    return run;
}

/**
 * Kernel vs callback split of the runUntil windows a span log saw.
 * Callback time is the traced callback spans minus the decorator's
 * wrapping of what they scheduled; kernel time is the untraced wall of
 * the same windows minus that callback time. So none of the decorator's
 * work (clock reads, record(), wrapping, the extra std::function hop
 * between callbacks) is counted as kernel time.
 */
void
kernelSplit(const SpanLog::Window &window, double untracedWallNs,
            Metrics &layers, std::ostream &detail)
{
    const double events = static_cast<double>(std::max<std::uint64_t>(window.events, 1));
    const double callbackNs = static_cast<double>(window.callbackNs) -
                              static_cast<double>(window.wrapNs);
    const double kernelNs = std::max(0.0, untracedWallNs - callbackNs);
    put(layers, "exec.kernel_ns_per_event", kernelNs / events, "ns");
    put(layers, "exec.callback_ns_per_event", callbackNs / events, "ns");
    // Two estimates: the decorator also slows the callbacks themselves
    // (clock reads, allocation, cache), which biases the untraced one
    // low; its work between callbacks biases the traced one high.
    detail << "  exec.kernel_ns_per_event estimates: untraced wall minus "
              "callbacks "
           << number(kernelNs / events) << ", traced wall minus callbacks "
           << number(std::max(0.0, static_cast<double>(window.wallNs) - callbackNs) /
                     events)
           << "\n";
}

void
printSpanTotals(const SpanLog &log, const std::string &construct,
                std::ostream &out)
{
    std::vector<SpanLog::LabelTotals> labels = log.labels();
    std::sort(labels.begin(), labels.end(),
              [](const auto &a, const auto &b) { return a.ns > b.ns; });
    out << "spans (" << construct << ", dispatch origin, wall ns):\n";
    for (const SpanLog::LabelTotals &totals : labels)
        out << "  " << totals.name << ": n=" << totals.count
            << " total_ns=" << totals.ns << " mean_ns="
            << number(totals.count ? static_cast<double>(totals.ns) / totals.count : 0.0)
            << "\n";
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Options
{
    Workload workload = Workload::TivoOffloaded;
    std::string workloadName;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload tivo_offloaded|tivo_copy|"
                 "fleet_open_loop --seed N --seconds S --trace 0|1 "
                 "[--spans-out FILE]\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                options.workloadName = value;
                haveWorkload = true;
                if (value == "tivo_offloaded")
                    options.workload = Workload::TivoOffloaded;
                else if (value == "tivo_copy")
                    options.workload = Workload::TivoCopy;
                else if (value == "fleet_open_loop")
                    options.workload = Workload::FleetOpenLoop;
                else
                    usage(("unknown workload " + value).c_str());
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                options.trace = value == "1";
            } else if (flag == "--spans-out") {
                options.spansOut = value;
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::exception &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (!(options.seconds >= 0.0))
        usage("--seconds must be >= 0");
    return options;
}

Rep
runOnce(const Options &options, Metrics *layers = nullptr,
        std::ostream *detail = nullptr)
{
    if (options.workload == Workload::FleetOpenLoop)
        return runFleet(fleetInputs(options.seed),
                        exec::makeExecutor(exec::ExecutorKind::Sim), layers,
                        detail);
    return runTivo(tivoConfig(options.workload, options.seed), layers, detail);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
writeMetrics(std::ostream &out, const Metrics &metrics)
{
    out << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out << (i ? ", " : "") << "\"" << metrics[i].name
            << "\": {\"value\": " << number(metrics[i].value)
            << ", \"unit\": \"" << metrics[i].unit << "\"}";
    out << "}";
}

void
printMetrics(const char *title, const Metrics &metrics)
{
    std::cout << title << "\n";
    for (const Metric &m : metrics)
        std::printf("  %-32s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                    m.unit.c_str());
}

/**
 * The traced run's per-layer split: the idle/workload ladder, the
 * hosts-only rig and, for the fleet, the fleet under SpanExecutor.
 * @p first is the first untraced repetition of the workload.
 */
void
traceLayers(const Options &options, const Rep &first, double wallMsPerSimS,
            Metrics &layers, Metrics &virtualMetrics,
            std::vector<std::string> &violations, std::ostream &detail,
            std::ostream &spans)
{
    const bool tivo = options.workload != Workload::FleetOpenLoop;
    std::uint64_t spansDropped = 0;
    // Idle/workload ladder at equal simulated length.
    std::vector<double> idle;
    for (int i = 0; i < kTraceReps; ++i) {
        const Rep rep = idleRep(options.workload, options.seed);
        idle.push_back(rep.wallMs);
        for (const Metric &m : rep.virtualMetrics)
            if (i == 0 && m.name == "server_l2_miss_rate")
                put(virtualMetrics, "idle_server_l2_miss_rate", m.value,
                    m.unit);
    }
    const double idleMsPerSimS = median(idle) / first.simS;
    put(layers, "hw.hosts_share", idleMsPerSimS / wallMsPerSimS, "ratio");
    put(layers, "tivo.datapath_ms_per_sim_s",
        wallMsPerSimS - idleMsPerSimS, "ms/s");

    // Hosts-only rig, untraced then traced: the cost of one tick.
    auto plain = exec::makeExecutor(exec::ExecutorKind::Sim);
    const RigRun rigPlain = runHostsRig(*plain, options.seed, first.os);
    SpanLog rigLog(kSpanCapacity);
    SpanExecutor rigExec(exec::makeExecutor(exec::ExecutorKind::Sim), rigLog);
    const RigRun rigTraced = runHostsRig(rigExec, options.seed, first.os);
    if (rigTraced.events != rigPlain.events ||
        rigTraced.l2Accesses != rigPlain.l2Accesses ||
        rigTraced.l2Misses != rigPlain.l2Misses)
        violations.push_back("tracing changed the hosts rig's events or L2");
    const SpanLog::LabelTotals rigTicks = rigLog.totalsMatching(kTickLabel);
    const double tickNs =
        rigTicks.count ? static_cast<double>(rigTicks.ns) / rigTicks.count : 0.0;
    printSpanTotals(rigLog, "hosts_rig", detail);
    rigLog.write(spans, "hosts_rig");
    spansDropped += rigLog.dropped();

    // Ticks per simulated second are counted in what ran: the rig runs
    // the TiVo testbed's two hosts with their OS model, and the fleet
    // runs under the decorator itself.
    double tracedMs = rigTraced.wallMs, plainMs = rigPlain.wallMs;
    double simS = static_cast<double>(kTivoWarmup + kTivoDuration) / 1e9;
    double ticksPerSimS = static_cast<double>(rigTicks.count) / simS;
    SpanLog::Window window = rigLog.window();
    std::uint64_t pacerCount = 0, pacerNs = 0;
    if (!tivo) {
        // The fleet itself under the decorator; its events and
        // virtual latencies must match the untraced repetition.
        const FleetInputs in = fleetInputs(options.seed);
        SpanLog fleetLog(kSpanCapacity);
        const Rep traced = runFleet(
            in, std::make_unique<SpanExecutor>(
                    exec::makeExecutor(exec::ExecutorKind::Sim), fleetLog));
        if (traced.events != first.events || traced.digest != first.digest)
            violations.push_back(
                "tracing changed the fleet's events or virtual results");
        window = fleetLog.window();
        tracedMs = traced.wallMs;
        plainMs = wallMsPerSimS * first.simS;
        simS = first.simS;
        ticksPerSimS = static_cast<double>(
                           fleetLog.totalsMatching(kTickLabel).count) /
                       simS;
        const SpanLog::LabelTotals pacer = fleetLog.totalsMatching("runOpenLoop");
        pacerCount = pacer.count;
        pacerNs = pacer.ns;
        printSpanTotals(fleetLog, "fleet", detail);
        fleetLog.write(spans, "fleet");
        spansDropped += fleetLog.dropped();
    }
    const double tickMsPerSimS = tickNs * ticksPerSimS / 1e6;
    put(layers, "hw.os.tick_ns", tickNs, "ns");
    put(layers, "hw.os.tick_ms_per_sim_s", tickMsPerSimS, "ms/s");
    put(layers, "hw.os.tick_share", tickMsPerSimS / wallMsPerSimS, "ratio");
    detail << "  hw.os.ticks_per_sim_s: " << number(ticksPerSimS) << "\n";
    kernelSplit(window, plainMs * 1e6, layers, detail);
    put(layers, "fleet.pacer_ns",
        pacerCount ? static_cast<double>(pacerNs) / pacerCount : 0.0, "ns");
    put(layers, "trace.overhead_ms_per_sim_s", (tracedMs - plainMs) / simS,
        "ms/s");
    put(layers, "trace.spans_dropped", static_cast<double>(spansDropped),
        "count");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseOptions(argc, argv);
    const bool tivo = options.workload != Workload::FleetOpenLoop;

    std::vector<Rep> reps;
    std::vector<std::string> violations;
    Metrics layers;
    std::ostringstream detail;

    const auto runStart = Clock::now();
    reps.push_back(runOnce(options, options.trace ? &layers : nullptr, &detail));
    // The peak of one testbed's lifetime; later repetitions would only
    // add allocator fragmentation that varies with their number.
    const double peakRss = peakRssMb();
    while (options.trace ? reps.size() < kTraceReps
                         : secondsSince(runStart) < options.seconds)
        reps.push_back(runOnce(options));

    const Rep &first = reps.front();
    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> setups, wallPerSimS;
    for (const Rep &rep : reps) {
        attempted += rep.attempted;
        failed += rep.failed;
        setups.push_back(rep.setupS);
        wallPerSimS.push_back(rep.wallMs / rep.simS);
        if (rep.digest != first.digest)
            violations.push_back("digest differs between repetitions");
        if (rep.events != first.events)
            violations.push_back("event count differs between repetitions");
    }
    violations.insert(violations.end(), first.violations.begin(),
                      first.violations.end());
    const double wallMsPerSimS = median(wallPerSimS);

    Metrics virtualMetrics = first.virtualMetrics;
    Metrics hostMetrics;
    put(hostMetrics, "setup_s", median(setups), "s");
    put(hostMetrics, "wall_ms_per_sim_s", wallMsPerSimS, "ms/s");
    put(hostMetrics, "peak_rss_mb", peakRss, "MB");

    std::ofstream spans;
    if (options.trace) {
        if (!options.spansOut.empty()) {
            spans.open(options.spansOut);
            spans << "construct\tlabel\tstart_ns\tdur_ns\n";
        }
        traceLayers(options, first, wallMsPerSimS, layers, virtualMetrics,
                    violations, detail, spans);
    }
    // A broken output check fails every operation of the run.
    if (!violations.empty())
        failed = attempted;

    // --- human-readable report ---
    std::cout << "perfbench: workload=" << options.workloadName
              << " seed=" << options.seed << " reps=" << reps.size()
              << " trace=" << options.trace << " engine=sim\n";
    printMetrics("host clock (median over repetitions):", hostMetrics);
    std::sort(wallPerSimS.begin(), wallPerSimS.end());
    std::cout << "  wall_ms_per_sim_s per repetition: min "
              << number(wallPerSimS.front()) << " median "
              << number(wallMsPerSimS) << " max " << number(wallPerSimS.back())
              << "\n";
    printMetrics(tivo ? "virtual clock (exact; statistics start after the 2 s "
                        "warmup, warm L2):"
                      : "virtual clock (exact; starts cold; the pacer runs on "
                        "virtual time, so it cannot run late):",
                 virtualMetrics);
    if (options.trace) {
        printMetrics("per layer:", layers);
        std::cout << detail.str();
    }
    std::cout << "digest " << first.digest << "\n";
    for (const std::string &v : violations)
        std::cout << "VIOLATION: " << v << "\n";

    if (!options.spansOut.empty() && options.trace && !spans.flush()) {
        std::cerr << "perfbench: cannot write " << options.spansOut << "\n";
        return 1;
    }

    // --- machine-readable line ---
    std::cout << "{\"workload\": \"" << options.workloadName
              << "\", \"seed\": " << options.seed
              << ", \"reps\": " << reps.size() << ", \"digest\": \""
              << first.digest << "\", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"violations\": [";
    for (std::size_t i = 0; i < violations.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << violations[i] << "\"";
    std::cout << "], \"host\": ";
    writeMetrics(std::cout, hostMetrics);
    std::cout << ", \"virtual\": ";
    writeMetrics(std::cout, virtualMetrics);
    std::cout << ", \"layers\": ";
    writeMetrics(std::cout, layers);
    std::cout << "}" << std::endl;
    return 0;
}
