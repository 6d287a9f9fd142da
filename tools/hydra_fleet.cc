/**
 * @file
 * hydra_fleet — command-line driver for multi-host scale runs
 * (DESIGN.md §14).
 *
 * Builds an N-host fleet on one shared fabric, drives it with the
 * open-loop load generator, and prints the measurement set a capacity
 * study needs: offered vs delivered, end-to-end delivery latency
 * percentiles (p50/p99/p999), payload-copy accounting, and per-host
 * CPU (host CPU + NIC firmware busy time over the window).
 *
 * Usage:
 *   hydra_fleet [--hosts N] [--streams N] [--rate MSGS_PER_SEC]
 *               [--bytes N] [--duration-ms N] [--tick-us N]
 *               [--executor sim|threaded] [--churn N]
 *               [--remote-only] [--drivers] [--seed N]
 *               [--background-load] [--json]
 *               [--metrics] [--metrics-out FILE]
 *               [--chaos SEED[:spec]]
 *
 * --chaos arms the deterministic fault injector (same grammar as
 * hydra_sim). Scheduled resets match fleet NICs by name ("host0-nic",
 * "host1-nic", ...).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "chaos/chaos.hh"
#include "common/json.hh"
#include "common/strings.hh"
#include "exec/executor.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"
#include "obs/metrics.hh"

using namespace hydra;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--hosts N] [--streams N] [--rate MSGS_PER_SEC]\n"
        "          [--bytes N] [--duration-ms N] [--tick-us N]\n"
        "          [--executor sim|threaded] [--churn N]\n"
        "          [--remote-only] [--drivers] [--seed N]\n"
        "          [--background-load] [--json]\n"
        "          [--metrics] [--metrics-out FILE]\n"
        "          [--chaos SEED[:drop=P,dup=P,corrupt=P,slow=P,"
        "stall=P,poolfail=P,ringfull=P,reset@MS=dev[/ms]]]\n",
        argv0);
    return 2;
}

constexpr long long kNoMax = std::numeric_limits<long long>::max();

/**
 * Strict integer flag value in [lo, hi]: non-digits, out-of-range and
 * overflowing values fail instead of wrapping.
 */
bool
parseIntFlag(const char *value, long long lo, long long hi,
             std::uint64_t &out)
{
    long long parsed = 0;
    if (!value || !parseInt(value, parsed) || parsed < lo || parsed > hi)
        return false;
    out = static_cast<std::uint64_t>(parsed);
    return true;
}

void
printTable(const fleet::LoadgenReport &report)
{
    std::printf("fleet: %zu hosts, %zu streams (%zu remote, %zu local)\n",
                report.hosts, report.streams, report.remoteStreams,
                report.localStreams);
    std::printf(
        "load:  offered %llu, delivered %llu (%.1f%%), churned %llu, "
        "write failures %llu\n",
        static_cast<unsigned long long>(report.offered),
        static_cast<unsigned long long>(report.delivered),
        report.offered
            ? 100.0 * static_cast<double>(report.delivered) /
                  static_cast<double>(report.offered)
            : 0.0,
        static_cast<unsigned long long>(report.churned),
        static_cast<unsigned long long>(report.writeFailures));
    std::printf(
        "rate:  %.0f msgs/virtual-sec over %.1f ms window "
        "(simulated in %.1f ms wall)\n",
        report.deliveredPerVirtualSec,
        static_cast<double>(report.elapsed) / 1e6, report.wallMs);
    std::printf("copies: wire %llu (one per cross-host message), "
                "zero-copy-path copies %llu (0 = no hidden copies)\n",
                static_cast<unsigned long long>(report.wireCopies),
                static_cast<unsigned long long>(report.zeroCopies));
    std::printf("latency (write -> handler, us): p50 %.1f  p99 %.1f  "
                "p999 %.1f  max %.1f  [n=%llu]\n",
                report.latency.p50 / 1e3, report.latency.p99 / 1e3,
                report.latency.p999 / 1e3,
                static_cast<double>(report.latency.max) / 1e3,
                static_cast<unsigned long long>(report.latency.count));
    std::printf("%-8s %10s %12s %12s %8s\n", "host", "streams",
                "delivered", "busy-ms", "cpu%");
    const double window = static_cast<double>(report.elapsed);
    for (const auto &slice : report.perHost) {
        std::printf("%-8s %10zu %12llu %12.2f %7.1f%%\n",
                    slice.host.c_str(), slice.streamsHomed,
                    static_cast<unsigned long long>(slice.delivered),
                    static_cast<double>(slice.busyNs) / 1e6,
                    window > 0.0 ? 100.0 *
                                       static_cast<double>(slice.busyNs) /
                                       window
                                 : 0.0);
    }
}

void
printJson(const fleet::LoadgenReport &report)
{
    json::Writer w(std::cout);
    w.beginObject().field("hosts", report.hosts);
    w.field("streams", report.streams);
    w.field("remote_streams", report.remoteStreams);
    w.field("offered", report.offered).field("delivered", report.delivered);
    w.field("churned", report.churned);
    w.field("write_failures", report.writeFailures);
    w.field("wire_copies", report.wireCopies);
    w.field("delivered_per_virtual_sec", report.deliveredPerVirtualSec);
    const obs::HistogramSummary &latency = report.latency;
    w.key("latency_ns").beginObject().field("p50", latency.p50);
    w.field("p99", latency.p99).field("p999", latency.p999);
    w.field("max", latency.max).field("count", latency.count).endObject();
    w.key("per_host").beginArray();
    for (const auto &slice : report.perHost) {
        w.beginObject().field("host", slice.host);
        w.field("streams", slice.streamsHomed);
        w.field("delivered", slice.delivered);
        w.field("busy_ns", slice.busyNs).endObject();
    }
    w.endArray().endObject();
    std::cout << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    fleet::FleetConfig fleetConfig;
    fleet::LoadgenConfig load;
    exec::ExecutorKind kind = exec::ExecutorKind::Sim;
    bool json = false;
    bool printMetrics = false;
    std::string metricsOut;
    std::uint64_t durationMs = 100;
    std::uint64_t tickUs = 100;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        std::uint64_t parsed = 0;
        if (arg == "--hosts" && parseIntFlag(value, 1, kNoMax, parsed)) {
            fleetConfig.hosts = parsed;
            ++i;
        } else if (arg == "--streams" &&
                   parseIntFlag(value, 1, kNoMax, parsed)) {
            load.streams = parsed;
            ++i;
        } else if (arg == "--rate" &&
                   parseIntFlag(value, 0, kNoMax, parsed)) {
            load.offeredMsgsPerSec = static_cast<double>(parsed);
            ++i;
        } else if (arg == "--bytes" &&
                   parseIntFlag(value, 8, kNoMax, parsed)) {
            load.messageBytes = parsed;
            ++i;
        } else if (arg == "--duration-ms" &&
                   parseIntFlag(value, 1,
                                sim::maxCount(sim::milliseconds(1)),
                                parsed)) {
            durationMs = parsed;
            ++i;
        } else if (arg == "--tick-us" &&
                   parseIntFlag(value, 1,
                                sim::maxCount(sim::microseconds(1)),
                                parsed)) {
            tickUs = parsed;
            ++i;
        } else if (arg == "--churn" &&
                   parseIntFlag(value, 0, kNoMax, parsed)) {
            load.churnPerTick = parsed;
            ++i;
        } else if (arg == "--seed" &&
                   parseIntFlag(value, 0, kNoMax, parsed)) {
            fleetConfig.seed = parsed;
            ++i;
        } else if (arg == "--executor" && value) {
            if (!exec::parseExecutorKind(value, kind))
                return usage(argv[0]);
            ++i;
        } else if (arg == "--remote-only") {
            load.remoteOnly = true;
        } else if (arg == "--drivers") {
            load.useDrivers = true;
        } else if (arg == "--background-load") {
            fleetConfig.backgroundLoad = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--metrics") {
            printMetrics = true;
        } else if (arg == "--metrics-out" && value) {
            metricsOut = value;
            ++i;
        } else if (arg == "--chaos" && value) {
            auto spec = chaos::parseChaosSpec(value);
            if (!spec) {
                std::fprintf(stderr, "%s: bad --chaos spec: %s\n",
                             argv[0],
                             spec.error().describe().c_str());
                return usage(argv[0]);
            }
            chaos::ChaosEngine::instance().configure(spec.value());
            ++i;
        } else {
            return usage(argv[0]);
        }
    }
    load.duration = sim::milliseconds(durationMs);
    load.tick = sim::microseconds(tickUs);

    auto executor = exec::makeExecutor(kind);
    fleet::Fleet fleet(*executor, fleetConfig);

    // Chaos reset schedule: match fleet NICs by device name.
    auto &chaosEngine = chaos::ChaosEngine::instance();
    if (chaosEngine.enabled()) {
        for (const chaos::ScheduledReset &reset :
             chaosEngine.spec().resets) {
            dev::ProgrammableNic *target = nullptr;
            for (std::size_t h = 0; h < fleet.hostCount(); ++h)
                if (fleet.host(h).nic().name() == reset.device)
                    target = &fleet.host(h).nic();
            if (!target) {
                std::fprintf(stderr,
                             "hydra_fleet: chaos: no NIC named '%s'; "
                             "reset skipped\n",
                             reset.device.c_str());
                continue;
            }
            executor->scheduleAt(
                reset.at, [target, at = reset.at,
                           downtime = reset.downtime]() {
                    chaos::ChaosEngine::instance().recordFault(
                        "device_reset", at);
                    target->reset(downtime);
                });
        }
    }

    const fleet::LoadgenReport report = fleet::runOpenLoop(fleet, load);

    if (json)
        printJson(report);
    else
        printTable(report);

    if (printMetrics)
        std::printf("\n%s\n",
                    obs::MetricsRegistry::instance().toJson().c_str());
    if (!metricsOut.empty()) {
        std::ofstream out(metricsOut);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", metricsOut.c_str());
            return 1;
        }
        out << obs::MetricsRegistry::instance().toJson() << "\n";
        if (!json)
            std::printf("(wrote metrics to %s)\n", metricsOut.c_str());
    }

    // A run that delivered nothing (or saw channel-layer failures) is
    // a broken testbed, not a measurement.
    if (report.delivered == 0 || report.writeFailures != 0) {
        std::fprintf(stderr, "hydra_fleet: run did not deliver cleanly\n");
        return 1;
    }
    return 0;
}
