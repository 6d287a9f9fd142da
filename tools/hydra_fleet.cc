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
 * Flags are declared in one table in main(), as in hydra_sim.
 *
 * --chaos arms the deterministic fault injector (same grammar as
 * hydra_sim). Scheduled resets match fleet NICs by name ("host0-nic",
 * "host1-nic", ...).
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "chaos/chaos.hh"
#include "common/flags.hh"
#include "common/json.hh"
#include "exec/executor.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"
#include "obs/metrics.hh"

using namespace hydra;

namespace {

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

    parseFlags(
        argc, argv,
        {intFlag("--hosts", fleetConfig.hosts, 1),
         intFlag("--streams", load.streams, 1),
         intFlag("--rate", load.offeredMsgsPerSec, 0),
         intFlag("--bytes", load.messageBytes, 8),
         intFlag("--duration-ms", durationMs, 1,
                 sim::maxCount(sim::milliseconds(1))),
         intFlag("--tick-us", tickUs, 1, sim::maxCount(sim::microseconds(1))),
         {"--executor", "sim|threaded",
          [&](const std::string &v, std::string &) {
              return exec::parseExecutorKind(v, kind);
          }},
         intFlag("--churn", load.churnPerTick, 0),
         switchFlag("--remote-only", load.remoteOnly),
         switchFlag("--drivers", load.useDrivers),
         intFlag("--seed", fleetConfig.seed, 0),
         switchFlag("--background-load", fleetConfig.backgroundLoad),
         switchFlag("--json", json),
         switchFlag("--metrics", printMetrics),
         stringFlag("--metrics-out", "FILE", metricsOut),
         chaos::chaosFlag()});
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
