/**
 * @file
 * Fleet scale ladder (DESIGN.md §14): 4 hosts on the *threaded*
 * executor, 10k -> 100k (-> 1M with --full) concurrent streams at a
 * fixed offered rate, reporting delivery p50/p99/p999 and per-host
 * CPU. The point is that stream count is a memory axis, not a latency
 * axis: the wire fabric demuxes by ChannelId, so percentiles stay flat
 * as the ladder climbs. Exits 1 if a rung does not deliver cleanly.
 *
 * The 1-vs-4-host goodput bar (>= 2x) is gated on BM_FleetOpenLoop by
 * scripts/bench_gate.py.
 *
 * Usage: fleet_scale [--full] [--json FILE]
 */

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/json.hh"
#include "exec/executor.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"

using namespace hydra;

namespace {

fleet::LoadgenReport
ladderRun(std::size_t streams)
{
    auto executor = exec::makeExecutor(exec::ExecutorKind::Threaded);
    fleet::FleetConfig config;
    config.hosts = 4;
    fleet::Fleet fleet(*executor, config);

    fleet::LoadgenConfig load;
    load.streams = streams;
    load.messageBytes = 256;
    load.offeredMsgsPerSec = 2e6;
    load.duration = sim::milliseconds(20);
    return runOpenLoop(fleet, load);
}

void
printLadderRow(const fleet::LoadgenReport &report)
{
    double cpuLo = 1e18;
    double cpuHi = 0.0;
    for (const auto &slice : report.perHost) {
        const double pct = 100.0 * static_cast<double>(slice.busyNs) /
                           static_cast<double>(report.elapsed);
        cpuLo = std::min(cpuLo, pct);
        cpuHi = std::max(cpuHi, pct);
    }
    std::printf("%9zu %10llu %10llu %9.1f %9.1f %9.1f %7.0f-%-4.0f %9.0f\n",
                report.streams,
                static_cast<unsigned long long>(report.offered),
                static_cast<unsigned long long>(report.delivered),
                report.latency.p50 / 1e3, report.latency.p99 / 1e3,
                report.latency.p999 / 1e3, cpuLo, cpuHi, report.wallMs);
}

} // namespace

int
main(int argc, char **argv)
{
    bool full = false;
    std::string jsonOut;
    parseFlags(argc, argv,
               {switchFlag("--full", full),
                stringFlag("--json", "FILE", jsonOut)});

    // Scale ladder (threaded executor, 4 hosts).
    std::printf("== scale ladder: 4 hosts, threaded executor, "
                "2M msgs/s offered, 20 ms window ==\n");
    std::printf("%9s %10s %10s %9s %9s %9s %12s %9s\n", "streams",
                "offered", "delivered", "p50-us", "p99-us", "p999-us",
                "cpu%lo-hi", "wall-ms");
    std::vector<fleet::LoadgenReport> ladder;
    std::vector<std::size_t> rungs{10000, 100000};
    if (full)
        rungs.push_back(1000000);
    for (std::size_t streams : rungs) {
        ladder.push_back(ladderRun(streams));
        printLadderRow(ladder.back());
        if (ladder.back().delivered == 0 ||
            ladder.back().writeFailures != 0) {
            std::fprintf(stderr, "ladder rung %zu did not run cleanly\n",
                         streams);
            return 1;
        }
    }

    if (!jsonOut.empty()) {
        std::ofstream out(jsonOut);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", jsonOut.c_str());
            return 1;
        }
        char stamp[64] = "";
        const std::time_t now = std::time(nullptr);
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%S%z",
                      std::localtime(&now));
        json::Writer w(out);
        w.beginObject().field("bench", "fleet_scale").field("date", stamp);
        w.key("scale_ladder").beginArray();
        for (const auto &r : ladder) {
            w.beginObject().field("hosts", r.hosts);
            w.field("streams", r.streams).field("offered", r.offered);
            w.field("delivered", r.delivered);
            w.field("p50_ns", r.latency.p50).field("p99_ns", r.latency.p99);
            w.field("p999_ns", r.latency.p999).field("wall_ms", r.wallMs);
            w.key("per_host").beginArray();
            for (const auto &slice : r.perHost) {
                w.beginObject().field("host", slice.host);
                w.field("busy_ns", slice.busyNs);
                w.field("delivered", slice.delivered).endObject();
            }
            w.endArray().endObject();
        }
        w.endArray().endObject();
        out << '\n';
        std::printf("\n(wrote %s)\n", jsonOut.c_str());
    }

    return 0;
}
