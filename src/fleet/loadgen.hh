/**
 * @file
 * Open-loop workload generator for fleet scale runs (DESIGN.md §14).
 *
 * Open loop means arrivals are paced by a virtual-time clock, not by
 * completions: a pacer tick computes how many messages the offered
 * rate owes and writes them regardless of how far behind delivery
 * is, which is what exposes capacity walls (a closed loop would
 * politely slow down instead). Streams are long-lived channels placed
 * by the fleet's consistent-hash ring; optional churn
 * destroys/recreates streams while traffic flows, which is what
 * exposed the executive registry wall this refactor removed.
 *
 * Thread model: by default everything runs on the coordinator
 * (deterministic under the sim engine). With useDrivers, writes are
 * posted to each host's driver site — real threads under the
 * threaded engine — and placement is forced cross-host, because only
 * the remote transport is multi-writer safe.
 */

#ifndef HYDRA_FLEET_LOADGEN_HH
#define HYDRA_FLEET_LOADGEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "obs/histogram.hh"

namespace hydra::fleet {

/** Open-loop run parameters. */
struct LoadgenConfig
{
    /** Concurrent streams (channels alive for the whole run). */
    std::size_t streams = 1000;
    std::size_t messageBytes = 256;
    /** Aggregate offered load, messages per virtual second. */
    double offeredMsgsPerSec = 1e6;
    /** Measurement window (virtual time). */
    sim::SimTime duration = sim::milliseconds(100);
    /** Pacer granularity. */
    sim::SimTime tick = sim::microseconds(100);
    /** Extra virtual time after the window for in-flight deliveries. */
    sim::SimTime drain = sim::milliseconds(5);
    /** Force every stream cross-host (implied by useDrivers). */
    bool remoteOnly = false;
    /** Post writes to per-host driver sites (threads when threaded). */
    bool useDrivers = false;
    /** Streams destroyed+recreated per pacer tick (registry churn). */
    std::size_t churnPerTick = 0;
    /** Shared channel display name: bounds the latency-histogram
     * registry at one series per creator host, not per stream. */
    std::string channelName = "fleet.stream";
    /** Zero the global metrics registry before the run (benches). */
    bool resetMetrics = false;
};

/** Per-host slice of the report. */
struct LoadgenHostReport
{
    std::string host;
    std::size_t streamsHomed = 0;
    /** Messages delivered to endpoints on this host. */
    std::uint64_t delivered = 0;
    /** Host CPU + NIC firmware busy ns over the run. */
    std::uint64_t busyNs = 0;
};

/** What an open-loop run measured. */
struct LoadgenReport
{
    std::size_t hosts = 0;
    std::size_t streams = 0;
    std::size_t remoteStreams = 0;
    std::size_t localStreams = 0;
    /** Streams that wrote at least one message: the offered load
     * spreads over these, not over every stream. */
    std::size_t activeStreams = 0;
    /** Messages the pacer wrote (open-loop offered count). */
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    std::uint64_t churned = 0;
    /** Writes the channel layer rejected (should be zero). */
    std::uint64_t writeFailures = 0;
    /** channel.payload_copies{buffering=wire} delta over the run:
     * exactly one buffered copy per cross-host message. */
    std::uint64_t wireCopies = 0;
    /** channel.payload_copies{buffering=zero-copy} delta. The
     * counter records copies *performed*, so intra-host zero-copy
     * traffic must leave this at 0 (the fleet test's invariant). */
    std::uint64_t zeroCopies = 0;
    /** End-to-end write->handler latency (fleet.delivery_ns). */
    obs::HistogramSummary latency;
    /** Virtual measurement window. */
    sim::SimTime elapsed = 0;
    double deliveredPerVirtualSec = 0.0;
    /** Real time the run took to simulate. */
    double wallMs = 0.0;
    std::vector<LoadgenHostReport> perHost;
};

/** Drive @p fleet with an open-loop load; returns the measurements.
 * Runs the fleet's executor (runUntil) — the caller owns quiescence
 * before and after. */
LoadgenReport runOpenLoop(Fleet &fleet, const LoadgenConfig &config);

} // namespace hydra::fleet

#endif // HYDRA_FLEET_LOADGEN_HH
