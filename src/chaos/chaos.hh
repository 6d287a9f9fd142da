/**
 * @file
 * Seeded, deterministic fault-injection engine.
 *
 * Chaos is opt-in: every binary runs with the engine disabled unless
 * `--chaos SEED[:spec]` configures it. Hot paths pay exactly one
 * relaxed atomic load while disabled. When enabled, every decision
 * point draws from a per-fault-class Rng stream (seed XOR a class
 * constant), so adding a new fault class never perturbs the draws of
 * an existing one and a seeded run replays byte-for-byte under the
 * deterministic SimExecutor.
 *
 * Fault classes:
 *  - packet drop / duplicate / corrupt, injected in net::Network;
 *  - slow or stalled executor sites (SimExecutor delays the posted
 *    work in virtual time; ThreadedExecutor naps the worker thread);
 *  - payload-pool exhaustion, injected in the write check every
 *    channel transport shares (core::Channel::admit), and ring
 *    overflow, injected in the DMA-ring transport;
 *  - scheduled device resets (`reset@MS=device[/downtime-ms]`),
 *    executed by the harness against `dev::Device::reset()`.
 *
 * Every injected fault increments `chaos.injected{fault=...}` and
 * emits a trace instant on the "chaos" lane; every successful
 * recovery (offcode restart completing, backlog replayed) counts in
 * `chaos.recoveries`.
 */

#ifndef HYDRA_CHAOS_CHAOS_HH
#define HYDRA_CHAOS_CHAOS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/result.hh"
#include "common/rng.hh"
#include "sim/time.hh"

namespace hydra::chaos {

/** One scheduled device reset: `reset@MS=device[/downtime-ms]`. */
struct ScheduledReset
{
    sim::SimTime at = 0;        ///< virtual time of the reset
    std::string device;         ///< dev::Device name to reset
    sim::SimTime downtime = sim::milliseconds(5);
};

/**
 * Parsed `--chaos SEED[:k=v,...]` configuration. All probabilities
 * are per-decision-point and must lie in [0, 1].
 */
struct ChaosSpec
{
    std::uint64_t seed = 0;
    double packetDrop = 0.0;      ///< drop=P   on net::Network::send
    double packetDuplicate = 0.0; ///< dup=P    deliver the packet twice
    double packetCorrupt = 0.0;   ///< corrupt=P flip one payload byte
    double workerSlow = 0.0;      ///< slow=P   delay one posted task
    double workerStall = 0.0;     ///< stall=P  wedge a site for stallTime
    /** poolfail=P: a channel write (local, dma-ring or remote) sees
     * OOM, drawn per message; the write stops at the refused one. */
    double poolExhaust = 0.0;
    double ringOverflow = 0.0;    ///< ringfull=P transport sees 0 credits
    sim::SimTime slowDelay = sim::microseconds(200); ///< slow-ms=N
    sim::SimTime stallTime = sim::milliseconds(2);   ///< stall-ms=N
    std::vector<ScheduledReset> resets;              ///< reset@MS=dev[/ms]
};

/**
 * Parse "SEED[:k=v,...]". SEED is a non-negative integer; keys are
 * drop, dup, corrupt, slow, stall, poolfail, ringfull (probabilities,
 * rejected outside [0,1] or non-numeric), slow-ms / stall-ms
 * (positive durations), and reset@MS=device[/downtime-ms]
 * (repeatable). Returns InvalidArgument with a message naming the
 * offending token otherwise.
 */
Result<ChaosSpec> parseChaosSpec(const std::string &text);

/**
 * `--chaos SEED[:spec]` for a driver's flag table: parses the spec
 * and arms ChaosEngine::instance() with it.
 */
Flag chaosFlag();

/**
 * Process-wide fault injector. Disabled by default; configure() arms
 * it. Decision points take the current virtual time so the injected
 * fault can be traced at the instant it fired.
 */
class ChaosEngine
{
  public:
    static ChaosEngine &instance();

    /** Arm the engine with @p spec (re-seeds every fault stream). */
    void configure(const ChaosSpec &spec);
    /** Disarm; decision points return false again. */
    void disable();
    /** One relaxed load — the only cost on hot paths while disarmed. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Copy of the active spec (harness reads the reset schedule). */
    ChaosSpec spec() const;

    // Decision points. Each returns true when the fault fires and, on
    // fire, has already counted + traced it. All are safe to call
    // while disarmed (they return false without drawing).
    bool dropPacket(sim::SimTime now);
    bool duplicatePacket(sim::SimTime now);
    bool corruptPacket(sim::SimTime now);
    /** Which payload byte to flip; only after corruptPacket() fired. */
    std::size_t corruptByteIndex(std::size_t payloadSize);
    /** Delay a posted task by @p delay of virtual time. */
    bool slowPost(sim::SimTime now, sim::SimTime &delay);
    /** Wedge a whole site until now + @p duration. */
    bool stallSite(sim::SimTime now, sim::SimTime &duration);
    bool exhaustPool(sim::SimTime now);
    bool overflowRing(sim::SimTime now);

    /** Count a fault injected by a caller (e.g. a scheduled reset). */
    void recordFault(const char *fault, sim::SimTime now);
    /** Count a completed recovery in `chaos.recoveries{kind=...}`. */
    static void recordRecovery(const char *kind);

    /** Total faults injected since configure(). */
    std::uint64_t injected() const;

  private:
    ChaosEngine() = default;

    enum Stream {
        kDrop = 0,
        kDuplicate,
        kCorrupt,
        kSlow,
        kStall,
        kPool,
        kRing,
        kStreamCount
    };

    bool draw(Stream stream, double ChaosSpec::*probability);
    void note(const char *fault, sim::SimTime now);

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> injected_{0};
    mutable std::mutex mutex_;
    ChaosSpec spec_;
    Rng streams_[kStreamCount];
};

} // namespace hydra::chaos

#endif // HYDRA_CHAOS_CHAOS_HH
