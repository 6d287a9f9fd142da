/**
 * @file
 * Chaos engine + firmware OS hardening tests (DESIGN.md §15): spec
 * parsing, seeded-draw determinism, pool exhaustion refusing channel
 * writes on every transport, NIC-reset-mid-stream survival
 * with zero message loss on both execution engines, the per-Offcode
 * watchdog killing a wedged instance, and quota enforcement (memory
 * at deploy and at dispatch, CPU budget preemption that defers but
 * never drops).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.hh"
#include "common/rng.hh"
#include "core/runtime.hh"
#include "dev/nic.hh"
#include "core/executive.hh"
#include "exec/sim_executor.hh"
#include "fleet/fleet.hh"
#include "net/network.hh"
#include "obs/metrics.hh"
#include "tivo/harness.hh"

namespace hydra {
namespace {

/**
 * Every test here runs against the process-wide ChaosEngine and
 * metrics registry, so each one starts from a disarmed engine and a
 * zeroed registry and leaves the same behind.
 */
class ChaosFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        chaos::ChaosEngine::instance().disable();
        obs::MetricsRegistry::instance().reset();
    }

    void
    TearDown() override
    {
        chaos::ChaosEngine::instance().disable();
        obs::MetricsRegistry::instance().reset();
    }
};

// -------------------------------------------------------- spec parsing

TEST(ChaosSpecTest, ParsesSeedOnly)
{
    auto spec = chaos::parseChaosSpec("42");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec.value().seed, 42u);
    EXPECT_EQ(spec.value().packetDrop, 0.0);
    EXPECT_TRUE(spec.value().resets.empty());
}

TEST(ChaosSpecTest, ParsesFullSpec)
{
    auto spec = chaos::parseChaosSpec(
        "7:drop=0.01,dup=0.02,corrupt=0.005,slow=0.1,stall=0.01,"
        "poolfail=0.001,ringfull=0.002,slow-ms=3,stall-ms=4,"
        "reset@2000=client-nic/10,reset@5000=server-nic");
    ASSERT_TRUE(spec.ok()) << spec.error().describe();
    const chaos::ChaosSpec &s = spec.value();
    EXPECT_EQ(s.seed, 7u);
    EXPECT_DOUBLE_EQ(s.packetDrop, 0.01);
    EXPECT_DOUBLE_EQ(s.packetDuplicate, 0.02);
    EXPECT_DOUBLE_EQ(s.packetCorrupt, 0.005);
    EXPECT_DOUBLE_EQ(s.workerSlow, 0.1);
    EXPECT_DOUBLE_EQ(s.workerStall, 0.01);
    EXPECT_DOUBLE_EQ(s.poolExhaust, 0.001);
    EXPECT_DOUBLE_EQ(s.ringOverflow, 0.002);
    EXPECT_EQ(s.slowDelay, sim::milliseconds(3));
    EXPECT_EQ(s.stallTime, sim::milliseconds(4));
    ASSERT_EQ(s.resets.size(), 2u);
    EXPECT_EQ(s.resets[0].at, sim::milliseconds(2000));
    EXPECT_EQ(s.resets[0].device, "client-nic");
    EXPECT_EQ(s.resets[0].downtime, sim::milliseconds(10));
    EXPECT_EQ(s.resets[1].device, "server-nic");
    EXPECT_EQ(s.resets[1].downtime, sim::milliseconds(5));
}

TEST(ChaosSpecTest, RejectsMalformedSpecs)
{
    // Probabilities must be numeric and inside [0, 1]; durations
    // positive and small enough to fit a SimTime; the seed must fit
    // [0, 2^63-1]; keys known; reset targets named.
    for (const char *bad :
         {"", "abc", "-1", "7:drop=-0.1", "7:drop=1.5", "7:drop=abc",
          "7:drop=", "7:bogus=0.5", "7:slow-ms=0", "7:slow-ms=x",
          "7:reset@=nic", "7:reset@100=", "7:reset@abc=nic",
          "7:reset@100=nic/0", "7:reset@100=nic/xyz", "7:drop",
          "99999999999999999999", "7:slow-ms=1e300", "7:stall-ms=inf",
          "7:reset@1e300=nic", "7:reset@100=nic/1e300"}) {
        auto spec = chaos::parseChaosSpec(bad);
        EXPECT_FALSE(spec.ok()) << "accepted: " << bad;
    }
}

/** Accepted specs hold only in-range values; rejections say why. */
void
expectSaneOutcome(const Result<chaos::ChaosSpec> &spec,
                  const std::string &text)
{
    if (!spec.ok()) {
        EXPECT_EQ(spec.error().code, ErrorCode::InvalidArgument) << text;
        EXPECT_FALSE(spec.error().message.empty()) << text;
        return;
    }
    const chaos::ChaosSpec &s = spec.value();
    for (double p : {s.packetDrop, s.packetDuplicate, s.packetCorrupt,
                     s.workerSlow, s.workerStall, s.poolExhaust,
                     s.ringOverflow})
        EXPECT_TRUE(p >= 0.0 && p <= 1.0) << text;
    EXPECT_LE(s.seed, static_cast<std::uint64_t>(
                          std::numeric_limits<long long>::max()))
        << text;
    EXPECT_GT(s.slowDelay, 0u) << text;
    EXPECT_GT(s.stallTime, 0u) << text;
    for (const chaos::ScheduledReset &reset : s.resets) {
        EXPECT_GT(reset.at, 0u) << text;
        EXPECT_GT(reset.downtime, 0u) << text;
        EXPECT_FALSE(reset.device.empty()) << text;
    }
}

/** A random well-formed spec: a seed and up to six key=value tokens. */
std::string
randomChaosSpec(Rng &rng)
{
    static const char *kProbabilityKeys[] = {
        "drop", "dup", "corrupt", "slow", "stall", "poolfail", "ringfull"};
    std::string spec = std::to_string(rng.uniformInt(0, 1000000));
    for (std::int64_t i = rng.uniformInt(0, 6); i > 0; --i) {
        spec += spec.find(':') == std::string::npos ? ':' : ',';
        char number[32];
        switch (rng.uniformInt(0, 2)) {
          case 0:
            std::snprintf(number, sizeof number, "%.4f", rng.uniform());
            spec += std::string(kProbabilityKeys[rng.uniformInt(0, 6)]) +
                    "=" + number;
            break;
          case 1:
            std::snprintf(number, sizeof number, "%.1f",
                          rng.uniform(0.1, 100.0));
            spec += std::string(rng.chance(0.5) ? "slow-ms=" : "stall-ms=") +
                    number;
            break;
          default:
            spec += "reset@" + std::to_string(rng.uniformInt(1, 9000)) +
                    "=client-nic";
            if (rng.chance(0.5))
                spec += "/" + std::to_string(rng.uniformInt(1, 50));
            break;
        }
    }
    return spec;
}

TEST(ChaosSpecTest, SeededCorpusMutationsParseOrFailCleanly)
{
    // Values that overflow, saturate or leave the double range, each
    // spliced over a number of a valid spec.
    static const char *kHostile[] = {
        "99999999999999999999", "18446744073709551617", "1e300", "-1e300",
        "inf", "nan", "-0", "", "0x10", "1e-300", "18446744073710"};
    Rng rng(23);
    std::string previous = "1";
    for (int round = 0; round < 400; ++round) {
        const std::string text = randomChaosSpec(rng);
        auto valid = chaos::parseChaosSpec(text);
        ASSERT_TRUE(valid.ok()) << text << ": " << valid.error().describe();
        expectSaneOutcome(valid, text);

        const auto last = static_cast<std::int64_t>(text.size());
        for (int cut = 0; cut < 3; ++cut) {
            const std::string head = text.substr(
                0, static_cast<std::size_t>(rng.uniformInt(0, last)));
            expectSaneOutcome(chaos::parseChaosSpec(head), head);
        }

        std::string flipped = text;
        const auto at = static_cast<std::size_t>(rng.uniformInt(0, last - 1));
        flipped[at] = static_cast<char>(
            flipped[at] ^ static_cast<char>(rng.uniformInt(1, 255)));
        expectSaneOutcome(chaos::parseChaosSpec(flipped), flipped);

        // Token splice: the head of this spec joined to the tail of the
        // previous one.
        const std::string spliced =
            text.substr(0, static_cast<std::size_t>(rng.uniformInt(0, last))) +
            previous.substr(static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(previous.size()))));
        expectSaneOutcome(chaos::parseChaosSpec(spliced), spliced);
        previous = text;

        // A hostile literal in place of the first digit run at or after
        // a random offset.
        const std::size_t digit = text.find_first_of(
            "0123456789", static_cast<std::size_t>(rng.uniformInt(0, last)));
        if (digit != std::string::npos) {
            const std::size_t end =
                text.find_first_not_of("0123456789.", digit);
            const std::string hostile =
                text.substr(0, digit) +
                kHostile[rng.uniformInt(
                    0, static_cast<std::int64_t>(std::size(kHostile)) - 1)] +
                (end == std::string::npos ? "" : text.substr(end));
            expectSaneOutcome(chaos::parseChaosSpec(hostile), hostile);
        }
    }
}

// --------------------------------------------------- draw determinism

TEST_F(ChaosFixture, SameSeedReplaysIdenticalDecisions)
{
    chaos::ChaosSpec spec;
    spec.seed = 99;
    spec.packetDrop = 0.3;
    spec.packetCorrupt = 0.2;

    auto &engine = chaos::ChaosEngine::instance();
    auto record = [&]() {
        engine.configure(spec);
        std::vector<bool> decisions;
        for (int i = 0; i < 200; ++i) {
            decisions.push_back(engine.dropPacket(i));
            decisions.push_back(engine.corruptPacket(i));
        }
        return decisions;
    };
    const auto first = record();
    const auto second = record();
    EXPECT_EQ(first, second);

    spec.seed = 100;
    const auto reseeded = record();
    EXPECT_NE(first, reseeded);
}

TEST_F(ChaosFixture, StreamsAreIndependentPerFaultClass)
{
    // Drawing from one class must not perturb another: drop-only
    // decisions are identical whether or not corrupt draws happen
    // in between.
    chaos::ChaosSpec spec;
    spec.seed = 4242;
    spec.packetDrop = 0.5;
    spec.packetCorrupt = 0.5;

    auto &engine = chaos::ChaosEngine::instance();
    engine.configure(spec);
    std::vector<bool> dropsAlone;
    for (int i = 0; i < 100; ++i)
        dropsAlone.push_back(engine.dropPacket(i));

    engine.configure(spec);
    std::vector<bool> dropsInterleaved;
    for (int i = 0; i < 100; ++i) {
        dropsInterleaved.push_back(engine.dropPacket(i));
        (void)engine.corruptPacket(i);
    }
    EXPECT_EQ(dropsAlone, dropsInterleaved);
}

TEST_F(ChaosFixture, DisabledEngineNeverFires)
{
    auto &engine = chaos::ChaosEngine::instance();
    ASSERT_FALSE(engine.enabled());
    const std::uint64_t before = engine.injected();
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(engine.dropPacket(i));
        EXPECT_FALSE(engine.duplicatePacket(i));
        EXPECT_FALSE(engine.corruptPacket(i));
        EXPECT_FALSE(engine.exhaustPool(i));
        EXPECT_FALSE(engine.overflowRing(i));
    }
    EXPECT_EQ(engine.injected(), before);
}

// ------------------------------------------ pool exhaustion (poolfail)

TEST_F(ChaosFixture, PoolFailRefusesABatchAtItsFirstMessageOnEveryTransport)
{
    // poolfail=1: every channel write, batched or single, on a local,
    // a dma-ring and a remote channel, is refused at its first message
    // with OutOfMemory. The refusal draws once, counts nothing as
    // sent, and delivers nothing; disarmed, the same batch goes out.
    exec::SimExecutor exec;
    fleet::FleetConfig config;
    config.hosts = 2;
    fleet::Fleet fleet(exec, config);
    fleet::Host &home = fleet.host(0);
    fleet::Host &peer = fleet.host(1);

    struct Case
    {
        const char *transport;
        core::ExecutionSite *target;
    };
    const std::vector<Case> cases{
        {"local", &home.runtime().hostSite()},
        {"dma-ring", home.runtime().siteByName(home.nic().name())},
        {"remote", peer.runtime().siteByName(peer.nic().name())},
    };
    auto spec = chaos::parseChaosSpec("1:poolfail=1");
    ASSERT_TRUE(spec.ok());
    auto &engine = chaos::ChaosEngine::instance();
    auto &registry = obs::MetricsRegistry::instance();
    const obs::Labels poolExhausted{{"fault", "pool_exhausted"}};
    const auto batch = []() {
        std::vector<Payload> messages;
        for (std::uint8_t i = 0; i < 3; ++i)
            messages.push_back(Payload(Bytes(64, i)));
        return messages;
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.transport);
        ASSERT_NE(c.target, nullptr);
        core::ChannelConfig channelConfig;
        channelConfig.targetDevice = c.target->name();
        channelConfig.maxMessageBytes = 512;
        auto created = home.executive().createChannel(
            channelConfig, home.runtime().hostSite(), 64);
        ASSERT_TRUE(created.ok()) << created.error().describe();
        core::Channel *channel = created.value();
        auto endpoint = channel->connectSite(*c.target);
        ASSERT_TRUE(endpoint.ok());
        std::uint64_t handled = 0;
        channel->installHandler(endpoint.value(),
                                [&handled](const Payload &, std::size_t) {
                                    ++handled;
                                });

        const obs::Labels transport{{"transport", c.transport}};
        const std::uint64_t sent0 =
            registry.counterValue("channel.messages_sent", transport);
        const std::uint64_t delivered0 =
            registry.counterValue("channel.messages_delivered");
        const std::uint64_t fired0 =
            registry.counterValue("chaos.injected", poolExhausted);

        engine.configure(spec.value());
        EXPECT_EQ(channel->writeBatch(batch()).code(),
                  ErrorCode::OutOfMemory);
        EXPECT_EQ(channel->write(Payload(Bytes(64, 9))).code(),
                  ErrorCode::OutOfMemory);
        exec.runUntil(exec.now() + sim::milliseconds(20));
        exec.drain();
        engine.disable();

        EXPECT_EQ(registry.counterValue("chaos.injected", poolExhausted) -
                      fired0,
                  2u);
        EXPECT_EQ(registry.counterValue("channel.messages_sent", transport),
                  sent0);
        EXPECT_EQ(registry.counterValue("channel.messages_delivered"),
                  delivered0);
        EXPECT_EQ(channel->stats().messagesSent, 0u);
        EXPECT_EQ(channel->stats().bytesSent, 0u);
        EXPECT_EQ(handled, 0u);

        // Disarmed, the same batch goes through whole.
        ASSERT_TRUE(channel->writeBatch(batch()).ok());
        exec.runUntil(exec.now() + sim::milliseconds(20));
        exec.drain();
        EXPECT_EQ(channel->stats().messagesSent, 3u);
        EXPECT_EQ(handled, 3u);
        ASSERT_TRUE(home.executive().destroyChannel(channel->id()).ok());
    }
}

// ------------------------------------- NIC reset survival (tentpole)

/**
 * Stream the offloaded TiVo scenario through a client-NIC reset and
 * require exactly-once delivery: every chunk the server sent arrived
 * despite the device going down mid-stream, and the recovery path
 * (offcode restart + rx replay) actually ran.
 */
void
runResetSurvival(exec::ExecutorKind executorKind)
{
    chaos::ChaosSpec spec;
    spec.seed = 7;
    spec.resets.push_back(
        {sim::milliseconds(3000), "client-nic", sim::milliseconds(5)});
    chaos::ChaosEngine::instance().configure(spec);

    tivo::TestbedConfig config;
    config.server = tivo::ServerKind::Offloaded;
    config.client = tivo::ClientKind::Offloaded;
    config.executor = executorKind;
    config.duration = sim::seconds(10);
    tivo::Testbed testbed(config);
    const tivo::ScenarioResult result = testbed.run();

    ASSERT_TRUE(result.deploymentOk);
    EXPECT_GT(result.chunksSent, 0u);
    EXPECT_GT(result.framesDisplayed, 0u);
    // Zero loss: the reset dropped no client messages.
    EXPECT_EQ(result.packetsReceived, result.chunksSent);

    auto &metrics = obs::MetricsRegistry::instance();
    EXPECT_GE(metrics.counterTotal("dev.resets"), 1u);
    EXPECT_GE(metrics.counterTotal("offcode.restarts"), 1u);
    EXPECT_GE(metrics.counterTotal("chaos.recoveries"), 1u);
    EXPECT_EQ(metrics.counterTotal("nic.reset_rx_dropped"), 0u);
    EXPECT_GE(chaos::ChaosEngine::instance().injected(), 1u);
}

TEST_F(ChaosFixture, NicResetMidStreamLosesNothingSim)
{
    runResetSurvival(exec::ExecutorKind::Sim);
}

TEST_F(ChaosFixture, NicResetMidStreamLosesNothingThreaded)
{
    runResetSurvival(exec::ExecutorKind::Threaded);
}

// ------------------------------------------- firmware OS: watchdog

/** Offcode counting deliveries into shared state that survives the
 * restart swap (the instance is replaced; the counter is not). */
class CountingOffcode : public core::Offcode
{
  public:
    CountingOffcode(std::string bindname, std::shared_ptr<int> hits)
        : Offcode(std::move(bindname)), hits_(std::move(hits))
    {
    }

    void
    onData(const Payload &, core::ChannelHandle) override
    {
        ++*hits_;
    }

  private:
    std::shared_ptr<int> hits_;
};

/** Offcode that burns @p burnNs of site CPU per delivery. */
class BusyOffcode : public core::Offcode
{
  public:
    BusyOffcode(std::string bindname, sim::SimTime burnNs,
                std::shared_ptr<int> hits)
        : Offcode(std::move(bindname)), burnNs_(burnNs),
          hits_(std::move(hits))
    {
    }

    void
    onData(const Payload &, core::ChannelHandle) override
    {
        ++*hits_;
        if (context().site)
            context().site->run(burnNs_);
    }

  private:
    sim::SimTime burnNs_;
    std::shared_ptr<int> hits_;
};

/** Runtime-over-one-NIC fixture mirroring core_runtime_test.cc. */
class FirmwareOsFixture : public ChaosFixture
{
  protected:
    void
    buildRuntime(core::RuntimeConfig config = {})
    {
        machine_ = std::make_unique<hw::Machine>(sim_,
                                                 hw::MachineConfig{});
        net_ = std::make_unique<net::Network>(sim_,
                                              net::NetworkConfig{});
        nicNode_ = net_->addNode("nic");
        nic_ = std::make_unique<dev::ProgrammableNic>(
            sim_, machine_->bus(), *net_, nicNode_);
        runtime_ = std::make_unique<core::Runtime>(*machine_,
                                                   std::move(config));
        ASSERT_TRUE(runtime_->attachDevice(*nic_).ok());
    }

    std::string
    nicOdf(const std::string &bindname)
    {
        return "<offcode><package><bindname>" + bindname +
               "</bindname></package><sw-env></sw-env><targets>"
               "<device-class id=\"0x0001\"/>"
               "<host-fallback/></targets></offcode>";
    }

    /** Deploy @p bindname and return its handle (runs the pipeline). */
    core::OffcodeHandle
    deploy(const std::string &bindname)
    {
        core::OffcodeHandle handle;
        bool done = false;
        runtime_->createOffcode(
            bindname, [&](Result<core::OffcodeHandle> result) {
                ASSERT_TRUE(result.ok()) << result.error().describe();
                handle = result.value();
                done = true;
            });
        sim_.runUntil(sim_.now() + sim::seconds(1));
        EXPECT_TRUE(done);
        return handle;
    }

    /** Channel from the host site to the NIC-resident @p offcode. */
    core::Channel *
    channelTo(core::Offcode &offcode)
    {
        core::ChannelConfig config;
        config.name = "test.chaos";
        config.targetDevice = "nic";
        auto channel = runtime_->executive().createChannel(
            config, *runtime_->siteByName("host"));
        EXPECT_TRUE(channel.ok());
        EXPECT_TRUE(channel.value()->connectOffcode(offcode).ok());
        return channel.value();
    }

    exec::SimExecutor sim_;
    std::unique_ptr<hw::Machine> machine_;
    std::unique_ptr<net::Network> net_;
    net::NodeId nicNode_ = 0;
    std::unique_ptr<dev::ProgrammableNic> nic_;
    std::unique_ptr<core::Runtime> runtime_;
};

TEST_F(FirmwareOsFixture, WatchdogRestartsWedgedOffcodeAndReplays)
{
    core::RuntimeConfig config;
    config.watchdogLimitNs = sim::milliseconds(50);
    config.watchdogPeriodNs = sim::milliseconds(10);
    buildRuntime(std::move(config));

    auto hits = std::make_shared<int>(0);
    runtime_->depot().registerOffcode(nicOdf("test.Wedge"), [hits]() {
        return std::make_unique<CountingOffcode>("test.Wedge", hits);
    });
    core::OffcodeHandle handle = deploy("test.Wedge");
    ASSERT_NE(handle.offcode, nullptr);
    core::Channel *channel = channelTo(*handle.offcode);
    ASSERT_NE(channel, nullptr);

    // Wedge the instance: handlers vanish, traffic queues behind it.
    EXPECT_GT(runtime_->executive().detachOffcode(*handle.offcode), 0u);
    ASSERT_TRUE(channel->write(core::encodeData(Bytes{1, 2, 3})).ok());
    sim_.runUntil(sim_.now() + sim::milliseconds(5));
    EXPECT_EQ(*hits, 0);
    EXPECT_GT(runtime_->executive().queuedFor(*handle.offcode), 0u);

    // The watchdog must notice the stalled backlog, kill the
    // instance, and the rebind must replay the queued message into
    // the successor — preemptive recovery without message loss.
    sim_.runUntil(sim_.now() + sim::milliseconds(500));

    auto &metrics = obs::MetricsRegistry::instance();
    EXPECT_GE(metrics.counterValue("offcode.watchdog_kills",
                                   {{"offcode", "test.Wedge"}}),
              1u);
    EXPECT_GE(metrics.counterValue("offcode.restarts",
                                   {{"offcode", "test.Wedge"}}),
              1u);
    EXPECT_EQ(*hits, 1);

    auto restarted = runtime_->getOffcode("test.Wedge");
    ASSERT_TRUE(restarted.ok());
    EXPECT_NE(restarted.value().offcode, handle.offcode);
    EXPECT_EQ(restarted.value().offcode->state(),
              core::OffcodeState::Started);
}

TEST_F(FirmwareOsFixture, WatchdogDisabledByDefault)
{
    buildRuntime();
    auto hits = std::make_shared<int>(0);
    runtime_->depot().registerOffcode(nicOdf("test.Quiet"), [hits]() {
        return std::make_unique<CountingOffcode>("test.Quiet", hits);
    });
    core::OffcodeHandle handle = deploy("test.Quiet");
    ASSERT_NE(handle.offcode, nullptr);

    // An idle Offcode sits untouched forever with the watchdog off.
    sim_.runUntil(sim_.now() + sim::seconds(5));
    EXPECT_EQ(obs::MetricsRegistry::instance().counterTotal(
                  "offcode.watchdog_kills"),
              0u);
    auto still = runtime_->getOffcode("test.Quiet");
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(still.value().offcode, handle.offcode);
}

// --------------------------------------------- firmware OS: quotas

TEST_F(FirmwareOsFixture, MemoryQuotaRejectsOversizedImageAtDeploy)
{
    core::RuntimeConfig config;
    config.quotas["test.Fat"].memoryBytes = 1024; // image is 32 KiB
    buildRuntime(std::move(config));

    runtime_->depot().registerOffcode(nicOdf("test.Fat"), []() {
        return std::make_unique<CountingOffcode>(
            "test.Fat", std::make_shared<int>(0));
    });
    bool failed = false;
    runtime_->createOffcode("test.Fat",
                            [&](Result<core::OffcodeHandle> result) {
                                EXPECT_FALSE(result.ok());
                                failed = true;
                            });
    sim_.runUntil(sim_.now() + sim::seconds(1));
    EXPECT_TRUE(failed);
    EXPECT_GE(obs::MetricsRegistry::instance().counterValue(
                  "offcode.quota_rejections",
                  {{"offcode", "test.Fat"}, {"resource", "memory"}}),
              1u);
}

TEST_F(FirmwareOsFixture, MemoryQuotaRejectsOversizedMessage)
{
    core::RuntimeConfig config;
    // Above the 32 KiB image, below the oversized message.
    config.quotas["test.Lean"].memoryBytes = 40000;
    buildRuntime(std::move(config));

    auto hits = std::make_shared<int>(0);
    runtime_->depot().registerOffcode(nicOdf("test.Lean"), [hits]() {
        return std::make_unique<CountingOffcode>("test.Lean", hits);
    });
    core::OffcodeHandle handle = deploy("test.Lean");
    ASSERT_NE(handle.offcode, nullptr);
    core::Channel *channel = channelTo(*handle.offcode);
    ASSERT_NE(channel, nullptr);

    ASSERT_TRUE(
        channel->write(core::encodeData(Bytes(50000, 0xAB))).ok());
    ASSERT_TRUE(channel->write(core::encodeData(Bytes{1})).ok());
    sim_.runUntil(sim_.now() + sim::milliseconds(10));

    // The oversized message was rejected and counted; the small one
    // went through.
    EXPECT_EQ(*hits, 1);
    EXPECT_GE(obs::MetricsRegistry::instance().counterValue(
                  "offcode.quota_rejections",
                  {{"offcode", "test.Lean"}, {"resource", "memory"}}),
              1u);
}

TEST_F(FirmwareOsFixture, CpuBudgetPreemptsButNeverDrops)
{
    core::RuntimeConfig config;
    config.quotas["test.Busy"].cpuBudgetNs = 100000;       // 0.1 ms
    config.quotas["test.Busy"].slicePeriodNs = sim::milliseconds(1);
    buildRuntime(std::move(config));

    auto hits = std::make_shared<int>(0);
    runtime_->depot().registerOffcode(nicOdf("test.Busy"), [hits]() {
        // Each delivery burns 0.5 ms — 5x the slice budget.
        return std::make_unique<BusyOffcode>(
            "test.Busy", sim::microseconds(500), hits);
    });
    core::OffcodeHandle handle = deploy("test.Busy");
    ASSERT_NE(handle.offcode, nullptr);
    core::Channel *channel = channelTo(*handle.offcode);
    ASSERT_NE(channel, nullptr);

    const int burst = 8;
    for (int i = 0; i < burst; ++i)
        ASSERT_TRUE(channel
                        ->write(core::encodeData(
                            Bytes{static_cast<std::uint8_t>(i)}))
                        .ok());
    sim_.runUntil(sim_.now() + sim::milliseconds(2));
    // Mid-burst the budget has preempted at least one dispatch and
    // not yet delivered the tail.
    EXPECT_GE(obs::MetricsRegistry::instance().counterValue(
                  "offcode.preemptions", {{"offcode", "test.Busy"}}),
              1u);
    EXPECT_LT(*hits, burst);

    // Preemption defers to the next slice; it never discards. Given
    // enough slices the whole burst lands.
    sim_.runUntil(sim_.now() + sim::seconds(1));
    EXPECT_EQ(*hits, burst);
}

} // namespace
} // namespace hydra
