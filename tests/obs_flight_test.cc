/**
 * @file
 * Flight recorder tests (DESIGN.md §11): delta encoding, ring
 * bounds, JSON shape, the hydra.Monitor "Flight" OOB method, and the
 * headline determinism property — the same SimExecutor scenario run
 * twice produces byte-identical flight JSON.
 */

#include <string>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/payload.hh"
#include "core/runtime.hh"
#include "obs/flight.hh"
#include "obs/metrics.hh"
#include "tivo/harness.hh"

using namespace hydra;
using obs::FlightConfig;
using obs::FlightRecorder;

namespace {

class FlightTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::MetricsRegistry::instance().reset();
        FlightRecorder::instance().configure(FlightConfig{});
    }
};

const json::Value *
snapshotAt(const json::Value &doc, std::size_t index)
{
    const json::Value *snapshots = doc.find("snapshots");
    if (!snapshots || !snapshots->isArray() ||
        index >= snapshots->array.size())
        return nullptr;
    return &snapshots->array[index];
}

TEST_F(FlightTest, CaptureStoresCounterDeltas)
{
    obs::Counter &c = obs::counter("test.flight.counter");
    c.add(5);
    FlightRecorder::instance().capture(1000);
    c.add(3);
    FlightRecorder::instance().capture(2000);
    FlightRecorder::instance().capture(3000); // no change: omitted

    auto doc = json::parse(FlightRecorder::instance().toJson());
    ASSERT_TRUE(doc) << doc.error().describe();

    const json::Value *first = snapshotAt(doc.value(), 0);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->find("t")->asU64(), 1000u);
    const json::Value *counters = first->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("test.flight.counter")->asU64(), 5u);

    const json::Value *second = snapshotAt(doc.value(), 1);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->find("counters")->find("test.flight.counter")
                  ->asU64(),
              3u);

    // Zero deltas are omitted entirely.
    const json::Value *third = snapshotAt(doc.value(), 2);
    ASSERT_NE(third, nullptr);
    const json::Value *thirdCounters = third->find("counters");
    EXPECT_TRUE(!thirdCounters ||
                !thirdCounters->find("test.flight.counter"));
}

TEST_F(FlightTest, HistogramSummariesOnlyWhenGrown)
{
    obs::Histogram &h = obs::histogram("test.flight.hist");
    h.record(1234);
    FlightRecorder::instance().capture(1);
    FlightRecorder::instance().capture(2); // histogram unchanged

    auto doc = json::parse(FlightRecorder::instance().toJson());
    ASSERT_TRUE(doc);
    const json::Value *first = snapshotAt(doc.value(), 0);
    ASSERT_NE(first, nullptr);
    const json::Value *hists = first->find("histograms");
    ASSERT_NE(hists, nullptr);
    const json::Value *cell = hists->find("test.flight.hist");
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->find("n")->asU64(), 1u);
    EXPECT_EQ(cell->find("max")->asU64(), 1234u);

    const json::Value *second = snapshotAt(doc.value(), 1);
    ASSERT_NE(second, nullptr);
    const json::Value *secondHists = second->find("histograms");
    EXPECT_TRUE(!secondHists ||
                !secondHists->find("test.flight.hist"));
}

TEST_F(FlightTest, RingOverwritesOldestAndCountsDrops)
{
    FlightRecorder::instance().configure(FlightConfig{.capacity = 2});
    obs::Counter &c = obs::counter("test.flight.ring");
    for (std::uint64_t t = 1; t <= 4; ++t) {
        c.increment();
        FlightRecorder::instance().capture(t);
    }
    EXPECT_EQ(FlightRecorder::instance().size(), 2u);
    EXPECT_EQ(FlightRecorder::instance().captured(), 4u);
    EXPECT_EQ(FlightRecorder::instance().dropped(), 2u);
    EXPECT_EQ(obs::counter("obs.flight.dropped_snapshots").value(), 2u);

    // Survivors are the two newest snapshots.
    auto doc = json::parse(FlightRecorder::instance().toJson());
    ASSERT_TRUE(doc);
    EXPECT_EQ(snapshotAt(doc.value(), 0)->find("t")->asU64(), 3u);
    EXPECT_EQ(snapshotAt(doc.value(), 1)->find("t")->asU64(), 4u);
}

TEST_F(FlightTest, ToJsonTailReturnsNewestSnapshots)
{
    obs::Counter &c = obs::counter("test.flight.tail");
    for (std::uint64_t t = 1; t <= 5; ++t) {
        c.increment();
        FlightRecorder::instance().capture(t * 100);
    }
    auto doc = json::parse(FlightRecorder::instance().toJson(2));
    ASSERT_TRUE(doc);
    const json::Value *snapshots = doc.value().find("snapshots");
    ASSERT_NE(snapshots, nullptr);
    ASSERT_EQ(snapshots->array.size(), 2u);
    EXPECT_EQ(snapshots->array[0].find("t")->asU64(), 400u);
    EXPECT_EQ(snapshots->array[1].find("t")->asU64(), 500u);
}

// ----------------------------------------- end-to-end (SimExecutor)

tivo::TestbedConfig
shortScenario()
{
    tivo::TestbedConfig config;
    config.server = tivo::ServerKind::Offloaded;
    config.client = tivo::ClientKind::Offloaded;
    config.duration = sim::seconds(2);
    config.warmup = sim::seconds(1);
    config.sampleInterval = sim::milliseconds(500);
    config.flightInterval = sim::milliseconds(250);
    config.seed = 11;
    return config;
}

std::string
runAndDumpFlight()
{
    // Same starting state both runs: zeroed instruments, empty
    // payload freelist (pooled buffers survive a testbed otherwise).
    payloadPoolTrim();
    obs::MetricsRegistry::instance().reset();
    FlightRecorder::instance().configure(FlightConfig{});
    tivo::Testbed testbed(shortScenario());
    const tivo::ScenarioResult result = testbed.run();
    EXPECT_TRUE(result.deploymentOk);
    return FlightRecorder::instance().toJson();
}

TEST_F(FlightTest, SimExecutorFlightJsonIsDeterministic)
{
    const std::string first = runAndDumpFlight();
    const std::string second = runAndDumpFlight();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second) << "flight JSON differs between two "
                                "identical SimExecutor runs";

    // The recording actually holds data: parseable, with snapshots
    // and at least one per-channel latency series.
    auto doc = json::parse(first);
    ASSERT_TRUE(doc) << doc.error().describe();
    const json::Value *snapshots = doc.value().find("snapshots");
    ASSERT_NE(snapshots, nullptr);
    EXPECT_GE(snapshots->array.size(), 4u);
    EXPECT_NE(first.find("channel.delivery_latency_ns{channel="),
              std::string::npos);
    EXPECT_NE(first.find("offcode.service_ns{offcode="),
              std::string::npos);
}

/** Snapshot count of a hydra.Monitor "Flight" reply over OOB. */
std::size_t
flightReplySnapshots(tivo::Testbed &testbed, const std::string &args)
{
    core::Runtime *runtime = testbed.clientRuntime();
    EXPECT_NE(runtime, nullptr);
    if (!runtime)
        return 0;
    std::string reply;
    bool replied = false;
    Status sent = runtime->invokeAsync(
        "hydra.Monitor", "Flight", Bytes(args.begin(), args.end()),
        [&](Result<Bytes> result) {
            ASSERT_TRUE(result) << result.error().describe();
            reply.assign(result.value().begin(), result.value().end());
            replied = true;
        });
    EXPECT_TRUE(sent) << sent.error().describe();
    exec::Executor &engine = testbed.executor();
    engine.runUntil(engine.now() + sim::milliseconds(100));

    EXPECT_TRUE(replied) << "Flight reply never arrived over OOB";
    auto doc = json::parse(reply);
    EXPECT_TRUE(doc) << doc.error().describe();
    if (!doc)
        return 0;
    const json::Value *snapshots = doc.value().find("snapshots");
    EXPECT_NE(snapshots, nullptr);
    return snapshots ? snapshots->array.size() : 0;
}

TEST_F(FlightTest, MonitorFlightMethodStreamsBoundedTail)
{
    obs::MetricsRegistry::instance().reset();
    FlightRecorder::instance().configure(FlightConfig{});
    tivo::Testbed testbed(shortScenario());
    testbed.run();

    EXPECT_EQ(flightReplySnapshots(testbed, "2"), 2u)
        << "tail arg not honored";
}

TEST_F(FlightTest, MonitorFlightDefaultTailFitsOobCap)
{
    // The default ring: six snapshots of this scenario are ~22 KB, far
    // over the OOB channel's 8 KiB cap, so the default reply carries
    // the largest tail that fits.
    obs::MetricsRegistry::instance().reset();
    FlightRecorder::instance().configure(FlightConfig{});
    tivo::Testbed testbed(shortScenario());
    testbed.run();
    ASSERT_GT(FlightRecorder::instance().size(), 6u);

    const std::size_t tail = flightReplySnapshots(testbed, "");
    EXPECT_GE(tail, 1u);
    EXPECT_LE(tail, 6u);
    const std::size_t cap = 8 * 1024 - core::CallReturn{}.serialize().size();
    EXPECT_LE(FlightRecorder::instance().toJson(tail).size(), cap);
    if (tail < 6) {
        EXPECT_GT(FlightRecorder::instance().toJson(tail + 1).size(), cap);
    }
}

TEST_F(FlightTest, MonitorFlightBadTailKeepsDefault)
{
    // A two-snapshot ring: the default tail (6) returns both, inside
    // the OOB channel's 8 KiB message cap, while a tail of 1 would not.
    obs::MetricsRegistry::instance().reset();
    FlightConfig config;
    config.capacity = 2;
    FlightRecorder::instance().configure(config);
    tivo::Testbed testbed(shortScenario());
    testbed.run();
    ASSERT_EQ(FlightRecorder::instance().size(), 2u);

    // 2^64 + 1 wrapped to a tail of 1 under a hand-rolled digit loop.
    for (const char *bad : {"18446744073709551617", "0", "abc", ""}) {
        EXPECT_EQ(flightReplySnapshots(testbed, bad), 2u)
            << "tail arg '" << bad << "'";
    }
}

} // namespace
