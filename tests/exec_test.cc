/**
 * @file
 * Tests for the executor abstraction: the SPSC handoff ring, the
 * deterministic SimExecutor backend, the ThreadedExecutor's timer /
 * post / cancellation semantics, thread-safe Payload pool
 * conservation under concurrent traffic, and cross-thread span
 * stitching. Everything labeled `threaded` in ctest also runs under
 * ThreadSanitizer via `scripts/check.sh --tsan`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/payload.hh"
#include "exec/executor.hh"
#include "obs/metrics.hh"
#include "exec/sim_executor.hh"
#include "exec/spsc_queue.hh"
#include "exec/threaded_executor.hh"
#include "obs/span.hh"
#include "obs/trace.hh"
#include "tivo/harness.hh"

namespace hydra::exec {
namespace {

// ---------------------------------------------------------------- SPSC

/** A single push is a batch of one. */
template <typename T>
bool
pushOne(SpscQueue<T> &q, T item)
{
    return q.pushBatch({&item, 1}) == 1;
}

/** A single pop is a batch of one. */
template <typename T>
bool
popOne(SpscQueue<T> &q, T &out)
{
    return q.popBatch(&out, 1) == 1;
}

TEST(SpscQueueTest, RoundsCapacityToPowerOfTwo)
{
    SpscQueue<int> q(100);
    EXPECT_EQ(q.capacity(), 128u);
    SpscQueue<int> q2(256);
    EXPECT_EQ(q2.capacity(), 256u);
}

TEST(SpscQueueTest, FifoSingleThread)
{
    SpscQueue<int> q(8);
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(pushOne(q, int(i)));
    int overflow = 99;
    EXPECT_FALSE(pushOne(q, std::move(overflow))); // full
    for (int i = 0; i < 8; ++i) {
        int out = -1;
        ASSERT_TRUE(popOne(q, out));
        EXPECT_EQ(out, i);
    }
    int empty;
    EXPECT_FALSE(popOne(q, empty));
}

TEST(SpscQueueTest, TwoThreadsTransferEverythingInOrder)
{
    constexpr int kItems = 100000;
    SpscQueue<int> q(64);
    std::vector<int> received;
    received.reserve(kItems);

    std::thread consumer([&]() {
        int out;
        while (received.size() < kItems) {
            if (popOne(q, out))
                received.push_back(out);
            else
                std::this_thread::yield();
        }
    });
    for (int i = 0; i < kItems; ++i) {
        while (!pushOne(q, int(i)))
            std::this_thread::yield();
    }
    consumer.join();

    ASSERT_EQ(received.size(), static_cast<std::size_t>(kItems));
    for (int i = 0; i < kItems; ++i)
        ASSERT_EQ(received[i], i) << "reordered at " << i;
}

// -------------------------------------------------------- SimExecutor

TEST(SimExecutorTest, MirrorsSimulatorSemantics)
{
    SimExecutor engine;
    EXPECT_STREQ(engine.backendName(), "sim");

    std::vector<int> order;
    engine.schedule(sim::microseconds(2), [&]() { order.push_back(2); });
    engine.schedule(sim::microseconds(1), [&]() { order.push_back(1); });
    const TaskId doomed =
        engine.schedule(sim::microseconds(3), [&]() { order.push_back(3); });
    engine.cancel(doomed);

    engine.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(engine.now(), sim::microseconds(2));
}

TEST(SimExecutorTest, PostRunsInFifoOrderWithoutAdvancingTime)
{
    SimExecutor engine;
    const SiteId site = engine.addSite("dev0");
    EXPECT_EQ(engine.siteCount(), 1u);

    engine.runUntil(sim::microseconds(5));
    std::vector<int> order;
    engine.post(site, [&]() { order.push_back(1); });
    engine.post(kMainSite, [&]() { order.push_back(2); });
    engine.post(site, [&]() { order.push_back(3); });
    EXPECT_TRUE(order.empty()); // nothing runs until the loop turns

    engine.drain();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(engine.now(), sim::microseconds(5)); // time did not move
}

TEST(SimExecutorTest, DrainLeavesFutureTimersPending)
{
    SimExecutor engine;
    bool fired = false;
    engine.schedule(sim::milliseconds(1), [&]() { fired = true; });
    engine.drain();
    EXPECT_FALSE(fired);
    EXPECT_EQ(engine.pendingEvents(), 1u);
}

// ---------------------------------------------------- ThreadedExecutor

TEST(ThreadedExecutorTest, TimersFireInOrderOnTheCoordinator)
{
    ThreadedExecutor engine;
    EXPECT_STREQ(engine.backendName(), "threaded");

    const std::thread::id self = std::this_thread::get_id();
    std::vector<int> order;
    engine.schedule(sim::microseconds(3), [&]() {
        EXPECT_EQ(std::this_thread::get_id(), self);
        order.push_back(3);
    });
    engine.schedule(sim::microseconds(1), [&]() { order.push_back(1); });
    engine.scheduleAt(sim::microseconds(2), [&]() { order.push_back(2); });

    engine.runUntil(sim::microseconds(10));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(engine.now(), sim::microseconds(10));
    EXPECT_EQ(engine.eventsDispatched(), 3u);
}

TEST(ThreadedExecutorTest, EqualTimestampsKeepFifoOrder)
{
    ThreadedExecutor engine;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        engine.schedule(sim::microseconds(1),
                        [&order, i]() { order.push_back(i); });
    engine.runToCompletion();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadedExecutorTest, CancelAndPeriodicMatchSimSemantics)
{
    ThreadedExecutor engine;
    bool fired = false;
    const TaskId doomed =
        engine.schedule(sim::microseconds(5), [&]() { fired = true; });
    engine.cancel(doomed);

    int ticks = 0;
    const TaskId series = engine.schedulePeriodic(
        sim::microseconds(2), [&]() { return ++ticks < 3; });
    engine.runUntil(sim::microseconds(20));
    EXPECT_FALSE(fired);
    EXPECT_EQ(ticks, 3);

    int more = 0;
    const TaskId forever = engine.schedulePeriodic(
        sim::microseconds(2), [&]() {
            ++more;
            return true;
        });
    engine.runUntil(sim::microseconds(26));
    engine.cancel(forever);
    engine.runUntil(sim::microseconds(40));
    EXPECT_EQ(more, 3);
    (void)series;
}

TEST(ThreadedExecutorTest, PostRunsOnTheSiteWorkerThread)
{
    ThreadedExecutor engine;
    const SiteId site = engine.addSite("nic");
    ASSERT_NE(site, kMainSite);
    EXPECT_EQ(engine.siteCount(), 1u);

    const std::thread::id coordinator = std::this_thread::get_id();
    std::atomic<bool> ran{false};
    std::thread::id workerThread;
    engine.post(site, [&]() {
        workerThread = std::this_thread::get_id();
        ran.store(true, std::memory_order_release);
    });
    engine.drain(); // barrier: waits for the worker
    ASSERT_TRUE(ran.load(std::memory_order_acquire));
    EXPECT_NE(workerThread, coordinator);
}

TEST(ThreadedExecutorTest, RunUntilIsABarrierForPostedWork)
{
    ThreadedExecutor engine;
    const SiteId a = engine.addSite("a");
    const SiteId b = engine.addSite("b");

    constexpr int kRounds = 2000;
    std::atomic<int> completed{0};
    engine.schedule(sim::microseconds(1), [&]() {
        for (int i = 0; i < kRounds; ++i) {
            // Site-to-site chain: coordinator -> a -> b.
            engine.post(a, [&, i]() {
                engine.post(b, [&]() {
                    completed.fetch_add(1, std::memory_order_relaxed);
                });
            });
        }
    });
    engine.runUntil(sim::milliseconds(1));
    EXPECT_EQ(completed.load(), kRounds);
    EXPECT_GE(engine.postsExecuted(), static_cast<std::uint64_t>(
                                          2 * kRounds));
}

TEST(ThreadedExecutorTest, WorkersCanScheduleTimersBack)
{
    ThreadedExecutor engine;
    const SiteId site = engine.addSite("disk");

    std::atomic<bool> timerFired{false};
    engine.post(site, [&]() {
        // Device completion re-enters virtual time from the worker.
        engine.schedule(sim::microseconds(3),
                        [&]() { timerFired.store(true); });
    });
    engine.runUntil(sim::milliseconds(1));
    EXPECT_TRUE(timerFired.load());
}

TEST(ThreadedExecutorTest, PostOrderPreservedPerProducerSitePair)
{
    ThreadedExecutor engine;
    const SiteId site = engine.addSite("sink");

    constexpr int kItems = 5000; // > ring capacity: exercises overflow
    std::vector<int> seen;
    seen.reserve(kItems);
    for (int i = 0; i < kItems; ++i)
        engine.post(site, [&seen, i]() { seen.push_back(i); });
    engine.drain();

    ASSERT_EQ(seen.size(), static_cast<std::size_t>(kItems));
    for (int i = 0; i < kItems; ++i)
        ASSERT_EQ(seen[i], i) << "posting order broken at " << i;
}

// ----------------------------------------------- Payload conservation

TEST(PayloadThreadSafetyTest, PoolCountersConservedUnderContention)
{
    payloadPoolTrim();
    const PayloadPoolStats before = payloadPoolStats();

    constexpr int kThreads = 4;
    constexpr int kRounds = 5000;
    std::atomic<std::uint64_t> bytesSeen{0};

    // Each thread builds payloads, shares them (copy + slice), hands
    // some to a neighbor via the executor, and drops them — the exact
    // traffic shape of the threaded data path.
    ThreadedExecutor engine;
    std::vector<SiteId> sites;
    for (int t = 0; t < kThreads; ++t)
        sites.push_back(engine.addSite("stress-" + std::to_string(t)));

    for (int t = 0; t < kThreads; ++t) {
        engine.post(sites[t], [&, t]() {
            for (int i = 0; i < kRounds; ++i) {
                PayloadBuilder builder;
                builder.buffer().assign(64 + (i % 7), std::uint8_t(i));
                Payload message = builder.seal();
                Payload copy = message;          // refcount traffic
                Payload body = message.slice(8, 32);
                bytesSeen.fetch_add(body.size(),
                                    std::memory_order_relaxed);
                // Cross-site handoff: the neighbor drops the last ref,
                // so release/recycle happens on a different thread
                // than allocation.
                engine.post(sites[(t + 1) % kThreads],
                            [kept = std::move(copy)]() {
                                (void)kept.size();
                            });
            }
        });
    }
    engine.drain();

    const PayloadPoolStats after = payloadPoolStats();
    const std::uint64_t acquired =
        (after.allocations - before.allocations) +
        (after.poolHits - before.poolHits);
    const std::uint64_t expected =
        static_cast<std::uint64_t>(kThreads) * kRounds;
    // Conservation: every node acquired was exactly one builder seal,
    // and every one was either recycled into the freelist or freed
    // (over-capacity / pool-full) — never double-freed, never leaked
    // into the freelist twice.
    EXPECT_EQ(acquired, expected);
    EXPECT_GE(after.recycles, before.recycles);
    EXPECT_LE(after.recycles - before.recycles, acquired);
    EXPECT_LE(after.freeNodes, 256u); // kMaxFreeNodes bound held
    EXPECT_EQ(bytesSeen.load(), expected * 32u);
}

// -------------------------------------------- factory + full pipeline

TEST(ExecutorFactoryTest, MakesBothEnginesAndParsesNames)
{
    ExecutorKind kind = ExecutorKind::Sim;
    EXPECT_TRUE(parseExecutorKind("threaded", kind));
    EXPECT_EQ(kind, ExecutorKind::Threaded);
    EXPECT_TRUE(parseExecutorKind("sim", kind));
    EXPECT_EQ(kind, ExecutorKind::Sim);
    EXPECT_FALSE(parseExecutorKind("warp", kind));

    EXPECT_STREQ(makeExecutor(ExecutorKind::Sim)->backendName(), "sim");
    EXPECT_STREQ(makeExecutor(ExecutorKind::Threaded)->backendName(),
                 "threaded");
    EXPECT_STREQ(executorKindName(ExecutorKind::Sim), "sim");
    EXPECT_STREQ(executorKindName(ExecutorKind::Threaded), "threaded");
}

TEST(ThreadedIntegrationTest, FullTivoScenarioRunsOnThreadedEngine)
{
    // The complete offloaded/offloaded TiVo pipeline — deployment over
    // OOB channels, NIC -> GPU streaming, smart-disk recording — on
    // the threaded engine. Device sites get real worker threads; the
    // run must deploy and deliver just like the deterministic engine.
    tivo::TestbedConfig config;
    config.server = tivo::ServerKind::Offloaded;
    config.client = tivo::ClientKind::Offloaded;
    config.executor = ExecutorKind::Threaded;
    config.duration = sim::seconds(20);
    config.warmup = sim::seconds(2);
    config.sampleInterval = sim::seconds(2);
    config.movieFrames = 96;

    tivo::Testbed testbed(config);
    EXPECT_STREQ(testbed.executor().backendName(), "threaded");
    EXPECT_GE(testbed.executor().siteCount(), 4u); // NICs, disk, GPU

    const tivo::ScenarioResult result = testbed.run();
    ASSERT_TRUE(result.deploymentOk);
    EXPECT_GT(result.packetsReceived, 100u);
    EXPECT_GT(result.framesDisplayed, 100u);
    EXPECT_EQ(result.networkDrops, 0u);
}

// ------------------------------------------------------ span stitching

#if HYDRA_OBS_TRACING
TEST(ThreadedSpanTest, SpansFromDifferentThreadsStitchIntoOneTrace)
{
    auto &tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.enable();
    obs::resetSpanIds();

    ThreadedExecutor engine;
    const SiteId site = engine.addSite("span-site");

    obs::SpanContext rootCtx, childCtx;
    {
        obs::Span root;
        root.open("test", "main", "root", "test", engine.now());
        rootCtx = root.context();

        std::atomic<bool> done{false};
        engine.post(site, [&, parent = root.context()]() {
            // The send stamps the context; the receiving site
            // restores it — spans on the worker nest under the root.
            obs::ContextScope scope(parent);
            obs::Span child;
            child.open("test", "worker", "child", "test", engine.now());
            childCtx = child.context();
            child.end(engine.now());
            done.store(true, std::memory_order_release);
        });
        engine.drain();
        ASSERT_TRUE(done.load(std::memory_order_acquire));
        root.end(engine.now());
    }

    EXPECT_EQ(childCtx.traceId, rootCtx.traceId);
    EXPECT_EQ(childCtx.parentId, rootCtx.spanId);
    EXPECT_NE(childCtx.spanId, rootCtx.spanId);
    tracer.disable();
}

TEST(ThreadedSpanTest, ConcurrentSpanIdsNeverCollide)
{
    auto &tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.enable();
    obs::resetSpanIds();

    constexpr int kThreads = 4;
    constexpr int kSpans = 2000;
    std::vector<std::vector<std::uint64_t>> ids(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            ids[t].reserve(kSpans);
            for (int i = 0; i < kSpans; ++i) {
                obs::Span span;
                span.open("test", "t" + std::to_string(t), "s", "test",
                          0);
                ids[t].push_back(span.context().spanId);
                span.end(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    std::set<std::uint64_t> unique;
    for (const auto &perThread : ids)
        unique.insert(perThread.begin(), perThread.end());
    EXPECT_EQ(unique.size(),
              static_cast<std::size_t>(kThreads) * kSpans);
    tracer.disable();
}
#endif // HYDRA_OBS_TRACING

// ------------------------------------------------------ Batch queue

TEST(SpscQueueBatchTest, BatchTransferPreservesFifoOrder)
{
    SpscQueue<int> q(64);
    std::vector<int> in;
    for (int i = 0; i < 48; ++i)
        in.push_back(i);
    EXPECT_EQ(q.pushBatch(std::span<int>(in)), 48u);

    int out[64];
    // Asking for more than is queued drains what exists (partial).
    EXPECT_EQ(q.popBatch(out, 64), 48u);
    for (int i = 0; i < 48; ++i)
        ASSERT_EQ(out[i], i) << "batch reordered at " << i;
    EXPECT_EQ(q.popBatch(out, 64), 0u); // empty
}

TEST(SpscQueueBatchTest, PartialBatchWhenNearlyFull)
{
    SpscQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(pushOne(q, int(i)));

    std::vector<int> extra{6, 7, 8, 9};
    // Only two slots remain: the batch is accepted as a prefix.
    EXPECT_EQ(q.pushBatch(std::span<int>(extra)), 2u);
    EXPECT_EQ(q.sizeHint(), 8u);
    EXPECT_EQ(q.pushBatch(std::span<int>(extra)), 0u); // full

    int out[8];
    ASSERT_EQ(q.popBatch(out, 8), 8u);
    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(out[i], i);
}

TEST(SpscQueueBatchTest, BatchesWrapAroundTheRing)
{
    SpscQueue<int> q(8);
    int next = 0, expected = 0;
    int out[8];
    // 5-in / 5-out rounds on an 8-slot ring force the indices to
    // wrap past the capacity many times over.
    for (int round = 0; round < 20; ++round) {
        std::vector<int> batch;
        for (int i = 0; i < 5; ++i)
            batch.push_back(next++);
        ASSERT_EQ(q.pushBatch(std::span<int>(batch)), 5u);
        ASSERT_EQ(q.popBatch(out, 5), 5u);
        for (int i = 0; i < 5; ++i)
            ASSERT_EQ(out[i], expected++) << "wraparound broke FIFO";
    }
    EXPECT_EQ(q.sizeHint(), 0u);
}

TEST(SpscQueueBatchTest, FourThreadsBatchTransferInOrder)
{
    // Two independent rings, each with a dedicated producer and
    // consumer thread (SPSC discipline), all four running at once.
    // Batch sizes vary per round to cover partial accept/drain and
    // wraparound interleavings; TSAN covers this via the `threaded`
    // ctest label.
    constexpr int kItems = 50000;
    SpscQueue<int> rings[2] = {SpscQueue<int>(64), SpscQueue<int>(64)};
    std::vector<int> received[2];

    std::vector<std::thread> threads;
    for (int r = 0; r < 2; ++r) {
        received[r].reserve(kItems);
        threads.emplace_back([&, r]() { // consumer
            int out[32];
            while (received[r].size() < kItems) {
                const std::size_t max = 1 + received[r].size() % 32;
                const std::size_t got = rings[r].popBatch(out, max);
                if (got == 0) {
                    std::this_thread::yield();
                    continue;
                }
                received[r].insert(received[r].end(), out, out + got);
            }
        });
        threads.emplace_back([&, r]() { // producer
            int next = 0;
            std::vector<int> batch;
            while (next < kItems) {
                batch.clear();
                const int want =
                    std::min(kItems - next, 1 + next % 17);
                for (int i = 0; i < want; ++i)
                    batch.push_back(next + i);
                std::span<int> rest(batch);
                while (!rest.empty()) {
                    const std::size_t pushed =
                        rings[r].pushBatch(rest);
                    rest = rest.subspan(pushed);
                    if (!rest.empty())
                        std::this_thread::yield();
                }
                next += want;
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int r = 0; r < 2; ++r) {
        ASSERT_EQ(received[r].size(),
                  static_cast<std::size_t>(kItems));
        for (int i = 0; i < kItems; ++i)
            ASSERT_EQ(received[r][i], i)
                << "ring " << r << " reordered at " << i;
    }
}

// -------------------------------------------------- Batch executors

TEST(SimExecutorTest, PostBatchRunsInFifoOrder)
{
    SimExecutor engine;
    const SiteId site = engine.addSite("dev0");

    std::vector<int> order;
    std::vector<Executor::Callback> fns;
    for (int i = 0; i < 8; ++i)
        fns.emplace_back([&order, i]() { order.push_back(i); });
    engine.postBatch(site, fns);
    engine.post(site, [&order]() { order.push_back(8); });
    EXPECT_TRUE(order.empty());

    engine.drain();
    ASSERT_EQ(order.size(), 9u);
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(SimExecutorTest, BatchedReplayIsByteIdenticalToUnbatched)
{
    // The determinism contract: postBatch on the sim engine must
    // produce exactly the record an equivalent loop of post() calls
    // produces — same execution order, same virtual timestamps, same
    // event accounting. Serialize the observable run and compare the
    // strings byte for byte.
    auto runTrial = [](bool batched) {
        SimExecutor engine;
        const SiteId site = engine.addSite("dev0");
        std::ostringstream record;

        auto task = [&record, &engine](int i) {
            return Executor::Callback([&record, &engine, i]() {
                record << i << '@' << engine.now() << ';';
            });
        };
        // A timer interleaves with the posted work so the record
        // covers both queues, not just the post path.
        engine.schedule(sim::microseconds(1), [&record, &engine]() {
            record << "t@" << engine.now() << ';';
        });
        if (batched) {
            std::vector<Executor::Callback> fns;
            for (int i = 0; i < 16; ++i)
                fns.push_back(task(i));
            engine.postBatch(site, fns);
        } else {
            for (int i = 0; i < 16; ++i)
                engine.post(site, task(i));
        }
        engine.runToCompletion();
        record << "now=" << engine.now()
               << ";pending=" << engine.pendingEvents();
        return record.str();
    };

    const std::string unbatched = runTrial(false);
    const std::string batchedA = runTrial(true);
    const std::string batchedB = runTrial(true);
    EXPECT_EQ(batchedA, unbatched);
    EXPECT_EQ(batchedB, batchedA); // replay is stable too
}

TEST(ThreadedExecutorTest, PostBatchPreservedOrderThroughOverflow)
{
    ThreadedExecutor::Config config;
    config.ringCapacity = 64; // small ring: batches must spill
    ThreadedExecutor engine(config);
    const SiteId site = engine.addSite("batch-sink");

    constexpr int kItems = 5000;
    std::vector<int> seen;
    seen.reserve(kItems);
    std::vector<Executor::Callback> fns;
    for (int base = 0; base < kItems; base += 128) {
        fns.clear();
        const int count = std::min(128, kItems - base);
        for (int i = 0; i < count; ++i)
            fns.emplace_back([&seen, value = base + i]() {
                seen.push_back(value);
            });
        engine.postBatch(site, fns);
    }
    engine.drain();

    ASSERT_EQ(seen.size(), static_cast<std::size_t>(kItems));
    for (int i = 0; i < kItems; ++i)
        ASSERT_EQ(seen[i], i) << "batch posting order broken at " << i;

    // The drain path records every batch it executes.
    EXPECT_GT(
        obs::histogram("exec.batch_size", {{"site", "batch-sink"}})
            .count(),
        0u);
}

TEST(ThreadedExecutorTest, PostBatchFromManyProducersLosesNothing)
{
    ThreadedExecutor::Config config;
    config.ringCapacity = 128;
    ThreadedExecutor engine(config);
    const SiteId site = engine.addSite("mp-batch-sink");

    constexpr int kThreads = 4;
    constexpr int kPerThread = 4000;
    std::atomic<int> executed{0};
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
        producers.emplace_back([&]() {
            std::vector<Executor::Callback> fns;
            for (int base = 0; base < kPerThread; base += 64) {
                fns.clear();
                const int count = std::min(64, kPerThread - base);
                for (int i = 0; i < count; ++i)
                    fns.emplace_back([&executed]() {
                        executed.fetch_add(
                            1, std::memory_order_relaxed);
                    });
                engine.postBatch(site, fns);
            }
        });
    }
    for (auto &producer : producers)
        producer.join();
    engine.drain();
    EXPECT_EQ(executed.load(), kThreads * kPerThread);
}

} // namespace
} // namespace hydra::exec
