/**
 * @file
 * Fleet tests (DESIGN.md §14): consistent-hash placement, cross-host
 * channels over the wire fabric (FIFO + exactly-one-copy), the
 * sharded executive's id-indexed registry, and the open-loop load
 * generator on both execution engines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/payload.hh"
#include "core/channel.hh"
#include "core/executive.hh"
#include "exec/executor.hh"
#include "exec/sim_executor.hh"
#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"
#include "fleet/placement.hh"
#include "obs/metrics.hh"

namespace hydra::fleet {
namespace {

// ---------------------------------------------------------- placement

TEST(PlacementTest, HashIsStableAcrossCalls)
{
    EXPECT_EQ(placementHash("stream/0"), placementHash("stream/0"));
    EXPECT_NE(placementHash("stream/0"), placementHash("stream/1"));
}

TEST(PlacementTest, EmptyRingReturnsEmpty)
{
    PlacementRing ring;
    EXPECT_EQ(ring.hostFor("anything"), "");
    EXPECT_EQ(ring.hostCount(), 0u);
}

TEST(PlacementTest, DeterministicAndBalanced)
{
    const std::vector<std::string> hosts{"host0", "host1", "host2",
                                         "host3"};
    PlacementRing a;
    PlacementRing b;
    a.rebuild(hosts);
    b.rebuild(hosts);
    EXPECT_EQ(a.hostCount(), 4u);
    EXPECT_EQ(a.pointCount(), 4u * 64u);

    std::map<std::string, std::size_t> load;
    for (int i = 0; i < 10000; ++i) {
        const std::string key = "stream/" + std::to_string(i);
        const std::string owner = a.hostFor(key);
        EXPECT_EQ(owner, b.hostFor(key));
        ++load[owner];
    }
    ASSERT_EQ(load.size(), 4u);
    std::size_t lo = 10000;
    std::size_t hi = 0;
    for (const auto &[host, n] : load) {
        lo = std::min(lo, n);
        hi = std::max(hi, n);
    }
    // 64 vnodes/host keeps uniform keys within ~1.4x of each other;
    // allow 2x so the bound is about the mechanism, not the seed.
    EXPECT_LT(static_cast<double>(hi) / static_cast<double>(lo), 2.0);
}

TEST(PlacementTest, MembershipChangeMovesAboutOneNth)
{
    std::vector<std::string> hosts{"host0", "host1", "host2", "host3"};
    PlacementRing before;
    before.rebuild(hosts);
    hosts.push_back("host4");
    PlacementRing after;
    after.rebuild(hosts);

    int moved = 0;
    const int keys = 10000;
    for (int i = 0; i < keys; ++i) {
        const std::string key = "stream/" + std::to_string(i);
        if (before.hostFor(key) != after.hostFor(key))
            ++moved;
    }
    // Consistent hashing: adding 1 of 5 hosts should move ~1/5 of the
    // keys, not reshuffle everything. Allow generous slack.
    EXPECT_GT(moved, 0);
    EXPECT_LT(moved, keys * 35 / 100);
}

TEST(PlacementTest, HostRemovalMovesOnlyTheDepartedShare)
{
    std::vector<std::string> hosts{"host0", "host1", "host2", "host3",
                                   "host4"};
    PlacementRing before;
    before.rebuild(hosts);
    hosts.erase(hosts.begin() + 2); // drop host2
    PlacementRing after;
    after.rebuild(hosts);

    int moved = 0;
    int orphansMoved = 0;
    int orphans = 0;
    const int keys = 10000;
    for (int i = 0; i < keys; ++i) {
        const std::string key = "stream/" + std::to_string(i);
        const std::string was = before.hostFor(key);
        const std::string now = after.hostFor(key);
        if (was == "host2") {
            ++orphans;
            // Every key on the departed host must land somewhere else.
            EXPECT_NE(now, "host2") << key;
            if (was != now)
                ++orphansMoved;
        }
        if (was != now)
            ++moved;
    }
    // Removing 1 of 5 hosts relocates exactly the departed host's
    // keys (~1/5) and nothing else: keys homed on survivors stay put.
    EXPECT_GT(orphans, 0);
    EXPECT_EQ(moved, orphansMoved);
    EXPECT_LT(moved, keys * 35 / 100);
}

// -------------------------------------------------------- route table

TEST(RouteTableTest, MatchesAReferenceMapUnderChurn)
{
    // Seeded inserts, overwrites and erases (erase exercises the
    // backward shift across wrapped probe runs) against std::map.
    RouteTable table;
    std::map<core::ChannelId, RemoteChannel *> reference;
    std::uint64_t state = 12345;
    const auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };
    for (int step = 0; step < 20000; ++step) {
        const core::ChannelId id = 1 + next() % 600;
        auto *fake = reinterpret_cast<RemoteChannel *>(
            static_cast<std::uintptr_t>(8 * (1 + next() % 1000)));
        if (next() % 3 == 0) {
            table.erase(id);
            reference.erase(id);
        } else {
            table.insert(id, fake);
            reference[id] = fake;
        }
        if (step % 97 == 0) {
            ASSERT_EQ(table.size(), reference.size());
            for (core::ChannelId probe = 0; probe <= 601; ++probe) {
                auto it = reference.find(probe);
                ASSERT_EQ(table.find(probe),
                          it == reference.end() ? nullptr : it->second)
                    << "id " << probe << " at step " << step;
            }
        }
    }
}

// ----------------------------------------------------------- topology

TEST(FleetTopologyTest, ResolvesSitesAcrossHostsButNotAliases)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(exec, config);

    ASSERT_EQ(fleet.hostCount(), 4u);
    EXPECT_NE(fleet.findSite("host2.host"), nullptr);
    EXPECT_NE(fleet.findSite("host3-nic"), nullptr);
    // The generic alias stays host-local: resolving it fleet-wide
    // would silently pin every channel to host0.
    EXPECT_EQ(fleet.findSite("host"), nullptr);
    EXPECT_EQ(fleet.findSite("no-such-site"), nullptr);

    EXPECT_EQ(fleet.hostByName("host1"), &fleet.host(1));
    EXPECT_EQ(fleet.hostByName("hostX"), nullptr);
    EXPECT_EQ(fleet.hostOf(fleet.host(2).machine()), &fleet.host(2));

    // homeOf follows the ring.
    Host &home = fleet.homeOf("stream/7");
    EXPECT_EQ(fleet.placement().hostFor("stream/7"), home.name());
}

// ------------------------------------------------- cross-host channel

struct Received
{
    std::vector<std::uint64_t> seqs;
};

core::Channel *
makeCrossHostChannel(Fleet &fleet, Host &from, Host &to,
                     Received &sink, std::size_t maxBytes = 512)
{
    core::ChannelConfig config;
    config.name = "test.fleet";
    config.targetDevice = to.nic().name();
    auto created = fleet.host(from.index())
                       .executive()
                       .createChannel(config, from.runtime().hostSite(),
                                      maxBytes);
    EXPECT_TRUE(created.ok()) << created.error().describe();
    if (!created.ok())
        return nullptr;
    core::Channel *channel = created.value();

    core::ExecutionSite *site =
        to.runtime().siteByName(config.targetDevice);
    EXPECT_NE(site, nullptr);
    auto endpoint = channel->connectSite(*site);
    EXPECT_TRUE(endpoint.ok());
    channel->installHandler(
        endpoint.value(), [&sink](const Payload &message, std::size_t) {
            ByteReader reader(message.data(), message.size());
            auto seq = reader.readU64();
            ASSERT_TRUE(seq.ok());
            sink.seqs.push_back(seq.value());
        });
    return channel;
}

Payload
stampedMessage(std::uint64_t seq, std::size_t bytes)
{
    PayloadBuilder builder;
    ByteWriter writer(builder.buffer());
    writer.writeU64(seq);
    if (builder.buffer().size() < bytes)
        builder.buffer().resize(bytes, 0);
    return builder.seal();
}

TEST(CrossHostChannelTest, FifoWithExactlyOneWireCopyPerMessage)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(exec, config);

    auto &registry = obs::MetricsRegistry::instance();
    const std::uint64_t wireBase = registry.counterValue(
        "channel.payload_copies", {{"buffering", "wire"}});
    const std::uint64_t gapBase = registry.counterValue("fleet.seq_gaps");

    Received sink;
    core::Channel *channel =
        makeCrossHostChannel(fleet, fleet.host(0), fleet.host(2), sink);
    ASSERT_NE(channel, nullptr);

    constexpr std::uint64_t kMessages = 50;
    for (std::uint64_t i = 0; i < kMessages; ++i)
        ASSERT_TRUE(channel->write(stampedMessage(i, 128)).ok());
    exec.runUntil(exec.now() + sim::milliseconds(50));
    exec.drain();

    ASSERT_EQ(sink.seqs.size(), kMessages);
    for (std::uint64_t i = 0; i < kMessages; ++i)
        EXPECT_EQ(sink.seqs[i], i) << "out of order at " << i;

    // Exactly one buffered copy per message (header + body into the
    // wire frame); the receive side is a zero-copy slice.
    EXPECT_EQ(registry.counterValue("channel.payload_copies",
                                    {{"buffering", "wire"}}) -
                  wireBase,
              kMessages);
    EXPECT_EQ(registry.counterValue("fleet.seq_gaps") - gapBase, 0u);
    EXPECT_EQ(fleet.host(2).orphanFrames(), 0u);
    EXPECT_EQ(channel->stats().messagesSent, kMessages);
}

TEST(CrossHostChannelTest, IntraHostStreamsNeverTouchTheWire)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 2;
    Fleet fleet(exec, config);

    auto &registry = obs::MetricsRegistry::instance();
    const std::uint64_t wireBase = registry.counterValue(
        "channel.payload_copies", {{"buffering", "wire"}});

    Received sink;
    core::Channel *channel =
        makeCrossHostChannel(fleet, fleet.host(0), fleet.host(0), sink);
    ASSERT_NE(channel, nullptr);

    constexpr std::uint64_t kMessages = 20;
    for (std::uint64_t i = 0; i < kMessages; ++i)
        ASSERT_TRUE(channel->write(stampedMessage(i, 128)).ok());
    exec.runUntil(exec.now() + sim::milliseconds(50));
    exec.drain();

    EXPECT_EQ(sink.seqs.size(), kMessages);
    EXPECT_EQ(registry.counterValue("channel.payload_copies",
                                    {{"buffering", "wire"}}) -
                  wireBase,
              0u)
        << "same-host channel crossed the wire";
}

TEST(CrossHostChannelTest, DestroyMidFlightOrphansFramesSafely)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 2;
    Fleet fleet(exec, config);

    Received sink;
    core::Channel *channel =
        makeCrossHostChannel(fleet, fleet.host(0), fleet.host(1), sink);
    ASSERT_NE(channel, nullptr);
    const core::ChannelId id = channel->id();

    for (std::uint64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(channel->write(stampedMessage(i, 128)).ok());
    // Destroy while the frames are still in flight on the fabric: the
    // receiver's route table entry disappears, so the frames must be
    // counted as orphans, not delivered into freed memory.
    ASSERT_TRUE(fleet.host(0).executive().destroyChannel(id).ok());
    exec.runUntil(exec.now() + sim::milliseconds(50));
    exec.drain();

    EXPECT_EQ(sink.seqs.size() + fleet.host(1).orphanFrames(), 10u);
}

// ------------------------------------------------------------- ledger

TEST(ChannelLedgerTest, OversizeWriteIsRefusedBeforeItCountsOnEveryTransport)
{
    // One oversize write, then N normal ones, over a local, a ring and
    // a remote channel: each transport refuses the oversize write
    // without counting it, so sent == delivered + dropped holds in
    // the per-transport series and in the channel's own stats.
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 2;
    Fleet fleet(exec, config);
    Host &home = fleet.host(0);
    Host &peer = fleet.host(1);

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
    auto &registry = obs::MetricsRegistry::instance();
    for (const Case &c : cases) {
        SCOPED_TRACE(c.transport);
        ASSERT_NE(c.target, nullptr);
        core::ChannelConfig channelConfig;
        channelConfig.name = "test.ledger";
        channelConfig.targetDevice = c.target->name();
        channelConfig.maxMessageBytes = 512;
        auto created = home.executive().createChannel(
            channelConfig, home.runtime().hostSite(), 256);
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
        const std::uint64_t dropped0 =
            registry.counterValue("channel.messages_dropped", transport);
        const std::uint64_t delivered0 =
            registry.counterValue("channel.messages_delivered");

        EXPECT_EQ(channel->write(stampedMessage(0, 513)).code(),
                  ErrorCode::MessageTooLarge);
        constexpr std::uint64_t kMessages = 12;
        for (std::uint64_t i = 0; i < kMessages; ++i)
            ASSERT_TRUE(channel->write(stampedMessage(i, 64)).ok());
        exec.runUntil(exec.now() + sim::milliseconds(20));
        exec.drain();

        const std::uint64_t sent =
            registry.counterValue("channel.messages_sent", transport) -
            sent0;
        const std::uint64_t dropped =
            registry.counterValue("channel.messages_dropped", transport) -
            dropped0;
        const std::uint64_t delivered =
            registry.counterValue("channel.messages_delivered") -
            delivered0;
        EXPECT_EQ(sent, kMessages);
        EXPECT_EQ(dropped, 0u);
        EXPECT_EQ(sent, delivered + dropped);
        EXPECT_EQ(handled, kMessages);
        const core::ChannelStats &stats = channel->stats();
        EXPECT_EQ(stats.messagesSent, kMessages);
        EXPECT_EQ(stats.messagesSent,
                  stats.messagesDelivered + stats.messagesDropped);
        ASSERT_TRUE(home.executive().destroyChannel(channel->id()).ok());
    }
}

// ------------------------------------------------ wire header corpus

/** A frame as the remote transport lays it out. */
Bytes
wireFrame(const WireHeader &header, std::uint64_t tag, std::size_t body)
{
    Bytes frame(kWireHeaderBytes + body, 0);
    std::memcpy(frame.data(), &header, kWireHeaderBytes);
    std::memcpy(frame.data() + kWireHeaderBytes, &tag,
                std::min(sizeof(tag), body));
    return frame;
}

TEST(WireHeaderRobustnessTest, MutatedFramesMoveExactCountersAndNeverMisdeliver)
{
    // A seeded corpus of frames injected through net::Network into
    // host1's device and host fabric ports: truncated frames, unknown
    // channel ids, endpoint indices out of range or naming an
    // endpoint on another host, sequence skips, and single-byte flips
    // anywhere in the frame (the chaos `corrupt` fault's shape). A
    // small oracle decodes each frame by the documented rules; the
    // counters must move exactly as it says, and every delivery must
    // land at the endpoint the frame names, in order, and nowhere else.
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 3;
    Fleet fleet(exec, config);
    Host &sender = fleet.host(0);
    Host &receiver = fleet.host(1);

    struct Stream
    {
        core::Channel *channel = nullptr;
        net::Port port = 0;
        /** Oracle: frames endpoint 1 has seen from endpoint 0. */
        std::uint64_t seen = 0;
        std::vector<Bytes> expected;
        std::vector<Bytes> received;
    };
    std::vector<Stream> streams(2);
    const std::vector<std::pair<std::string, net::Port>> targets{
        {receiver.nic().name(), kFleetDevicePort},
        {receiver.runtime().hostSite().name(), kFleetHostPort},
    };
    for (std::size_t k = 0; k < streams.size(); ++k) {
        core::ChannelConfig channelConfig;
        channelConfig.name = "test.corpus";
        channelConfig.targetDevice = targets[k].first;
        auto created = sender.executive().createChannel(
            channelConfig, sender.runtime().hostSite(), 256);
        ASSERT_TRUE(created.ok()) << created.error().describe();
        streams[k].channel = created.value();
        streams[k].port = targets[k].second;
        core::ExecutionSite *site =
            receiver.runtime().siteByName(targets[k].first);
        ASSERT_NE(site, nullptr);
        auto endpoint = streams[k].channel->connectSite(*site);
        ASSERT_TRUE(endpoint.ok());
        ASSERT_EQ(endpoint.value(), 1u);
        Stream *stream = &streams[k];
        streams[k].channel->installHandler(
            1, [stream](const Payload &body, std::size_t from) {
                EXPECT_EQ(from, 0u);
                stream->received.push_back(body.toBytes());
            });
    }

    auto &registry = obs::MetricsRegistry::instance();
    const std::uint64_t orphans0 = registry.counterValue("fleet.orphan_frames");
    const std::uint64_t malformed0 =
        registry.counterValue("fleet.malformed_frames");
    const std::uint64_t gaps0 = registry.counterValue("fleet.seq_gaps");
    std::uint64_t orphans = 0;
    std::uint64_t malformed = 0;
    std::uint64_t gaps = 0;

    /** The receiving host's rules, restated: what should happen. */
    const auto judge = [&](const Bytes &frame) {
        if (frame.size() < kWireHeaderBytes) {
            ++malformed;
            return;
        }
        WireHeader header;
        std::memcpy(&header, frame.data(), kWireHeaderBytes);
        Stream *stream = nullptr;
        for (Stream &s : streams)
            if (s.channel->id() == header.channel)
                stream = &s;
        if (!stream) {
            ++orphans;
            return;
        }
        // Endpoint 0 lives on host0; only endpoint 1 is on host1.
        if (header.to != 1 || header.from != 0) {
            ++malformed;
            return;
        }
        if (header.seq != stream->seen)
            ++gaps;
        stream->seen = header.seq + 1;
        stream->expected.emplace_back(frame.begin() + kWireHeaderBytes,
                                      frame.end());
    };

    std::uint64_t state = 20260101;
    const auto draw = [&state](std::uint64_t bound) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return (state >> 33) % bound;
    };
    std::vector<std::uint64_t> txSeq(streams.size(), 0);
    constexpr int kFrames = 600;
    for (int n = 0; n < kFrames; ++n) {
        const std::size_t k = draw(streams.size());
        WireHeader header{streams[k].channel->id(), 0, 1, txSeq[k]++,
                          exec.now()};
        const std::size_t body = 8 + draw(120);
        Bytes frame;
        switch (draw(7)) {
          case 0: // truncated below the header
            frame = wireFrame(header, n, body);
            frame.resize(draw(kWireHeaderBytes));
            break;
          case 1: // unknown channel id
            header.channel = (1ull << 62) + draw(1u << 20);
            frame = wireFrame(header, n, body);
            break;
          case 2: // endpoint index out of range, or on another host
            if (draw(2))
                header.to = 2 + static_cast<std::uint32_t>(draw(1000));
            else
                header.from = 2 + static_cast<std::uint32_t>(draw(1000));
            if (draw(4) == 0)
                header = WireHeader{header.channel, 1, 0, header.seq,
                                    header.sentAt};
            frame = wireFrame(header, n, body);
            break;
          case 3: // the sender skipped sequence numbers
            header.seq += 1 + draw(5);
            txSeq[k] = header.seq + 1;
            frame = wireFrame(header, n, body);
            break;
          case 4: { // one byte flipped anywhere in the frame
            frame = wireFrame(header, n, body);
            const std::size_t at = draw(frame.size());
            frame[at] ^= static_cast<std::uint8_t>(1 + draw(255));
            break;
          }
          default: // intact
            frame = wireFrame(header, n, body);
            break;
        }
        judge(frame);
        net::Packet packet;
        packet.src = fleet.host(2).node();
        packet.dst = receiver.node();
        packet.srcPort = streams[k].port;
        packet.dstPort = streams[k].port;
        packet.payload = Payload(std::move(frame));
        ASSERT_TRUE(fleet.network().send(std::move(packet)).ok());
    }
    exec.runUntil(exec.now() + sim::milliseconds(50));
    exec.drain();

    EXPECT_GT(orphans, 0u);
    EXPECT_GT(malformed, 0u);
    EXPECT_GT(gaps, 0u);
    EXPECT_EQ(registry.counterValue("fleet.orphan_frames") - orphans0,
              orphans);
    EXPECT_EQ(registry.counterValue("fleet.malformed_frames") - malformed0,
              malformed);
    EXPECT_EQ(registry.counterValue("fleet.seq_gaps") - gaps0, gaps);
    EXPECT_EQ(receiver.orphanFrames(), orphans);
    for (const Stream &stream : streams) {
        EXPECT_FALSE(stream.expected.empty());
        EXPECT_EQ(stream.received, stream.expected);
    }
}

// --------------------------------------------------- executive shards

TEST(ExecutiveShardTest, IdIndexedRegistryIsExact)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 2;
    Fleet fleet(exec, config);
    core::ChannelExecutive &shard = fleet.host(0).executive();

    const std::size_t before = shard.activeChannels();

    // Failed create (unresolvable target) must not leak a slot.
    core::ChannelConfig bad;
    bad.name = "test.bad";
    bad.targetDevice = "no-such-device";
    auto failed = shard.createChannel(
        bad, fleet.host(0).runtime().hostSite(), 256);
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(shard.activeChannels(), before);

    Received sink;
    core::Channel *channel =
        makeCrossHostChannel(fleet, fleet.host(0), fleet.host(1), sink);
    ASSERT_NE(channel, nullptr);
    EXPECT_EQ(shard.activeChannels(), before + 1);
    EXPECT_EQ(shard.findChannel(channel->id()), channel);
    // Ids are process-wide: the other shard does not claim this one.
    EXPECT_EQ(fleet.host(1).executive().findChannel(channel->id()),
              nullptr);

    const core::ChannelId id = channel->id();
    ASSERT_TRUE(shard.destroyChannel(id).ok());
    EXPECT_EQ(shard.activeChannels(), before);
    EXPECT_EQ(shard.findChannel(id), nullptr);
    EXPECT_FALSE(shard.destroyChannel(id).ok());
}

// ------------------------------------------------------------ loadgen

TEST(LoadgenTest, SimOpenLoopDeliversAndCountsCopies)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(exec, config);

    LoadgenConfig load;
    load.streams = 64;
    load.messageBytes = 128;
    load.offeredMsgsPerSec = 100000;
    load.duration = sim::milliseconds(20);
    auto report = runOpenLoop(fleet, load);

    EXPECT_EQ(report.hosts, 4u);
    EXPECT_EQ(report.remoteStreams + report.localStreams, 64u);
    EXPECT_GT(report.offered, 0u);
    EXPECT_EQ(report.writeFailures, 0u);
    // Open loop at a sustainable rate: (nearly) everything delivers.
    EXPECT_GT(report.delivered, report.offered * 9 / 10);
    EXPECT_EQ(report.latency.count, report.delivered);
    EXPECT_GT(report.latency.p50, 0.0);
    // Every cross-host message buffers exactly once at the sender,
    // and the zero-copy intra-host path performs no copies at all.
    EXPECT_GE(report.wireCopies, report.remoteStreams);
    EXPECT_EQ(report.zeroCopies, 0u);
    std::uint64_t perHostSum = 0;
    for (const auto &slice : report.perHost)
        perHostSum += slice.delivered;
    EXPECT_EQ(perHostSum, report.delivered);
}

TEST(LoadgenTest, ChurnKeepsTheFleetDelivering)
{
    exec::SimExecutor exec;
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(exec, config);

    LoadgenConfig load;
    load.streams = 32;
    load.messageBytes = 128;
    load.offeredMsgsPerSec = 50000;
    load.duration = sim::milliseconds(20);
    load.churnPerTick = 2;
    auto report = runOpenLoop(fleet, load);

    EXPECT_GT(report.churned, 0u);
    EXPECT_GT(report.delivered, 0u);
    EXPECT_EQ(report.writeFailures, 0u);
}

TEST(LoadgenTest, SimRunsAreDeterministic)
{
    const auto run = [] {
        exec::SimExecutor exec;
        FleetConfig config;
        config.hosts = 4;
        Fleet fleet(exec, config);
        LoadgenConfig load;
        load.streams = 48;
        load.messageBytes = 128;
        load.offeredMsgsPerSec = 80000;
        load.duration = sim::milliseconds(10);
        load.churnPerTick = 1;
        // The latency histogram is a process-global instrument;
        // zero it so both runs summarize identical populations.
        load.resetMetrics = true;
        return runOpenLoop(fleet, load);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.churned, b.churned);
    EXPECT_EQ(a.wireCopies, b.wireCopies);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
}

// --------------------------------------------------- threaded engine

TEST(FleetThreadedTest, CrossHostFifoOnThreadedExecutor)
{
    auto exec = exec::makeExecutor(exec::ExecutorKind::Threaded);
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(*exec, config);

    Received sink;
    core::Channel *channel =
        makeCrossHostChannel(fleet, fleet.host(1), fleet.host(3), sink);
    ASSERT_NE(channel, nullptr);

    constexpr std::uint64_t kMessages = 50;
    for (std::uint64_t i = 0; i < kMessages; ++i)
        ASSERT_TRUE(channel->write(stampedMessage(i, 128)).ok());
    exec->runUntil(exec->now() + sim::milliseconds(50));
    exec->drain();

    ASSERT_EQ(sink.seqs.size(), kMessages);
    for (std::uint64_t i = 0; i < kMessages; ++i)
        EXPECT_EQ(sink.seqs[i], i) << "out of order at " << i;
}

TEST(FleetThreadedTest, DriverStressWithChurn)
{
    auto exec = exec::makeExecutor(exec::ExecutorKind::Threaded);
    FleetConfig config;
    config.hosts = 4;
    Fleet fleet(*exec, config);

    LoadgenConfig load;
    load.streams = 48;
    load.messageBytes = 128;
    load.offeredMsgsPerSec = 50000;
    load.duration = sim::milliseconds(20);
    load.useDrivers = true; // per-host driver threads
    load.churnPerTick = 1;  // destroy/recreate under live traffic
    auto report = runOpenLoop(fleet, load);

    EXPECT_GT(report.delivered, 0u);
    EXPECT_GT(report.churned, 0u);
    EXPECT_EQ(report.writeFailures, 0u);
    // Driver mode forces cross-host placement.
    EXPECT_EQ(report.localStreams, 0u);
}

} // namespace
} // namespace hydra::fleet
