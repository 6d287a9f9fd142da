/**
 * @file
 * Cross-module property tests: randomized ODF round-trips, channel
 * delivery-order invariants, the cache model checked against a
 * straightforward reference implementation, and serialization
 * robustness against truncation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <tuple>
#include <utility>

#include "common/rng.hh"
#include "core/call.hh"
#include "core/executive.hh"
#include "core/offcode.hh"
#include "core/providers.hh"
#include "dev/nic.hh"
#include "hw/cache.hh"
#include "hw/machine.hh"
#include "net/network.hh"
#include "odf/odf.hh"

#include "exec/sim_executor.hh"

namespace hydra {
namespace {

// ------------------------------------------------ ODF round-trip fuzz

odf::OdfDocument
randomOdf(Rng &rng)
{
    odf::OdfDocument doc;
    doc.bindname = "fuzz.Offcode" + std::to_string(rng.uniformInt(0, 999));
    doc.guid = Guid(rng.next() | 1);

    const auto interfaces = rng.uniformInt(0, 3);
    for (int i = 0; i < interfaces; ++i) {
        odf::InterfaceSpec iface;
        iface.name = "I" + std::to_string(i);
        iface.guid = Guid(rng.next() | 1);
        const auto methods = rng.uniformInt(0, 4);
        for (int m = 0; m < methods; ++m)
            iface.methods.push_back("method" + std::to_string(m));
        if (rng.chance(0.3))
            iface.includePath = "/offcodes/iface" + std::to_string(i) +
                                ".wsdl";
        doc.interfaces.push_back(std::move(iface));
    }

    const auto imports = rng.uniformInt(0, 4);
    for (int i = 0; i < imports; ++i) {
        odf::ImportSpec import;
        import.bindname = "peer.P" + std::to_string(i);
        import.guid = Guid(rng.next() | 1);
        import.constraint = static_cast<odf::ConstraintType>(
            rng.uniformInt(0, 3));
        import.priority = static_cast<int>(rng.uniformInt(-3, 7));
        if (rng.chance(0.5))
            import.file = "/offcodes/p" + std::to_string(i) + ".odf";
        doc.imports.push_back(std::move(import));
    }

    const auto targets = rng.uniformInt(0, 2);
    for (int t = 0; t < targets; ++t) {
        dev::DeviceClassSpec spec;
        spec.id = static_cast<std::uint32_t>(rng.uniformInt(1, 0xffff));
        spec.name = "Class" + std::to_string(t);
        if (rng.chance(0.5))
            spec.bus = "pci";
        if (rng.chance(0.3))
            spec.mac = "ethernet";
        if (rng.chance(0.3))
            spec.vendor = "ACME";
        doc.targets.push_back(std::move(spec));
    }
    doc.hostFallback = doc.targets.empty() ? true : rng.chance(0.7);
    doc.requiredMemoryBytes =
        static_cast<std::size_t>(rng.uniformInt(0, 1 << 20));
    const auto caps = rng.uniformInt(0, 3);
    for (int c = 0; c < caps; ++c)
        doc.requiredCapabilities.push_back("cap" + std::to_string(c));
    doc.busPrice = rng.uniform(0.0, 2.0);
    return doc;
}

class OdfRoundTripTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(OdfRoundTripTest, ToXmlParsePreservesEverything)
{
    Rng rng(GetParam() * 2654435761ull);
    const odf::OdfDocument original = randomOdf(rng);
    auto reparsed = odf::OdfDocument::parse(original.toXml());
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().describe();
    const odf::OdfDocument &out = reparsed.value();

    EXPECT_EQ(out.bindname, original.bindname);
    EXPECT_EQ(out.guid, original.guid);
    EXPECT_EQ(out.hostFallback, original.hostFallback);
    EXPECT_EQ(out.requiredMemoryBytes, original.requiredMemoryBytes);
    EXPECT_EQ(out.requiredCapabilities, original.requiredCapabilities);
    EXPECT_NEAR(out.busPrice, original.busPrice, 1e-6);

    ASSERT_EQ(out.interfaces.size(), original.interfaces.size());
    for (std::size_t i = 0; i < out.interfaces.size(); ++i) {
        EXPECT_EQ(out.interfaces[i].name, original.interfaces[i].name);
        EXPECT_EQ(out.interfaces[i].guid, original.interfaces[i].guid);
        EXPECT_EQ(out.interfaces[i].methods,
                  original.interfaces[i].methods);
        EXPECT_EQ(out.interfaces[i].includePath,
                  original.interfaces[i].includePath);
    }
    ASSERT_EQ(out.imports.size(), original.imports.size());
    for (std::size_t i = 0; i < out.imports.size(); ++i) {
        EXPECT_EQ(out.imports[i].bindname, original.imports[i].bindname);
        EXPECT_EQ(out.imports[i].guid, original.imports[i].guid);
        EXPECT_EQ(out.imports[i].constraint,
                  original.imports[i].constraint);
        EXPECT_EQ(out.imports[i].priority, original.imports[i].priority);
        EXPECT_EQ(out.imports[i].file, original.imports[i].file);
    }
    ASSERT_EQ(out.targets.size(), original.targets.size());
    for (std::size_t i = 0; i < out.targets.size(); ++i) {
        EXPECT_EQ(out.targets[i].id, original.targets[i].id);
        EXPECT_EQ(out.targets[i].name, original.targets[i].name);
        EXPECT_EQ(out.targets[i].bus, original.targets[i].bus);
        EXPECT_EQ(out.targets[i].mac, original.targets[i].mac);
        EXPECT_EQ(out.targets[i].vendor, original.targets[i].vendor);
    }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, OdfRoundTripTest,
                         ::testing::Range<std::uint64_t>(1, 31));

// ------------------------------------------- Call truncation robustness

TEST(CallRobustnessTest, EveryTruncationFailsCleanly)
{
    core::Call call;
    call.targetOffcode = Guid(42);
    call.interfaceGuid = Guid(43);
    call.method = "SomeMethod";
    call.arguments = Bytes(100, 9);
    call.callId = 7;
    const Bytes wire = call.serialize().toBytes();

    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        const Bytes truncated(wire.begin(),
                              wire.begin() +
                                  static_cast<std::ptrdiff_t>(cut));
        auto decoded = core::Call::deserialize(truncated);
        EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
    }
    EXPECT_TRUE(core::Call::deserialize(wire).ok());
}

TEST(CallRobustnessTest, RandomGarbageNeverDecodesAsValidReturn)
{
    Rng rng(77);
    for (int trial = 0; trial < 200; ++trial) {
        Bytes garbage(static_cast<std::size_t>(rng.uniformInt(0, 64)));
        for (auto &byte : garbage)
            byte = static_cast<std::uint8_t>(rng.next());
        // Must never crash; may only succeed if the kind byte and
        // all length fields happen to be consistent.
        auto ret = core::CallReturn::deserialize(garbage);
        if (ret.ok()) {
            EXPECT_EQ(garbage[0],
                      static_cast<std::uint8_t>(
                          core::MessageKind::Return));
        }
    }
}

// --------------------------------------------- channel order invariant

/** Offcode recording the sequence numbers it receives. */
class OrderSink : public core::Offcode
{
  public:
    OrderSink() : Offcode("prop.OrderSink") {}

    void
    onData(const Payload &payload, core::ChannelHandle) override
    {
        ByteReader reader(payload.data(), payload.size());
        sequence.push_back(reader.readU64().valueOr(0));
    }

    std::vector<std::uint64_t> sequence;
};

TEST(ChannelOrderTest, ReliableRingPreservesOrderUnderBackpressure)
{
    exec::SimExecutor sim;
    hw::Machine machine(sim, hw::MachineConfig{});
    net::Network net(sim, net::NetworkConfig{});
    dev::ProgrammableNic nic(sim, machine.bus(), net, net.addNode("n"));
    core::HostSite host(machine);
    core::DeviceSite device(machine, nic);

    core::DmaRingChannelProvider provider(sim, false);
    core::ChannelConfig config;
    config.reliable = true;
    config.ringDepth = 3; // tiny ring: constant backpressure
    auto channel = provider.create(config, host);

    OrderSink sink;
    core::OffcodeContext ctx;
    ctx.site = &device;
    sink.doInitialize(ctx);
    sink.doStart();
    ASSERT_TRUE(channel->connectOffcode(sink).ok());

    Rng rng(5);
    std::uint64_t next = 0;
    // Bursty producer: random batches with random gaps.
    for (int burst = 0; burst < 50; ++burst) {
        const auto batch = rng.uniformInt(1, 12);
        sim.schedule(sim::microseconds(
                         static_cast<std::uint64_t>(burst * 120)),
                     [&, batch]() {
                         for (int i = 0; i < batch; ++i) {
                             Bytes msg;
                             ByteWriter writer(msg);
                             writer.writeU64(next++);
                             channel->write(core::encodeData(msg));
                         }
                     });
    }
    sim.runToCompletion();

    ASSERT_EQ(channel->stats().messagesDropped, 0u);
    ASSERT_FALSE(sink.sequence.empty());
    for (std::size_t i = 1; i < sink.sequence.size(); ++i)
        ASSERT_EQ(sink.sequence[i], sink.sequence[i - 1] + 1)
            << "reordering at index " << i;
    EXPECT_EQ(sink.sequence.size(), static_cast<std::size_t>(next));
}

// ----------------------------------------- cache model vs reference

/** Straightforward reference: per-set list, MRU at front. */
class ReferenceCache
{
  public:
    ReferenceCache(std::size_t capacity, std::size_t line,
                   std::size_t ways)
        : line_(line), ways_(ways), sets_(capacity / (line * ways))
    {
        table_.resize(sets_);
    }

    bool
    access(hw::Addr addr)
    {
        const std::uint64_t tag = addr / line_;
        auto &set = table_[tag % sets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == tag) {
                set.erase(it);
                set.push_front(tag);
                return false; // hit
            }
        }
        set.push_front(tag);
        if (set.size() > ways_)
            set.pop_back();
        return true; // miss
    }

    /** Every line of [addr, addr+size) in address order, into totals. */
    void
    accessRange(hw::Addr addr, std::size_t size)
    {
        for (hw::Addr a = addr / line_ * line_; a < addr + size;
             a += line_) {
            ++totals.accesses;
            if (access(a))
                ++totals.misses;
        }
    }

    void
    invalidate(hw::Addr addr, std::size_t size)
    {
        for (hw::Addr a = addr / line_ * line_; a < addr + size;
             a += line_) {
            const std::uint64_t tag = a / line_;
            table_[tag % sets_].remove(tag);
        }
    }

    void
    flush()
    {
        for (auto &set : table_)
            set.clear();
    }

    hw::CacheStats totals;

  private:
    std::size_t line_, ways_, sets_;
    std::vector<std::list<std::uint64_t>> table_;
};

class CachePropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CachePropertyTest, MatchesReferenceOnRandomTraces)
{
    Rng rng(GetParam() * 31337);
    hw::CacheModel cache(8192, 64, 4);
    ReferenceCache reference(8192, 64, 4);

    std::uint64_t expectedMisses = 0;
    const int accesses = 5000;
    for (int i = 0; i < accesses; ++i) {
        // Mix of hot (reused) and cold (streaming) addresses, line
        // aligned so both models see single-line accesses.
        const hw::Addr addr =
            rng.chance(0.6)
                ? static_cast<hw::Addr>(rng.uniformInt(0, 63)) * 64
                : static_cast<hw::Addr>(rng.uniformInt(0, 1 << 16)) * 64;
        if (reference.access(addr))
            ++expectedMisses;
        cache.access(addr, 1, rng.chance(0.5));
    }
    EXPECT_EQ(cache.totals().accesses,
              static_cast<std::uint64_t>(accesses));
    EXPECT_EQ(cache.totals().misses, expectedMisses);
}

INSTANTIATE_TEST_SUITE_P(Traces, CachePropertyTest,
                         ::testing::Range<std::uint64_t>(1, 16));

struct CacheGeometry
{
    std::size_t capacity, line, ways;
};

void
PrintTo(const CacheGeometry &g, std::ostream *os)
{
    *os << g.capacity << "/" << g.line << "/" << g.ways;
}

class CacheRetouchTest : public ::testing::TestWithParam<CacheGeometry>
{
};

// retouch() skips sets it proves unchanged; the reference walks every
// line. Mix it with multi-line accesses, DMA snoops and flushes that
// dirty some sets between passes, and compare after every call.
TEST_P(CacheRetouchTest, RetouchMatchesReferenceUnderMixedTraffic)
{
    const CacheGeometry g = GetParam();
    const std::size_t capacityLines = g.capacity / g.line;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 7919);
        hw::CacheModel cache(g.capacity, g.line, g.ways);
        ReferenceCache reference(g.capacity, g.line, g.ways);
        hw::CacheModel::RetouchStamp stamp;

        // Addresses span four cache capacities so fills conflict.
        const auto randomAddr = [&] {
            return static_cast<hw::Addr>(rng.uniformInt(
                       0, static_cast<std::int64_t>(4 * g.capacity) - 1));
        };
        const auto randomSize = [&] {
            return static_cast<std::size_t>(rng.uniformInt(
                1, static_cast<std::int64_t>(3 * g.line)));
        };
        // A range over half the cache, unaligned at both ends, and
        // sometimes one with more lines per set than ways.
        const auto randomRange = [&] {
            const std::size_t lines =
                rng.chance(0.2) ? capacityLines + 1 + capacityLines / 2
                                : std::max<std::size_t>(1, capacityLines / 2);
            return std::pair{randomAddr(),
                             lines * g.line - g.line / 2};
        };
        auto [rangeAddr, rangeSize] = randomRange();

        for (int op = 0; op < 2000; ++op) {
            const auto pick = rng.uniformInt(0, 99);
            if (pick < 40) {
                const hw::Addr addr = randomAddr();
                const std::size_t size = randomSize();
                reference.accessRange(addr, size);
                cache.access(addr, size, rng.chance(0.5));
            } else if (pick < 75) {
                if (rng.chance(0.05))
                    std::tie(rangeAddr, rangeSize) = randomRange();
                reference.accessRange(rangeAddr, rangeSize);
                cache.retouch(rangeAddr, rangeSize, stamp);
            } else if (pick < 98) {
                // Snoops land inside the range half the time.
                const hw::Addr addr =
                    rng.chance(0.5)
                        ? rangeAddr + static_cast<hw::Addr>(rng.uniformInt(
                                          0, static_cast<std::int64_t>(
                                                 rangeSize - 1)))
                        : randomAddr();
                const std::size_t size = randomSize();
                reference.invalidate(addr, size);
                cache.snoopInvalidate(addr, size);
            } else {
                reference.flush();
                cache.flush();
            }
            ASSERT_EQ(cache.totals().misses, reference.totals.misses)
                << "seed " << seed << " op " << op;
            ASSERT_EQ(cache.totals().accesses, reference.totals.accesses)
                << "seed " << seed << " op " << op;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheRetouchTest,
    ::testing::Values(CacheGeometry{128, 64, 2}, CacheGeometry{8192, 64, 4},
                      CacheGeometry{256 * 1024, 64, 8}),
    [](const ::testing::TestParamInfo<CacheGeometry> &info) {
        return std::to_string(info.param.capacity) + "_" +
               std::to_string(info.param.line) + "_" +
               std::to_string(info.param.ways);
    });

} // namespace
} // namespace hydra
