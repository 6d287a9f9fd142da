/**
 * @file
 * Quickstart: the smallest complete HYDRA program.
 *
 * Builds a simulated host with one programmable NIC, registers a
 * checksum Offcode (with its ODF manifest), deploys it — the layout
 * resolver offloads it to the NIC — and invokes it twice: through
 * the paper's Fig. 3 channel API with a transparent proxy, and via
 * the manual Call-object scheme.
 */

#include <cstdio>

#include "core/runtime.hh"
#include "dev/nic.hh"
#include "hw/machine.hh"
#include "net/network.hh"

#include "exec/sim_executor.hh"

using namespace hydra;

namespace {

/** An Offcode computing CRC32 checksums near the wire. */
class ChecksumOffcode : public core::Offcode
{
  public:
    ChecksumOffcode() : Offcode("example.Checksum")
    {
        registerMethod("Crc32", [](const Bytes &args) -> Result<Bytes> {
            Bytes out;
            ByteWriter writer(out);
            writer.writeU32(crc32(args));
            return out;
        });
    }
};

const char *kChecksumOdf = R"(<offcode>
  <package>
    <bindname>example.Checksum</bindname>
    <interface name="IChecksum"><method name="Crc32"/></interface>
  </package>
  <sw-env><requires memory="65536"/></sw-env>
  <targets>
    <device-class id="0x0001"><name>Network Device</name></device-class>
    <host-fallback/>
  </targets>
  <price bus="0.1"/>
</offcode>)";

} // namespace

int
main()
{
    // --- the simulated world: one host, one programmable NIC ---
    exec::SimExecutor sim;
    hw::Machine machine(sim, hw::MachineConfig{});
    net::Network network(sim, net::NetworkConfig{});
    dev::ProgrammableNic nic(sim, machine.bus(), network,
                             network.addNode("nic"));

    // --- the HYDRA runtime (the Offloading Access Layer) ---
    core::Runtime runtime(machine);
    runtime.attachDevice(nic);

    // Register the Offcode's manifest + factory in the depot.
    Status registered = runtime.depot().registerOffcode(
        kChecksumOdf, []() { return std::make_unique<ChecksumOffcode>(); });
    if (!registered) {
        std::fprintf(stderr, "register failed: %s\n",
                     registered.error().describe().c_str());
        return 1;
    }

    // --- CreateOffcode: ODF -> layout graph -> placement -> load ---
    runtime.createOffcode(
        "example.Checksum", [&](Result<core::OffcodeHandle> handle) {
            if (!handle) {
                std::fprintf(stderr, "deployment failed: %s\n",
                             handle.error().describe().c_str());
                return;
            }
            std::printf("deployed example.Checksum at '%s' (offloaded: "
                        "%s)\n",
                        handle.value().deviceAddr().c_str(),
                        handle.value().site->isHost() ? "no" : "yes");

            // --- Fig. 3: set up a channel and invoke through it ---
            core::ChannelConfig config;
            config.type = core::ChannelConfig::Type::Unicast;
            config.reliable = true;
            config.buffering = core::ChannelConfig::Buffering::ZeroCopy;
            config.targetDevice = handle.value().deviceAddr();

            auto channel = runtime.executive().createChannel(
                config, runtime.hostSite());
            if (!channel) {
                std::fprintf(stderr, "channel failed: %s\n",
                             channel.error().describe().c_str());
                return;
            }
            channel.value()->connectOffcode(*handle.value().offcode);

            // Transparent scheme: a proxy marshals the Call.
            static core::Proxy proxy(*channel.value(),
                                     handle.value().offcode->guid(),
                                     Guid::fromName("IChecksum"));
            const Bytes payload = {'h', 'y', 'd', 'r', 'a'};
            proxy.invoke("Crc32", payload, [](Result<Bytes> r) {
                if (!r) {
                    std::fprintf(stderr, "call failed\n");
                    return;
                }
                ByteReader reader(r.value());
                std::printf("proxy invocation:  crc32(\"hydra\") = "
                            "0x%08x\n",
                            reader.readU32().value());
            });

            // Manual scheme: build the Call object yourself.
            core::Call call = proxy.makeCall("Crc32", payload, false);
            std::printf("manual Call object: method=%s, %zu arg bytes, "
                        "id=%llu\n",
                        call.method.c_str(), call.arguments.size(),
                        static_cast<unsigned long long>(call.callId));
        });

    sim.runToCompletion();

    std::printf("\nsimulated time: %.3f ms, events: %llu, bus "
                "crossings: %llu\n",
                sim::toMilliseconds(sim.now()),
                static_cast<unsigned long long>(sim.eventsDispatched()),
                static_cast<unsigned long long>(
                    machine.bus().stats().transactions));
    return 0;
}
