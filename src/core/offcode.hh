/**
 * @file
 * Offcodes (paper Section 3.1): components with state, well-defined
 * interfaces, and a thread of control, deployable to host CPUs or
 * programmable peripherals.
 *
 * Lifecycle follows the paper's two-phase initialization: after
 * construction at the target device the runtime calls Initialize
 * (local resources only — peers may not be offloaded yet); once all
 * related Offcodes are deployed it calls StartOffcode, at which
 * point inter-Offcode communication is available.
 */

#ifndef HYDRA_CORE_OFFCODE_HH
#define HYDRA_CORE_OFFCODE_HH

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/guid.hh"
#include "common/result.hh"
#include "core/call.hh"
#include "core/channel.hh"
#include "core/resource.hh"
#include "core/site.hh"

namespace hydra::obs {
class Counter;
} // namespace hydra::obs

namespace hydra::core {

class Runtime;

/** What the runtime provides to a deployed Offcode. */
struct OffcodeContext
{
    Runtime *runtime = nullptr;
    ExecutionSite *site = nullptr;
    /** The default out-of-band channel (management traffic). */
    Channel *oobChannel = nullptr;
    /** This Offcode's node in the resource hierarchy. */
    ResourceId resource = kNoResource;
};

/** Lifecycle states. */
enum class OffcodeState {
    Created,
    Initialized,
    Started,
    Stopped,
    Faulted,
};

/** Human-readable lifecycle state name. */
const char *offcodeStateName(OffcodeState state);

/**
 * Per-Offcode resource quotas, enforced by the firmware OS. Zero
 * means unlimited. The CPU quota is a budget slice: an Offcode may
 * consume at most cpuBudgetNs of its site's CPU per slicePeriodNs of
 * virtual time; dispatches past the budget are preempted — deferred
 * to the next slice boundary, never dropped — so several Offcodes
 * sharing one firmware core each get a bounded share. The memory
 * quota bounds both the deployed image (checked at deploy) and any
 * single inbound message (checked at dispatch).
 */
struct OffcodeQuota
{
    std::size_t memoryBytes = 0;
    sim::SimTime cpuBudgetNs = 0;
    sim::SimTime slicePeriodNs = sim::milliseconds(1);
};

/**
 * Per-Offcode dispatch accounting, maintained by the channel layer
 * and served over the OOB channel by the hydra.Monitor service.
 */
struct OffcodeTelemetry
{
    std::uint64_t callsHandled = 0;
    std::uint64_t dataHandled = 0;
    std::uint64_t mgmtHandled = 0;
    std::uint64_t invokeErrors = 0;
    /** Site-CPU busy ns the Offcode's handlers added. */
    sim::SimTime busyNs = 0;
    /** Start time of the most recent dispatch (watchdog basis). */
    sim::SimTime lastActivityAt = 0;

    std::uint64_t
    messagesProcessed() const
    {
        return callsHandled + dataHandled + mgmtHandled;
    }
};

/**
 * Base class for all Offcodes (the IOffcode interface of the paper:
 * instantiation, initialization, and interface dispatch).
 */
class Offcode
{
  public:
    explicit Offcode(std::string bindname);
    virtual ~Offcode() = default;

    Offcode(const Offcode &) = delete;
    Offcode &operator=(const Offcode &) = delete;

    const std::string &bindname() const { return bindname_; }
    Guid guid() const { return guid_; }
    OffcodeState state() const { return state_; }

    /**
     * Interfaces this Offcode implements (paper: "an Offcode can
     * implement multiple interfaces, each ... uniquely identified by
     * a GUID"). When at least one interface is declared, incoming
     * Calls must name one of them (or the Offcode's own GUID, the
     * IOffcode identity); with none declared, any interface GUID is
     * accepted.
     */
    void declareInterface(Guid interface_guid);
    bool supportsInterface(Guid interface_guid) const;
    const std::vector<Guid> &interfaces() const { return interfaces_; }

    /** Site name for ChannelConfig::targetDevice (GetDeviceAddr). */
    std::string deviceAddr() const;

    // --- lifecycle driven by the runtime ---
    Status doInitialize(OffcodeContext context);
    Status doStart();
    void doStop();

    // --- invocation ---
    /**
     * Dispatch a marshaled method invocation. The default
     * implementation consults the method registry populated with
     * registerMethod(); override for custom dispatch.
     */
    virtual Result<Bytes> invoke(const std::string &method,
                                 const Bytes &arguments);

    // --- channel events (runtime/channel layer calls these) ---
    /** A channel was connected to this Offcode (paper §3.2). */
    virtual void onChannelConnected(ChannelHandle channel);
    /** Raw data arrived (a zero-copy view into the message). */
    virtual void onData(const Payload &payload, ChannelHandle from);
    /** Management traffic arrived (OOB or any connected channel). */
    virtual void onManagement(const Payload &payload, ChannelHandle from);

    // --- restart-with-state-handoff (paper: live offloading idiom) ---
    /**
     * Serialize the state a successor instance needs to carry on
     * mid-stream (sequence counters, open cursors). The default is
     * stateless; stateful Offcodes override both sides. Called by the
     * runtime right before the instance is torn down for a restart.
     */
    virtual Bytes snapshotState() const { return {}; }
    /** Adopt a predecessor's snapshot (called before doStart). */
    virtual void restoreState(const Bytes &snapshot) { (void)snapshot; }

    // --- quotas (firmware OS discipline) ---
    void setQuota(OffcodeQuota quota) { quota_ = quota; }
    const OffcodeQuota &quota() const { return quota_; }
    /**
     * Budget-slice admission: true when this dispatch may run now.
     * False means the CPU budget for the current slice is spent;
     * @p deferUntil is set to the next slice boundary, where the
     * dispatcher must re-offer the message (preemption, not loss).
     */
    bool admitDispatch(sim::SimTime now, sim::SimTime *deferUntil);

    /** Context access (valid after doInitialize). */
    OffcodeContext &context() { return ctx_; }
    ExecutionSite &site() { return *ctx_.site; }
    Runtime &runtime() { return *ctx_.runtime; }

    // --- telemetry (hydra.Monitor introspection) ---
    const OffcodeTelemetry &telemetry() const { return telemetry_; }
    /**
     * Channel layer: account one dispatched message. @p busyNs is the
     * site-CPU busy time the handler added (ExecutionSite::endCharge);
     * it feeds busyNs, offcode.cpu_ns, the CPU profile and the quota
     * slice. finished - started is the service latency.
     */
    void noteDispatch(MessageKind kind, bool ok, sim::SimTime started,
                      sim::SimTime finished, sim::SimTime busyNs);

  protected:
    using MethodFn = std::function<Result<Bytes>(const Bytes &)>;

    /** Hook: acquire local resources (phase one). */
    virtual Status initialize() { return Status::success(); }
    /** Hook: peers are deployed; channels may be created (phase 2). */
    virtual Status start() { return Status::success(); }
    /** Hook: release resources. */
    virtual void stop() {}

    /** Register a method for default invoke() dispatch. */
    void registerMethod(const std::string &name, MethodFn fn);

    OffcodeContext ctx_;

  private:
    std::string bindname_;
    Guid guid_;
    OffcodeState state_ = OffcodeState::Created;
    std::map<std::string, MethodFn> methods_;
    std::vector<Guid> interfaces_;
    OffcodeTelemetry telemetry_;
    OffcodeQuota quota_;
    /** Budget-slice scheduler state (virtual time). */
    sim::SimTime sliceStart_ = 0;
    sim::SimTime sliceUsedNs_ = 0;
    /** `offcode.service_ns{offcode=bindname}`; set at doInitialize. */
    obs::Histogram *serviceTime_ = nullptr;
    /** `offcode.cpu_ns{offcode=bindname}`; set at doInitialize. */
    obs::Counter *cpuNs_ = nullptr;
    /** CPU-profile cells (site, bindname, phase); set at doInitialize. */
    std::atomic<std::uint64_t> *callCell_ = nullptr;
    std::atomic<std::uint64_t> *dataCell_ = nullptr;
    std::atomic<std::uint64_t> *mgmtCell_ = nullptr;
};

} // namespace hydra::core

#endif // HYDRA_CORE_OFFCODE_HH
