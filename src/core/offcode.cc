#include "core/offcode.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/attribution.hh"
#include "obs/metrics.hh"

namespace hydra::core {

const char *
offcodeStateName(OffcodeState state)
{
    switch (state) {
      case OffcodeState::Created: return "Created";
      case OffcodeState::Initialized: return "Initialized";
      case OffcodeState::Started: return "Started";
      case OffcodeState::Stopped: return "Stopped";
      case OffcodeState::Faulted: return "Faulted";
    }
    return "Unknown";
}

Offcode::Offcode(std::string bindname)
    : bindname_(std::move(bindname)), guid_(Guid::fromName(bindname_))
{
}

std::string
Offcode::deviceAddr() const
{
    return ctx_.site ? ctx_.site->name() : std::string();
}

Status
Offcode::doInitialize(OffcodeContext context)
{
    if (state_ != OffcodeState::Created)
        return Status(ErrorCode::OffcodeAlreadyStarted,
                      bindname_ + ": initialize out of order");
    ctx_ = context;
    serviceTime_ =
        &obs::histogram("offcode.service_ns", {{"offcode", bindname_}});
    cpuNs_ = &obs::counter("offcode.cpu_ns", {{"offcode", bindname_}});
    obs::CpuAttribution &attribution = obs::CpuAttribution::instance();
    attribution.registerOffcode(
        bindname_, ctx_.site ? ctx_.site->machine().executor().now() : 0);
    if (ctx_.site) {
        const std::string &site = ctx_.site->name();
        callCell_ = &attribution.cell(site, bindname_, "call");
        dataCell_ = &attribution.cell(site, bindname_, "data");
        mgmtCell_ = &attribution.cell(site, bindname_, "mgmt");
    }
    Status status = initialize();
    if (!status) {
        state_ = OffcodeState::Faulted;
        return status;
    }
    state_ = OffcodeState::Initialized;
    return Status::success();
}

Status
Offcode::doStart()
{
    if (state_ != OffcodeState::Initialized)
        return Status(state_ == OffcodeState::Created
                          ? ErrorCode::OffcodeNotInitialized
                          : ErrorCode::OffcodeAlreadyStarted,
                      bindname_ + ": start out of order");
    Status status = start();
    if (!status) {
        state_ = OffcodeState::Faulted;
        return status;
    }
    state_ = OffcodeState::Started;
    return Status::success();
}

void
Offcode::doStop()
{
    if (state_ == OffcodeState::Started ||
        state_ == OffcodeState::Initialized) {
        stop();
        state_ = OffcodeState::Stopped;
    }
}

Result<Bytes>
Offcode::invoke(const std::string &method, const Bytes &arguments)
{
    auto it = methods_.find(method);
    if (it == methods_.end())
        return Error(ErrorCode::NotFound,
                     bindname_ + ": no such method: " + method);
    return it->second(arguments);
}

void
Offcode::onChannelConnected(ChannelHandle channel)
{
    (void)channel;
}

void
Offcode::onData(const Payload &payload, ChannelHandle from)
{
    (void)payload;
    (void)from;
    LOG_DEBUG << bindname_ << ": unhandled data message";
}

void
Offcode::onManagement(const Payload &payload, ChannelHandle from)
{
    (void)payload;
    (void)from;
}

void
Offcode::noteDispatch(MessageKind kind, bool ok, sim::SimTime started,
                      sim::SimTime finished, sim::SimTime busyNs)
{
    std::atomic<std::uint64_t> *cell = nullptr;
    switch (kind) {
      case MessageKind::Call:
        ++telemetry_.callsHandled;
        cell = callCell_;
        break;
      case MessageKind::Data:
        ++telemetry_.dataHandled;
        cell = dataCell_;
        break;
      case MessageKind::Management:
        ++telemetry_.mgmtHandled;
        cell = mgmtCell_;
        break;
      case MessageKind::Return: break;
    }
    if (!ok)
        ++telemetry_.invokeErrors;
    if (busyNs > 0) {
        telemetry_.busyNs += busyNs;
        if (cpuNs_)
            cpuNs_->add(busyNs);
        if (cell)
            cell->fetch_add(busyNs, std::memory_order_relaxed);
        // Charge the budget slice this dispatch started in.
        if (quota_.cpuBudgetNs > 0) {
            const sim::SimTime period = quota_.slicePeriodNs > 0
                                            ? quota_.slicePeriodNs
                                            : sim::milliseconds(1);
            if (started >= sliceStart_ + period) {
                sliceStart_ = started - (started - sliceStart_) % period;
                sliceUsedNs_ = 0;
            }
            sliceUsedNs_ += busyNs;
        }
    }
    if (serviceTime_)
        serviceTime_->record(finished > started ? finished - started : 0);
    telemetry_.lastActivityAt = started;
}

bool
Offcode::admitDispatch(sim::SimTime now, sim::SimTime *deferUntil)
{
    if (quota_.cpuBudgetNs == 0)
        return true;
    const sim::SimTime period =
        quota_.slicePeriodNs > 0 ? quota_.slicePeriodNs
                                 : sim::milliseconds(1);
    if (now >= sliceStart_ + period) {
        // Roll the slice window forward to the one containing `now`;
        // a fresh slice always has budget, so preemption can never
        // starve an Offcode forever.
        sliceStart_ = now - (now - sliceStart_) % period;
        sliceUsedNs_ = 0;
    }
    if (sliceUsedNs_ < quota_.cpuBudgetNs)
        return true;
    if (deferUntil)
        *deferUntil = sliceStart_ + period;
    return false;
}

void
Offcode::registerMethod(const std::string &name, MethodFn fn)
{
    methods_[name] = std::move(fn);
}

void
Offcode::declareInterface(Guid interface_guid)
{
    if (std::find(interfaces_.begin(), interfaces_.end(),
                  interface_guid) == interfaces_.end())
        interfaces_.push_back(interface_guid);
}

bool
Offcode::supportsInterface(Guid interface_guid) const
{
    if (interfaces_.empty())
        return true; // no declaration: accept anything
    if (interface_guid == guid_ || interface_guid.isNull())
        return true; // the IOffcode identity is always available
    for (const Guid &declared : interfaces_)
        if (declared == interface_guid)
            return true;
    return false;
}

} // namespace hydra::core
