#include "obs/attribution.hh"

#include <algorithm>

#include "obs/metrics.hh"

namespace hydra::obs {

CpuAttribution &
CpuAttribution::instance()
{
    static CpuAttribution attribution;
    return attribution;
}

void
CpuAttribution::baseline(SiteEntry &entry, BusyFn busyUpTo, bool isDevice,
                         std::uint64_t nowNs)
{
    entry.busyUpTo = std::move(busyUpTo);
    entry.isDevice = isDevice;
    entry.registeredNs = nowNs;
    entry.lastSyncNs = nowNs;
    entry.busyAtRegistration = entry.busyUpTo(nowNs);
    entry.busyReported = entry.busyAtRegistration;
    for (auto &cell : cells_)
        if (cell->site == entry.name)
            cell->baseline = cell->ns.load(std::memory_order_relaxed);
}

void
CpuAttribution::registerSite(const std::string &site, BusyFn busyUpTo,
                             bool isDevice, std::uint64_t nowNs,
                             const std::string &host)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &entry : sites_) {
        if (entry->name != site)
            continue;
        // Same name, new CPU model (a fresh Testbed in the same
        // process): re-baseline so the stale callback is dropped and
        // deltas restart from now.
        baseline(*entry, std::move(busyUpTo), isDevice, nowNs);
        return;
    }
    auto entry = std::make_unique<SiteEntry>();
    entry->name = site;
    baseline(*entry, std::move(busyUpTo), isDevice, nowNs);
    Labels siteLabels{{"site", site}};
    Labels deviceLabels{{"device", site}};
    if (!host.empty()) {
        siteLabels.push_back({"host", host});
        deviceLabels.push_back({"host", host});
    }
    entry->busy = &counter("exec.site_busy_ns", siteLabels);
    entry->idle = &counter("exec.site_idle_ns", siteLabels);
    if (isDevice)
        entry->utilization = &gauge("device.cpu_utilization", deviceLabels);
    sites_.push_back(std::move(entry));
}

void
CpuAttribution::unregisterSite(const std::string &site)
{
    std::lock_guard<std::mutex> lock(mutex_);
    sites_.erase(std::remove_if(sites_.begin(), sites_.end(),
                                [&](const auto &entry) {
                                    return entry->name == site;
                                }),
                 sites_.end());
}

void
CpuAttribution::registerOffcode(const std::string &bindname,
                                std::uint64_t nowNs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &entry : offcodes_) {
        if (entry->bindname != bindname)
            continue;
        entry->lastCpuNs = entry->cpuNs->value();
        entry->lastSyncNs = nowNs;
        return;
    }
    auto entry = std::make_unique<OffcodeEntry>();
    entry->bindname = bindname;
    entry->cpuNs = &counter("offcode.cpu_ns", {{"offcode", bindname}});
    entry->utilization =
        &gauge("offcode.utilization", {{"offcode", bindname}});
    entry->lastCpuNs = entry->cpuNs->value();
    entry->lastSyncNs = nowNs;
    offcodes_.push_back(std::move(entry));
}

CpuAttribution::BusyCell &
CpuAttribution::cell(const std::string &site, const std::string &offcode,
                     const std::string &phase)
{
    const std::string stack = site + ";" + offcode + ";" + phase;
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &entry : cells_)
        if (entry->stack == stack)
            return entry->ns;
    auto entry = std::make_unique<CellEntry>();
    entry->site = site;
    entry->stack = stack;
    cells_.push_back(std::move(entry));
    return cells_.back()->ns;
}

std::string
CpuAttribution::foldedStacks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    for (const auto &site : sites_) {
        const std::size_t first = rows.size();
        for (const auto &cell : cells_)
            if (cell->site == site->name)
                rows.emplace_back(
                    cell->stack,
                    cell->ns.load(std::memory_order_relaxed) -
                        cell->baseline);
        std::sort(rows.begin() + static_cast<std::ptrdiff_t>(first),
                  rows.end());
        const std::uint64_t busy =
            site->busyReported - site->busyAtRegistration;
        std::uint64_t unclaimed = busy;
        for (std::size_t i = first; i < rows.size(); ++i) {
            rows[i].second = std::min(rows[i].second, unclaimed);
            unclaimed -= rows[i].second;
        }
        rows.emplace_back(site->name + ";other", unclaimed);
        rows.emplace_back(site->name + ";idle",
                          site->lastSyncNs - site->registeredNs - busy);
    }
    std::sort(rows.begin(), rows.end());
    std::string out;
    for (const auto &[stack, ns] : rows)
        if (ns > 0)
            out += stack + " " + std::to_string(ns) + "\n";
    return out;
}

void
CpuAttribution::sync(std::uint64_t nowNs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &entry : sites_) {
        if (nowNs <= entry->lastSyncNs)
            continue;
        const std::uint64_t elapsed = nowNs - entry->lastSyncNs;
        const std::uint64_t rawBusy = entry->busyUpTo(nowNs);
        std::uint64_t busyDelta = rawBusy > entry->busyReported
                                      ? rawBusy - entry->busyReported
                                      : 0;
        busyDelta = std::min(busyDelta, elapsed);
        entry->busyReported += busyDelta;
        entry->busy->add(busyDelta);
        entry->idle->add(elapsed - busyDelta);
        if (entry->utilization)
            entry->utilization->set(static_cast<double>(busyDelta) /
                                    static_cast<double>(elapsed));
        entry->lastSyncNs = nowNs;
    }
    for (auto &entry : offcodes_) {
        if (nowNs <= entry->lastSyncNs)
            continue;
        const std::uint64_t elapsed = nowNs - entry->lastSyncNs;
        const std::uint64_t cpu = entry->cpuNs->value();
        const std::uint64_t delta =
            cpu > entry->lastCpuNs ? cpu - entry->lastCpuNs : 0;
        entry->utilization->set(
            std::min(1.0, static_cast<double>(delta) /
                              static_cast<double>(elapsed)));
        entry->lastCpuNs = cpu;
        entry->lastSyncNs = nowNs;
    }
}

std::size_t
CpuAttribution::siteCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sites_.size();
}

} // namespace hydra::obs
