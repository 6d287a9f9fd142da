#include "obs/flight.hh"

#include <sstream>

#include "common/json.hh"

namespace hydra::obs {

FlightRecorder &
FlightRecorder::instance()
{
    static FlightRecorder recorder;
    return recorder;
}

void
FlightRecorder::configure(FlightConfig config)
{
    std::lock_guard<std::mutex> lock(mutex_);
    config_ = config;
    if (config_.capacity == 0)
        config_.capacity = 1;
    ring_.clear();
    captured_ = 0;
    droppedSnapshots_ = 0;
    lastCounter_.clear();
    lastHistogramCount_.clear();
}

void
FlightRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    captured_ = 0;
    droppedSnapshots_ = 0;
    lastCounter_.clear();
    lastHistogramCount_.clear();
}

void
FlightRecorder::capture(std::uint64_t nowNs)
{
    // Snapshot the registry before taking our own lock: registry and
    // recorder locks never nest, so OOB readers can't deadlock us.
    const RegistrySnapshot current = MetricsRegistry::instance().snapshot();

    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    snap.at = nowNs;

    for (const auto &[key, value] : current.counters) {
        auto it = lastCounter_.find(key);
        const std::uint64_t last = it == lastCounter_.end() ? 0 : it->second;
        // Counters are monotone except across a registry reset, where
        // the baseline restarts from the new (lower) value.
        const std::uint64_t delta = value >= last ? value - last : value;
        lastCounter_[key] = value;
        if (delta != 0)
            snap.counterDeltas.emplace_back(key, delta);
    }
    for (const auto &[key, value] : current.gauges) {
        if (value != 0.0)
            snap.gauges.emplace_back(key, value);
    }
    for (const auto &[key, summary] : current.histograms) {
        auto it = lastHistogramCount_.find(key);
        const std::uint64_t last =
            it == lastHistogramCount_.end() ? 0 : it->second;
        lastHistogramCount_[key] = summary.count;
        if (summary.count != 0 && summary.count != last)
            snap.histograms.emplace_back(key, summary);
    }

    ++captured_;
    if (ring_.size() >= config_.capacity) {
        ring_.pop_front();
        ++droppedSnapshots_;
        MetricsRegistry::instance()
            .counter("obs.flight.dropped_snapshots")
            .increment();
    }
    ring_.push_back(std::move(snap));
}

std::size_t
FlightRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.size();
}

std::uint64_t
FlightRecorder::captured() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return captured_;
}

std::uint64_t
FlightRecorder::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return droppedSnapshots_;
}

std::string
FlightRecorder::toJson(std::size_t maxSnapshots) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t first = 0;
    if (maxSnapshots != 0 && ring_.size() > maxSnapshots)
        first = ring_.size() - maxSnapshots;

    std::ostringstream out;
    json::Writer w(out);
    w.beginObject().field("capacity", config_.capacity);
    w.field("captured", captured_).field("dropped", droppedSnapshots_);
    w.key("snapshots").beginArray();
    for (std::size_t i = first; i < ring_.size(); ++i) {
        const Snapshot &snap = ring_[i];
        w.beginObject().field("t", snap.at).key("counters").beginObject();
        for (const auto &[key, delta] : snap.counterDeltas)
            w.field(key, delta);
        w.endObject().key("gauges").beginObject();
        for (const auto &[key, value] : snap.gauges)
            w.field(key, value);
        w.endObject().key("histograms").beginObject();
        for (const auto &[key, summary] : snap.histograms) {
            w.key(key).beginObject().field("n", summary.count);
            w.field("min", summary.min).field("max", summary.max);
            w.field("p50", summary.p50).field("p90", summary.p90);
            w.field("p99", summary.p99).field("p999", summary.p999);
            if (summary.overflow)
                w.field("overflow", summary.overflow);
            w.endObject();
        }
        w.endObject().endObject();
    }
    w.endArray().endObject();
    return out.str();
}

} // namespace hydra::obs
