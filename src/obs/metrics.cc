#include "obs/metrics.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/json.hh"

namespace hydra::obs {

namespace {

Labels
sortedLabels(Labels labels)
{
    std::sort(labels.begin(), labels.end());
    return labels;
}

} // namespace

std::string
displayKey(const std::string &name, const Labels &labels)
{
    if (labels.empty())
        return name;
    std::string out = name + "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i)
            out += ',';
        out += labels[i].first + "=" + labels[i].second;
    }
    out += '}';
    return out;
}

bool
parseDisplayKey(const std::string &key, std::string &name, Labels &labels)
{
    labels.clear();
    const std::size_t brace = key.find('{');
    if (brace == std::string::npos) {
        if (key.empty())
            return false;
        name = key;
        return true;
    }
    if (brace == 0 || key.back() != '}')
        return false;
    name = key.substr(0, brace);
    std::size_t pos = brace + 1;
    const std::size_t end = key.size() - 1;
    while (pos < end) {
        std::size_t comma = key.find(',', pos);
        if (comma == std::string::npos || comma > end)
            comma = end;
        const std::string pair = key.substr(pos, comma - pos);
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0)
            return false;
        labels.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
        pos = comma + 1;
    }
    return true;
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

template <typename T>
T &
MetricsRegistry::findOrCreate(std::vector<Entry<T>> &entries,
                              const std::string &name, const Labels &labels)
{
    const Labels sorted = sortedLabels(labels);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry<T> &entry : entries)
        if (entry.name == name && entry.labels == sorted)
            return *entry.instrument;
    entries.push_back(Entry<T>{name, sorted, std::make_unique<T>()});
    return *entries.back().instrument;
}

Counter &
MetricsRegistry::counter(const std::string &name, const Labels &labels)
{
    return findOrCreate(counters_, name, labels);
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const Labels &labels)
{
    return findOrCreate(gauges_, name, labels);
}

LatencyHistogram &
MetricsRegistry::histogram(const std::string &name, const Labels &labels)
{
    return findOrCreate(histograms_, name, labels);
}

void
MetricsRegistry::addCollector(std::function<void()> fn)
{
    std::lock_guard<std::mutex> lock(collectorMutex_);
    collectors_.push_back(std::move(fn));
}

void
MetricsRegistry::collect() const
{
    std::lock_guard<std::mutex> lock(collectorMutex_);
    for (const std::function<void()> &fn : collectors_)
        fn();
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name,
                              const Labels &labels) const
{
    collect();
    const Labels sorted = sortedLabels(labels);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry<Counter> &entry : counters_)
        if (entry.name == name && entry.labels == sorted)
            return entry.instrument->value();
    return 0;
}

std::uint64_t
MetricsRegistry::counterTotal(const std::string &name) const
{
    collect();
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const Entry<Counter> &entry : counters_)
        if (entry.name == name)
            total += entry.instrument->value();
    return total;
}

const LatencyHistogram *
MetricsRegistry::findHistogram(const std::string &name,
                               const Labels &labels) const
{
    const Labels sorted = sortedLabels(labels);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry<LatencyHistogram> &entry : histograms_)
        if (entry.name == name && entry.labels == sorted)
            return entry.instrument.get();
    return nullptr;
}

RegistrySnapshot
MetricsRegistry::snapshot() const
{
    collect();
    RegistrySnapshot out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.counters.reserve(counters_.size());
        for (const Entry<Counter> &entry : counters_)
            out.counters.emplace_back(displayKey(entry.name, entry.labels),
                                      entry.instrument->value());
        out.gauges.reserve(gauges_.size());
        for (const Entry<Gauge> &entry : gauges_)
            out.gauges.emplace_back(displayKey(entry.name, entry.labels),
                                    entry.instrument->value());
        out.histograms.reserve(histograms_.size());
        for (const Entry<Histogram> &entry : histograms_)
            out.histograms.emplace_back(displayKey(entry.name, entry.labels),
                                        entry.instrument->summary());
    }
    // Sorted output makes flight snapshots and reports independent of
    // registration order.
    auto byKey = [](const auto &a, const auto &b) { return a.first < b.first; };
    std::sort(out.counters.begin(), out.counters.end(), byKey);
    std::sort(out.gauges.begin(), out.gauges.end(), byKey);
    std::sort(out.histograms.begin(), out.histograms.end(), byKey);
    return out;
}

void
MetricsRegistry::reset()
{
    collect();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry<Counter> &entry : counters_)
        entry.instrument->reset();
    for (const Entry<Gauge> &entry : gauges_)
        entry.instrument->reset();
    for (const Entry<LatencyHistogram> &entry : histograms_)
        entry.instrument->reset();
}

std::string
MetricsRegistry::toJson() const
{
    collect();
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    json::Writer w(out);
    const auto head = [&w](const auto &entry) {
        w.beginObject().field("name", entry.name).key("labels");
        w.beginObject();
        for (const auto &[key, value] : entry.labels)
            w.field(key, value);
        w.endObject();
    };
    w.beginObject().key("counters").beginArray();
    for (const auto &entry : counters_) {
        head(entry);
        w.field("value", entry.instrument->value()).endObject();
    }
    w.endArray().key("gauges").beginArray();
    for (const auto &entry : gauges_) {
        head(entry);
        w.field("value", entry.instrument->value()).endObject();
    }
    w.endArray().key("histograms").beginArray();
    for (const auto &entry : histograms_) {
        const LatencyHistogram &h = *entry.instrument;
        head(entry);
        w.field("unit", "ns").field("count", h.count());
        w.field("sum", h.sum()).field("min", h.min()).field("max", h.max());
        w.field("mean", h.mean()).field("p50", h.percentile(50.0));
        w.field("p90", h.percentile(90.0)).field("p99", h.percentile(99.0));
        w.field("p999", h.percentile(99.9));
        w.field("overflow", h.overflowCount()).key("buckets").beginArray();
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
            const std::uint64_t n = h.bucketCount(b);
            if (n == 0)
                continue;
            const std::uint64_t le = b >= Histogram::kOverflowBucket
                                         ? h.max()
                                         : Histogram::bucketUpperBound(b) - 1;
            w.beginObject().field("le", le).field("count", n).endObject();
        }
        w.endArray().endObject();
    }
    w.endArray().endObject();
    return out.str();
}

std::string
MetricsRegistry::prettyTable() const
{
    collect();
    std::lock_guard<std::mutex> lock(mutex_);

    // Rows are sorted by display name and the name column is sized to
    // the longest row, so the table reads the same however metrics
    // happened to register.
    struct Row
    {
        std::string key;
        std::string value;
    };
    auto collect = [](const auto &entries, auto format) {
        std::vector<Row> rows;
        for (const auto &entry : entries)
            rows.push_back(Row{displayKey(entry.name, entry.labels),
                               format(*entry.instrument)});
        std::sort(rows.begin(), rows.end(),
                  [](const Row &a, const Row &b) { return a.key < b.key; });
        return rows;
    };

    char buf[192];
    const std::vector<Row> counterRows =
        collect(counters_, [&](const Counter &c) {
            std::snprintf(buf, sizeof(buf), "%12llu",
                          static_cast<unsigned long long>(c.value()));
            return std::string(buf);
        });
    const std::vector<Row> gaugeRows =
        collect(gauges_, [&](const Gauge &g) {
            std::snprintf(buf, sizeof(buf), "%12.3f", g.value());
            return std::string(buf);
        });
    const std::vector<Row> histogramRows =
        collect(histograms_, [&](const Histogram &h) {
            std::snprintf(buf, sizeof(buf),
                          "n=%-9llu mean=%-11.0f p50=%-11.0f "
                          "p99=%-11.0f p999=%-11.0f max=%llu",
                          static_cast<unsigned long long>(h.count()),
                          h.mean(), h.percentile(50.0), h.percentile(99.0),
                          h.percentile(99.9),
                          static_cast<unsigned long long>(h.max()));
            return std::string(buf);
        });

    std::size_t width = 24;
    for (const auto *rows : {&counterRows, &gaugeRows, &histogramRows})
        for (const Row &row : *rows)
            width = std::max(width, row.key.size());

    std::ostringstream out;
    auto section = [&](const char *title, const std::vector<Row> &rows) {
        out << title << ":\n";
        for (const Row &row : rows) {
            char line[256];
            std::snprintf(line, sizeof(line), "  %-*s %s\n",
                          static_cast<int>(width), row.key.c_str(),
                          row.value.c_str());
            out << line;
        }
    };
    section("counters", counterRows);
    section("gauges", gaugeRows);
    section("histograms (ns)", histogramRows);
    return out.str();
}

} // namespace hydra::obs
