#include "common/payload.hh"

#include <cstring>
#include <mutex>

#include "obs/metrics.hh"

namespace hydra {

namespace {

/**
 * Freelist of retired payload nodes. Bounded two ways: at most
 * kMaxFreeNodes are kept, and buffers whose capacity outgrew
 * kMaxPooledCapacity are freed outright instead of being cached, so
 * one giant message cannot pin megabytes in the pool forever.
 */
constexpr std::size_t kMaxFreeNodes = 256;
constexpr std::size_t kMaxPooledCapacity = 512 * 1024;

/**
 * The payload.* series. The pool already counts under its lock
 * (PayloadPoolStats); a registry read publishes those counts, so a
 * buffer's trip through the pool costs no extra atomic RMW. Resolved
 * at the first pool operation, as when every operation bumped them.
 */
struct PayloadMetrics
{
    PayloadMetrics();

    obs::Counter &allocations = obs::counter("payload.allocations");
    obs::Counter &poolHits = obs::counter("payload.pool_hits");
    obs::Counter &recycles = obs::counter("payload.recycles");
    obs::Counter &deepCopies = obs::counter("payload.deep_copies");
    /** Pool counts already added to the series (pool lock held). */
    PayloadPoolStats published;
};

PayloadMetrics &
payloadMetrics()
{
    static PayloadMetrics metrics;
    return metrics;
}

/**
 * Freelist shared by every execution site; all fields are guarded by
 * `mutex`. Pool traffic is a cold path next to refcount churn — a
 * node crosses the pool once per message, but its refcount moves on
 * every copy/slice/release — so one uncontended lock is cheaper than
 * sharding until profiles say otherwise.
 */
struct Pool
{
    std::mutex mutex;
    detail::PayloadNode *freeList = nullptr;
    std::size_t freeNodes = 0;
    PayloadPoolStats stats;
};

Pool &
pool()
{
    static Pool instance;
    return instance;
}

void
publishPoolStats()
{
    Pool &p = pool();
    PayloadMetrics &m = payloadMetrics();
    std::lock_guard<std::mutex> lock(p.mutex);
    m.allocations.add(p.stats.allocations - m.published.allocations);
    m.poolHits.add(p.stats.poolHits - m.published.poolHits);
    m.recycles.add(p.stats.recycles - m.published.recycles);
    m.deepCopies.add(p.stats.deepCopies - m.published.deepCopies);
    m.published = p.stats;
}

PayloadMetrics::PayloadMetrics()
{
    obs::MetricsRegistry::instance().addCollector(publishPoolStats);
}

} // namespace

namespace detail {

PayloadNode *
payloadAcquire()
{
    payloadMetrics(); // outside the pool lock: it may add the collector
    Pool &p = pool();
    std::lock_guard<std::mutex> lock(p.mutex);
    if (p.freeList) {
        PayloadNode *node = p.freeList;
        p.freeList = node->nextFree;
        --p.freeNodes;
        node->nextFree = nullptr;
        node->storage.clear(); // keeps capacity
        ++p.stats.poolHits;
        return node;
    }
    ++p.stats.allocations;
    return new PayloadNode();
}

PayloadNode *
payloadAdopt(Bytes &&bytes)
{
    // The incoming vector brings its own buffer; taking a pooled node
    // would waste the pooled capacity, so allocate the wrapper only.
    payloadMetrics();
    Pool &p = pool();
    std::lock_guard<std::mutex> lock(p.mutex);
    PayloadNode *node;
    if (p.freeList && p.freeList->storage.capacity() == 0) {
        node = p.freeList;
        p.freeList = node->nextFree;
        --p.freeNodes;
        node->nextFree = nullptr;
        ++p.stats.poolHits;
    } else {
        ++p.stats.allocations;
        node = new PayloadNode();
    }
    node->storage = std::move(bytes);
    return node;
}

void
payloadRelease(PayloadNode *node)
{
    Pool &p = pool();
    {
        std::lock_guard<std::mutex> lock(p.mutex);
        if (p.freeNodes < kMaxFreeNodes &&
            node->storage.capacity() <= kMaxPooledCapacity) {
            node->nextFree = p.freeList;
            p.freeList = node;
            ++p.freeNodes;
            ++p.stats.recycles;
            return;
        }
    }
    delete node; // outside the lock
}

void
payloadCountDeepCopy()
{
    payloadMetrics();
    Pool &p = pool();
    std::lock_guard<std::mutex> lock(p.mutex);
    ++p.stats.deepCopies;
}

} // namespace detail

Payload
Payload::copyOf(const std::uint8_t *data, std::size_t size)
{
    detail::payloadCountDeepCopy();
    PayloadBuilder builder;
    Bytes &buffer = builder.buffer();
    buffer.resize(size);
    if (size > 0)
        std::memcpy(buffer.data(), data, size);
    return builder.seal();
}

Bytes
Payload::toBytes() const
{
    detail::payloadCountDeepCopy();
    return Bytes(begin(), end());
}

bool
operator==(const Payload &a, const Payload &b)
{
    return a.size() == b.size() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size()) == 0);
}

bool
operator==(const Payload &a, const Bytes &b)
{
    return a.size() == b.size() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size()) == 0);
}

PayloadPoolStats
payloadPoolStats()
{
    Pool &p = pool();
    std::lock_guard<std::mutex> lock(p.mutex);
    PayloadPoolStats stats = p.stats;
    stats.freeNodes = p.freeNodes;
    return stats;
}

void
payloadPoolTrim()
{
    Pool &p = pool();
    std::lock_guard<std::mutex> lock(p.mutex);
    while (p.freeList) {
        detail::PayloadNode *node = p.freeList;
        p.freeList = node->nextFree;
        delete node;
    }
    p.freeNodes = 0;
}

} // namespace hydra
