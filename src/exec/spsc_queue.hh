/**
 * @file
 * Bounded single-producer/single-consumer ring (the threaded
 * executor's inter-site handoff). Lock-free and wait-free on both
 * ends: one producer thread calls pushBatch(), one consumer thread
 * calls popBatch(), synchronized by two acquire/release indices. Each
 * side keeps a cached copy of the other's index so the common case
 * touches only one shared cache line. A single item is a batch of one.
 *
 * Each call publishes ONE index store for however many items it
 * moves: pushBatch() one tail store (one doorbell-visible update
 * instead of N), popBatch() one head store. Consumed slots are reset
 * to a default-constructed T before the head index is published, so
 * resources the slot held (pooled Payload buffers inside queued
 * closures) release at consumption time instead of living until the
 * ring wraps and overwrites the slot.
 */

#ifndef HYDRA_EXEC_SPSC_QUEUE_HH
#define HYDRA_EXEC_SPSC_QUEUE_HH

#include <atomic>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace hydra::exec {

template <typename T>
class SpscQueue
{
  public:
    /** @param capacity Slot count; rounded up to a power of two. */
    explicit SpscQueue(std::size_t capacity)
    {
        std::size_t rounded = 1;
        while (rounded < capacity)
            rounded <<= 1;
        slots_.resize(rounded);
        mask_ = rounded - 1;
    }

    SpscQueue(const SpscQueue &) = delete;
    SpscQueue &operator=(const SpscQueue &) = delete;

    /**
     * Producer side: move as many of @p items into the ring as fit,
     * publishing ONE tail store for the whole batch. Returns the
     * number consumed from the front of the span (0 when full); the
     * caller spills or retries the remainder. Moved-in items are left
     * in their moved-from state.
     */
    std::size_t
    pushBatch(std::span<T> items)
    {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        std::size_t free = mask_ + 1 - (tail - cachedHead_);
        if (free < items.size()) {
            cachedHead_ = head_.load(std::memory_order_acquire);
            free = mask_ + 1 - (tail - cachedHead_);
        }
        const std::size_t count =
            items.size() < free ? items.size() : free;
        for (std::size_t i = 0; i < count; ++i)
            slots_[(tail + i) & mask_] = std::move(items[i]);
        if (count > 0)
            tail_.store(tail + count, std::memory_order_release);
        return count;
    }

    /**
     * Consumer side: move up to @p max items into @p out, publishing
     * ONE head store for the whole batch. Consumed slots are reset.
     * Returns the number popped (0 when empty).
     */
    std::size_t
    popBatch(T *out, std::size_t max)
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        std::size_t avail = cachedTail_ - head;
        if (avail == 0) {
            cachedTail_ = tail_.load(std::memory_order_acquire);
            avail = cachedTail_ - head;
        }
        const std::size_t count = max < avail ? max : avail;
        for (std::size_t i = 0; i < count; ++i) {
            T &slot = slots_[(head + i) & mask_];
            out[i] = std::move(slot);
            slot = T();
        }
        if (count > 0)
            head_.store(head + count, std::memory_order_release);
        return count;
    }

    /** Racy size hint (either side; exact only on the caller's end). */
    std::size_t
    sizeHint() const
    {
        return tail_.load(std::memory_order_acquire) -
               head_.load(std::memory_order_acquire);
    }

    std::size_t capacity() const { return mask_ + 1; }

  private:
    std::vector<T> slots_;
    std::size_t mask_ = 0;

    alignas(64) std::atomic<std::size_t> head_{0}; ///< consumer-owned
    alignas(64) std::size_t cachedTail_ = 0;       ///< consumer-local
    alignas(64) std::atomic<std::size_t> tail_{0}; ///< producer-owned
    alignas(64) std::size_t cachedHead_ = 0;       ///< producer-local
};

} // namespace hydra::exec

#endif // HYDRA_EXEC_SPSC_QUEUE_HH
