/**
 * @file
 * Slab: a vector of values addressed by a 32-bit slot, with a free
 * list, for state that waits on a scheduled event.
 *
 * An event closure that captures a whole packet or callback outgrows
 * std::function's inline buffer and costs a heap allocation each
 * time. Parking the state in a slab and capturing only (this, slot)
 * keeps the closure at 16 trivially copyable bytes, which libstdc++
 * stores inline; once the slab has grown to the peak number of
 * values in flight, put/take allocate nothing.
 *
 * Not thread-safe: owners that are reached from several threads
 * guard their slab with their own lock.
 */

#ifndef HYDRA_COMMON_SLAB_HH
#define HYDRA_COMMON_SLAB_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace hydra {

template <typename T>
class Slab
{
  public:
    /** Store @p value; the returned slot stays valid until take(). */
    std::uint32_t
    put(T value)
    {
        if (free_.empty()) {
            items_.push_back(std::move(value));
            return static_cast<std::uint32_t>(items_.size() - 1);
        }
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        items_[slot] = std::move(value);
        return slot;
    }

    /** Move the value out and recycle its slot (which keeps the
     * moved-from husk until the next put()). */
    T
    take(std::uint32_t slot)
    {
        T value = std::move(items_[slot]);
        free_.push_back(slot);
        return value;
    }

    /** The value in a live slot (invalidated by a later put()). */
    T &operator[](std::uint32_t slot) { return items_[slot]; }

  private:
    std::vector<T> items_;
    std::vector<std::uint32_t> free_;
};

} // namespace hydra

#endif // HYDRA_COMMON_SLAB_HH
