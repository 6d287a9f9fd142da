/**
 * @file
 * Trace-driven set-associative cache model.
 *
 * Used as the host L2 (256 kB in the paper's testbed) to reproduce
 * Fig. 10: host-side data copies stream through the cache and evict
 * resident lines, while device DMA bypasses the cache entirely (it
 * only snoop-invalidates the lines it overwrites).
 */

#ifndef HYDRA_HW_CACHE_HH
#define HYDRA_HW_CACHE_HH

#include <cstdint>
#include <new>
#include <vector>

namespace hydra::hw {

/** Physical-ish address within the modeled machine. */
using Addr = std::uint64_t;

/** Cache access statistics over a measurement window. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(accesses);
    }
};

/** Set-associative LRU cache with write-allocate policy. */
class CacheModel
{
  public:
    /**
     * What a caller of retouch() keeps between calls: the range it
     * last re-touched and the epoch that pass ended. A
     * default-constructed stamp makes the next retouch() a full pass.
     * A stamp belongs to the one cache that filled it.
     */
    struct RetouchStamp
    {
        Addr addr = 0;
        std::size_t size = 0;
        std::uint64_t epoch = 0;
    };

    /**
     * @param capacity_bytes Total capacity (e.g. 256 kB).
     * @param line_bytes Line size (e.g. 64 B).
     * @param ways Associativity (e.g. 8).
     * @throws std::invalid_argument unless the line size and the set
     *         count are powers of two and ways > 0.
     */
    CacheModel(std::size_t capacity_bytes, std::size_t line_bytes,
               std::size_t ways);

    /** CPU access to [addr, addr+size); read or write. */
    void access(Addr addr, std::size_t size, bool is_write);

    /**
     * CPU read of [addr, addr+size) that the caller repeats, e.g. a
     * kernel hot set touched every tick. Counts and cache state end
     * exactly as after access(addr, size, false). Sets that nothing
     * changed since this stamp's previous re-touch of the same range
     * are counted as hits without being walked.
     */
    void retouch(Addr addr, std::size_t size, RetouchStamp &stamp);

    /** Device DMA overwrote host memory: invalidate covered lines. */
    void snoopInvalidate(Addr addr, std::size_t size);

    /** Running totals since construction. */
    const CacheStats &totals() const { return totals_; }

    /** Stats accumulated since the last beginWindow() call. */
    CacheStats windowStats() const;

    /** Start a new measurement window (paper samples every 5 s). */
    void beginWindow();

    /** Drop all cached lines (e.g. between benchmark scenarios). */
    void flush();

    std::size_t lineBytes() const { return std::size_t{1} << lineShift_; }
    std::size_t numSets() const { return setStamp_.size(); }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    /**
     * Storage aligned to the host's 64 B cache line. A set of 8 ways
     * is 192 B: aligned it spans 3 host lines, while an array placed
     * wherever the heap's history left it spans 4 per set and makes
     * the model's own speed depend on unrelated allocations.
     */
    template <typename T>
    struct HostLineAllocator
    {
        using value_type = T;
        static constexpr std::align_val_t kAlign{64};

        HostLineAllocator() = default;
        template <typename U>
        HostLineAllocator(const HostLineAllocator<U> &)
        {
        }

        T *
        allocate(std::size_t n)
        {
            return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
        }

        void
        deallocate(T *p, std::size_t)
        {
            ::operator delete(p, kAlign);
        }

        bool operator==(const HostLineAllocator &) const = default;
    };

    /** Line indices [first, first + count) covered by a byte range. */
    struct LineRange
    {
        Addr first = 0;
        Addr count = 0;
    };

    LineRange linesOf(Addr addr, std::size_t size) const;
    Line *setOf(Addr line);

    /** Touch one line (by line index); returns true on miss. */
    bool touchLine(Addr line);

    unsigned lineShift_ = 0;
    Addr setMask_ = 0;
    std::size_t ways_ = 0;
    /** numSets x ways, set-major. */
    std::vector<Line, HostLineAllocator<Line>> lines_;
    /** Per set: the epoch_ in force when its state last changed. */
    std::vector<std::uint64_t> setStamp_;
    /** Bumped at the end of every retouch(). */
    std::uint64_t epoch_ = 0;
    std::uint64_t useClock_ = 0;
    CacheStats totals_;
    CacheStats windowBase_;
};

} // namespace hydra::hw

#endif // HYDRA_HW_CACHE_HH
