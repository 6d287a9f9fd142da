#include "hw/cache.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace hydra::hw {

CacheModel::CacheModel(std::size_t capacity_bytes, std::size_t line_bytes,
                       std::size_t ways)
    : ways_(ways)
{
    // Lines and sets are found by shift and mask, so both counts must
    // be powers of two; checked in every build type.
    if (ways == 0 || !std::has_single_bit(line_bytes) ||
        capacity_bytes % (line_bytes * ways) != 0 ||
        !std::has_single_bit(capacity_bytes / (line_bytes * ways)))
        throw std::invalid_argument(
            "CacheModel: need ways > 0 and power-of-two line size and "
            "set count");
    const std::size_t num_sets = capacity_bytes / (line_bytes * ways);
    lineShift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
    setMask_ = num_sets - 1;
    lines_.resize(num_sets * ways);
    setStamp_.resize(num_sets);
}

CacheModel::LineRange
CacheModel::linesOf(Addr addr, std::size_t size) const
{
    const Addr first = addr >> lineShift_;
    return {first, ((addr + size - 1) >> lineShift_) - first + 1};
}

CacheModel::Line *
CacheModel::setOf(Addr line)
{
    return &lines_[static_cast<std::size_t>(line & setMask_) * ways_];
}

bool
CacheModel::touchLine(Addr line)
{
    Line *const set = setOf(line);
    setStamp_[line & setMask_] = epoch_;

    ++useClock_;
    for (std::size_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].tag == line) {
            set[w].lastUse = useClock_;
            return false; // hit
        }
    }

    // Miss: fill into the LRU way.
    Line *victim = &set[0];
    for (std::size_t w = 0; w < ways_; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }
    victim->valid = true;
    victim->tag = line;
    victim->lastUse = useClock_;
    return true;
}

void
CacheModel::access(Addr addr, std::size_t size, bool is_write)
{
    (void)is_write; // write-allocate: reads and writes behave alike here
    if (size == 0)
        return;
    const LineRange range = linesOf(addr, size);
    totals_.accesses += range.count;
    for (Addr line = range.first; line < range.first + range.count; ++line)
        if (touchLine(line))
            ++totals_.misses;
}

void
CacheModel::retouch(Addr addr, std::size_t size, RetouchStamp &stamp)
{
    if (size == 0)
        return;
    const LineRange range = linesOf(addr, size);
    const Addr sets = setMask_ + 1;
    if (stamp.addr != addr || stamp.size != size ||
        range.count > sets * ways_) {
        access(addr, size, false);
        stamp = {addr, size, ++epoch_};
        return;
    }

    // A set is clean when nothing touched, invalidated or flushed it
    // since this range's last pass. That pass left the set's k range
    // lines resident as its k most-recently-used lines in address
    // order (k <= ways, so none evicted another). Touching them again
    // gives k hits and the same relative LRU order, so a clean set is
    // skipped. Sets are independent, so walking set by set instead of
    // in address order leaves every set's order as access() would.
    totals_.accesses += range.count;
    const Addr end = range.first + range.count;
    for (Addr first = range.first;
         first < range.first + std::min(range.count, sets); ++first) {
        if (setStamp_[first & setMask_] < stamp.epoch)
            continue;
        for (Addr line = first; line < end; line += sets)
            if (touchLine(line))
                ++totals_.misses;
    }
    stamp.epoch = ++epoch_;
}

void
CacheModel::snoopInvalidate(Addr addr, std::size_t size)
{
    if (size == 0)
        return;
    const LineRange range = linesOf(addr, size);
    for (Addr line = range.first; line < range.first + range.count;
         ++line) {
        Line *const set = setOf(line);
        for (std::size_t w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].tag == line) {
                set[w].valid = false;
                setStamp_[line & setMask_] = epoch_;
                break;
            }
        }
    }
}

CacheStats
CacheModel::windowStats() const
{
    CacheStats out;
    out.accesses = totals_.accesses - windowBase_.accesses;
    out.misses = totals_.misses - windowBase_.misses;
    return out;
}

void
CacheModel::beginWindow()
{
    windowBase_ = totals_;
}

void
CacheModel::flush()
{
    for (auto &line : lines_)
        line.valid = false;
    std::fill(setStamp_.begin(), setStamp_.end(), epoch_);
}

} // namespace hydra::hw
