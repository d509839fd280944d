/**
 * @file
 * Round-robin arbiter, the primitive used by both stages of the
 * separable switch allocator and by the VC allocator.
 */

#ifndef NOC_ROUTER_ARBITER_HPP
#define NOC_ROUTER_ARBITER_HPP

#include <cstdint>

namespace noc {

/** Index of the lowest set bit; undefined for 0. */
inline int
lowestSetBit(std::uint64_t mask)
{
    return __builtin_ctzll(mask);
}

/**
 * Rotating-priority arbiter over `size` ≤ 64 requesters, whose requests
 * arrive as one bit mask. grant() scans from the slot after the last
 * winner, so service is fair and starvation-free among persistent
 * requesters.
 */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(int size = 0) : size_(size), last_(size - 1) {}

    void resize(int size)
    {
        size_ = size;
        last_ = size - 1;
    }

    int size() const { return size_; }

    /**
     * Pick a winner among requesters: bit i set ⇔ requester i is
     * requesting. The winner is the first requester after the last
     * winner, wrapping — the lowest set bit above last_, else the lowest
     * set bit overall. Updates priority and returns the winner, or -1
     * (priority unchanged) if nothing is requested. Requires size ≤ 64.
     */
    int
    grant(std::uint64_t requests)
    {
        const int idx = peek(requests);
        if (idx >= 0)
            last_ = idx;
        return idx;
    }

    /** grant() without rotating priority (for diagnostics/tests). */
    int
    peek(std::uint64_t requests) const
    {
        if (requests == 0)
            return -1;
        const std::uint64_t above = last_ + 1 >= 64
                                        ? 0
                                        : requests >> (last_ + 1)
                                              << (last_ + 1);
        return above != 0 ? lowestSetBit(above) : lowestSetBit(requests);
    }

  private:
    int size_;
    int last_;
};

} // namespace noc

#endif // NOC_ROUTER_ARBITER_HPP
