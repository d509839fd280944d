/**
 * @file
 * Bump-pointer arena allocator for per-simulation state.
 *
 * A simulation's hot-path state (VC flit slots, credit tables, scratch
 * masks) is sized once at construction and lives until the simulator is
 * destroyed. Backing it with an arena turns thousands of small
 * allocations into a handful of chunk mallocs, keeps one router's state
 * contiguous in memory (the data-oriented layout the specialized
 * kernels iterate over), and guarantees zero heap traffic during the
 * cycle loop.
 *
 * The arena hands out raw typed storage and never runs destructors:
 * only trivially-destructible types may be allocated (enforced at
 * compile time). Chunks never move once allocated, so returned pointers
 * stay stable for the arena's lifetime.
 */

#ifndef NOC_COMMON_ARENA_HPP
#define NOC_COMMON_ARENA_HPP

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace noc {

class Arena
{
  public:
    /**
     * @param chunk_bytes  size of each backing allocation. An owner that
     * knows its total demand passes it here (plus the alignment of its
     * type) and gets exactly one chunk with no slack.
     */
    explicit Arena(std::size_t chunk_bytes) : chunkBytes_(chunk_bytes) {}

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate value-initialised storage for `n` objects of T (chunk
     * memory itself is left uninitialised: only the objects handed out
     * are ever written). A request that does not fit the current chunk
     * gets a fresh one of at least its own size; pointers never move.
     */
    template <typename T>
    T *
    allocate(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena storage never runs destructors");
        if (n == 0)
            return nullptr;
        void *raw = allocRaw(n * sizeof(T), alignof(T));
        T *first = static_cast<T *>(raw);
        for (std::size_t i = 0; i < n; ++i)
            ::new (static_cast<void *>(first + i)) T();
        return first;
    }

    /** Total bytes handed out (capacity reporting / tests). */
    std::size_t bytesAllocated() const { return bytesAllocated_; }

    /** Backing chunks currently held. */
    std::size_t numChunks() const { return chunks_.size(); }

  private:
    void *allocRaw(std::size_t bytes, std::size_t align);

    struct Chunk
    {
        std::unique_ptr<std::byte[]> mem;
        std::size_t used = 0;
        std::size_t size = 0;
    };

    std::size_t chunkBytes_;
    std::size_t bytesAllocated_ = 0;
    std::vector<Chunk> chunks_;
};

} // namespace noc

#endif // NOC_COMMON_ARENA_HPP
