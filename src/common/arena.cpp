#include "common/arena.hpp"

#include <algorithm>
#include <cstdint>

namespace noc {

void *
Arena::allocRaw(std::size_t bytes, std::size_t align)
{
    Chunk *chunk = chunks_.empty() ? nullptr : &chunks_.back();
    std::size_t offset = 0;
    if (chunk != nullptr) {
        const auto base = reinterpret_cast<std::uintptr_t>(chunk->mem.get());
        offset = (base + chunk->used + align - 1) / align * align - base;
    }
    if (chunk == nullptr || offset + bytes > chunk->size) {
        Chunk fresh;
        fresh.size = std::max(chunkBytes_, bytes + align);
        fresh.mem = std::make_unique_for_overwrite<std::byte[]>(fresh.size);
        chunks_.push_back(std::move(fresh));
        chunk = &chunks_.back();
        const auto base = reinterpret_cast<std::uintptr_t>(chunk->mem.get());
        offset = (base + align - 1) / align * align - base;
    }
    void *out = chunk->mem.get() + offset;
    chunk->used = offset + bytes;
    bytesAllocated_ += bytes;
    return out;
}

} // namespace noc
