#include <gtest/gtest.h>

#include <cstdint>

#include "common/arena.hpp"

namespace noc {
namespace {

struct Slot
{
    std::uint64_t a = 7;
    std::uint32_t b = 9;
};

TEST(Arena, ExactlySizedBlockFillsOneChunk)
{
    constexpr std::size_t kPorts = 5;
    constexpr std::size_t kPerPort = 16;
    Arena arena(kPorts * kPerPort * sizeof(Slot) + alignof(Slot));
    for (std::size_t p = 0; p < kPorts; ++p) {
        Slot *block = arena.allocate<Slot>(kPerPort);
        ASSERT_NE(block, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block) % alignof(Slot),
                  0u);
        for (std::size_t i = 0; i < kPerPort; ++i) {
            EXPECT_EQ(block[i].a, 7u);
            EXPECT_EQ(block[i].b, 9u);
        }
    }
    EXPECT_EQ(arena.numChunks(), 1u);
    EXPECT_EQ(arena.bytesAllocated(), kPorts * kPerPort * sizeof(Slot));
}

TEST(Arena, OversizedRequestGetsItsOwnChunk)
{
    Arena arena(64);
    Slot *small = arena.allocate<Slot>(1);
    Slot *big = arena.allocate<Slot>(1000);
    ASSERT_NE(small, nullptr);
    ASSERT_NE(big, nullptr);
    for (std::size_t i = 0; i < 1000; ++i)
        big[i].a = i;
    EXPECT_EQ(big[999].a, 999u);
    EXPECT_EQ(small->a, 7u);
    EXPECT_EQ(arena.numChunks(), 2u);
    EXPECT_EQ(arena.bytesAllocated(), 1001 * sizeof(Slot));
}

TEST(Arena, EmptyRequestAllocatesNothing)
{
    Arena arena(64);
    EXPECT_EQ(arena.allocate<Slot>(0), nullptr);
    EXPECT_EQ(arena.numChunks(), 0u);
}

} // namespace
} // namespace noc
