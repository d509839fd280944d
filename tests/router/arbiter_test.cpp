#include <gtest/gtest.h>

#include <vector>

#include "router/arbiter.hpp"

namespace noc {
namespace {

// Requests are bit masks: bit i set ⇔ requester i is requesting.

TEST(RoundRobinArbiter, NoRequestNoGrant)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.grant(0b0000), -1);
}

TEST(RoundRobinArbiter, SingleRequesterAlwaysWins)
{
    RoundRobinArbiter arb(4);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(arb.grant(0b0100), 2);
}

TEST(RoundRobinArbiter, RotatesAmongPersistentRequesters)
{
    RoundRobinArbiter arb(3);
    const std::uint64_t all = 0b111;
    EXPECT_EQ(arb.grant(all), 0);
    EXPECT_EQ(arb.grant(all), 1);
    EXPECT_EQ(arb.grant(all), 2);
    EXPECT_EQ(arb.grant(all), 0);
}

TEST(RoundRobinArbiter, SkipsIdleSlots)
{
    RoundRobinArbiter arb(4);
    const std::uint64_t two = 0b0101;
    EXPECT_EQ(arb.grant(two), 0);
    EXPECT_EQ(arb.grant(two), 2);
    EXPECT_EQ(arb.grant(two), 0);
}

TEST(RoundRobinArbiter, FairUnderContention)
{
    RoundRobinArbiter arb(4);
    std::vector<int> wins(4, 0);
    const std::uint64_t all = 0b1111;
    for (int i = 0; i < 400; ++i)
        ++wins[arb.grant(all)];
    for (int w : wins)
        EXPECT_EQ(w, 100);
}

TEST(RoundRobinArbiter, StarvationFreedom)
{
    // A low-priority requester competing with an always-on one still gets
    // service within one rotation.
    RoundRobinArbiter arb(2);
    const std::uint64_t both = 0b11;
    int wins1 = 0;
    for (int i = 0; i < 100; ++i)
        wins1 += arb.grant(both) == 1;
    EXPECT_EQ(wins1, 50);
}

TEST(RoundRobinArbiter, PeekDoesNotRotate)
{
    RoundRobinArbiter arb(3);
    const std::uint64_t all = 0b111;
    EXPECT_EQ(arb.peek(all), 0);
    EXPECT_EQ(arb.peek(all), 0);
    EXPECT_EQ(arb.grant(all), 0);
    EXPECT_EQ(arb.peek(all), 1);
}

TEST(RoundRobinArbiter, Resize)
{
    RoundRobinArbiter arb(2);
    arb.resize(5);
    EXPECT_EQ(arb.size(), 5);
    EXPECT_EQ(arb.grant(0b10000), 4);
}

TEST(RoundRobinArbiter, WrapsPastTheTopOfAFullWidthMask)
{
    // 64 requesters: the rotation must reach bit 63 and wrap from it
    // without a shift by 64.
    RoundRobinArbiter arb(64);
    const std::uint64_t ends = 1ull | 1ull << 63;
    EXPECT_EQ(arb.grant(ends), 0);
    EXPECT_EQ(arb.grant(ends), 63);
    EXPECT_EQ(arb.grant(ends), 0);
    EXPECT_EQ(arb.grant(~0ull), 1);
}

} // namespace
} // namespace noc
