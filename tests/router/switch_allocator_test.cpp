#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "router/switch_allocator.hpp"

namespace noc {
namespace {

/** One VC's request: the output port it wants. */
struct Req
{
    PortId out = kInvalidPort;   ///< kInvalidPort: occupied, no request
    bool speculative = false;
};

using Requests = std::map<std::pair<PortId, VcId>, Req>;

/** One allocation round in which exactly the VCs of `reqs` are
 *  occupied; returns the grants in delivery order. */
std::vector<SaGrant>
allocate(SwitchAllocator &sa, int num_in, const Requests &reqs)
{
    std::vector<std::uint64_t> occ(num_in, 0);
    std::uint64_t ports = 0;
    for (const auto &[slot, r] : reqs) {
        occ[slot.first] |= 1ull << slot.second;
        ports |= 1ull << slot.first;
    }
    std::vector<SaGrant> grants;
    sa.allocate(
        occ.data(), ports,
        [&](PortId in, VcId v, bool &speculative) {
            const Req &r = reqs.at({in, v});
            speculative = r.speculative;
            return r.out;
        },
        [&](const SaGrant &g) { grants.push_back(g); });
    return grants;
}

TEST(SwitchAllocator, NoRequestsNoGrants)
{
    SwitchAllocator sa(3, 3, 2);
    EXPECT_TRUE(allocate(sa, 3, {}).empty());
    // Occupied VCs that make no request grant nothing either.
    EXPECT_TRUE(allocate(sa, 3, {{{0, 1}, {}}, {{2, 0}, {}}}).empty());
}

TEST(SwitchAllocator, SingleRequestGranted)
{
    SwitchAllocator sa(3, 3, 2);
    const auto grants = allocate(sa, 3, {{{1, 0}, {2, false}}});
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].inPort, 1);
    EXPECT_EQ(grants[0].inVc, 0);
    EXPECT_EQ(grants[0].outPort, 2);
    EXPECT_FALSE(grants[0].speculative);
}

TEST(SwitchAllocator, OneGrantPerOutputPort)
{
    SwitchAllocator sa(4, 2, 2);
    Requests reqs;
    for (int i = 0; i < 4; ++i)
        reqs[{i, 0}] = {0, false};   // everyone wants output 0
    const auto grants = allocate(sa, 4, reqs);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].outPort, 0);
}

TEST(SwitchAllocator, OneGrantPerInputPort)
{
    SwitchAllocator sa(1, 4, 4);
    Requests reqs;
    for (int v = 0; v < 4; ++v)
        reqs[{0, v}] = {v, false};   // four VCs, four outputs
    const auto grants = allocate(sa, 1, reqs);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].inPort, 0);
}

TEST(SwitchAllocator, ParallelFlowsAllGranted)
{
    SwitchAllocator sa(3, 3, 1);
    const auto grants = allocate(
        sa, 3,
        {{{0, 0}, {1, false}}, {{1, 0}, {2, false}}, {{2, 0}, {0, false}}});
    ASSERT_EQ(grants.size(), 3u);
    // Delivered in ascending output order.
    for (int o = 0; o < 3; ++o)
        EXPECT_EQ(grants[o].outPort, o);
}

TEST(SwitchAllocator, NonSpeculativeBeatsSpeculative)
{
    SwitchAllocator sa(2, 2, 1);
    const Requests reqs{{{0, 0}, {0, true}},    // speculative
                        {{1, 0}, {0, false}}};  // committed
    for (int round = 0; round < 4; ++round) {
        const auto grants = allocate(sa, 2, reqs);
        ASSERT_EQ(grants.size(), 1u);
        EXPECT_EQ(grants[0].inPort, 1);
        EXPECT_FALSE(grants[0].speculative);
    }
}

TEST(SwitchAllocator, SpeculativeGrantedWhenAlone)
{
    SwitchAllocator sa(2, 2, 1);
    const auto grants = allocate(sa, 2, {{{0, 0}, {1, true}}});
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_TRUE(grants[0].speculative);
}

TEST(SwitchAllocator, RotatesFairlyAcrossInputs)
{
    SwitchAllocator sa(2, 1, 1);
    const Requests reqs{{{0, 0}, {0, false}}, {{1, 0}, {0, false}}};
    std::vector<int> wins(2, 0);
    for (int i = 0; i < 100; ++i) {
        const auto grants = allocate(sa, 2, reqs);
        ASSERT_EQ(grants.size(), 1u);
        ++wins[grants[0].inPort];
    }
    EXPECT_EQ(wins[0], 50);
    EXPECT_EQ(wins[1], 50);
}

TEST(SwitchAllocator, RotatesFairlyAcrossVcs)
{
    SwitchAllocator sa(1, 2, 2);
    const Requests reqs{{{0, 0}, {0, false}}, {{0, 1}, {1, false}}};
    std::vector<int> wins(2, 0);
    for (int i = 0; i < 100; ++i) {
        const auto grants = allocate(sa, 1, reqs);
        ASSERT_EQ(grants.size(), 1u);
        ++wins[grants[0].inVc];
    }
    EXPECT_EQ(wins[0], 50);
    EXPECT_EQ(wins[1], 50);
}

TEST(SwitchAllocator, VisitsOccupiedVcsInAscendingSlotOrder)
{
    SwitchAllocator sa(3, 2, 4);
    const Requests reqs{{{2, 1}, {}}, {{0, 3}, {}}, {{2, 0}, {}},
                        {{0, 1}, {}}};
    std::vector<std::uint64_t> occ(3, 0);
    for (const auto &[slot, r] : reqs)
        occ[slot.first] |= 1ull << slot.second;
    std::vector<std::pair<PortId, VcId>> seen;
    sa.allocate(
        occ.data(), 0b101,
        [&](PortId in, VcId v, bool &) {
            seen.emplace_back(in, v);
            return kInvalidPort;
        },
        [](const SaGrant &) { FAIL() << "no request, no grant"; });
    const std::vector<std::pair<PortId, VcId>> want{
        {0, 1}, {0, 3}, {2, 0}, {2, 1}};
    EXPECT_EQ(seen, want);
}

TEST(SwitchAllocator, FullWidthRouterUsesTheTopSlots)
{
    // 64 inputs x 64 VCs x 64 outputs: the last input, VC and output
    // are reachable through every mask.
    SwitchAllocator sa(64, 64, 64);
    const auto grants = allocate(
        sa, 64, {{{63, 63}, {63, false}}, {{0, 0}, {63, true}}});
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].inPort, 63);
    EXPECT_EQ(grants[0].inVc, 63);
    EXPECT_EQ(grants[0].outPort, 63);
    EXPECT_FALSE(grants[0].speculative);
}

} // namespace
} // namespace noc
