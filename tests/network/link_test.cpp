#include <gtest/gtest.h>

#include <vector>

#include "network/link.hpp"

namespace noc {
namespace {

LinkEvent
flitEvent(RouterId r, PortId p)
{
    LinkEvent ev;
    ev.kind = LinkEvent::Kind::FlitToRouter;
    ev.router = r;
    ev.inPort = p;
    return ev;
}

/** Cycle `now`'s events in delivery order; the bucket is recycled. */
template <typename T>
std::vector<T>
take(EventRing<T> &ring, Cycle now)
{
    std::vector<T> out;
    ring.forEachAt(now, [&](const T &ev) { out.push_back(ev); });
    ring.releaseAt(now);
    return out;
}

TEST(EventRing, DeliversAtScheduledCycle)
{
    EventRing<LinkEvent> ring(10);
    ring.schedule(0, 3, flitEvent(1, 0));
    ring.schedule(0, 5, flitEvent(2, 0));
    EXPECT_TRUE(take(ring, 1).empty());
    EXPECT_TRUE(take(ring, 2).empty());
    const auto at3 = take(ring, 3);
    ASSERT_EQ(at3.size(), 1u);
    EXPECT_EQ(at3[0].router, 1);
    EXPECT_TRUE(take(ring, 4).empty());
    const auto at5 = take(ring, 5);
    ASSERT_EQ(at5.size(), 1u);
    EXPECT_EQ(at5[0].router, 2);
}

TEST(EventRing, MultipleEventsPerCycleKeepOrder)
{
    EventRing<LinkEvent> ring(8);
    for (int i = 0; i < 5; ++i)
        ring.schedule(0, 2, flitEvent(i, i));
    const auto bucket = take(ring, 2);
    ASSERT_EQ(bucket.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(bucket[i].router, i);
}

TEST(EventRing, WrapsAroundTheHorizon)
{
    EventRing<LinkEvent> ring(4);
    for (Cycle now = 0; now < 40; ++now) {
        ring.schedule(now, now + 3, flitEvent(static_cast<int>(now), 0));
        if (now >= 3) {
            const auto bucket = take(ring, now);
            ASSERT_EQ(bucket.size(), 1u) << "cycle " << now;
            EXPECT_EQ(bucket[0].router, static_cast<int>(now - 3));
        }
    }
}

TEST(EventRing, EmptyQuery)
{
    EventRing<LinkEvent> ring(4);
    EXPECT_TRUE(ring.empty());
    ring.schedule(0, 2, flitEvent(0, 0));
    EXPECT_FALSE(ring.empty());
    take(ring, 2);
    EXPECT_TRUE(ring.empty());
}

TEST(EventRingDeath, RejectsPastAndFarFuture)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventRing<LinkEvent> ring(4);
    EXPECT_DEATH(ring.schedule(5, 5, flitEvent(0, 0)), "future");
    EXPECT_DEATH(ring.schedule(5, 4, flitEvent(0, 0)), "future");
    EXPECT_DEATH(ring.schedule(5, 5 + 7, flitEvent(0, 0)), "horizon");
}

// The same calendar with a payload other than LinkEvent, as the
// sharded path instantiates it.
struct Tagged
{
    int id = -1;
    Cycle sched = 0;
};

TEST(EventRingPayload, FifoOrderWithinABucket)
{
    EventRing<Tagged> ring(6);
    for (int i = 0; i < 7; ++i)
        ring.schedule(static_cast<Cycle>(i % 3), 5, {i, 0});
    const auto bucket = take(ring, 5);
    ASSERT_EQ(bucket.size(), 7u);
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(bucket[static_cast<std::size_t>(i)].id, i);
}

TEST(EventRingPayload, WrapsAroundTheHorizon)
{
    // Horizon 3 means 5 buckets: deltas up to 4 fit, and every bucket
    // is reused many times over 50 cycles.
    EventRing<Tagged> ring(3);
    ASSERT_EQ(ring.buckets(), 5u);
    for (Cycle now = 0; now < 50; ++now) {
        ring.schedule(now, now + 4, {static_cast<int>(now), now});
        if (now >= 4) {
            const auto bucket = take(ring, now);
            ASSERT_EQ(bucket.size(), 1u) << "cycle " << now;
            EXPECT_EQ(bucket[0].id, static_cast<int>(now - 4));
            EXPECT_EQ(bucket[0].sched, now - 4);
        }
    }
}

TEST(EventRingPayload, InsertAtThePresentCycle)
{
    EventRing<Tagged> ring(4);
    ring.schedule(9, 10, {1, 9});
    ring.insertAt(10, {2, 10});   // due now: schedule() would reject it
    ring.insertAt(12, {3, 10});
    const auto now = take(ring, 10);
    ASSERT_EQ(now.size(), 2u);
    EXPECT_EQ(now[0].id, 1);
    EXPECT_EQ(now[1].id, 2);
    EXPECT_TRUE(take(ring, 11).empty());
    const auto later = take(ring, 12);
    ASSERT_EQ(later.size(), 1u);
    EXPECT_EQ(later[0].id, 3);
    EXPECT_TRUE(ring.empty());
}

TEST(EventRingPayload, SlotPoolStopsGrowingUnderSteadyLoad)
{
    // Three events per cycle, each in flight for 1-4 cycles: at most
    // 3 x 4 = 12 are ever held at once, and released slots are reused.
    EventRing<Tagged> ring(8);
    std::size_t after_warmup = 0;
    for (Cycle now = 0; now < 1000; ++now) {
        take(ring, now);
        for (int k = 0; k < 3; ++k)
            ring.schedule(now, now + 1 + (now + k) % 4, {k, now});
        if (now == 10)
            after_warmup = ring.slots();
    }
    EXPECT_LE(ring.slots(), 12u);
    EXPECT_EQ(ring.slots(), after_warmup);
}

} // namespace
} // namespace noc
