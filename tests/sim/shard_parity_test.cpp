/**
 * @file
 * Shard parity battery: the sharded stepping path must be bit-for-bit
 * indistinguishable from the serial cycle loop at every thread count.
 *
 * Sharding (sim/shard.hpp) is a pure execution-strategy change — the
 * same events dispatch in the same order, the same RNGs advance in the
 * same sequence, the same doubles accumulate in the same order. These
 * tests run each covered (topology x scheme x pattern) point with
 * shards=1 and shards in {2, 4, 8} and require *exactly* equal results:
 * the full delivery record stream including per-packet timing, and
 * every scalar the simulator reports. A sharded run that is merely
 * "statistically close" is a bug — that is the entire contract.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/result_sink.hpp"
#include "network/network.hpp"
#include "sim/kernel.hpp"
#include "sim/shard.hpp"
#include "topology/topology.hpp"
#include "verify/oracle.hpp"

namespace noc {
namespace {

SimWindows
shortWindows()
{
    SimWindows w;
    w.warmup = 500;
    w.measure = 2000;
    w.drainLimit = 20000;
    return w;
}

/** The five pseudo-circuit schemes; EVC gets its own dedicated test
 *  (its two-hop express credits are the longest cross-shard path). */
const Scheme kSchemes[] = {Scheme::Baseline, Scheme::Pseudo, Scheme::PseudoS,
                           Scheme::PseudoB, Scheme::PseudoSB};

SimConfig
meshConfig(int width, int height, Scheme scheme,
           RoutingKind routing = RoutingKind::XY)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Mesh;
    cfg.meshWidth = width;
    cfg.meshHeight = height;
    cfg.concentration = 1;
    cfg.numVcs = 4;
    cfg.bufferDepth = 4;
    cfg.routing = routing;
    cfg.vaPolicy = VaPolicy::Static;
    cfg.scheme = scheme;
    cfg.seed = 13;
    return cfg;
}

/**
 * Run `cfg` serial and with `shards` row bands and require identical
 * outcomes. Guards against silently comparing serial with itself: the
 * sharded run must report that the partitioned path actually executed
 * with the resolved shard count.
 */
void
expectShardParity(SimConfig cfg, int shards,
                  SyntheticPattern pattern = SyntheticPattern::UniformRandom,
                  double load = 0.08)
{
    cfg.shards = shards;
    const int resolved = resolveShardCount(cfg);
    ASSERT_GE(resolved, 2) << "config cannot shard, parity proves nothing";

    const OracleOutcome fast = runChecked(cfg, pattern, load, 5,
                                          shortWindows());
    ASSERT_EQ(fast.result.shardsUsed, resolved)
        << "sharded run fell back to the serial path";

    cfg.shards = 1;
    const OracleOutcome ref = runChecked(cfg, pattern, load, 5,
                                         shortWindows());
    ASSERT_EQ(ref.result.shardsUsed, 1);

    EXPECT_EQ(ref.violations, 0u) << ref.report;
    EXPECT_EQ(fast.violations, 0u) << fast.report;
    ASSERT_TRUE(ref.result.drained);
    ASSERT_TRUE(fast.result.drained);

    // Delivery streams must agree on every field, timing included —
    // not just the identity multiset compareDeliveries() checks.
    ASSERT_EQ(ref.deliveries.size(), fast.deliveries.size());
    for (std::size_t i = 0; i < ref.deliveries.size(); ++i) {
        const DeliveryRecord &a = ref.deliveries[i];
        const DeliveryRecord &b = fast.deliveries[i];
        ASSERT_EQ(a.id, b.id) << "delivery " << i;
        ASSERT_EQ(a.src, b.src) << "packet " << a.id;
        ASSERT_EQ(a.dst, b.dst) << "packet " << a.id;
        ASSERT_EQ(a.size, b.size) << "packet " << a.id;
        ASSERT_EQ(a.createTime, b.createTime) << "packet " << a.id;
        ASSERT_EQ(a.ejectTime, b.ejectTime) << "packet " << a.id;
        ASSERT_EQ(a.hops, b.hops) << "packet " << a.id;
    }

    const SimResult &r = ref.result;
    const SimResult &f = fast.result;
    EXPECT_EQ(r.measuredPackets, f.measuredPackets);
    EXPECT_EQ(r.cyclesRun, f.cyclesRun);
    EXPECT_EQ(r.avgTotalLatency, f.avgTotalLatency);
    EXPECT_EQ(r.avgNetLatency, f.avgNetLatency);
    EXPECT_EQ(r.p99TotalLatency, f.p99TotalLatency);
    EXPECT_EQ(r.avgHops, f.avgHops);
    EXPECT_EQ(r.avgLatencyAddrPkts, f.avgLatencyAddrPkts);
    EXPECT_EQ(r.avgLatencyDataPkts, f.avgLatencyDataPkts);
    EXPECT_EQ(r.throughput, f.throughput);
    EXPECT_EQ(r.reusability, f.reusability);
    EXPECT_EQ(r.crossbarLocality, f.crossbarLocality);
    EXPECT_EQ(r.endToEndLocality, f.endToEndLocality);

    const RouterStats &rr = r.routerTotals;
    const RouterStats &fr = f.routerTotals;
    EXPECT_EQ(rr.flitsArrived, fr.flitsArrived);
    EXPECT_EQ(rr.bufferWrites, fr.bufferWrites);
    EXPECT_EQ(rr.bufferReads, fr.bufferReads);
    EXPECT_EQ(rr.xbarTraversals, fr.xbarTraversals);
    EXPECT_EQ(rr.vaGrants, fr.vaGrants);
    EXPECT_EQ(rr.saGrants, fr.saGrants);
    EXPECT_EQ(rr.saBypasses, fr.saBypasses);
    EXPECT_EQ(rr.bufferBypasses, fr.bufferBypasses);
    EXPECT_EQ(rr.headTraversals, fr.headTraversals);
    EXPECT_EQ(rr.headSaBypasses, fr.headSaBypasses);
    EXPECT_EQ(rr.headBufferBypasses, fr.headBufferBypasses);
    EXPECT_EQ(rr.expressBypasses, fr.expressBypasses);
    EXPECT_EQ(rr.wastedGrants, fr.wastedGrants);
    EXPECT_EQ(rr.localityHeads, fr.localityHeads);
    EXPECT_EQ(rr.localityHits, fr.localityHits);

    EXPECT_EQ(r.pcTotals.created, f.pcTotals.created);
    EXPECT_EQ(r.pcTotals.terminatedConflict, f.pcTotals.terminatedConflict);
    EXPECT_EQ(r.pcTotals.terminatedCredit, f.pcTotals.terminatedCredit);
    EXPECT_EQ(r.pcTotals.speculated, f.pcTotals.speculated);

    EXPECT_EQ(r.niTotals.packetsInjected, f.niTotals.packetsInjected);
    EXPECT_EQ(r.niTotals.flitsInjected, f.niTotals.flitsInjected);
    EXPECT_EQ(r.niTotals.packetsReceived, f.niTotals.packetsReceived);
    // Dormancy is per-router state, so both paths skip the same steps.
    EXPECT_EQ(r.routerSteps, f.routerSteps);
    // Router flit storage does not depend on the stepping path.
    EXPECT_GT(f.arenaBytes, 0u);
    EXPECT_EQ(r.arenaBytes, f.arenaBytes);

    // The serialized JSONL rows must be byte-identical too: shards is
    // execution provenance, never part of the result schema.
    SimConfig fast_cfg = cfg;
    fast_cfg.shards = shards;
    EXPECT_EQ(resultToJson("parity", cfg, r),
              resultToJson("parity", fast_cfg, f));
}

TEST(ShardParity, MeshEverySchemeEveryShardCount)
{
    for (const Scheme s : kSchemes) {
        for (const int shards : {2, 4, 8}) {
            SCOPED_TRACE(testing::Message()
                         << toString(s) << " shards=" << shards);
            expectShardParity(meshConfig(8, 8, s), shards);
        }
    }
}

TEST(ShardParity, CalendarSlotsRepeatExactly)
{
    // Each shard calendar is touched only by its own thread within a
    // window and by the main thread at the barrier, so its peak slot
    // count is a function of the event sequence, never of thread
    // timing: two repeats of a 4-shard run agree exactly.
    SimConfig cfg = meshConfig(8, 8, Scheme::PseudoSB);
    cfg.shards = 4;
    const OracleOutcome first = runChecked(
        cfg, SyntheticPattern::UniformRandom, 0.08, 5, shortWindows());
    const OracleOutcome second = runChecked(
        cfg, SyntheticPattern::UniformRandom, 0.08, 5, shortWindows());
    ASSERT_EQ(first.result.shardsUsed, 4);
    ASSERT_EQ(second.result.shardsUsed, 4);
    EXPECT_GT(first.result.calendarSlots, 0u);
    EXPECT_EQ(first.result.calendarSlots, second.result.calendarSlots);
}

TEST(ShardParity, TorusEveryScheme)
{
    // Wraparound rows: the top and bottom bands exchange boundary
    // traffic in both directions.
    for (const Scheme s : kSchemes) {
        for (const int shards : {2, 4, 8}) {
            SCOPED_TRACE(testing::Message()
                         << toString(s) << " shards=" << shards);
            SimConfig cfg = meshConfig(8, 8, s);
            cfg.topology = TopologyKind::Torus;
            expectShardParity(cfg, shards);
        }
    }
}

TEST(ShardParity, ConcentratedMeshEveryScheme)
{
    // Four nodes per router: staged injections and ejection-side
    // completions interleave within one router's band.
    for (const Scheme s : kSchemes) {
        for (const int shards : {2, 4, 8}) {
            SCOPED_TRACE(testing::Message()
                         << toString(s) << " shards=" << shards);
            SimConfig cfg = meshConfig(8, 8, s);
            cfg.topology = TopologyKind::CMesh;
            cfg.concentration = 4;
            expectShardParity(cfg, shards, SyntheticPattern::UniformRandom,
                              0.05);
        }
    }
}

TEST(ShardParity, EvcExpressCreditsCrossShards)
{
    // EVC returns express credits two hops upstream — the longest
    // cross-shard path the runtime routes (delay 1 + 2*creditLatency).
    // Single-row bands force every express return across a boundary.
    SimConfig cfg = meshConfig(8, 8, Scheme::Evc);
    cfg.numVcs = 8;
    for (const int shards : {4, 8}) {
        SCOPED_TRACE(testing::Message() << "shards=" << shards);
        expectShardParity(cfg, shards);
    }
}

TEST(ShardParity, TrafficPatternsMatchSerial)
{
    for (const SyntheticPattern p :
         {SyntheticPattern::Transpose, SyntheticPattern::Hotspot}) {
        SCOPED_TRACE(static_cast<int>(p));
        expectShardParity(meshConfig(8, 8, Scheme::PseudoSB), 4, p);
    }
}

TEST(ShardParity, GenericKernelMatchesSerial)
{
    // Sharding composes with the kernel knob: force the generic router
    // core under both stepping paths.
    SimConfig cfg = meshConfig(8, 8, Scheme::PseudoSB);
    cfg.kernel = KernelChoice::Generic;
    ASSERT_FALSE(resolveKernel(cfg).specialized);
    expectShardParity(cfg, 4);
}

TEST(ShardParity, WireLatenciesWidenTheWindow)
{
    // linkLatency == creditLatency == 2 gives a 3-cycle lookahead
    // window; asymmetric latencies clamp it to the cheaper wire.
    {
        SimConfig cfg = meshConfig(8, 8, Scheme::PseudoSB);
        cfg.linkLatency = 2;
        cfg.creditLatency = 2;
        ASSERT_EQ(shardLookahead(cfg), 3u);
        expectShardParity(cfg, 4);
    }
    {
        SimConfig cfg = meshConfig(8, 8, Scheme::PseudoSB);
        cfg.linkLatency = 4;
        cfg.creditLatency = 1;
        ASSERT_EQ(shardLookahead(cfg), 2u);
        expectShardParity(cfg, 4);
    }
}

TEST(ShardParity, RectangularMeshAndUnevenBands)
{
    // 4x8: tall and narrow, 8 one-row bands of 4 routers each; 8x6
    // with 4 shards puts 2 rows in every band; 8x5 with 4 shards makes
    // bands of unequal height (1,1,1,2).
    expectShardParity(meshConfig(4, 8, Scheme::PseudoSB), 8);
    expectShardParity(meshConfig(8, 6, Scheme::PseudoSB), 4);
    expectShardParity(meshConfig(8, 5, Scheme::PseudoSB), 4);
}

TEST(ShardParity, LowLoadDormantBandEdges)
{
    // At low load most routers are dormant; routers on band edges are
    // woken by flits and credits that crossed a shard boundary and were
    // folded into their calendar at a window barrier. On 8x4 with four
    // shards every router sits on a band edge.
    for (const int shards : {2, 4}) {
        SCOPED_TRACE(testing::Message() << "shards=" << shards);
        expectShardParity(meshConfig(8, 4, Scheme::PseudoSB), shards,
                          SyntheticPattern::UniformRandom, 0.005);
    }
}

TEST(ShardParity, O1TurnPerPacketRngMatchesSerial)
{
    // O1TURN draws a per-packet routing class from the source NI's RNG
    // at injection — staged replay must consume those draws in serial
    // order.
    for (const Scheme s : {Scheme::Baseline, Scheme::PseudoSB}) {
        SCOPED_TRACE(toString(s));
        expectShardParity(meshConfig(8, 8, s, RoutingKind::O1Turn), 4);
    }
}

// --- Resolution and fallback gating ---

TEST(ShardResolve, PlanPartitionsRowsContiguously)
{
    SimConfig cfg = meshConfig(8, 8, Scheme::Baseline);
    const auto topo = makeTopology(cfg);
    const ShardPlan plan = makeShardPlan(cfg, *topo, 4);
    ASSERT_EQ(plan.numShards, 4);
    EXPECT_EQ(plan.window, 2u);
    RouterId next_router = 0;
    NodeId next_node = 0;
    for (int s = 0; s < plan.numShards; ++s) {
        EXPECT_EQ(plan.routerBegin[s], next_router);
        EXPECT_EQ(plan.nodeBegin[s], next_node);
        EXPECT_GT(plan.routerEnd[s], plan.routerBegin[s]);
        next_router = plan.routerEnd[s];
        next_node = plan.nodeEnd[s];
    }
    EXPECT_EQ(next_router, topo->numRouters());
    EXPECT_EQ(next_node, topo->numNodes());
    for (RouterId r = 0; r < topo->numRouters(); ++r) {
        const int s = plan.shardOfRouter[static_cast<std::size_t>(r)];
        EXPECT_GE(r, plan.routerBegin[s]);
        EXPECT_LT(r, plan.routerEnd[s]);
    }
}

TEST(ShardResolve, CountClampsToRows)
{
    ::unsetenv("NOC_SHARDS");  // cfg.shards == 1 would consult it
    SimConfig cfg = meshConfig(8, 4, Scheme::Baseline);
    cfg.shards = 16;
    EXPECT_EQ(resolveShardCount(cfg), 4);
    cfg.shards = 3;
    EXPECT_EQ(resolveShardCount(cfg), 3);
    cfg.shards = 1;
    EXPECT_EQ(resolveShardCount(cfg), 1);
}

TEST(ShardResolve, EnvForcesTheShardedPath)
{
    SimConfig cfg = meshConfig(8, 8, Scheme::Baseline);
    cfg.shards = 1;
    ::setenv("NOC_SHARDS", "4", 1);
    EXPECT_EQ(resolveShardCount(cfg), 4);
    // Explicit settings win over the environment.
    cfg.shards = 2;
    EXPECT_EQ(resolveShardCount(cfg), 2);
    ::unsetenv("NOC_SHARDS");
    cfg.shards = 1;
    EXPECT_EQ(resolveShardCount(cfg), 1);
}

TEST(ShardResolve, AutoStaysSerialOnSmallNetworks)
{
    ::unsetenv("NOC_SHARDS");
    SimConfig cfg = meshConfig(8, 8, Scheme::Baseline);  // 64 routers
    cfg.shards = 0;
    EXPECT_EQ(resolveShardCount(cfg), 1);
    cfg.meshWidth = 32;
    cfg.meshHeight = 32;  // 1024 routers: auto shards
    EXPECT_GE(resolveShardCount(cfg), 1);
}

TEST(ShardResolve, SerialOnlyRidersFallBackToSerial)
{
    // A fault plan keeps the run on the serial path even with shards
    // requested; the result must still be produced (and report the
    // serial path ran).
    SimConfig cfg = meshConfig(8, 8, Scheme::PseudoSB);
    cfg.shards = 4;
    cfg.faultSpec = "kill-link:2>10@cycle100000";
    const OracleOutcome out = runChecked(
        cfg, SyntheticPattern::UniformRandom, 0.05, 5, shortWindows());
    EXPECT_EQ(out.result.shardsUsed, 1);
    EXPECT_TRUE(out.result.drained);
}

} // namespace
} // namespace noc
