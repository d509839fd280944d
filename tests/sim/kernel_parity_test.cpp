/**
 * @file
 * Kernel parity: every specialized simulation core must be bit-for-bit
 * indistinguishable from the generic router it replaces.
 *
 * Specialization (router/kernels.hpp) is a pure execution-strategy
 * change — same cycle-level behaviour, devirtualized and data-oriented.
 * These tests run each covered (scheme x routing x topology) point twice
 * with the kernel forced to generic and resolved automatically, then
 * require *exactly* equal results: the full delivery record stream
 * including per-packet timing, and every scalar the simulator reports.
 * A specialized kernel that is merely "statistically close" is a bug.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "network/network.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "traffic/synthetic.hpp"
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

/** All schemes with specialized cores (EVC is generic-only). */
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
 * Run `cfg` on the generic core and on the auto-resolved core and
 * require identical outcomes. `expect_kernel` guards against silently
 * comparing generic with itself: the auto run must actually have
 * resolved to the named specialized core.
 */
void
expectKernelParity(SimConfig cfg, const std::string &expect_kernel,
                   SyntheticPattern pattern = SyntheticPattern::UniformRandom,
                   double load = 0.08)
{
    cfg.kernel = KernelChoice::Generic;
    const KernelInfo forced = resolveKernel(cfg);
    ASSERT_FALSE(forced.specialized);

    cfg.kernel = KernelChoice::Auto;
    const KernelInfo info = resolveKernel(cfg);
    ASSERT_TRUE(info.specialized)
        << "expected a specialized kernel, resolved " << info.name;
    ASSERT_EQ(info.name, expect_kernel);

    const OracleOutcome fast = runChecked(cfg, pattern, load, 5,
                                          shortWindows());
    cfg.kernel = KernelChoice::Generic;
    const OracleOutcome ref = runChecked(cfg, pattern, load, 5,
                                         shortWindows());

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
    EXPECT_EQ(r.throughput, f.throughput);
    EXPECT_EQ(r.reusability, f.reusability);

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

    // The generic core never sleeps; the mask core may only skip work.
    EXPECT_EQ(r.routerSteps,
              r.cyclesRun * static_cast<std::uint64_t>(
                                makeTopology(cfg)->numRouters()));
    EXPECT_LE(f.routerSteps, r.routerSteps);
}

std::string
meshDorName(Scheme s)
{
    return std::string("mesh-dor/") + [&] {
        switch (s) {
        case Scheme::Baseline: return "baseline";
        case Scheme::Pseudo: return "pseudo";
        case Scheme::PseudoS: return "pseudo-s";
        case Scheme::PseudoB: return "pseudo-b";
        case Scheme::PseudoSB: return "pseudo-sb";
        default: return "?";
        }
    }();
}

TEST(KernelParity, MeshDorEverySchemeMatchesGeneric)
{
    for (const Scheme s : kSchemes) {
        SCOPED_TRACE(toString(s));
        expectKernelParity(meshConfig(4, 4, s), meshDorName(s));
    }
}

TEST(KernelParity, MeshSizesMatchGeneric)
{
    // 2x2 (smallest, every node adjacent), 3x3 (odd, a true centre
    // router), 5x3 (rectangular), 8x8 (the paper's platform).
    const int dims[][2] = {{2, 2}, {3, 3}, {5, 3}, {8, 8}};
    for (const auto &d : dims) {
        SCOPED_TRACE(testing::Message() << d[0] << "x" << d[1]);
        expectKernelParity(meshConfig(d[0], d[1], Scheme::PseudoSB),
                           "mesh-dor/pseudo-sb");
    }
}

TEST(KernelParity, YxRoutingMatchesGeneric)
{
    expectKernelParity(meshConfig(4, 4, Scheme::PseudoSB, RoutingKind::YX),
                       "mesh-dor/pseudo-sb");
}

TEST(KernelParity, O1TurnMatchesGeneric)
{
    for (const Scheme s : {Scheme::Baseline, Scheme::PseudoSB}) {
        SCOPED_TRACE(toString(s));
        SimConfig cfg = meshConfig(4, 4, s, RoutingKind::O1Turn);
        expectKernelParity(cfg, s == Scheme::Baseline
                                    ? "o1turn/baseline"
                                    : "o1turn/pseudo-sb");
    }
}

TEST(KernelParity, DynamicVaMatchesGeneric)
{
    SimConfig cfg = meshConfig(4, 4, Scheme::PseudoSB);
    cfg.vaPolicy = VaPolicy::Dynamic;
    expectKernelParity(cfg, "mesh-dor/pseudo-sb");
}

TEST(KernelParity, TorusMatchesGeneric)
{
    for (const Scheme s : {Scheme::Baseline, Scheme::PseudoSB}) {
        SCOPED_TRACE(toString(s));
        SimConfig cfg = meshConfig(4, 4, s);
        cfg.topology = TopologyKind::Torus;
        expectKernelParity(cfg, s == Scheme::Baseline
                                    ? "torus-dor/baseline"
                                    : "torus-dor/pseudo-sb");
    }
}

TEST(KernelParity, ConcentratedMeshMatchesGeneric)
{
    SimConfig cfg = meshConfig(4, 4, Scheme::PseudoSB);
    cfg.topology = TopologyKind::CMesh;
    cfg.concentration = 4;
    expectKernelParity(cfg, "mesh-dor/pseudo-sb");
}

TEST(KernelParity, WideVcMeshMatchesGeneric)
{
    // 16 VCs on a 5-port mesh router: 80 (port, VC) slots, past one
    // occupancy word, on the specialized kernel.
    for (const VaPolicy va : {VaPolicy::Static, VaPolicy::Dynamic}) {
        SCOPED_TRACE(toString(va));
        SimConfig cfg = meshConfig(4, 4, Scheme::PseudoSB);
        cfg.numVcs = 16;
        cfg.vaPolicy = va;
        expectKernelParity(cfg, "mesh-dor/pseudo-sb");
    }
    SimConfig cfg = meshConfig(4, 4, Scheme::Baseline);
    cfg.numVcs = 16;
    expectKernelParity(cfg, "mesh-dor/baseline");
    // 64 VCs: the VA rotation and the allocator reach bit 63.
    cfg = meshConfig(3, 3, Scheme::PseudoSB);
    cfg.numVcs = 64;
    expectKernelParity(cfg, "mesh-dor/pseudo-sb");
}

TEST(KernelParity, TrafficPatternsMatchGeneric)
{
    for (const SyntheticPattern p :
         {SyntheticPattern::Transpose, SyntheticPattern::BitComplement,
          SyntheticPattern::Hotspot}) {
        SCOPED_TRACE(static_cast<int>(p));
        expectKernelParity(meshConfig(4, 4, Scheme::PseudoSB),
                           "mesh-dor/pseudo-sb", p);
    }
}

// --- Low load: routers sit dormant for long stretches and are woken by
// single flits and credits, so the VA-rotation catch-up is exercised
// over idle gaps of every length. ---

TEST(KernelParity, NearIdleMeshDorEverySchemeMatchesGeneric)
{
    // Load 0.002: sleeps of hundreds of cycles between single packets.
    for (const Scheme s : kSchemes) {
        SCOPED_TRACE(toString(s));
        expectKernelParity(meshConfig(4, 4, s), meshDorName(s),
                           SyntheticPattern::UniformRandom, 0.002);
    }
}

TEST(KernelParity, LowLoadMeshDorEverySchemeMatchesGeneric)
{
    // Load 0.01 on the 8x8 platform: enough heads meet at one router
    // right after a wake that a stale VA rotation changes the outcome
    // (this case fails when the wake-up catch-up is dropped).
    for (const Scheme s : kSchemes) {
        SCOPED_TRACE(toString(s));
        expectKernelParity(meshConfig(8, 8, s), meshDorName(s),
                           SyntheticPattern::UniformRandom, 0.01);
    }
}

TEST(KernelParity, LowLoadO1TurnTorusDynamicVaMatchGeneric)
{
    for (const Scheme s : {Scheme::Baseline, Scheme::PseudoSB}) {
        SCOPED_TRACE(toString(s));
        expectKernelParity(meshConfig(4, 4, s, RoutingKind::O1Turn),
                           s == Scheme::Baseline ? "o1turn/baseline"
                                                 : "o1turn/pseudo-sb",
                           SyntheticPattern::UniformRandom, 0.005);
        SimConfig torus = meshConfig(4, 4, s);
        torus.topology = TopologyKind::Torus;
        expectKernelParity(torus,
                           s == Scheme::Baseline ? "torus-dor/baseline"
                                                 : "torus-dor/pseudo-sb",
                           SyntheticPattern::UniformRandom, 0.005);
    }
    SimConfig dyn = meshConfig(4, 4, Scheme::PseudoSB);
    dyn.vaPolicy = VaPolicy::Dynamic;
    expectKernelParity(dyn, "mesh-dor/pseudo-sb",
                       SyntheticPattern::UniformRandom, 0.005);
}

/** Router steps one run executed, with its cycle and router counts. */
struct StepCount
{
    std::uint64_t steps = 0;
    std::uint64_t routerCycles = 0;
};

StepCount
routerStepsAt(const SimConfig &cfg, double load)
{
    const SimResult r = runSimulation(
        cfg,
        std::make_unique<SyntheticTraffic>(SyntheticPattern::UniformRandom,
                                           cfg.numNodes(), load, 5,
                                           cfg.seed),
        shortWindows());
    EXPECT_TRUE(r.drained);
    return {r.routerSteps,
            r.cyclesRun *
                static_cast<std::uint64_t>(makeTopology(cfg)->numRouters())};
}

TEST(RouterSteps, DormancySkipsWorkInProportionToLoad)
{
    // On the 8x8 paper platform: the generic core steps every router
    // every cycle; the mask core skips dormant routers, so its step
    // count is strictly lower and rises with the offered load.
    SimConfig cfg = meshConfig(8, 8, Scheme::PseudoSB);
    cfg.kernel = KernelChoice::Generic;
    const StepCount gen = routerStepsAt(cfg, 0.02);
    EXPECT_EQ(gen.steps, gen.routerCycles);

    cfg.kernel = KernelChoice::Auto;
    std::uint64_t prev = 0;
    for (const double load : {0.005, 0.02, 0.08}) {
        SCOPED_TRACE(load);
        const StepCount fast = routerStepsAt(cfg, load);
        EXPECT_LT(fast.steps, fast.routerCycles);
        EXPECT_GT(fast.steps, prev);
        prev = fast.steps;
    }
}

// --- Fallback gating: configurations the matrix does not cover must
// resolve to the generic core (running it against itself proves
// nothing, so these only assert the resolution). ---

TEST(KernelParity, IneligibleConfigsResolveGeneric)
{
    {
        SimConfig cfg = meshConfig(4, 4, Scheme::Evc);
        cfg.numVcs = 8;   // EVC needs express VCs above the base set
        EXPECT_FALSE(resolveKernel(cfg).specialized);
    }
    {
        SimConfig cfg = meshConfig(4, 4, Scheme::PseudoSB);
        cfg.faultSpec = "kill-link:2>6@cycle5000";
        EXPECT_FALSE(resolveKernel(cfg).specialized);
    }
    {
        SimConfig cfg = meshConfig(4, 4, Scheme::PseudoSB);
        cfg.kernel = KernelChoice::Generic;
        EXPECT_FALSE(resolveKernel(cfg).specialized);
        EXPECT_EQ(resolveKernel(cfg).name, "generic");
    }
    {
        // MECS multidrop channels have no specialized core.
        SimConfig cfg = meshConfig(4, 4, Scheme::PseudoSB);
        cfg.topology = TopologyKind::Mecs;
        cfg.concentration = 4;
        EXPECT_FALSE(resolveKernel(cfg).specialized);
    }
}

} // namespace
} // namespace noc
