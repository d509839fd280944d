/**
 * @file
 * Direct Router-level tests: drive deliverFlit/deliverCredit/step by
 * hand on a single router and observe the microarchitectural state —
 * circuit creation via grants, bypass-latch admission rules, credit
 * gating, and the SA-request suppression for circuit riders.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "router/router.hpp"
#include "routing/routing.hpp"
#include "topology/mesh.hpp"

namespace noc {
namespace {

struct Rig
{
    SimConfig cfg;
    Mesh topo{4, 2, 1};
    std::unique_ptr<RoutingAlgorithm> routing;
    std::unique_ptr<Router> router;
    Cycle now = 0;

    explicit Rig(Scheme scheme, VaPolicy va = VaPolicy::Static,
                 KernelChoice kernel = KernelChoice::Auto)
    {
        cfg.topology = TopologyKind::Mesh;
        cfg.meshWidth = 4;
        cfg.meshHeight = 2;
        cfg.concentration = 1;
        cfg.scheme = scheme;
        cfg.vaPolicy = va;
        cfg.kernel = kernel;
        routing = makeRouting(RoutingKind::XY, topo);
        // Router 1 sits mid-row: it has terminal, E and W neighbours.
        router = std::make_unique<Router>(cfg, topo, *routing, 1);
    }

    Flit
    makeFlit(FlitType type, NodeId dst, VcId vc, PacketId pkt = 1)
    {
        Flit f;
        f.packet = pkt;
        f.type = type;
        f.src = 0;
        f.dst = dst;
        f.vc = vc;
        f.packetSize = 1;
        f.route = routing->route(1, dst, 0);
        return f;
    }

    void
    step(int cycles = 1)
    {
        for (int i = 0; i < cycles; ++i) {
            router->step(now);
            ++now;
        }
    }
};

/** Input port index at router 1 fed from router 0's East channel. */
PortId
westInput(const Rig &rig)
{
    for (PortId p = 0; p < rig.topo.numInputPorts(1); ++p) {
        const InputSource &src = rig.topo.input(1, p);
        if (!src.isTerminal() && src.router == 0)
            return p;
    }
    return kInvalidPort;
}

TEST(RouterUnit, GrantCreatesCircuitAndSendsFlit)
{
    Rig rig(Scheme::Pseudo);
    const PortId in = westInput(rig);
    const Flit f = rig.makeFlit(FlitType::HeadTail, /*dst=*/3, /*vc=*/3);

    rig.router->deliverFlit(in, f, rig.now);
    rig.step(3);   // BW | VA+SA | ST

    ASSERT_EQ(rig.router->sentFlits.size(), 1u);
    EXPECT_EQ(rig.router->sentFlits[0].outPort, f.route.outPort);
    ASSERT_EQ(rig.router->sentCredits.size(), 1u);
    EXPECT_EQ(rig.router->sentCredits[0].inPort, in);
    EXPECT_EQ(rig.router->sentCredits[0].vc, 3);

    const auto &reg = rig.router->pcUnit().at(in);
    EXPECT_TRUE(reg.valid);
    EXPECT_EQ(reg.inVc, 3);
    EXPECT_EQ(reg.route.outPort, f.route.outPort);
    EXPECT_EQ(rig.router->stats().saGrants, 1u);
    EXPECT_EQ(rig.router->stats().saBypasses, 0u);
}

TEST(RouterUnit, SecondPacketBypassesSa)
{
    Rig rig(Scheme::Pseudo);
    const PortId in = westInput(rig);
    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 3, 1),
                            rig.now);
    rig.step(4);
    rig.router->sentFlits.clear();

    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 3, 2),
                            rig.now);
    rig.step(2);   // BW | ST — one cycle less than the full pipeline
    EXPECT_EQ(rig.router->sentFlits.size(), 1u);
    EXPECT_EQ(rig.router->stats().saBypasses, 1u);
    EXPECT_EQ(rig.router->stats().saGrants, 1u);   // only the first
}

TEST(RouterUnit, BufferBypassTraversesInArrivalCycle)
{
    Rig rig(Scheme::PseudoB);
    const PortId in = westInput(rig);
    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 3, 1),
                            rig.now);
    rig.step(4);
    rig.router->sentFlits.clear();

    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 3, 2),
                            rig.now);
    rig.step(1);   // same-cycle ST through the latch
    EXPECT_EQ(rig.router->sentFlits.size(), 1u);
    EXPECT_EQ(rig.router->stats().bufferBypasses, 1u);
    // The latched flit skipped the buffer: one write (first packet) only.
    EXPECT_EQ(rig.router->stats().bufferWrites, 1u);
}

TEST(RouterUnit, BypassRequiresVcMatch)
{
    Rig rig(Scheme::PseudoB, VaPolicy::Dynamic);
    const PortId in = westInput(rig);
    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 3, 1),
                            rig.now);
    rig.step(4);
    rig.router->sentFlits.clear();

    // Same route, different input VC: must take the full pipeline.
    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 1, 2),
                            rig.now);
    rig.step(1);
    EXPECT_TRUE(rig.router->sentFlits.empty());
    rig.step(2);
    EXPECT_EQ(rig.router->sentFlits.size(), 1u);
    EXPECT_EQ(rig.router->stats().bufferBypasses, 0u);
}

TEST(RouterUnit, BypassRequiresRouteMatch)
{
    // Dynamic VA upstream may reuse the same input VC for a flow with a
    // different route; the comparator must reject it.
    Rig rig(Scheme::PseudoB, VaPolicy::Dynamic);
    const PortId in = westInput(rig);
    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 3, 1),
                            rig.now);
    rig.step(4);
    rig.router->sentFlits.clear();

    // Same input VC, but dst 5 routes South (not East): full pipeline,
    // circuit replaced by the new grant.
    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 5, 3, 2),
                            rig.now);
    rig.step(3);
    EXPECT_EQ(rig.router->sentFlits.size(), 1u);
    EXPECT_EQ(rig.router->stats().bufferBypasses, 0u);
    const auto &reg = rig.router->pcUnit().at(in);
    EXPECT_TRUE(reg.valid);
    EXPECT_EQ(reg.route.outPort, rig.routing->route(1, 5, 0).outPort);
}

TEST(RouterUnit, StarvedCircuitTerminatesOnUse)
{
    Rig rig(Scheme::Pseudo);
    const PortId in = westInput(rig);
    const Flit first = rig.makeFlit(FlitType::HeadTail, 3, 3, 1);
    rig.router->deliverFlit(in, first, rig.now);
    rig.step(4);
    rig.router->sentFlits.clear();

    // Drain all credits of the east output (dst 3 goes east).
    OutputPort &out =
        rig.router->outputPortForTest(first.route.outPort);
    for (VcId v = 0; v < 4; ++v) {
        while (out.vc(0, v).credits > 0)
            out.takeCredit(0, v);
    }

    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 3, 2),
                            rig.now);
    rig.step(2);
    // Nothing may leave, and the circuit must be gone (§3.C).
    EXPECT_TRUE(rig.router->sentFlits.empty());
    EXPECT_FALSE(rig.router->pcUnit().at(in).valid);
    EXPECT_GE(rig.router->pcStats().terminatedCredit, 1u);

    // Credits return: the packet moves via the normal pipeline.
    for (VcId v = 0; v < 4; ++v) {
        Credit c;
        c.outPort = first.route.outPort;
        c.drop = 0;
        c.vc = v;
        for (int k = 0; k < 4; ++k)
            rig.router->deliverCredit(c, 0);
    }
    rig.step(3);
    EXPECT_EQ(rig.router->sentFlits.size(), 1u);
}

TEST(RouterUnit, ConflictingGrantStealsCircuit)
{
    Rig rig(Scheme::Pseudo);
    const PortId in_w = westInput(rig);
    const PortId in_term = 0;   // terminal input port

    rig.router->deliverFlit(in_w, rig.makeFlit(FlitType::HeadTail, 3, 3, 1),
                            rig.now);
    rig.step(4);
    ASSERT_TRUE(rig.router->pcUnit().at(in_w).valid);

    // A packet injected locally (node 1) claims the same east output.
    Flit local = rig.makeFlit(FlitType::HeadTail, 3, 3, 2);
    local.src = 1;
    rig.router->deliverFlit(in_term, local, rig.now);
    rig.step(3);
    EXPECT_FALSE(rig.router->pcUnit().at(in_w).valid);
    EXPECT_TRUE(rig.router->pcUnit().at(in_term).valid);
    EXPECT_EQ(rig.router->pcUnit().history(
                  rig.routing->route(1, 3, 0).outPort),
              in_w);
}

TEST(RouterUnit, CircuitRidersDoNotRequestSa)
{
    // A long packet whose head went through SA: the followers ride the
    // circuit, so exactly one grant happens for the whole packet.
    Rig rig(Scheme::Pseudo);
    const PortId in = westInput(rig);
    Flit head = rig.makeFlit(FlitType::Head, 3, 3, 1);
    head.packetSize = 4;
    rig.router->deliverFlit(in, head, rig.now);
    rig.step(1);
    for (std::uint32_t s = 1; s < 4; ++s) {
        Flit f = rig.makeFlit(s == 3 ? FlitType::Tail : FlitType::Body, 3,
                              3, 1);
        f.seq = s;
        f.packetSize = 4;
        rig.router->deliverFlit(in, f, rig.now);
        rig.step(1);
    }
    rig.step(4);
    EXPECT_EQ(rig.router->stats().xbarTraversals, 4u);
    EXPECT_EQ(rig.router->stats().saGrants, 1u);
    EXPECT_EQ(rig.router->stats().saBypasses, 3u);
}

TEST(RouterUnit, BaselineNeverBypasses)
{
    Rig rig(Scheme::Baseline);
    const PortId in = westInput(rig);
    for (PacketId p = 1; p <= 3; ++p) {
        rig.router->deliverFlit(
            in, rig.makeFlit(FlitType::HeadTail, 3, 3, p), rig.now);
        rig.step(5);
    }
    EXPECT_EQ(rig.router->stats().saGrants, 3u);
    EXPECT_EQ(rig.router->stats().saBypasses, 0u);
    EXPECT_EQ(rig.router->stats().bufferBypasses, 0u);
    EXPECT_EQ(rig.router->pcStats().created, 0u);
}

/** Everything a router emitted this cycle, for twin comparison. */
std::string
drainSent(Router &router)
{
    std::ostringstream os;
    for (const Router::SentFlit &sf : router.sentFlits)
        os << "F" << sf.flit.packet << "@" << sf.outPort << "." << sf.drop
           << "v" << sf.flit.vc << " ";
    for (const Router::SentCredit &sc : router.sentCredits)
        os << "C" << sc.inPort << "v" << sc.vc << " ";
    router.sentFlits.clear();
    router.sentCredits.clear();
    return os.str();
}

/**
 * A specialized-kernel router stepped only while awake, as the Network
 * does, beside a generic-kernel twin (which never sleeps) stepped every
 * cycle. Every input goes to both; every cycle's sent lists must match.
 */
struct Twins
{
    Rig fast;
    Rig ref;
    Cycle now = 0;
    bool slept = false;
    /// Model a downstream that frees each slot as soon as a flit lands.
    bool returnCredits = true;

    explicit Twins(Scheme scheme)
        : fast(scheme), ref(scheme, VaPolicy::Static, KernelChoice::Generic)
    {
    }

    void
    deliverFlit(PortId in, const Flit &f)
    {
        fast.router->deliverFlit(in, f, now);
        ref.router->deliverFlit(in, f, now);
    }

    void
    deliverCredit(const Credit &c)
    {
        fast.router->deliverCredit(c, now);
        ref.router->deliverCredit(c, now);
    }

    void
    cycles(int n)
    {
        for (int i = 0; i < n; ++i, ++now) {
            if (!fast.router->dormant())
                fast.router->step(now);
            ref.router->step(now);
            std::vector<Credit> credits;
            for (const Router::SentFlit &sf : ref.router->sentFlits) {
                Credit c;
                c.outPort = sf.outPort;
                c.drop = sf.drop;
                c.vc = sf.flit.vc;
                credits.push_back(c);
            }
            const std::string sent = drainSent(*ref.router);
            ASSERT_EQ(drainSent(*fast.router), sent) << "cycle " << now;
            slept = slept || fast.router->dormant();
            if (returnCredits) {
                for (const Credit &c : credits) {
                    fast.router->deliverCredit(c, now + 1);
                    ref.router->deliverCredit(c, now + 1);
                }
            }
        }
    }
};

TEST(RouterUnit, DormantRouterMatchesGenericTwinAcrossIdleGaps)
{
    // Bursts of competing heads after idle gaps that are not multiples
    // of in x VCs make the VA visiting order — the rotation a dormant
    // router must catch up on waking — decide who wins the output VC.
    for (const Scheme scheme : {Scheme::Baseline, Scheme::Pseudo,
                                Scheme::PseudoSB}) {
        SCOPED_TRACE(toString(scheme));
        Twins t(scheme);
        ASSERT_TRUE(t.fast.router->kernelSpecialized());
        ASSERT_FALSE(t.ref.router->kernelSpecialized());
        const PortId west = westInput(t.fast);
        const int slots =
            t.fast.router->numInputPorts() * t.fast.cfg.numVcs;
        PacketId pkt = 1;
        for (int round = 0; round < 6; ++round) {
            const int gap = slots + 3 + 5 * round;
            ASSERT_NE(gap % slots, 0);
            t.cycles(gap);
            // Two heads for the same destination (same static output
            // VC) from the terminal and west inputs, same cycle.
            for (const PortId in : {PortId{0}, west}) {
                Flit f = t.fast.makeFlit(FlitType::HeadTail, 3, round % 4,
                                         pkt++);
                f.src = in == 0 ? 1 : 0;
                t.deliverFlit(in, f);
            }
        }
        t.cycles(2 * slots);

        EXPECT_TRUE(t.slept)
            << "the specialized-kernel router never went dormant";
        const RouterStats &a = t.fast.router->stats();
        const RouterStats &b = t.ref.router->stats();
        EXPECT_EQ(a.vaGrants, b.vaGrants);
        EXPECT_EQ(a.saGrants, b.saGrants);
        EXPECT_EQ(a.xbarTraversals, b.xbarTraversals);
        EXPECT_EQ(a.xbarTraversals, 12u);
        EXPECT_EQ(t.fast.router->pcStats().registerChanges(),
                  t.ref.router->pcStats().registerChanges());
    }
}

TEST(RouterUnit, CreditWakesDormantRouterToSpeculate)
{
    // A circuit credit-terminated while its router goes idle can only
    // be revived (§4.A) once credit returns: the credit alone must wake
    // the dormant router, with no flit in sight.
    Twins t(Scheme::PseudoSB);
    t.returnCredits = false;
    const PortId west = westInput(t.fast);
    const Flit f = t.fast.makeFlit(FlitType::HeadTail, 3, 3, 1);
    t.deliverFlit(west, f);
    t.cycles(4);
    ASSERT_TRUE(t.ref.router->pcUnit().at(west).valid);

    // Downstream fills up: no credit left on any VC of the east output.
    for (Rig *rig : {&t.fast, &t.ref}) {
        OutputPort &out = rig->router->outputPortForTest(f.route.outPort);
        for (VcId v = 0; v < rig->cfg.numVcs; ++v) {
            while (out.vc(0, v).credits > 0)
                out.takeCredit(0, v);
        }
    }
    t.cycles(4);
    ASSERT_FALSE(t.ref.router->pcUnit().at(west).valid);
    ASSERT_TRUE(t.fast.router->dormant());

    Credit c;
    c.outPort = f.route.outPort;
    c.vc = 0;
    t.deliverCredit(c);
    t.cycles(2);
    EXPECT_TRUE(t.ref.router->pcUnit().at(west).valid);
    EXPECT_EQ(t.fast.router->pcUnit().at(west).valid,
              t.ref.router->pcUnit().at(west).valid);
    EXPECT_EQ(t.fast.router->pcStats().speculated,
              t.ref.router->pcStats().speculated);
}

// --- Mask limits: every VC, input-port and output-port set of a router
// is one uint64, so a router past 64 of any of them must not build. ---

/** A 2x1 mesh whose router 0 also feeds router 1 through `extra`
 *  parallel channels: router 0 gains `extra` output ports, router 1
 *  `extra` input ports, and neither gains the other kind. */
struct WideMesh : Mesh
{
    explicit WideMesh(int extra) : Mesh(2, 1, 1)
    {
        for (int c = 0; c < extra; ++c)
            addChannel(0, {1});
    }
};

SimConfig
wideMeshConfig()
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Mesh;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.concentration = 1;
    return cfg;
}

TEST(RouterLimits, MoreThan64VcsIsFatal)
{
    const SimConfig cfg = [] {
        SimConfig c = wideMeshConfig();
        c.numVcs = 65;
        return c;
    }();
    const Mesh topo(2, 1, 1);
    const auto routing = makeRouting(RoutingKind::XY, topo);
    EXPECT_EXIT(Router(cfg, topo, *routing, 0), testing::ExitedWithCode(1),
                "65 VCs per port exceed the limit of 64 VCs per port");
}

TEST(RouterLimits, MoreThan64InputPortsIsFatal)
{
    const WideMesh topo(63);
    ASSERT_EQ(topo.numInputPorts(1), 65);
    ASSERT_LE(topo.numOutputPorts(1), 64);
    const auto routing = makeRouting(RoutingKind::XY, topo);
    EXPECT_EXIT(Router(wideMeshConfig(), topo, *routing, 1),
                testing::ExitedWithCode(1),
                "65 input ports exceed the limit of 64 input ports");
}

TEST(RouterLimits, MoreThan64OutputPortsIsFatal)
{
    const WideMesh topo(60);
    ASSERT_EQ(topo.numOutputPorts(0), 65);
    ASSERT_LE(topo.numInputPorts(0), 64);
    const auto routing = makeRouting(RoutingKind::XY, topo);
    EXPECT_EXIT(Router(wideMeshConfig(), topo, *routing, 0),
                testing::ExitedWithCode(1),
                "65 output ports exceed the limit of 64 output ports");
}

TEST(RouterLimits, SixtyFourOfEachBuilds)
{
    SimConfig cfg = wideMeshConfig();
    cfg.numVcs = 64;
    const WideMesh out_topo(59);
    const WideMesh in_topo(62);
    const auto out_routing = makeRouting(RoutingKind::XY, out_topo);
    const auto in_routing = makeRouting(RoutingKind::XY, in_topo);
    const Router out_wide(cfg, out_topo, *out_routing, 0);
    const Router in_wide(cfg, in_topo, *in_routing, 1);
    EXPECT_EQ(out_wide.numOutputPorts(), 64);
    EXPECT_EQ(in_wide.numInputPorts(), 64);
    EXPECT_EQ(in_wide.numVcs(), 64);
}

} // namespace
} // namespace noc
