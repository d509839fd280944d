/**
 * @file
 * Runtime fault machinery: executes a FaultPlan against a live network.
 *
 * The controller owns three fault classes:
 *
 *  1. Transient link corruption + link-level retry. Links named in the
 *     plan become *protected*: every flit placed on them is assigned a
 *     link sequence number and a copy is kept in a per-link retry
 *     buffer. The receiving side CRC-checks arrivals (modelled by the
 *     `corrupted` flag) and enforces in-order delivery: a clean,
 *     in-sequence flit is accepted and cumulatively ACKed; anything
 *     else is discarded, NACKed once per gap, and the receiving input
 *     port's pseudo-circuit register is torn down (a corrupted wire
 *     invalidates the circuit's cached routing state — the retransmitted
 *     stream rebuilds it through the normal allocation path). The
 *     sender retransmits its window on NACK or timeout (go-back-N), so
 *     the router layer above the link sees a gapless in-order stream:
 *     credits and packet conservation stay exact and transient faults
 *     run under the *full* invariant mask with no waivers.
 *
 *  2. Permanent link death. `kill-link@cycleC` corrupts every
 *     transmission from cycle C; the bounded retry counter exhausts and
 *     the link is declared dead. From then on flits routed onto it are
 *     dropped (and their packets accounted per flow), lookahead routing
 *     detours around it where the topology allows (see FaultRouting),
 *     and unroutable flows are refused at injection. Dead links leak
 *     the credits of dropped flits by design, so the controller
 *     installs *named* checker waivers: the dead link's credit ledger
 *     and the forward-progress probe — nothing else is relaxed.
 *
 *  3. Router stalls and credit drops. A stalled router freezes: its
 *     step() is skipped and arriving flits/credits are held at the
 *     input wires (released in arrival order, one flit per port per
 *     cycle, once the stall window ends). Credit drops absorb the PR 4
 *     `dropCreditEvery` hook: every Nth credit delivered to any router
 *     vanishes.
 *
 *  4. Topology churn (churn_plan.hpp). Scheduled availability
 *     transitions take links and routers down and bring them back.
 *     A *down* link is unplugged, not corrupted: transmissions
 *     initiated while it is down are deferred in the link's go-back-N
 *     retry buffer (bounded by the credit window) and resume in
 *     sequence order at revival, so — unlike a dead link — nothing is
 *     lost and credit/packet conservation hold under the full
 *     invariant mask; only the forward-progress probe is waived until
 *     the scheduled revival. A down *router* reuses the stall
 *     machinery through dynamically appended windows. Every
 *     transition is an epoch boundary: the reroute generation bumps
 *     (invalidating FaultRouting's detour memo), reachability is
 *     recomputed over *available* (alive and up) links, and the
 *     pseudo-circuit registers at both endpoint routers are queued for
 *     teardown (drained by Network::step) because their cached routes
 *     predate the transition. Packets whose destination is temporarily
 *     unreachable are refused at injection and accounted unroutable —
 *     graceful degradation, not a wedge.
 *
 * Everything is deterministic: corruption rolls come from one seeded
 * Rng, random churn from a second dedicated stream, all iteration is
 * over ordered containers, and a fault-free configuration never
 * constructs a controller at all (every hook in the network is gated on
 * a null check).
 */

#ifndef NOC_FAULT_FAULT_CONTROLLER_HPP
#define NOC_FAULT_FAULT_CONTROLLER_HPP

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/churn_plan.hpp"
#include "fault/fault_plan.hpp"
#include "network/link.hpp"
#include "router/flit.hpp"
#include "topology/topology.hpp"

namespace noc {

class InvariantChecker;

/** Degradation summary attached to SimResult when a plan is active. */
struct FaultReport
{
    bool active = false;

    // Link-retry protocol.
    std::uint64_t flitsCorrupted = 0;
    std::uint64_t flitsRetransmitted = 0;
    std::uint64_t nacksSent = 0;
    std::uint64_t retryTimeouts = 0;
    std::uint64_t circuitTeardowns = 0;  ///< pseudo-circuits torn by CRC fail

    // Permanent failures / degradation.
    std::uint64_t linksKilled = 0;
    std::uint64_t packetsOffered = 0;    ///< injection attempts (incl. refused)
    std::uint64_t packetsDelivered = 0;
    std::uint64_t packetsDropped = 0;    ///< lost at a dead link
    std::uint64_t packetsUnroutable = 0; ///< refused: no alive path
    double offeredThroughput = 0.0;      ///< offered flits / node / cycle
    double achievedThroughput = 0.0;     ///< delivered flits / node / cycle

    // Other fault classes.
    std::uint64_t creditsDropped = 0;
    std::uint64_t stallCycles = 0;       ///< router-cycles spent frozen

    /// Offered but neither delivered, dropped, nor refused when the
    /// report was assembled — packets still in the fabric (or held in a
    /// down link's retry buffer). Closes the accounting: offered ==
    /// delivered + dropped + unroutable + in-flight, always.
    std::uint64_t packetsInFlight = 0;

    // Topology churn (churn= plans).
    bool churn = false;                  ///< a churn plan is active
    std::uint64_t linkDownEvents = 0;
    std::uint64_t linkUpEvents = 0;
    std::uint64_t routerDownEvents = 0;
    std::uint64_t routerUpEvents = 0;
    std::uint64_t flitsDeferred = 0;     ///< held because the link was down
    std::uint64_t flitsResumed = 0;      ///< deferred flits sent at revival
    std::uint64_t churnTeardowns = 0;    ///< pseudo-circuits torn by transitions

    /** Per-flow delivery accounting (packets), sorted by (src, dst). */
    struct Flow
    {
        NodeId src = kInvalidNode;
        NodeId dst = kInvalidNode;
        std::uint64_t offered = 0;
        std::uint64_t delivered = 0;
        std::uint64_t dropped = 0;
        std::uint64_t unroutable = 0;
        std::uint64_t inFlight = 0;      ///< offered − the other three
    };
    std::vector<Flow> flows;
};

/** One input-port pseudo-circuit register to tear down (epoch flush). */
struct TeardownRequest
{
    RouterId router = kInvalidRouter;
    PortId inPort = kInvalidPort;
};

class FaultController
{
  public:
    /**
     * Resolve a fault plan and a churn plan (either may be empty)
     * against a concrete topology. Fatal on impossible targets (no
     * such link/router) or unsupported combinations (link/stall/churn
     * clauses under scheme=evc; kill-link or link churn outside
     * mesh/cmesh + xy/yx/adaptive routing).
     */
    FaultController(const FaultPlan &plan, const ChurnPlan &churn,
                    const SimConfig &cfg, const Topology &topo);

    /** The network's event ring; must be set before the first cycle. */
    void bindRing(EventRing<LinkEvent> *ring) { ring_ = ring; }

    /**
     * Attach (or detach, nullptr) the invariant checker the waivers go
     * to; installs the stall-window progress waiver immediately and
     * dead-link waivers as links die.
     */
    void bindVerifier(InvariantChecker *chk);

    // ------------------------------------------------------------------
    // Per-cycle driving (called by Network::step).
    // ------------------------------------------------------------------

    /** Stall accounting + retry timeouts; call at the top of the cycle. */
    void beginCycle(Cycle now);

    /**
     * Pop deliveries whose stall ended: all held credits, and at most
     * one held flit per input port (the wire re-serialises). Appended
     * to `out` with credits first.
     */
    void drainStallQueues(Cycle now, std::vector<LinkEvent> &out);

    /**
     * Capture a FlitToRouter/CreditToRouter arrival aimed at a stalled
     * router (or at a port still draining its backlog). True = held;
     * the caller must not dispatch it.
     */
    bool captureArrival(const LinkEvent &ev, Cycle now);

    /**
     * Cheap gate: any stall clause, or any router churn that may
     * append stall windows mid-run? Pre-arms the arrival-capture path.
     */
    bool anyStalls() const { return !stalls_.empty() || churnRouters_; }

    bool routerStalled(RouterId r, Cycle now) const;

    /**
     * Pseudo-circuit registers whose cached routes predate an
     * availability transition this cycle. True = `out` was filled (and
     * the pending list cleared); the caller tears each one down.
     */
    bool takeTeardowns(std::vector<TeardownRequest> &out);

    // ------------------------------------------------------------------
    // Protected-link send/receive (called by Network).
    // ------------------------------------------------------------------

    /**
     * Sender side. True = this transmission is on a protected link and
     * the controller scheduled (or, when dead, dropped) it; the caller
     * must not schedule the event itself.
     */
    bool handleSend(RouterId r, PortId outPort, int dropIdx,
                    const Flit &flit, Cycle now);

    /**
     * Receiver side. False = the flit failed the CRC/sequence check and
     * was discarded; the caller must not deliver it and should tear
     * down the input port's pseudo-circuit register. Unprotected
     * receivers always return true.
     */
    bool onReceive(RouterId r, PortId inPort, const Flit &flit, Cycle now);

    /** Process a LinkAck event (may trigger resends or a link death). */
    void onAck(const LinkEvent &ev, Cycle now);

    /** Count a pseudo-circuit torn down by a rejected arrival. */
    void noteCircuitTeardown() { ++report_.circuitTeardowns; }

    /** Count a pseudo-circuit torn down by an availability transition. */
    void noteChurnTeardown() { ++report_.churnTeardowns; }

    bool anyLinkDead() const { return anyDead_; }
    bool linkDead(RouterId r, PortId outPort, int dropIdx) const;

    /**
     * Any link currently *unavailable* — dead (permanent) or down
     * (churn, revivable)? The cheap gate for the availability-aware
     * routing and reachability paths below.
     */
    bool anyUnavailable() const { return anyDead_ || downLinks_ > 0; }

    /** Dead or currently down. */
    bool linkUnavailable(RouterId r, PortId outPort, int dropIdx) const;

    /**
     * Does this plan ever need detour routing? True only when links can
     * die permanently (kill-link): a dead link loses flits, so packets
     * must be steered around it. Churn outages deliberately do NOT
     * reroute — a down link is lossless (flits wait in its retry buffer
     * and resume at revival), and bending packets off their dimension
     * order mid-outage would reintroduce deadlock cycles the DOR VC
     * partitions exclude. Decides whether Network wraps the routing
     * algorithm in FaultRouting.
     */
    bool needsReroute() const { return !plan_.kills.empty(); }

    /**
     * Is any currently-unavailable resource scheduled to come back —
     * a down link with a known revival cycle, or a router inside a
     * stall window? While true, the drain loop must keep stepping
     * (deferred flits resume at revival) rather than declaring the
     * network quiescent.
     */
    bool revivalPending(Cycle now) const;

    /** Bumped on every availability transition; invalidates route caches. */
    std::uint64_t rerouteGeneration() const { return generation_; }

    /** Router-level reachability over available links. */
    bool reachable(RouterId from, RouterId to) const;

    // ------------------------------------------------------------------
    // Credit loss + flow accounting.
    // ------------------------------------------------------------------

    /**
     * True = silently drop this credit delivery. Counts per router so
     * the pattern matches the PR 4 `Router::deliverCredit` hook exactly
     * (every Nth credit a given router receives).
     */
    bool dropCredit(RouterId r);

    /** Alive path from src's router to dst's router? */
    bool routable(NodeId src, NodeId dst) const;

    void onOffered(const PacketDesc &p);
    void onUnroutable(const PacketDesc &p);
    void onDelivered(const Flit &flit);

    /** Assemble the degradation report after a run. */
    FaultReport report(Cycle cyclesRun, int numNodes) const;

    const FaultPlan &plan() const { return plan_; }

    /** Effective retransmission timeout in cycles. */
    Cycle retryTimeout() const { return retryTimeout_; }

  private:
    struct RetryEntry
    {
        Flit flit;
        Cycle sentAt = 0;   ///< departure cycle of the latest transmission
    };

    /** One protected directed link with its retry machinery. */
    struct LinkState
    {
        RouterId src = kInvalidRouter;
        RouterId dst = kInvalidRouter;
        PortId outPort = kInvalidPort;   ///< at src
        int dropIdx = 0;
        PortId inPort = kInvalidPort;    ///< at dst
        int distance = 1;

        double flipProb = 0.0;
        Cycle killAt = kNeverCycle;
        bool dead = false;

        // Churn: down = unplugged (transmissions deferred, not lost).
        bool down = false;
        Cycle upAt = kNeverCycle;   ///< scheduled revival (kNeverCycle: none)

        // Sender.
        std::uint32_t nextSeq = 0;
        std::deque<RetryEntry> retryBuf;
        int retryCount = 0;
        Cycle nextFreeTx = 0;     ///< wire serialisation (departure cycles)
        Cycle lastResendAt = kNeverCycle;

        // Receiver.
        std::uint32_t expectedSeq = 0;
        Cycle nackedAt = kNeverCycle;
    };

    struct FlowCounts
    {
        std::uint64_t offered = 0;
        std::uint64_t delivered = 0;
        std::uint64_t dropped = 0;
        std::uint64_t unroutable = 0;
    };

    /** Periodic or random (MTTF/MTTR) down generator for one link. */
    struct LinkGen
    {
        int link = -1;              ///< index into links_
        Cycle upDur = 0;            ///< fixed up duration (periodic)
        Cycle downDur = 0;          ///< fixed down duration (periodic)
        Cycle mttf = 0;             ///< nonzero: random; durations drawn
        Cycle mttr = 0;
        Cycle nextDownAt = 0;
    };

    /** One-shot down window for one link. */
    struct WindowGen
    {
        int link = -1;
        Cycle from = 0;
        Cycle to = 0;
        bool fired = false;
    };

    /** Periodic stall-window generator for one router. */
    struct RouterGen
    {
        RouterId router = kInvalidRouter;
        Cycle upDur = 0;
        Cycle downDur = 0;
        Cycle nextDownAt = 0;
    };

    LinkState &linkFor(const RouterId src, const RouterId dst,
                       const char *clause);
    void transmit(LinkState &ls, RetryEntry &entry, Cycle now);
    void resendWindow(LinkState &ls, Cycle now, bool fromTimeout);
    void killLink(LinkState &ls, Cycle now);
    void recordDropped(const Flit &flit);
    void sendAck(const LinkState &ls, bool ok, std::uint32_t seq, Cycle now);
    void rebuildReachability() const;

    // Churn engine (beginCycle helpers).
    void stepChurn(Cycle now);
    void linkChurnDown(LinkState &ls, Cycle now, Cycle upAt);
    void linkChurnUp(LinkState &ls, Cycle now);
    void resumeLink(LinkState &ls, Cycle now);
    void queueTeardowns(const LinkState &ls);
    void routerChurnDown(RouterId r, Cycle now, Cycle upCycle);

    static std::uint64_t senderKey(RouterId r, PortId p, int d)
    {
        return (static_cast<std::uint64_t>(r) << 24) |
               (static_cast<std::uint64_t>(p) << 8) |
               static_cast<std::uint64_t>(d);
    }
    static std::uint64_t receiverKey(RouterId r, PortId p)
    {
        return (static_cast<std::uint64_t>(r) << 24) |
               static_cast<std::uint64_t>(p);
    }

    FaultPlan plan_;
    const Topology &topo_;
    int linkLatency_;
    int creditLatency_;
    Cycle retryTimeout_;
    Rng rng_;

    EventRing<LinkEvent> *ring_ = nullptr;
    InvariantChecker *chk_ = nullptr;

    std::vector<LinkState> links_;
    std::unordered_map<std::uint64_t, int> senderIdx_;
    std::unordered_map<std::uint64_t, int> receiverIdx_;
    std::vector<StallRouterClause> stalls_;

    // Stall hold queues (ordered maps: deterministic drain order).
    std::map<std::pair<RouterId, PortId>, std::deque<LinkEvent>> heldFlits_;
    std::map<RouterId, std::vector<LinkEvent>> heldCredits_;
    std::map<std::pair<RouterId, PortId>, Cycle> lastFlitRelease_;

    bool anyDead_ = false;
    std::uint64_t generation_ = 0;
    mutable bool reachDirty_ = false;
    mutable std::vector<char> reach_;   ///< [from * numRouters + to]

    std::vector<std::uint64_t> creditCounters_;  ///< per router

    mutable FaultReport report_;
    std::map<std::pair<NodeId, NodeId>, FlowCounts> flows_;
    std::unordered_set<PacketId> droppedPackets_;
    std::uint64_t offeredFlits_ = 0;
    std::uint64_t deliveredFlits_ = 0;

    // ------------------------------------------------------------------
    // Churn state.
    // ------------------------------------------------------------------
    Rng churnRng_;                       ///< dedicated stream (random clauses)
    std::vector<LinkGen> linkGens_;
    std::vector<WindowGen> windowGens_;
    std::vector<RouterGen> routerGens_;
    std::vector<ChurnTraceEvent> traceEvents_;   ///< sorted by cycle
    std::size_t traceCursor_ = 0;
    std::vector<int> churnLinks_;        ///< links_ indices with churn clauses
    std::vector<Cycle> routerUpAt_;      ///< pending router revivals (sorted-ish)
    std::vector<TeardownRequest> pendingTeardowns_;
    int downLinks_ = 0;                  ///< links currently down
    int downWithRevival_ = 0;            ///< down links with a finite upAt
    bool churnRouters_ = false;          ///< any router churn clause/trace
    bool churnLinkClauses_ = false;      ///< any link churn clause/trace
};

} // namespace noc

#endif // NOC_FAULT_FAULT_CONTROLLER_HPP
