#include "network/network.hpp"

#include <algorithm>
#include <sstream>

#include "common/log.hpp"
#include "common/spsc_queue.hpp"
#include "fault/fault_routing.hpp"
#include "profile/profile.hpp"
// Layering exception: network/ sits below sim/, but the partitioned
// stepping path shares the ShardPlan definition with its driver
// (sim/shard.hpp) instead of duplicating the struct. Nothing else from
// sim/ is visible here.
#include "sim/shard.hpp"
#include "topology/fbfly.hpp"
#include "verify/verify.hpp"
#include "topology/mecs.hpp"
#include "topology/mesh.hpp"
#include "topology/torus.hpp"

namespace noc {

std::unique_ptr<Topology>
makeTopology(const SimConfig &cfg)
{
    switch (cfg.topology) {
      case TopologyKind::Mesh:
        return std::make_unique<Mesh>(cfg.meshWidth, cfg.meshHeight, 1);
      case TopologyKind::CMesh:
        return std::make_unique<CMesh>(cfg.meshWidth, cfg.meshHeight,
                                       cfg.concentration);
      case TopologyKind::Mecs:
        return std::make_unique<Mecs>(cfg.meshWidth, cfg.meshHeight,
                                      cfg.concentration);
      case TopologyKind::FlatFly:
        return std::make_unique<FlattenedButterfly>(
            cfg.meshWidth, cfg.meshHeight, cfg.concentration);
      case TopologyKind::Torus:
        return std::make_unique<Torus>(cfg.meshWidth, cfg.meshHeight,
                                       cfg.concentration);
    }
    NOC_FATAL("unknown topology kind");
}

namespace {

int
eventHorizon(const SimConfig &cfg)
{
    // Longest wire = full row or column span; credits may cross two hops
    // (EVC). Add slack for the +1 cycle delivery offset.
    const int span = cfg.meshWidth + cfg.meshHeight;
    const int lat = std::max(cfg.linkLatency, cfg.creditLatency);
    int horizon = lat * span + 4;
    // A fault plan's retransmission bursts serialise onto the wire: a
    // full retry window (bounded by the link's credit window) may run
    // ahead of `now` before the wire delay even starts. Churn revivals
    // replay a deferred window through the same path.
    if (!cfg.faultSpec.empty() || !cfg.churnSpec.empty())
        horizon += cfg.numVcs * cfg.bufferDepth + 16;
    return horizon;
}

} // namespace

/**
 * Per-run state of the partitioned stepping path (see the sharded
 * section at the bottom of this file and docs/architecture.md §16).
 * One PerShard per row band; each is written only by its owning shard
 * thread between barriers, except the SPSC queue whose consumer is the
 * main thread at the barrier.
 */
class ShardRuntime
{
  public:
    /// A scheduled delivery tagged with its creation cycle and creator
    /// rank (NI = node id, router = numNodes + router id) so arrival
    /// buckets can be replayed in exactly the serial event order.
    struct Event
    {
        LinkEvent ev;
        Cycle sched = 0;
        std::int32_t rank = 0;
    };

    /// A cross-shard Event plus its absolute delivery cycle.
    struct Msg
    {
        Event se;
        Cycle when = 0;
    };

    /// One packet recorded during staging, replayed at `cycle`.
    struct Staged
    {
        Cycle cycle = 0;
        PacketDesc pkt;
    };

    struct PerShard
    {
        explicit PerShard(int horizon) : calendar(horizon) {}

        /// Pending local deliveries; the serial ring's horizon, so every
        /// schedulable delta fits.
        EventRing<Event> calendar;
        /// Outgoing boundary events; drained by the main thread at the
        /// window barrier.
        std::unique_ptr<SpscQueue<Msg>> out;
        std::vector<Staged> staged;     ///< window's staged injections
        std::size_t stagedIdx = 0;      ///< next staged entry to replay
        std::vector<CompletedPacket> completed;
        std::int64_t outstandingDelta = 0;
        Cycle lastProgress = 0;
        bool progressed = false;
        std::uint64_t routerSteps = 0;  ///< folded in at the barrier
        std::vector<Event> flitScratch; ///< per-cycle flit sort buffer
    };

    ShardPlan plan;
    bool staging = false;
    Cycle stageCycle = 0;
    /// unique_ptr per shard: stable addresses, no false sharing between
    /// neighbouring PerShard blocks when the vector reallocates.
    std::vector<std::unique_ptr<PerShard>> shards;
};

Network::~Network() = default;

Network::Network(const SimConfig &cfg)
    : cfg_(cfg), topo_(makeTopology(cfg)), ring_(eventHorizon(cfg))
{
    cfg_.validate();

    // The fault layer only exists when a plan is configured; fault-free
    // runs never pay for it (all hooks below test `faults_` first).
    FaultPlan plan;
    if (!cfg_.faultSpec.empty())
        plan = FaultPlan::parse(cfg_.faultSpec);
    if (plan.dropCreditEvery == 0 && cfg_.dropCreditEvery > 0)
        plan.dropCreditEvery =
            static_cast<std::uint64_t>(cfg_.dropCreditEvery);
    ChurnPlan churn;
    if (!cfg_.churnSpec.empty())
        churn = ChurnPlan::parse(cfg_.churnSpec);
    if (!plan.empty() || !churn.empty()) {
        faults_ =
            std::make_unique<FaultController>(plan, churn, cfg_, *topo_);
        faults_->bindRing(&ring_);
    }

    routing_ = makeRouting(cfg_.routing, *topo_);
    if (faults_ && faults_->needsReroute())
        routing_ = std::make_unique<FaultRouting>(std::move(routing_),
                                                  *topo_, faults_.get());

    routers_.reserve(topo_->numRouters());
    for (RouterId r = 0; r < topo_->numRouters(); ++r)
        routers_.push_back(
            std::make_unique<Router>(cfg_, *topo_, *routing_, r));

    nis_.reserve(topo_->numNodes());
    for (NodeId n = 0; n < topo_->numNodes(); ++n)
        nis_.push_back(
            std::make_unique<NetworkInterface>(cfg_, *topo_, *routing_, n));

    if (cfg_.scheme == Scheme::Evc)
        buildEvcCreditMap();
}

void
Network::buildEvcCreditMap()
{
    evcUpstream_.resize(topo_->numRouters());
    for (RouterId r = 0; r < topo_->numRouters(); ++r) {
        evcUpstream_[r].assign(topo_->numInputPorts(r),
                               {kInvalidRouter, kInvalidPort});
        for (PortId p = 0; p < topo_->numInputPorts(r); ++p) {
            const InputSource &src = topo_->input(r, p);
            if (src.isTerminal())
                continue;
            const RouterId mid = src.router;
            const PortId dir_port = src.outPort;
            // The express source is the router feeding `mid` through the
            // same direction port (unique on a mesh).
            for (PortId p2 = 0; p2 < topo_->numInputPorts(mid); ++p2) {
                const InputSource &up = topo_->input(mid, p2);
                if (!up.isTerminal() && up.outPort == dir_port) {
                    evcUpstream_[r][p] = {up.router, dir_port};
                    break;
                }
            }
        }
    }
}

void
Network::injectPacket(const PacketDesc &packet)
{
    if (shard_ && shard_->staging) {
        // Staging (sharded runs): record against the staged cycle on the
        // owning shard; the shard thread replays it — NI queue append,
        // outstanding count, verifier hook — at exactly that cycle, in
        // the order the source generated it.
        const int s =
            shard_->plan.shardOfNode[static_cast<std::size_t>(packet.src)];
        shard_->shards[static_cast<std::size_t>(s)]->staged.push_back(
            {shard_->stageCycle, packet});
        return;
    }
    if (faults_) {
        faults_->onOffered(packet);
        if (!faults_->routable(packet.src, packet.dst)) {
            // No alive path: refuse at the source instead of wedging a
            // packet in the fabric. Accounted per flow in the report.
            faults_->onUnroutable(packet);
            return;
        }
    }
    nis_[packet.src]->inject(packet);
    ++outstanding_;
    NOC_VCHK(verifier_, onPacketInjected(packet, now_));
}

void
Network::dispatch(const LinkEvent &ev)
{
    switch (ev.kind) {
      case LinkEvent::Kind::FlitToRouter:
        if (faults_ && !faults_->onReceive(ev.router, ev.inPort, ev.flit,
                                           now_)) {
            // CRC/sequence check failed: the flit is discarded (the
            // sender's retry buffer will re-deliver it) and the input
            // port's pseudo-circuit can no longer be trusted.
            if (routers_[ev.router]->faultTeardown(ev.inPort, now_))
                faults_->noteCircuitTeardown();
            break;
        }
        routers_[ev.router]->deliverFlit(ev.inPort, ev.flit, now_);
        lastProgress_ = now_;
        break;
      case LinkEvent::Kind::FlitToNi: {
        lastProgress_ = now_;
        NOC_VCHK(verifier_, onFlitEjected(ev.node, ev.flit, now_));
        NetworkInterface &ni = *nis_[ev.node];
        const std::size_t before = ni.completed.size();
        ni.receiveFlit(ev.flit, now_);
        if (ni.completed.size() != before) {
            NOC_ASSERT(outstanding_ > 0, "completion without injection");
            --outstanding_;
            if (faults_)
                faults_->onDelivered(ev.flit);
        }
        // The NI consumes the flit immediately; return the ejection-port
        // buffer slot to the router.
        LinkEvent credit;
        credit.kind = LinkEvent::Kind::CreditToRouter;
        credit.router = topo_->nodeRouter(ev.node);
        credit.credit.outPort = topo_->nodePort(ev.node);
        credit.credit.drop = 0;
        credit.credit.vc = ev.flit.vc;
        credit.credit.express = false;
        ring_.schedule(now_, now_ + 1 + cfg_.creditLatency, credit);
        break;
      }
      case LinkEvent::Kind::CreditToRouter:
        if (faults_ && faults_->dropCredit(ev.router))
            break;
        routers_[ev.router]->deliverCredit(ev.credit, now_);
        break;
      case LinkEvent::Kind::CreditToNi:
        nis_[ev.node]->addCredit(ev.vc);
        NOC_VCHK(verifier_, onNiCredit(ev.node, ev.vc, now_));
        break;
      case LinkEvent::Kind::LinkAck:
        if (faults_)
            faults_->onAck(ev, now_);
        break;
    }
}

void
Network::step()
{
#if NOC_PROFILE_ENABLED
    if (prof_)
        prof_->beginCycle(now_);
#endif

    // Phase 0 (fault layer only): retry timeouts, stall accounting, and
    // release of deliveries held at the wires of a previously stalled
    // router (credits in full, flits re-serialised one per port).
    const bool stalls = faults_ && faults_->anyStalls();
    if (faults_) {
        NOC_PROF_SCOPE(prof_, FaultHook);
        faults_->beginCycle(now_);
        // Availability transitions this cycle invalidate the cached
        // routes of pseudo-circuits at the affected routers: flush them
        // before any arrival can ride a stale circuit.
        if (faults_->takeTeardowns(teardownScratch_)) {
            for (const TeardownRequest &t : teardownScratch_) {
                if (routers_[t.router]->faultTeardown(t.inPort, now_))
                    faults_->noteChurnTeardown();
            }
        }
        if (stalls) {
            faultPending_.clear();
            faults_->drainStallQueues(now_, faultPending_);
            for (const LinkEvent &ev : faultPending_)
                dispatch(ev);
        }
    }

    // Phase 1: arrivals. Credits land before flits — a flit arriving in
    // the same cycle as a credit must see the updated counter, or e.g. a
    // buffer-bypass check would spuriously fail.
    {
        NOC_PROF_SCOPE(prof_, CreditReturn);
        ring_.forEachAt(now_, [&](const LinkEvent &ev) {
            if (ev.kind == LinkEvent::Kind::CreditToRouter ||
                ev.kind == LinkEvent::Kind::CreditToNi ||
                ev.kind == LinkEvent::Kind::LinkAck) {
                if (stalls && faults_->captureArrival(ev, now_))
                    return;
                dispatch(ev);
            }
        });
    }
    {
        NOC_PROF_SCOPE(prof_, LinkTraverse);
        ring_.forEachAt(now_, [&](const LinkEvent &ev) {
            if (ev.kind == LinkEvent::Kind::FlitToRouter ||
                ev.kind == LinkEvent::Kind::FlitToNi) {
                if (stalls && faults_->captureArrival(ev, now_))
                    return;
                dispatch(ev);
            }
        });
        ring_.releaseAt(now_);
    }

    // Phase 2: NI injection.
    {
        NOC_PROF_SCOPE(prof_, NiInject);
        for (auto &ni : nis_) {
            if (auto flit = ni->step(now_)) {
                NOC_VCHK(verifier_, onFlitInjected(ni->node(), *flit, now_));
                LinkEvent ev;
                ev.kind = LinkEvent::Kind::FlitToRouter;
                ev.router = topo_->nodeRouter(ni->node());
                ev.inPort = topo_->nodePort(ni->node());
                ev.flit = *flit;
                ring_.schedule(now_, now_ + 1 + cfg_.linkLatency, ev);
            }
        }
    }

    // Phase 3: routers.
    {
        NOC_PROF_SCOPE(prof_, RouterStep);
        stepRouters(stalls);
    }

    {
        NOC_PROF_SCOPE(prof_, VerifyHook);
        NOC_VCHK(verifier_, onCycleEnd(now_));
    }
#if NOC_PROFILE_ENABLED
    if (prof_)
        prof_->noteCycle();
#endif
    ++now_;
}

void
Network::stepRouters(bool stalls)
{
    std::uint64_t steps = 0;
    for (auto &router : routers_) {
        if (router->dormant())
            continue;   // at a fixed point: its step would be a no-op
        const RouterId r = router->id();
        if (stalls && faults_->routerStalled(r, now_))
            continue;   // frozen: no allocation, traversal, or emission
        router->step(now_);
        ++steps;

        for (const Router::SentFlit &sf : router->sentFlits) {
            const OutputChannel &chan = topo_->output(r, sf.outPort);
            LinkEvent ev;
            if (chan.isTerminal()) {
                ev.kind = LinkEvent::Kind::FlitToNi;
                ev.node = chan.terminal;
                ev.flit = sf.flit;
                ring_.schedule(now_, now_ + 1 + cfg_.linkLatency, ev);
            } else {
                // Protected links go through the retry machinery, which
                // schedules (or drops) the transmission itself.
                if (faults_ &&
                    faults_->handleSend(r, sf.outPort, sf.drop, sf.flit,
                                        now_))
                    continue;
                const Drop &drop = chan.drops[sf.drop];
                ev.kind = LinkEvent::Kind::FlitToRouter;
                ev.router = drop.router;
                ev.inPort = drop.inPort;
                ev.flit = sf.flit;
                ring_.schedule(now_,
                               now_ + 1 + cfg_.linkLatency * drop.distance,
                               ev);
            }
        }
        router->sentFlits.clear();

        for (const Router::SentCredit &sc : router->sentCredits) {
            const InputSource &src = topo_->input(r, sc.inPort);
            LinkEvent ev;
            if (src.isTerminal()) {
                ev.kind = LinkEvent::Kind::CreditToNi;
                ev.node = src.terminal;
                ev.vc = sc.vc;
                ring_.schedule(now_, now_ + 1 + cfg_.creditLatency, ev);
            } else if (sc.express) {
                const auto [up_router, up_port] = evcUpstream_[r][sc.inPort];
                NOC_ASSERT(up_router != kInvalidRouter,
                           "express credit with no two-hop upstream");
                ev.kind = LinkEvent::Kind::CreditToRouter;
                ev.router = up_router;
                ev.credit.outPort = up_port;
                ev.credit.drop = 0;
                ev.credit.vc = sc.vc;
                ev.credit.express = true;
                ring_.schedule(now_, now_ + 1 + cfg_.creditLatency * 2, ev);
            } else {
                ev.kind = LinkEvent::Kind::CreditToRouter;
                ev.router = src.router;
                ev.credit.outPort = src.outPort;
                ev.credit.drop = src.dropIndex;
                ev.credit.vc = sc.vc;
                ev.credit.express = false;
                ring_.schedule(now_,
                               now_ + 1 + cfg_.creditLatency * src.distance,
                               ev);
            }
        }
        router->sentCredits.clear();
    }
    routerSteps_ += steps;
}

std::string
Network::describeStall() const
{
    std::uint64_t queued = 0;
    for (const auto &ni : nis_)
        queued += ni->queueDepth();
    std::uint64_t buffered = 0;
    int busy_routers = 0;
    for (RouterId r = 0; r < static_cast<RouterId>(routers_.size()); ++r) {
        std::uint64_t here = 0;
        for (PortId p = 0; p < topo_->numInputPorts(r); ++p) {
            for (VcId v = 0; v < cfg_.numVcs; ++v)
                here += routers_[r]->inputVc(p, v).occupancy();
        }
        buffered += here;
        busy_routers += here > 0;
    }
    std::ostringstream os;
    os << outstanding_ << " packets outstanding, " << queued
       << " queued at NIs, " << buffered << " flits buffered in "
       << busy_routers << " routers, " << cyclesSinceProgress()
       << " cycles since progress";
    return os.str();
}

Network::Probe
Network::probe() const
{
    Probe p;
    for (const auto &ni : nis_) {
        p.niQueuedPackets += ni->queueDepth();
        if (const auto oldest = ni->oldestCreateTime())
            p.oldestCreate = std::min(p.oldestCreate, *oldest);
    }
    for (RouterId r = 0; r < static_cast<RouterId>(routers_.size()); ++r) {
        const Router &router = *routers_[r];
        std::uint64_t here = 0;
        for (PortId port = 0; port < topo_->numInputPorts(r); ++port) {
            for (VcId v = 0; v < cfg_.numVcs; ++v) {
                const InputVc &vc = router.inputVc(port, v);
                here += vc.occupancy();
                if (!vc.empty()) {
                    p.oldestCreate = std::min(p.oldestCreate,
                                              vc.front().flit.createTime);
                }
            }
        }
        p.bufferedFlits += here;
        if (here > p.hotOccupancy) {
            p.hotOccupancy = here;
            p.hotRouter = r;
        }
        for (PortId port = 0; port < router.numOutputPorts(); ++port) {
            const OutputPort &out = router.outputPort(port);
            if (!out.connected())
                continue;
            for (int d = 0; d < out.numDrops(); ++d) {
                for (VcId v = 0; v < out.numVcs(); ++v) {
                    p.creditsFree +=
                        static_cast<std::uint64_t>(out.vc(d, v).credits);
                }
            }
        }
    }
    return p;
}

void
Network::setTelemetry(TelemetrySink *sink)
{
    for (auto &router : routers_)
        router->setTelemetry(sink);
    ring_.setTelemetry(sink);
}

void
Network::setVerifier(InvariantChecker *chk)
{
    verifier_ = chk;
    for (auto &router : routers_)
        router->setVerifier(chk);
    if (chk)
        chk->attach(*this);
    if (faults_)
        faults_->bindVerifier(chk);
}

void
Network::setProfiler(PhaseProfiler *prof)
{
#if NOC_PROFILE_ENABLED
    prof_ = prof;
    for (auto &router : routers_)
        router->setProfiler(prof);
    if (prof && prof->config().memory) {
        for (const auto &router : routers_)
            prof->noteArena(router->arenaBytes(), router->arenaChunks());
    }
#else
    if (prof)
        NOC_FATAL("profiler requested but the profiling layer was compiled "
                  "out (reconfigure with -DNOC_PROFILE=ON)");
    (void)prof;
#endif
}

std::uint64_t
Network::arenaBytes() const
{
    std::uint64_t total = 0;
    for (const auto &router : routers_)
        total += router->arenaBytes();
    return total;
}

void
Network::drainCompleted(std::vector<CompletedPacket> &out)
{
    for (auto &ni : nis_) {
        out.insert(out.end(), ni->completed.begin(), ni->completed.end());
        ni->completed.clear();
    }
}

RouterStats
Network::aggregateRouterStats() const
{
    RouterStats total;
    for (const auto &router : routers_) {
        const RouterStats &s = router->stats();
        total.flitsArrived += s.flitsArrived;
        total.bufferWrites += s.bufferWrites;
        total.bufferReads += s.bufferReads;
        total.xbarTraversals += s.xbarTraversals;
        total.vaGrants += s.vaGrants;
        total.saGrants += s.saGrants;
        total.saBypasses += s.saBypasses;
        total.bufferBypasses += s.bufferBypasses;
        total.headTraversals += s.headTraversals;
        total.headSaBypasses += s.headSaBypasses;
        total.headBufferBypasses += s.headBufferBypasses;
        total.expressBypasses += s.expressBypasses;
        total.wastedGrants += s.wastedGrants;
        total.localityHeads += s.localityHeads;
        total.localityHits += s.localityHits;
    }
    return total;
}

PseudoCircuitStats
Network::aggregatePcStats() const
{
    PseudoCircuitStats total;
    for (const auto &router : routers_) {
        const PseudoCircuitStats &s = router->pcStats();
        total.created += s.created;
        total.terminatedConflict += s.terminatedConflict;
        total.terminatedCredit += s.terminatedCredit;
        total.terminatedFault += s.terminatedFault;
        total.speculated += s.speculated;
    }
    return total;
}

NiStats
Network::aggregateNiStats() const
{
    NiStats total;
    for (const auto &ni : nis_) {
        const NiStats &s = ni->stats();
        total.packetsInjected += s.packetsInjected;
        total.flitsInjected += s.flitsInjected;
        total.packetsReceived += s.packetsReceived;
        total.localityPackets += s.localityPackets;
        total.localityHits += s.localityHits;
    }
    return total;
}

// ===================== Sharded stepping path =====================
//
// Determinism argument, in brief (docs/architecture.md §16 has the full
// version): within one cycle no router touches another — every emission
// is scheduled >= 1 + latency cycles ahead — so the only cross-shard
// state is the event calendar itself. Each shard keeps its own calendar;
// boundary events travel through SPSC queues and are folded in at the
// window barrier, before any cycle that could observe them (the window
// never exceeds the minimum cross-shard flight time). Arrival buckets
// replay in the serial event order: credits first (they commute — pure
// counter increments; the serial loop already dispatches them in a
// separate pass), then flits sorted by (creation cycle, creator rank),
// which reconstructs the serial ring's FIFO insertion order because
// events with equal keys share one creator and one path and therefore
// arrive already in creation order.

void
Network::beginSharded(const ShardPlan &plan)
{
    NOC_ASSERT(!shard_, "already in sharded mode");
    NOC_ASSERT(!faults_, "sharded stepping excludes fault plans (v1)");
    NOC_ASSERT(now_ == 0, "sharded runs start at cycle 0");
    NOC_ASSERT(ring_.empty(), "sharded runs start on an empty ring");
    NOC_ASSERT(plan.numShards >= 1 &&
                   plan.shardOfRouter.size() == routers_.size() &&
                   plan.shardOfNode.size() == nis_.size(),
               "shard plan does not match this network");

    shard_ = std::make_unique<ShardRuntime>();
    shard_->plan = plan;

    for (int s = 0; s < plan.numShards; ++s) {
        auto sh = std::make_unique<ShardRuntime::PerShard>(eventHorizon(cfg_));

        // Queue capacity from the boundary cut: per cycle, each
        // cross-shard drop delivers at most one flit, and each
        // cross-shard credit path (including the EVC two-hop express
        // return) at most one credit per VC. Scaled by the window plus
        // slack so the bound is safely loose; overflow panics.
        std::size_t cross = 0;
        for (RouterId r = plan.routerBegin[s]; r < plan.routerEnd[s];
             ++r) {
            for (PortId p = 0; p < topo_->numOutputPorts(r); ++p) {
                const OutputChannel &chan = topo_->output(r, p);
                if (chan.isTerminal())
                    continue;
                for (const Drop &d : chan.drops) {
                    if (plan.shardOfRouter[static_cast<std::size_t>(
                            d.router)] != s)
                        ++cross;
                }
            }
            for (PortId p = 0; p < topo_->numInputPorts(r); ++p) {
                const InputSource &src = topo_->input(r, p);
                if (src.isTerminal())
                    continue;
                if (plan.shardOfRouter[static_cast<std::size_t>(
                        src.router)] != s)
                    cross += static_cast<std::size_t>(cfg_.numVcs);
                if (!evcUpstream_.empty()) {
                    const auto [up, up_port] = evcUpstream_[r][p];
                    (void)up_port;
                    if (up != kInvalidRouter &&
                        plan.shardOfRouter[static_cast<std::size_t>(
                            up)] != s)
                        cross += static_cast<std::size_t>(cfg_.numVcs);
                }
            }
        }
        const std::size_t cap =
            cross * (static_cast<std::size_t>(plan.window) + 2) + 64;
        sh->out = std::make_unique<SpscQueue<ShardRuntime::Msg>>(cap);
        shard_->shards.push_back(std::move(sh));
    }

    if (verifier_)
        verifier_->setConcurrent(true);
}

void
Network::shardStaging(bool on)
{
    NOC_ASSERT(shard_, "staging outside sharded mode");
    shard_->staging = on;
}

void
Network::shardStageCycle(Cycle cycle)
{
    NOC_ASSERT(shard_, "staging outside sharded mode");
    shard_->stageCycle = cycle;
}

void
Network::takeShardCompletions(std::vector<CompletedPacket> &out)
{
    NOC_ASSERT(shard_, "takeShardCompletions outside sharded mode");
    for (auto &sh : shard_->shards) {
        out.insert(out.end(), sh->completed.begin(), sh->completed.end());
        sh->completed.clear();
    }
}

void
Network::shardAdvance(int shard, Cycle from, Cycle to)
{
    NOC_ASSERT(to - from <= shard_->plan.window,
               "span exceeds the lookahead window");
    for (Cycle c = from; c < to; ++c)
        shardStepCycle(shard, c);
}

void
Network::shardStepCycle(int s, Cycle c)
{
    ShardRuntime::PerShard &sh =
        *shard_->shards[static_cast<std::size_t>(s)];
    const ShardPlan &plan = shard_->plan;

    // Staged injections for this cycle first — the serial loop ticks the
    // source before stepping the network. The staged list was appended
    // in serial tick order (cycle-major, node-ascending), so a linear
    // replay reproduces it, including per-NI RNG consumption order.
    while (sh.stagedIdx < sh.staged.size() &&
           sh.staged[sh.stagedIdx].cycle == c) {
        const PacketDesc &pkt = sh.staged[sh.stagedIdx].pkt;
        nis_[static_cast<std::size_t>(pkt.src)]->inject(pkt);
        ++sh.outstandingDelta;
        NOC_VCHK(verifier_, onPacketInjected(pkt, c));
        ++sh.stagedIdx;
    }

    // Phase 1: arrivals. Credits land before flits (same pass split as
    // step()); flits replay in the serial event order.
    sh.flitScratch.clear();
    sh.calendar.forEachAt(c, [&](const ShardRuntime::Event &se) {
        if (se.ev.kind == LinkEvent::Kind::CreditToRouter ||
            se.ev.kind == LinkEvent::Kind::CreditToNi)
            shardDispatch(s, c, se.ev);
        else
            sh.flitScratch.push_back(se);
    });
    sh.calendar.releaseAt(c);
    std::stable_sort(
        sh.flitScratch.begin(), sh.flitScratch.end(),
        [](const ShardRuntime::Event &a, const ShardRuntime::Event &b) {
            return a.sched != b.sched ? a.sched < b.sched
                                      : a.rank < b.rank;
        });
    for (const ShardRuntime::Event &se : sh.flitScratch)
        shardDispatch(s, c, se.ev);

    // Phase 2: NI injection (rank = node id, matching serial NI order).
    for (NodeId n = plan.nodeBegin[s]; n < plan.nodeEnd[s]; ++n) {
        NetworkInterface &ni = *nis_[static_cast<std::size_t>(n)];
        if (auto flit = ni.step(c)) {
            NOC_VCHK(verifier_, onFlitInjected(n, *flit, c));
            LinkEvent ev;
            ev.kind = LinkEvent::Kind::FlitToRouter;
            ev.router = topo_->nodeRouter(n);
            ev.inPort = topo_->nodePort(n);
            ev.flit = *flit;
            shardSchedule(s, c, c + 1 + cfg_.linkLatency, ev, n);
        }
    }

    // Phase 3: routers (rank = numNodes + router id; sentFlits order is
    // preserved by the stable sort above for same-rank events). Only
    // this shard's thread reads or writes its routers' dormancy flags.
    for (RouterId r = plan.routerBegin[s]; r < plan.routerEnd[s]; ++r) {
        Router &router = *routers_[static_cast<std::size_t>(r)];
        if (router.dormant())
            continue;
        router.step(c);
        ++sh.routerSteps;
        const std::int32_t rank =
            static_cast<std::int32_t>(nis_.size()) + r;

        for (const Router::SentFlit &sf : router.sentFlits) {
            const OutputChannel &chan = topo_->output(r, sf.outPort);
            LinkEvent ev;
            if (chan.isTerminal()) {
                ev.kind = LinkEvent::Kind::FlitToNi;
                ev.node = chan.terminal;
                ev.flit = sf.flit;
                shardSchedule(s, c, c + 1 + cfg_.linkLatency, ev, rank);
            } else {
                const Drop &drop = chan.drops[static_cast<std::size_t>(
                    sf.drop)];
                ev.kind = LinkEvent::Kind::FlitToRouter;
                ev.router = drop.router;
                ev.inPort = drop.inPort;
                ev.flit = sf.flit;
                shardSchedule(s, c,
                              c + 1 + cfg_.linkLatency * drop.distance,
                              ev, rank);
            }
        }
        router.sentFlits.clear();

        for (const Router::SentCredit &sc : router.sentCredits) {
            const InputSource &src = topo_->input(r, sc.inPort);
            LinkEvent ev;
            if (src.isTerminal()) {
                ev.kind = LinkEvent::Kind::CreditToNi;
                ev.node = src.terminal;
                ev.vc = sc.vc;
                shardSchedule(s, c, c + 1 + cfg_.creditLatency, ev, rank);
            } else if (sc.express) {
                const auto [up_router, up_port] =
                    evcUpstream_[static_cast<std::size_t>(r)][
                        static_cast<std::size_t>(sc.inPort)];
                NOC_ASSERT(up_router != kInvalidRouter,
                           "express credit with no two-hop upstream");
                ev.kind = LinkEvent::Kind::CreditToRouter;
                ev.router = up_router;
                ev.credit.outPort = up_port;
                ev.credit.drop = 0;
                ev.credit.vc = sc.vc;
                ev.credit.express = true;
                shardSchedule(s, c, c + 1 + cfg_.creditLatency * 2, ev,
                              rank);
            } else {
                ev.kind = LinkEvent::Kind::CreditToRouter;
                ev.router = src.router;
                ev.credit.outPort = src.outPort;
                ev.credit.drop = src.dropIndex;
                ev.credit.vc = sc.vc;
                ev.credit.express = false;
                shardSchedule(s, c,
                              c + 1 + cfg_.creditLatency * src.distance,
                              ev, rank);
            }
        }
        router.sentCredits.clear();
    }
}

void
Network::shardDispatch(int s, Cycle c, const LinkEvent &ev)
{
    ShardRuntime::PerShard &sh =
        *shard_->shards[static_cast<std::size_t>(s)];
    switch (ev.kind) {
      case LinkEvent::Kind::FlitToRouter:
        routers_[static_cast<std::size_t>(ev.router)]->deliverFlit(
            ev.inPort, ev.flit, c);
        sh.lastProgress = c;
        sh.progressed = true;
        break;
      case LinkEvent::Kind::FlitToNi: {
        sh.lastProgress = c;
        sh.progressed = true;
        NOC_VCHK(verifier_, onFlitEjected(ev.node, ev.flit, c));
        NetworkInterface &ni = *nis_[static_cast<std::size_t>(ev.node)];
        ni.receiveFlit(ev.flit, c);
        if (!ni.completed.empty()) {
            // Completions move to the shard immediately (nothing runs
            // drainCompleted mid-window); the Simulator merges them in
            // ejection order at the barrier.
            for (const CompletedPacket &p : ni.completed) {
                --sh.outstandingDelta;
                sh.completed.push_back(p);
            }
            ni.completed.clear();
        }
        LinkEvent credit;
        credit.kind = LinkEvent::Kind::CreditToRouter;
        credit.router = topo_->nodeRouter(ev.node);
        credit.credit.outPort = topo_->nodePort(ev.node);
        credit.credit.drop = 0;
        credit.credit.vc = ev.flit.vc;
        credit.credit.express = false;
        shardSchedule(s, c, c + 1 + cfg_.creditLatency, credit, 0);
        break;
      }
      case LinkEvent::Kind::CreditToRouter:
        routers_[static_cast<std::size_t>(ev.router)]->deliverCredit(
            ev.credit, c);
        break;
      case LinkEvent::Kind::CreditToNi:
        nis_[static_cast<std::size_t>(ev.node)]->addCredit(ev.vc);
        NOC_VCHK(verifier_, onNiCredit(ev.node, ev.vc, c));
        break;
      case LinkEvent::Kind::LinkAck:
        NOC_PANIC("LinkAck on the sharded path (faults run serial)");
    }
}

void
Network::shardSchedule(int s, Cycle now, Cycle when, const LinkEvent &ev,
                       std::int32_t rank)
{
    const ShardPlan &plan = shard_->plan;
    int target = s;
    if (ev.kind == LinkEvent::Kind::FlitToRouter ||
        ev.kind == LinkEvent::Kind::CreditToRouter)
        target = plan.shardOfRouter[static_cast<std::size_t>(ev.router)];
    // *ToNi events always stay local: terminal channels connect a
    // router to its own nodes, and nodes live with their router.

    ShardRuntime::PerShard &sh =
        *shard_->shards[static_cast<std::size_t>(s)];
    const ShardRuntime::Event se{ev, now, rank};
    if (target == s)
        sh.calendar.schedule(now, when, se);
    else
        sh.out->push({se, when});
}

void
Network::shardDrainQueues(Cycle up_to)
{
    const ShardPlan &plan = shard_->plan;
    for (int s = 0; s < plan.numShards; ++s) {
        ShardRuntime::Msg m;
        while (shard_->shards[static_cast<std::size_t>(s)]->out->pop(m)) {
            const int target = plan.shardOfRouter[static_cast<std::size_t>(
                m.se.ev.router)];
            EventRing<ShardRuntime::Event> &calendar =
                shard_->shards[static_cast<std::size_t>(target)]->calendar;
            NOC_ASSERT(m.when >= up_to &&
                           m.when - up_to < calendar.buckets(),
                       "cross-shard event outside the lookahead bound");
            calendar.insertAt(m.when, m.se);
        }
    }
}

void
Network::shardBarrier(Cycle up_to)
{
    NOC_ASSERT(shard_, "shardBarrier outside sharded mode");
    NOC_ASSERT(up_to > now_, "barrier must advance time");
    shardDrainQueues(up_to);

    for (auto &shp : shard_->shards) {
        ShardRuntime::PerShard &sh = *shp;
        if (sh.outstandingDelta != 0) {
            outstanding_ = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(outstanding_) +
                sh.outstandingDelta);
            sh.outstandingDelta = 0;
        }
        if (sh.progressed) {
            lastProgress_ = std::max(lastProgress_, sh.lastProgress);
            sh.progressed = false;
        }
        routerSteps_ += sh.routerSteps;
        sh.routerSteps = 0;
    }

    // One end-of-cycle verifier scan per window, against
    // barrier-consistent state, timed as the serial scan of the
    // window's last cycle would be.
    now_ = up_to - 1;
    NOC_VCHK(verifier_, onCycleEnd(now_));
    now_ = up_to;
}

void
Network::endSharded()
{
    NOC_ASSERT(shard_, "endSharded outside sharded mode");
    shardDrainQueues(now_);

    // Hand every pending calendar event back to the serial ring in the
    // order a serial run would hold it: per cycle, credits first (the
    // serial loop dispatches them in a separate pass anyway and they
    // commute), then flits by (creation cycle, creator rank).
    std::vector<ShardRuntime::Event> flits;
    for (std::size_t off = 0; off < ring_.buckets(); ++off) {
        const Cycle t = now_ + off;
        flits.clear();
        for (auto &sh : shard_->shards) {
            sh->calendar.forEachAt(t, [&](const ShardRuntime::Event &se) {
                if (se.ev.kind == LinkEvent::Kind::CreditToRouter ||
                    se.ev.kind == LinkEvent::Kind::CreditToNi)
                    ring_.insertAt(t, se.ev);
                else
                    flits.push_back(se);
            });
            sh->calendar.releaseAt(t);
        }
        std::stable_sort(
            flits.begin(), flits.end(),
            [](const ShardRuntime::Event &a,
               const ShardRuntime::Event &b) {
                return a.sched != b.sched ? a.sched < b.sched
                                          : a.rank < b.rank;
            });
        for (const ShardRuntime::Event &se : flits)
            ring_.insertAt(t, se.ev);
    }

    for (const auto &sh : shard_->shards)
        shardCalendarSlots_ += sh->calendar.slots();

    if (verifier_)
        verifier_->setConcurrent(false);
    shard_.reset();
}

} // namespace noc
