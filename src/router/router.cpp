#include "router/router.hpp"

#include "common/log.hpp"
#include "router/kernels.hpp"
#include "router/router_pipeline.hpp"
#include "routing/routing.hpp"
#include "topology/topology.hpp"
#include "verify/verify.hpp"

namespace noc {

namespace {

/** Kernel selection at construction: a specialized kernel when the
 *  factory has one for this configuration, else the generic one. */
const RouterOps &
chooseOps(const SimConfig &cfg, const RoutingAlgorithm &routing)
{
    const RouterOps *ops = selectRouterOps(cfg, routing);
    return ops != nullptr ? *ops : routerOpsFor<GenericPolicy>();
}

/** Exact flit-storage demand of router `id`: one [vc][slot] block per
 *  input port, plus the alignment slack of the single arena chunk. */
std::size_t
flitStorageBytes(const SimConfig &cfg, const Topology &topo, RouterId id)
{
    return static_cast<std::size_t>(topo.numInputPorts(id)) *
               static_cast<std::size_t>(cfg.numVcs) *
               static_cast<std::size_t>(cfg.bufferDepth) *
               sizeof(BufferedFlit) +
           alignof(BufferedFlit);
}

void
checkMaskLimit(RouterId id, const char *what, int count)
{
    if (count > kMaxMaskBits)
        NOC_FATAL("router " + std::to_string(id) + ": " +
                  std::to_string(count) + " " + what +
                  " exceed the limit of " + std::to_string(kMaxMaskBits) +
                  " " + what);
}

} // namespace

Router::Router(const SimConfig &cfg, const Topology &topo,
               const RoutingAlgorithm &routing, RouterId id)
    : cfg_(cfg), topo_(topo), routing_(routing), id_(id),
      ops_(&chooseOps(cfg, routing)),
      arena_(flitStorageBytes(cfg, topo, id)),
      pc_(topo.numInputPorts(id), topo.numOutputPorts(id),
          cfg.pcHistoryDepth),
      va_(cfg.vaPolicy),
      sa_(topo.numInputPorts(id), topo.numOutputPorts(id), cfg.numVcs)
{
    const int num_in = topo.numInputPorts(id);
    const int num_out = topo.numOutputPorts(id);
    checkMaskLimit(id, "VCs per port", cfg.numVcs);
    checkMaskLimit(id, "input ports", num_in);
    checkMaskLimit(id, "output ports", num_out);

    inputs_.reserve(num_in);
    for (int p = 0; p < num_in; ++p)
        inputs_.emplace_back(cfg.numVcs, cfg.bufferDepth, arena_);

    outputs_.reserve(num_out);
    for (int p = 0; p < num_out; ++p) {
        const OutputChannel &chan = topo.output(id, p);
        const int drops = chan.isTerminal()
            ? 1
            : static_cast<int>(chan.drops.size());
        outputs_.emplace_back(drops, cfg.numVcs, cfg.bufferDepth);
    }

    if (evcEnabled()) {
        evc_ = EvcUnit(cfg, topo);
        for (int p = 0; p < num_out; ++p) {
            if (topo.output(id, p).isTerminal())
                continue;
            if (evc_.twoHopSink(id, p) != kInvalidRouter) {
                outputs_[p].initExpress(evc_.expressBase(),
                                        evc_.numExpress(), cfg.bufferDepth);
            }
        }
    }

    pendingGrants_.reserve(num_out);
    bypassLatch_.resize(num_in);
    expressLatch_.resize(num_in);
    occ_.assign(num_in, 0);
    lastOutPort_.assign(num_in, kInvalidPort);
}

bool
Router::pendingUsesInput(PortId in_port) const
{
    for (const SaGrant &g : pendingGrants_) {
        if (g.inPort == in_port)
            return true;
    }
    return false;
}

bool
Router::pendingUsesOutput(PortId out_port) const
{
    for (const SaGrant &g : pendingGrants_) {
        if (g.outPort == out_port)
            return true;
    }
    return false;
}

void
Router::deliverCredit(const Credit &credit, Cycle now)
{
    // Credit loss injection lives in the fault layer now: the network
    // consults FaultController::dropCredit() before calling here.
    dormant_ = false;
    OutputPort &op = outputs_[credit.outPort];
    if (credit.express) {
        ++op.expressVc(credit.vc).credits;
        NOC_ASSERT(op.expressVc(credit.vc).credits <= cfg_.bufferDepth,
                   "express credit overflow");
    } else {
        op.addCredit(credit.drop, credit.vc);
        NOC_ASSERT(op.vc(credit.drop, credit.vc).credits <= cfg_.bufferDepth,
                   "credit overflow");
    }
    NOC_VCHK(vchk_, onCreditReturned(id_, credit.outPort, credit.drop,
                                     credit.vc, credit.express, now));
}

bool
Router::faultTeardown(PortId in_port, Cycle now)
{
    dormant_ = false;
    if (!pcEnabled())
        return false;
    return pc_.terminateForFault(in_port, now);
}

void
Router::wakeCatchUp(Cycle now)
{
    // A dormant step only advances vaRotate_ (the fixed-point argument
    // in stepT), so catching up the skipped ones is a modular add.
    const Cycle total =
        static_cast<Cycle>(numInputPorts()) * static_cast<Cycle>(numVcs());
    if (total > 0 && now > sleptAt_ + 1) {
        const Cycle skipped = now - sleptAt_ - 1;
        vaRotate_ = static_cast<int>(
            (static_cast<Cycle>(vaRotate_) + skipped % total) % total);
    }
    sleptAt_ = kNeverCycle;
    dormant_ = false;
}

void
Router::creditTerminations(Cycle now)
{
    // §3.C condition 2: a circuit towards a congested output (no credit
    // left on any VC of its drop) is torn down so backpressure can
    // propagate. A circuit in the middle of streaming a packet is left
    // alone during *transient* credit dips from the credit round trip —
    // its flits simply wait, and the arrival-time check in
    // tryBufferBypass() (§4.B) still terminates it if a latched flit
    // would have nowhere to land.
    for (PortId in = 0; in < numInputPorts(); ++in) {
        const PseudoCircuitUnit::Register &reg = pc_.at(in);
        if (!reg.valid)
            continue;
        const OutputPort &op = outputs_[reg.route.outPort];
        const InputVc &vc = inputs_[in].vc(reg.inVc);
        const bool streaming = vc.state() == InputVc::State::Active &&
            vc.route() == reg.route && !vc.outVcExpress();
        if (!streaming && !op.anyCredit(reg.route.drop, 0, cfg_.numVcs))
            pc_.terminateForCredit(in, now);
    }
}

void
Router::speculate(Cycle now)
{
    for (PortId o = 0; o < numOutputPorts(); ++o) {
        if (!outputs_[o].connected())
            continue;
        const PortId in = pc_.speculationCandidate(o);
        if (in == kInvalidPort)
            continue;
        // §4.A: never speculate towards a congested downstream router.
        if (!outputs_[o].anyCredit(pc_.at(in).route.drop, 0, cfg_.numVcs))
            continue;
        pc_.revive(in, now);
    }
}

void
Router::traverseExpress(PortId in_port, Flit flit, Cycle now)
{
    usedIn_ |= 1ull << in_port;
    usedOut_ |= 1ull << flit.route.outPort;
    ++stats_.xbarTraversals;
    emitTelem(TelemetryEventClass::SwitchTraverse, now, in_port, flit.vc);
    ++stats_.expressBypasses;
    emitTelem(TelemetryEventClass::ExpressBypass, now, in_port, flit.vc);
    if (isHead(flit.type)) {
        ++stats_.headTraversals;
        noteLocality(in_port, flit.route.outPort);
    }

    NOC_ASSERT(flit.evcHopsLeft > 0, "express traversal without hops left");
    const OutputChannel &chan = topo_.output(id_, flit.route.outPort);
    NOC_ASSERT(!chan.isTerminal() && chan.isConnected(),
               "express flit routed off the dimension");

    --flit.evcHopsLeft;
    ++flit.hops;
    const RouteDecision cur = flit.route;
    const RouterId next = chan.drops[cur.drop].router;
    flit.route = routing_.route(next, flit.dst, flit.cls);
    sentFlits.push_back({cur.outPort, cur.drop, flit});
    // No credits here: the flit was never buffered at this router.
}

void
Router::noteLocality(PortId in_port, PortId out_port)
{
    ++stats_.localityHeads;
    if (lastOutPort_[in_port] == out_port)
        ++stats_.localityHits;
    lastOutPort_[in_port] = out_port;
}

} // namespace noc
