/**
 * @file
 * Policy types and member-template definitions of the router pipeline.
 *
 * This header is the single source of truth for the router's cycle
 * behaviour. It is included only by the translation units that
 * instantiate kernels (router.cpp for the generic kernel, the
 * router/kernels_*.cpp files for the specialized ones); everything else
 * uses router.hpp.
 *
 * Every policy runs the same allocation code: VA and SA walk the VC
 * occupancy masks (one uint64 per input port plus a port summary), so a
 * router holds at most 64 VCs, 64 input ports and 64 output ports
 * (fatal past that, router.cpp). The policies differ only in what they
 * decide at compile time:
 *
 *  - GenericPolicy resolves every decision at runtime: scheme
 *    predicates read the config and routing goes through the virtual
 *    RoutingAlgorithm interface. It handles every configuration (EVC,
 *    MECS, FBFLY, fault and churn plans) and never goes dormant, which
 *    makes it the parity reference.
 *
 *  - FastPolicy<Scheme, RoutePolicy> folds the scheme to compile-time
 *    constants (dead feature code is removed by `if constexpr` /
 *    constant propagation), devirtualizes routing through an inlined
 *    route policy (routing/policies.hpp), and lets idle routers go
 *    dormant (kSpecialized). No EVC, no fault layer (enforced by the
 *    kernel factory, router/kernels.hpp).
 *
 * Parity contract: for any sequence of deliverFlit/deliverCredit/step
 * calls, every policy produces identical router state, stats,
 * telemetry events (same order), verifier callbacks and sent
 * flits/credits, except that a dormant specialized router skips steps
 * that would change nothing but the VA rotation (caught up on wake).
 */

#ifndef NOC_ROUTER_ROUTER_PIPELINE_HPP
#define NOC_ROUTER_ROUTER_PIPELINE_HPP

#include <string>

#include "common/log.hpp"
#include "router/router.hpp"
#include "routing/routing.hpp"
#include "topology/topology.hpp"
#include "verify/verify.hpp"

namespace noc {

/** Kernel-label fragment for a scheme. */
inline const char *
schemeSlug(Scheme s)
{
    switch (s) {
      case Scheme::Baseline: return "baseline";
      case Scheme::Pseudo:   return "pseudo";
      case Scheme::PseudoS:  return "pseudo-s";
      case Scheme::PseudoB:  return "pseudo-b";
      case Scheme::PseudoSB: return "pseudo-sb";
      case Scheme::Evc:      return "evc";
    }
    return "?";
}

/** The runtime-dispatched kernel policy (see file comment). */
struct GenericPolicy
{
    static constexpr bool kEvcPossible = true;
    static constexpr bool kSpecialized = false;

    static bool pc(const Router &r) { return r.pcEnabled(); }
    static bool spec(const Router &r) { return r.specEnabled(); }
    static bool bb(const Router &r) { return r.bbEnabled(); }
    static bool evc(const Router &r) { return r.evcEnabled(); }

    static RouteDecision
    route(const Router &r, RouterId at, NodeId dst, int cls)
    {
        return r.routing_.route(at, dst, cls);
    }

    static std::pair<VcId, int>
    vcRangeAt(const Router &r, NodeId src, NodeId dst, int cls)
    {
        return r.routing_.vcRangeAt(r.id_, src, dst, cls, r.cfg_.numVcs);
    }

    static std::string kernelName() { return "generic"; }
};

/** A compile-time-specialized kernel policy (see file comment). */
template <Scheme S, typename RP>
struct FastPolicy
{
    static constexpr bool kEvcPossible = false;
    static constexpr bool kSpecialized = true;

    static constexpr bool
    pc(const Router &)
    {
        return S == Scheme::Pseudo || S == Scheme::PseudoS ||
               S == Scheme::PseudoB || S == Scheme::PseudoSB;
    }
    static constexpr bool
    spec(const Router &)
    {
        return S == Scheme::PseudoS || S == Scheme::PseudoSB;
    }
    static constexpr bool
    bb(const Router &)
    {
        return S == Scheme::PseudoB || S == Scheme::PseudoSB;
    }
    static constexpr bool evc(const Router &) { return false; }

    /** The concrete routing object; exact dynamic type was verified by
     *  the kernel factory with typeid before this policy was chosen. */
    static const typename RP::Algo &
    algo(const Router &r)
    {
        return static_cast<const typename RP::Algo &>(r.routing_);
    }

    static RouteDecision
    route(const Router &r, RouterId at, NodeId dst, int cls)
    {
        return RP::route(algo(r), at, dst, cls);
    }

    static std::pair<VcId, int>
    vcRangeAt(const Router &r, NodeId src, NodeId dst, int cls)
    {
        return RP::vcRangeAt(algo(r), r.id_, src, dst, cls, r.cfg_.numVcs);
    }

    static std::string
    kernelName()
    {
        return std::string(RP::kName) + "/" + schemeSlug(S);
    }
};

/** The function table binding Router's entry points to one policy. */
template <typename P>
const RouterOps &
routerOpsFor()
{
    static const RouterOps ops{
        P::kernelName(),
        P::kSpecialized,
        [](Router &r, PortId in_port, const Flit &flit, Cycle now) {
            r.template deliverFlitT<P>(in_port, flit, now);
        },
        [](Router &r, Cycle now) { r.template stepT<P>(now); },
    };
    return ops;
}

// ---------------------------------------------------------------------
// Pipeline member templates
// ---------------------------------------------------------------------

template <typename P>
std::pair<VcId, int>
Router::vaRangeT(const Flit &head) const
{
    if (P::evc(*this))
        return {0, evc_.numNormal()};
    return P::vcRangeAt(*this, head.src, head.dst, head.cls);
}

template <typename P>
void
Router::deliverFlitT(PortId in_port, const Flit &flit, Cycle now)
{
    dormant_ = false;
    ++stats_.flitsArrived;
    NOC_ASSERT(flit.vc >= 0 && flit.vc < cfg_.numVcs, "flit VC out of range");

    if (P::evc(*this) && flit.evcHopsLeft > 0) {
        // Express flits pass through the latch this very cycle (§7.B).
        NOC_ASSERT(!expressLatch_[in_port].has_value(),
                   "two flits on one input port in one cycle");
        expressLatch_[in_port] = flit;
        return;
    }

    if (P::bb(*this) && tryBufferBypassT<P>(in_port, flit, now))
        return;

    InputVc &vc = inputs_[in_port].vc(flit.vc);
    vc.enqueue(flit, now + 1, cfg_.bufferDepth);   // BW occupies this cycle
    occ_[in_port] |= 1ull << flit.vc;
    occPorts_ |= 1ull << in_port;
    ++stats_.bufferWrites;
    emitTelem(TelemetryEventClass::BufferWrite, now, in_port, flit.vc);
}

template <typename P>
VcId
Router::independentVaT(const Flit &head, const RouteDecision &route)
{
    const auto [base, count] = vaRangeT<P>(head);
    OutputPort &op = outputs_[route.outPort];
    const VcId w = va_.choose(op, route.drop, base, count, head.dst);
    if (w == kInvalidVc || op.vc(route.drop, w).credits <= 0)
        return kInvalidVc;
    return w;
}

template <typename P>
bool
Router::tryBufferBypassT(PortId in_port, const Flit &flit, Cycle now)
{
    const PseudoCircuitUnit::Register &reg = pc_.at(in_port);
    if (!reg.valid || reg.inVc != flit.vc)
        return false;
    InputVc &vc = inputs_[in_port].vc(flit.vc);
    if (!vc.empty())
        return false;
    NOC_ASSERT(!bypassLatch_[in_port].has_value(),
               "bypass latch already holds a flit");
    // A switch grant scheduled for this cycle claims the crossbar port.
    if (pendingUsesInput(in_port) || pendingUsesOutput(reg.route.outPort))
        return false;

    OutputPort &op = outputs_[reg.route.outPort];
    if (isHead(flit.type)) {
        if (vc.state() != InputVc::State::Idle)
            return false;
        if (!(flit.route == reg.route))
            return false;
        const VcId w = independentVaT<P>(flit, reg.route);
        if (w == kInvalidVc)
            return false;
        vc.startPacket(flit.route);
        op.allocate(reg.route.drop, w, in_port, flit.vc);
        vc.activate(w, /*express=*/false);
        ++stats_.vaGrants;
        emitTelem(TelemetryEventClass::VaGrant, now, in_port, flit.vc);
    } else {
        if (vc.state() != InputVc::State::Active)
            return false;
        if (!(vc.route() == reg.route) || vc.outVcExpress())
            return false;
        if (op.vc(reg.route.drop, vc.outVc()).credits <= 0) {
            // §4.B: output out of credit before the flit arrives — the
            // circuit is terminated and the latch turned off.
            pc_.terminateForCredit(in_port, now);
            return false;
        }
    }
    bypassLatch_[in_port] = flit;
    return true;
}

/**
 * One router cycle. Specialized kernels also decide dormancy here: a
 * step that ends with no buffered flit (occPorts_ == 0; latches always
 * drain within the step), no pending grant, nothing sent and no
 * pseudo-circuit register changed has left every piece of state that
 * step() reads unchanged except vaRotate_. The next step therefore
 * repeats it exactly — credit-termination and speculation scans find
 * the same nothing — until a mutator wakes the router, so the Network
 * may skip it, and the first executed step catches vaRotate_ up. The
 * generic kernel carries none of this bookkeeping and never sleeps, so
 * it stays the non-sleeping parity reference.
 */
template <typename P>
void
Router::stepT(Cycle now)
{
    [[maybe_unused]] std::uint64_t pc_changes = 0;
    if constexpr (P::kSpecialized) {
        if (sleptAt_ != kNeverCycle)
            wakeCatchUp(now);
        pc_changes = pc_.stats().registerChanges();
    }
#if NOC_PROFILE_ENABLED
    // Latch the fine profiler once per step: null on non-sampled cycles,
    // so every scope below degrades to a single pointer test.
    fineProf_ = prof_ ? prof_->fine() : nullptr;
#endif
    {
        NOC_PROF_SCOPE(fineProf_, SwitchTraversal);
        switchPhaseT<P>(now);
    }
    allocationPhaseT<P>(now);
    if constexpr (P::kSpecialized) {
        if (occPorts_ == 0 && pendingGrants_.empty() && sentFlits.empty() &&
            sentCredits.empty() &&
            pc_.stats().registerChanges() == pc_changes) {
            dormant_ = true;
            sleptAt_ = now;
        }
    }
}

template <typename P>
void
Router::switchPhaseT(Cycle now)
{
    usedIn_ = 0;
    usedOut_ = 0;

    // 1. EVC express latches — highest priority, preempting local grants.
    if constexpr (P::kEvcPossible) {
        for (PortId in = 0; in < numInputPorts(); ++in) {
            if (!expressLatch_[in].has_value())
                continue;
            Flit flit = *expressLatch_[in];
            expressLatch_[in].reset();
            NOC_ASSERT(!((usedIn_ >> in | usedOut_ >> flit.route.outPort) & 1),
                       "express flits collided in the crossbar");
            traverseExpress(in, flit, now);
        }
    }

    // 2. Switch grants from last cycle's allocation.
    for (const SaGrant &g : pendingGrants_) {
        if ((usedIn_ >> g.inPort | usedOut_ >> g.outPort) & 1) {
            ++stats_.wastedGrants;   // preempted by an express flit
            continue;
        }
        InputVc &vc = inputs_[g.inPort].vc(g.inVc);
        NOC_ASSERT(vc.state() == InputVc::State::Active,
                   "switch grant for an inactive VC");
        NOC_ASSERT(vc.frontReady(now), "switch grant for an absent flit");
        const RouteDecision route = vc.route();
        NOC_ASSERT(route.outPort == g.outPort, "grant/route mismatch");
        const VcId out_vc = vc.outVc();
        const bool express_out = vc.outVcExpress();
        const Flit flit = dequeueTracked(g.inPort, g.inVc);
        traverseT<P>(g.inPort, flit, route, out_vc, express_out,
                     /*from_buffer=*/true, now);
    }
    pendingGrants_.clear();

    // 3. Buffer-bypass latches (validated at arrival this cycle).
    for (PortId in = 0; in < numInputPorts(); ++in) {
        if (!bypassLatch_[in].has_value())
            continue;
        Flit flit = *bypassLatch_[in];
        bypassLatch_[in].reset();
        InputVc &vc = inputs_[in].vc(flit.vc);
        NOC_ASSERT(vc.state() == InputVc::State::Active,
                   "latched flit on an inactive VC");
        const RouteDecision route = vc.route();
        NOC_ASSERT(!((usedIn_ >> in | usedOut_ >> route.outPort) & 1),
                   "bypass latch lost its crossbar slot");
        const VcId out_vc = vc.outVc();
        vc.noteBypassedFlit(flit);
        ++stats_.bufferBypasses;
        pc_.noteReuse(in, /*via_latch=*/true, now);
        NOC_VCHK(vchk_, onPcReuse(id_, in, flit.vc, route, flit,
                                  /*via_latch=*/true, now));
        if (isHead(flit.type))
            ++stats_.headBufferBypasses;
        traverseT<P>(in, flit, route, out_vc, /*express_out=*/false,
                     /*from_buffer=*/false, now);
    }

    // 4. Pseudo-circuit reuse straight from the buffers (SA bypass, §3.B).
    if (!P::pc(*this))
        return;
    for (PortId in = 0; in < numInputPorts(); ++in) {
        const PseudoCircuitUnit::Register &reg = pc_.at(in);
        if (!reg.valid)
            continue;
        if ((usedIn_ >> in | usedOut_ >> reg.route.outPort) & 1)
            continue;
        InputVc &vc = inputs_[in].vc(reg.inVc);
        if (!vc.frontReady(now))
            continue;
        const Flit &front = vc.front().flit;

        VcId out_vc = kInvalidVc;
        if (vc.state() == InputVc::State::WaitingVa) {
            // Head reusing the circuit; VA runs independently (§3.B).
            NOC_ASSERT(isHead(front.type), "WaitingVa without a head");
            if (!(front.route == reg.route))
                continue;
            out_vc = independentVaT<P>(front, reg.route);
            if (out_vc == kInvalidVc)
                continue;
            outputs_[reg.route.outPort].allocate(reg.route.drop, out_vc,
                                                 in, reg.inVc);
            vc.activate(out_vc, /*express=*/false);
            ++stats_.vaGrants;
            emitTelem(TelemetryEventClass::VaGrant, now, in, reg.inVc);
        } else if (vc.state() == InputVc::State::Active) {
            if (!(vc.route() == reg.route) || vc.outVcExpress())
                continue;
            if (outputs_[reg.route.outPort]
                    .vc(reg.route.drop, vc.outVc()).credits <= 0) {
                // §3.C: a flit attempting a circuit whose output has no
                // credit terminates it ("the circuit guarantees credit
                // availability"); speculation may revive it once the
                // congestion clears.
                pc_.terminateForCredit(in, now);
                continue;
            }
            out_vc = vc.outVc();
        } else {
            continue;
        }

        const RouteDecision route = vc.route();
        const Flit flit = dequeueTracked(in, reg.inVc);
        ++stats_.saBypasses;
        pc_.noteReuse(in, /*via_latch=*/false, now);
        NOC_VCHK(vchk_, onPcReuse(id_, in, reg.inVc, route, flit,
                                  /*via_latch=*/false, now));
        if (isHead(flit.type))
            ++stats_.headSaBypasses;
        traverseT<P>(in, flit, route, out_vc, /*express_out=*/false,
                     /*from_buffer=*/true, now);
    }
}

template <typename P>
void
Router::processSaGrantT(const SaGrant &g, Cycle now)
{
    if (g.speculative) {
        ++stats_.wastedGrants;   // VA failed: crossbar slot wasted
        return;
    }
    ++stats_.saGrants;
    emitTelem(TelemetryEventClass::SaGrant, now, g.inPort, g.inVc);
    if (P::pc(*this))
        pc_.onGrant(g.inPort, g.inVc,
                    inputs_[g.inPort].vc(g.inVc).route(), now);
    NOC_VCHK(vchk_, onSaGrant(id_, g.inPort, g.inVc,
                              inputs_[g.inPort].vc(g.inVc).route(),
                              now));
    pendingGrants_.push_back(g);
}

template <typename P>
void
Router::allocationPhaseT(Cycle now)
{
    {
        NOC_PROF_SCOPE(fineProf_, VcAlloc);
        vaPhaseT<P>(now);
    }
    NOC_PROF_SCOPE(fineProf_, SwitchAlloc);
    saPhaseT<P>(now);
}

/** The VA half of the allocation phase (split out so the profiler can
 *  scope VA and SA separately). */
template <typename P>
void
Router::vaPhaseT(Cycle now)
{
    const int num_vcs = cfg_.numVcs;
    const int total = numInputPorts() * num_vcs;

    // --- VA, in rotating (in, vc) order for fairness ---
    vaRotate_ = total > 0 ? (vaRotate_ + 1) % total : 0;
    if (occPorts_ == 0)
        return;
    // The scan "(vaRotate_ + k) % total, k = 0..total-1" over slots
    // in * num_vcs + vc, restricted to occupied VCs (empty ones cannot
    // pass frontReady, so skipping them is invisible): the start port's
    // VCs from the start VC up, every later port, every earlier port,
    // then the start port's VCs below the start VC.
    const PortId p0 = vaRotate_ / num_vcs;
    const std::uint64_t low = (1ull << (vaRotate_ % num_vcs)) - 1;
    const auto visit = [&](PortId in, std::uint64_t vcs) {
        for (; vcs != 0; vcs &= vcs - 1) {
            const VcId v = lowestSetBit(vcs);
            InputVc &vc = inputs_[in].vc(v);
            if (vc.state() == InputVc::State::WaitingVa &&
                vc.frontReady(now))
                doVaT<P>(in, v, now);
        }
    };
    visit(p0, occ_[p0] & ~low);
    const std::uint64_t later = occPorts_ & ~((2ull << p0) - 1);
    const std::uint64_t earlier = occPorts_ & ((1ull << p0) - 1);
    for (std::uint64_t m : {later, earlier}) {
        for (; m != 0; m &= m - 1) {
            const PortId in = lowestSetBit(m);
            visit(in, occ_[in]);
        }
    }
    visit(p0, occ_[p0] & low);
}

/** The SA half of the allocation phase: speculative switch allocation,
 *  then circuit credit-terminations and speculation. */
template <typename P>
void
Router::saPhaseT(Cycle now)
{
    // --- speculative SA ---
    const auto request = [&](PortId in, VcId v, bool &speculative) {
        const InputVc &vc = inputs_[in].vc(v);
        if (!vc.frontReady(now))
            return kInvalidPort;
        // Flits that will ride the standing pseudo-circuit do not
        // request SA at all (§3.B: "the following flits coming to the
        // same VC can bypass SA until the circuit is terminated") —
        // which also frees the allocator for other VCs at this input.
        if (willUseCircuitT<P>(in, v))
            return kInvalidPort;
        const RouteDecision &r = vc.route();
        if (vc.state() == InputVc::State::Active) {
            const int credits = vc.outVcExpress()
                ? outputs_[r.outPort].expressVc(vc.outVc()).credits
                : outputs_[r.outPort].vc(r.drop, vc.outVc()).credits;
            if (credits <= 0) {
                // SA arbitrates on credit availability
                emitTelem(TelemetryEventClass::CreditStall, now, in, v);
                return kInvalidPort;
            }
            return r.outPort;
        }
        if (vc.state() == InputVc::State::WaitingVa) {
            // Head whose VA just failed: speculative request.
            speculative = true;
            return r.outPort;
        }
        return kInvalidPort;
    };
    sa_.allocate(occ_.data(), occPorts_, request,
                 [&](const SaGrant &g) { processSaGrantT<P>(g, now); });

    if (P::pc(*this))
        creditTerminations(now);
    if (P::spec(*this))
        speculate(now);
}

template <typename P>
void
Router::doVaT(PortId in_port, VcId in_vc, Cycle now)
{
    InputVc &vc = inputs_[in_port].vc(in_vc);
    const Flit &head = vc.front().flit;
    NOC_ASSERT(isHead(head.type), "VA requested by a non-head flit");
    const RouteDecision &route = vc.route();
    OutputPort &op = outputs_[route.outPort];
    NOC_ASSERT(op.connected(), "VA towards an unconnected output");

    // EVC: express VCs are preferred whenever the packet still travels at
    // least lmax hops in this dimension.
    if (P::evc(*this) && op.hasExpress() &&
        evc_.eligible(id_, head.dst, route)) {
        VcId best = kInvalidVc;
        int best_credits = -1;
        for (VcId w = evc_.expressBase(); w < cfg_.numVcs; ++w) {
            const OutputVcState &s = op.expressVc(w);
            if (!s.owned && s.credits > best_credits) {
                best = w;
                best_credits = s.credits;
            }
        }
        if (best != kInvalidVc) {
            OutputVcState &s = op.expressVc(best);
            s.owned = true;
            s.ownerPort = in_port;
            s.ownerVc = in_vc;
            vc.activate(best, /*express=*/true);
            ++stats_.vaGrants;
            emitTelem(TelemetryEventClass::VaGrant, now, in_port, in_vc);
            return;
        }
    }

    // Failed-VA memo: while the target port's version is unchanged since
    // this head last failed, choose() would fail again — skip it. This is
    // behaviour-preserving (not just faster): the memo is set only on
    // failure, and every mutation that can flip failure to success bumps
    // the port version.
    if (vc.vaFailStamp() == op.version())
        return;
    const auto [base, count] = vaRangeT<P>(head);
    const VcId w = va_.choose(op, route.drop, base, count, head.dst);
    if (w == kInvalidVc) {
        vc.setVaFailStamp(op.version());
        return;
    }
    op.allocate(route.drop, w, in_port, in_vc);
    vc.activate(w, /*express=*/false);
    ++stats_.vaGrants;
    emitTelem(TelemetryEventClass::VaGrant, now, in_port, in_vc);
}

template <typename P>
bool
Router::willUseCircuitT(PortId in_port, VcId in_vc) const
{
    if (!P::pc(*this))
        return false;
    const PseudoCircuitUnit::Register &reg = pc_.at(in_port);
    if (!reg.valid || reg.inVc != in_vc)
        return false;
    const InputVc &vc = inputs_[in_port].vc(in_vc);
    if (vc.state() == InputVc::State::Active) {
        return vc.route() == reg.route && !vc.outVcExpress() &&
            outputs_[reg.route.outPort]
                    .vc(reg.route.drop, vc.outVc()).credits > 0;
    }
    if (vc.state() == InputVc::State::WaitingVa) {
        if (!(vc.front().flit.route == reg.route))
            return false;
        // The head can take the circuit only if its independent VA can
        // succeed right now; otherwise fall back to the normal pipeline.
        const auto [base, count] = vaRangeT<P>(vc.front().flit);
        if (cfg_.vaPolicy == VaPolicy::Static) {
            const VcId w =
                VcAllocator::staticVc(base, count, vc.front().flit.dst);
            const OutputVcState &s =
                outputs_[reg.route.outPort].vc(reg.route.drop, w);
            return !s.owned && s.credits > 0;
        }
        return outputs_[reg.route.outPort].anyFreeCreditedVc(
            reg.route.drop, base, count);
    }
    return false;
}

template <typename P>
void
Router::traverseT(PortId in_port, Flit flit, const RouteDecision &route,
                  VcId out_vc, bool express_out, bool from_buffer,
                  Cycle now)
{
    usedIn_ |= 1ull << in_port;
    usedOut_ |= 1ull << route.outPort;
    ++stats_.xbarTraversals;
    emitTelem(TelemetryEventClass::SwitchTraverse, now, in_port, flit.vc);
    if (from_buffer)
        ++stats_.bufferReads;
    if (isHead(flit.type)) {
        ++stats_.headTraversals;
        noteLocality(in_port, route.outPort);
    }

    OutputPort &op = outputs_[route.outPort];
    NOC_ASSERT(op.connected(), "switch traversal to unconnected output");
    const OutputChannel &chan = topo_.output(id_, route.outPort);
    const VcId in_vc = flit.vc;

    if (express_out) {
        // EVC source: consume an express credit of the two-hop sink.
        OutputVcState &s = op.expressVc(out_vc);
        NOC_ASSERT(s.credits > 0, "express flit sent without credit");
        --s.credits;
        NOC_VCHK(vchk_, onCreditTaken(id_, route.outPort, route.drop,
                                      out_vc, /*express=*/true, now));
        if (isTail(flit.type)) {
            NOC_ASSERT(s.owned, "tail on an unowned express VC");
            s.owned = false;
            s.ownerPort = kInvalidPort;
            s.ownerVc = kInvalidVc;
        }
        flit.vc = out_vc;
        flit.evcHopsLeft = 1;
        ++flit.hops;
        const RouterId next = chan.drops[route.drop].router;
        {
            NOC_PROF_SCOPE(fineProf_, RouteCompute);
            flit.route = P::route(*this, next, flit.dst, flit.cls);
        }
        sentFlits.push_back({route.outPort, route.drop, flit});
    } else {
        op.takeCredit(route.drop, out_vc);
        NOC_VCHK(vchk_, onCreditTaken(id_, route.outPort, route.drop,
                                      out_vc, /*express=*/false, now));
        if (isTail(flit.type))
            op.release(route.drop, out_vc);
        flit.vc = out_vc;
        ++flit.hops;
        if (!chan.isTerminal()) {
            // One packet carries one lookahead route: the head computes
            // it and body/tail flits copy the head's stamp. Recomputing
            // per flit would split a packet across two paths when the
            // routing function changes mid-stream (fault/churn detour
            // generations) and corrupt downstream wormhole state.
            OutputVcState &ls = op.vc(route.drop, out_vc);
            if (isHead(flit.type)) {
                const RouterId next = chan.drops[route.drop].router;
                NOC_PROF_SCOPE(fineProf_, RouteCompute);
                ls.headLookahead = P::route(*this, next, flit.dst,
                                            flit.cls);
            }
            flit.route = ls.headLookahead;
        }
        sentFlits.push_back({route.outPort, route.drop, flit});
    }

    // Return the freed slot upstream (NI or router).
    const bool express_credit = P::evc(*this) &&
        evc_.isExpressVc(in_vc) && !topo_.input(id_, in_port).isTerminal();
    sentCredits.push_back({in_port, in_vc, express_credit});
}

} // namespace noc

#endif // NOC_ROUTER_ROUTER_PIPELINE_HPP
