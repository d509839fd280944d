#include "verify/verify.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "common/log.hpp"
#include "network/network.hpp"

namespace noc {

const char *
toString(Invariant inv)
{
    switch (inv) {
      case Invariant::Credits: return "credits";
      case Invariant::VcState: return "state";
      case Invariant::Circuits: return "pc";
      case Invariant::Ordering: return "order";
      case Invariant::Conserve: return "conserve";
      case Invariant::Deadlock: return "deadlock";
    }
    return "?";
}

std::uint32_t
verifyMaskFromSpec(const std::string &spec)
{
    std::uint32_t mask = 0;
    std::size_t start = 0;
    while (start <= spec.size()) {
        const std::size_t comma = spec.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? spec.size() : comma;
        const std::string item = spec.substr(start, end - start);
        if (item == "all") {
            mask |= kAllInvariants;
        } else if (item == "off" || item.empty()) {
            // explicit no-op: lets NOC_VERIFY=off disable the env hook
        } else if (item == "credits") {
            mask |= static_cast<std::uint32_t>(Invariant::Credits);
        } else if (item == "state") {
            mask |= static_cast<std::uint32_t>(Invariant::VcState);
        } else if (item == "pc") {
            mask |= static_cast<std::uint32_t>(Invariant::Circuits);
        } else if (item == "order") {
            mask |= static_cast<std::uint32_t>(Invariant::Ordering);
        } else if (item == "conserve") {
            mask |= static_cast<std::uint32_t>(Invariant::Conserve);
        } else if (item == "deadlock") {
            mask |= static_cast<std::uint32_t>(Invariant::Deadlock);
        } else {
            NOC_FATAL("unknown invariant: '" + item +
                      "' (expected credits, state, pc, order, conserve, "
                      "deadlock, all or off)");
        }
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return mask;
}

std::string
Violation::describe() const
{
    std::ostringstream os;
    os << "cycle " << cycle;
    if (router != kInvalidRouter)
        os << " router " << router;
    os << " [" << toString(kind) << "] " << detail;
    return os.str();
}

// --- WaitForGraph ---

int
WaitForGraph::addNode(std::string label)
{
    labels_.push_back(std::move(label));
    edges_.emplace_back();
    return static_cast<int>(labels_.size()) - 1;
}

void
WaitForGraph::addEdge(int from, int to)
{
    edges_[from].push_back(to);
}

std::vector<int>
WaitForGraph::findCycle() const
{
    // Iterative DFS with three colours; on a back edge, walk the
    // explicit stack back to the target to recover the cycle.
    enum { White, Grey, Black };
    std::vector<int> colour(labels_.size(), White);
    std::vector<int> stack;      // current DFS path
    std::vector<std::size_t> next;   // per path entry: next edge index

    for (int root = 0; root < size(); ++root) {
        if (colour[root] != White)
            continue;
        stack.assign(1, root);
        next.assign(1, 0);
        colour[root] = Grey;
        while (!stack.empty()) {
            const int node = stack.back();
            if (next.back() < edges_[node].size()) {
                const int to = edges_[node][next.back()++];
                if (colour[to] == Grey) {
                    const auto it =
                        std::find(stack.begin(), stack.end(), to);
                    return {it, stack.end()};
                }
                if (colour[to] == White) {
                    colour[to] = Grey;
                    stack.push_back(to);
                    next.push_back(0);
                }
            } else {
                colour[node] = Black;
                stack.pop_back();
                next.pop_back();
            }
        }
    }
    return {};
}

// --- InvariantChecker ---

InvariantChecker::InvariantChecker(const VerifyConfig &cfg) : cfg_(cfg) {}

void
InvariantChecker::attach(const Network &net)
{
#if !NOC_VERIFY_ENABLED
    (void)net;
    NOC_FATAL("invariant checker requested but the verify layer was "
              "compiled out (reconfigure with -DNOC_VERIFY=ON)");
#else
    net_ = &net;
    const SimConfig &cfg = net.config();
    const int num_vcs = cfg.numVcs;

    linkOut_.assign(static_cast<std::size_t>(net.numRouters()), {});
    for (RouterId r = 0; r < net.numRouters(); ++r) {
        const Router &router = net.router(r);
        linkOut_[r].resize(router.numOutputPorts());
        for (PortId p = 0; p < router.numOutputPorts(); ++p) {
            const OutputPort &op = router.outputPort(p);
            linkOut_[r][p].assign(
                static_cast<std::size_t>(op.numDrops() * num_vcs), 0);
        }
    }
    niOut_.assign(static_cast<std::size_t>(net.numNodes()),
                  std::vector<int>(static_cast<std::size_t>(num_vcs), 0));
    expressOut_.clear();
    inflight_.clear();
    injectedPackets_ = 0;
    deliveredPackets_ = 0;
    lastDeadlockProbe_ = 0;
#endif
}

void
InvariantChecker::fail(Invariant kind, Cycle now, RouterId router,
                       const std::string &detail)
{
    ++violationCount_;
    Violation v;
    v.kind = kind;
    v.cycle = now;
    v.router = router;
    v.detail = detail;
    if (cfg_.failFast)
        NOC_PANIC("invariant violation: " + v.describe());
    if (violations_.size() < cfg_.maxViolations)
        violations_.push_back(std::move(v));
}

int &
InvariantChecker::linkSlot(RouterId r, PortId out_port, int drop, VcId vc)
{
    const int num_vcs = net_->config().numVcs;
    return linkOut_[r][out_port][static_cast<std::size_t>(
        drop * num_vcs + vc)];
}

void
InvariantChecker::onPacketInjected(const PacketDesc &packet, Cycle now)
{
    const auto lock = maybeLock();
    ++injectedPackets_;
    if (on(Invariant::Conserve)) {
        expect(inflight_.count(packet.id) == 0, Invariant::Conserve, now,
               kInvalidRouter, [&] {
                   return "duplicate packet id " + std::to_string(packet.id);
               });
        expect(packet.src >= 0 && packet.src < net_->numNodes() &&
                   packet.dst >= 0 && packet.dst < net_->numNodes() &&
                   packet.size >= 1,
               Invariant::Conserve, now, kInvalidRouter, [&] {
                   return "malformed packet " + std::to_string(packet.id) +
                          " src " + std::to_string(packet.src) + " dst " +
                          std::to_string(packet.dst) + " size " +
                          std::to_string(packet.size);
               });
    }
    PacketState st;
    st.src = packet.src;
    st.dst = packet.dst;
    st.size = packet.size;
    st.created = packet.createTime;
    inflight_[packet.id] = st;
}

void
InvariantChecker::onFlitInjected(NodeId node, const Flit &flit, Cycle now)
{
    const auto lock = maybeLock();
    ++niOut_[node][flit.vc];
    if (on(Invariant::Credits)) {
        expect(niOut_[node][flit.vc] <= net_->config().bufferDepth,
               Invariant::Credits, now, kInvalidRouter, [&] {
                   return "NI " + std::to_string(node) + " vc " +
                          std::to_string(flit.vc) +
                          " injected past its credit window";
               });
    }
    const auto it = inflight_.find(flit.packet);
    if (!expect(it != inflight_.end(), Invariant::Ordering, now,
                kInvalidRouter, [&] {
                    return "flit of unknown packet " +
                           std::to_string(flit.packet) + " injected at NI " +
                           std::to_string(node);
                }))
        return;
    PacketState &st = it->second;
    if (on(Invariant::Ordering)) {
        expect(flit.seq == st.injectedFlits, Invariant::Ordering, now,
               kInvalidRouter, [&] {
                   return "packet " + std::to_string(flit.packet) +
                          " injected flit seq " + std::to_string(flit.seq) +
                          " out of order (expected " +
                          std::to_string(st.injectedFlits) + ")";
               });
        const bool head_ok = (flit.seq == 0) == isHead(flit.type);
        const bool tail_ok =
            (flit.seq + 1 == st.size) == isTail(flit.type);
        expect(head_ok && tail_ok, Invariant::Ordering, now, kInvalidRouter,
               [&] {
                   return "packet " + std::to_string(flit.packet) +
                          " flit seq " + std::to_string(flit.seq) + "/" +
                          std::to_string(st.size) + " has wrong framing type";
               });
    }
    ++st.injectedFlits;
}

void
InvariantChecker::onFlitEjected(NodeId node, const Flit &flit, Cycle now)
{
    const auto lock = maybeLock();
    const auto it = inflight_.find(flit.packet);
    if (!expect(it != inflight_.end(), Invariant::Conserve, now,
                kInvalidRouter, [&] {
                    return "flit of unknown/finished packet " +
                           std::to_string(flit.packet) + " ejected at NI " +
                           std::to_string(node);
                }))
        return;
    PacketState &st = it->second;
    if (on(Invariant::Ordering)) {
        expect(node == st.dst && flit.dst == st.dst && flit.src == st.src,
               Invariant::Ordering, now, kInvalidRouter, [&] {
                   return "packet " + std::to_string(flit.packet) + " (dst " +
                          std::to_string(st.dst) + ") delivered to NI " +
                          std::to_string(node);
               });
        expect(flit.seq == st.ejectedFlits, Invariant::Ordering, now,
               kInvalidRouter, [&] {
                   return "packet " + std::to_string(flit.packet) +
                          " ejected flit seq " + std::to_string(flit.seq) +
                          " out of order (expected " +
                          std::to_string(st.ejectedFlits) + ")";
               });
    }
    ++st.ejectedFlits;
    if (st.ejectedFlits == st.size) {
        if (on(Invariant::Conserve)) {
            expect(st.injectedFlits == st.size, Invariant::Conserve, now,
                   kInvalidRouter, [&] {
                       return "packet " + std::to_string(flit.packet) +
                              " completed with " +
                              std::to_string(st.injectedFlits) + "/" +
                              std::to_string(st.size) + " flits injected";
                   });
        }
        inflight_.erase(it);
        ++deliveredPackets_;
    }
}

void
InvariantChecker::onCreditTaken(RouterId r, PortId out_port, int drop,
                                VcId vc, bool express, Cycle now)
{
    const auto lock = maybeLock();
    int &slot = express ? expressOut_[{r, out_port, vc}]
                        : linkSlot(r, out_port, drop, vc);
    ++slot;
    if (on(Invariant::Credits)) {
        expect(slot <= net_->config().bufferDepth, Invariant::Credits, now,
               r, [&] {
                   return "out " + std::to_string(out_port) + " drop " +
                          std::to_string(drop) + " vc " + std::to_string(vc) +
                          (express ? " (express)" : "") + ": " +
                          std::to_string(slot) +
                          " flits outstanding exceed the buffer depth";
               });
    }
}

void
InvariantChecker::onCreditReturned(RouterId r, PortId out_port, int drop,
                                   VcId vc, bool express, Cycle now)
{
    const auto lock = maybeLock();
    int &slot = express ? expressOut_[{r, out_port, vc}]
                        : linkSlot(r, out_port, drop, vc);
    --slot;
    if (on(Invariant::Credits)) {
        expect(slot >= 0, Invariant::Credits, now, r, [&] {
                   return "out " + std::to_string(out_port) + " drop " +
                          std::to_string(drop) + " vc " + std::to_string(vc) +
                          (express ? " (express)" : "") +
                          ": more credits returned than flits sent";
               });
    }
}

void
InvariantChecker::onNiCredit(NodeId node, VcId vc, Cycle now)
{
    const auto lock = maybeLock();
    --niOut_[node][vc];
    if (on(Invariant::Credits)) {
        expect(niOut_[node][vc] >= 0, Invariant::Credits, now,
               kInvalidRouter, [&] {
                   return "NI " + std::to_string(node) + " vc " +
                          std::to_string(vc) +
                          ": more credits returned than flits injected";
               });
    }
}

void
InvariantChecker::onSaGrant(RouterId r, PortId in_port, VcId in_vc,
                            const RouteDecision &route, Cycle now)
{
    if (!on(Invariant::Circuits))
        return;
    const auto lock = maybeLock();
    const SimConfig &cfg = net_->config();
    const bool has_pc = cfg.scheme == Scheme::Pseudo ||
        cfg.scheme == Scheme::PseudoS || cfg.scheme == Scheme::PseudoB ||
        cfg.scheme == Scheme::PseudoSB;
    if (!has_pc)
        return;
    const Router &router = net_->router(r);
    const PseudoCircuitUnit &pc = router.pcUnit();
    const PseudoCircuitUnit::Register &reg = pc.at(in_port);
    expect(reg.valid && reg.inVc == in_vc && reg.route == route,
           Invariant::Circuits, now, r, [&] {
               return "SA grant in " + std::to_string(in_port) + " vc " +
                      std::to_string(in_vc) + " -> out " +
                      std::to_string(route.outPort) +
                      " did not establish the pseudo-circuit";
           });
    for (PortId other = 0; other < router.numInputPorts(); ++other) {
        if (other == in_port)
            continue;
        const PseudoCircuitUnit::Register &o = pc.at(other);
        expect(!(o.valid && o.route.outPort == route.outPort),
               Invariant::Circuits, now, r, [&] {
                   return "conflicting circuit at in " + std::to_string(other) +
                          " survived the SA grant towards out " +
                          std::to_string(route.outPort);
               });
    }
}

void
InvariantChecker::onPcReuse(RouterId r, PortId in_port, VcId in_vc,
                            const RouteDecision &used, const Flit &flit,
                            bool via_latch, Cycle now)
{
    if (!on(Invariant::Circuits))
        return;
    const auto lock = maybeLock();
    const PseudoCircuitUnit::Register &reg =
        net_->router(r).pcUnit().at(in_port);
    const char *path = via_latch ? "buffer bypass" : "SA bypass";
    expect(reg.valid && reg.inVc == in_vc, Invariant::Circuits, now, r, [&] {
               return std::string(path) + " at in " + std::to_string(in_port) +
                      " vc " + std::to_string(in_vc) +
                      " without a matching valid circuit";
           });
    expect(reg.route == used, Invariant::Circuits, now, r, [&] {
               return std::string(path) + " at in " + std::to_string(in_port) +
                      " used a route different from the circuit register";
           });
    expect(flit.route == used, Invariant::Circuits, now, r, [&] {
               return std::string(path) + " at in " + std::to_string(in_port) +
                      " sent a flit towards out " +
                      std::to_string(used.outPort) +
                      " but the flit wanted out " +
                      std::to_string(flit.route.outPort) +
                      " (stale circuit misdelivery)";
           });
}

void
InvariantChecker::onCycleEnd(Cycle now)
{
    const auto lock = maybeLock();
    if (cfg_.scanEvery > 0 && now % cfg_.scanEvery == 0) {
        if (on(Invariant::Credits) || on(Invariant::VcState) ||
            on(Invariant::Circuits))
            scanRouterState(now);
        if (on(Invariant::Conserve))
            scanConservation(now);
    }
    // Fault waiver: a stall window (or a dead link, until = forever)
    // legitimately halts progress; give deadlockAfter slack past it.
    const bool progress_waived =
        now < progressWaivedUntil_ ||
        now - progressWaivedUntil_ < cfg_.deadlockAfter;
    if (on(Invariant::Deadlock) && !progress_waived && !net_->idle() &&
        net_->cyclesSinceProgress() >= cfg_.deadlockAfter &&
        now >= lastDeadlockProbe_ + cfg_.deadlockAfter) {
        lastDeadlockProbe_ = now;
        probeDeadlock(now);
    }
}

void
InvariantChecker::waiveLink(RouterId r, PortId out_port, int drop)
{
    const std::tuple<RouterId, PortId, int> key{r, out_port, drop};
    for (const auto &w : waivedLinks_) {
        if (w == key)
            return;
    }
    waivedLinks_.push_back(key);
}

void
InvariantChecker::waiveProgressUntil(Cycle until)
{
    progressWaivedUntil_ = std::max(progressWaivedUntil_, until);
}

void
InvariantChecker::scanRouterState(Cycle now)
{
    const SimConfig &cfg = net_->config();
    const int num_vcs = cfg.numVcs;
    const int depth = cfg.bufferDepth;
    const bool has_pc = cfg.scheme == Scheme::Pseudo ||
        cfg.scheme == Scheme::PseudoS || cfg.scheme == Scheme::PseudoB ||
        cfg.scheme == Scheme::PseudoSB;

    for (RouterId r = 0; r < net_->numRouters(); ++r) {
        const Router &router = net_->router(r);

        // Output side: credit conservation + ownership back-references.
        for (PortId p = 0; p < router.numOutputPorts(); ++p) {
            const OutputPort &op = router.outputPort(p);
            if (!op.connected())
                continue;
            for (int d = 0; d < op.numDrops(); ++d) {
                for (VcId v = 0; v < num_vcs; ++v) {
                    const OutputVcState &s = op.vc(d, v);
                    const int out = linkOut_[r][p][static_cast<std::size_t>(
                        d * num_vcs + v)];
                    if (on(Invariant::Credits)) {
                        expect(s.credits >= 0 && s.credits <= depth &&
                                   out >= 0 && out <= depth &&
                                   s.credits == depth - out,
                               Invariant::Credits, now, r, [&] {
                                   return "out " + std::to_string(p) +
                                          " drop " + std::to_string(d) +
                                          " vc " + std::to_string(v) + ": " +
                                          std::to_string(s.credits) +
                                          " credits with " +
                                          std::to_string(out) +
                                          " flits outstanding (depth " +
                                          std::to_string(depth) + ")";
                               });
                    }
                    if (on(Invariant::VcState) && s.owned) {
                        bool ok = s.ownerPort >= 0 &&
                            s.ownerPort < router.numInputPorts() &&
                            s.ownerVc >= 0 && s.ownerVc < num_vcs;
                        if (ok) {
                            const InputVc &ivc =
                                router.inputVc(s.ownerPort, s.ownerVc);
                            ok = ivc.state() == InputVc::State::Active &&
                                !ivc.outVcExpress() && ivc.outVc() == v &&
                                ivc.route().outPort == p &&
                                ivc.route().drop == d;
                        }
                        expect(ok, Invariant::VcState, now, r, [&] {
                                   return "out " + std::to_string(p) +
                                          " drop " + std::to_string(d) +
                                          " vc " + std::to_string(v) +
                                          " owned without a matching active "
                                          "input VC";
                               });
                    }
                }
            }
            if (op.hasExpress() && cfg.scheme == Scheme::Evc) {
                const VcId base = num_vcs - cfg.evcNumExpressVcs;
                for (VcId v = base; v < num_vcs; ++v) {
                    const OutputVcState &s = op.expressVc(v);
                    const auto it = expressOut_.find({r, p, v});
                    const int out =
                        it == expressOut_.end() ? 0 : it->second;
                    if (on(Invariant::Credits)) {
                        expect(s.credits == depth - out,
                               Invariant::Credits, now, r, [&] {
                                   return "out " + std::to_string(p) +
                                          " express vc " + std::to_string(v) +
                                          ": " + std::to_string(s.credits) +
                                          " credits with " +
                                          std::to_string(out) +
                                          " flits outstanding";
                               });
                    }
                    if (on(Invariant::VcState) && s.owned) {
                        bool ok = s.ownerPort >= 0 &&
                            s.ownerPort < router.numInputPorts() &&
                            s.ownerVc >= 0 && s.ownerVc < num_vcs;
                        if (ok) {
                            const InputVc &ivc =
                                router.inputVc(s.ownerPort, s.ownerVc);
                            ok = ivc.state() == InputVc::State::Active &&
                                ivc.outVcExpress() && ivc.outVc() == v &&
                                ivc.route().outPort == p;
                        }
                        expect(ok, Invariant::VcState, now, r, [&] {
                                   return "out " + std::to_string(p) +
                                          " express vc " + std::to_string(v) +
                                          " owned without a matching active "
                                          "input VC";
                               });
                    }
                }
            }
        }

        // Input side: state-machine legality + forward ownership.
        if (on(Invariant::VcState)) {
            for (PortId p = 0; p < router.numInputPorts(); ++p) {
                for (VcId v = 0; v < num_vcs; ++v) {
                    const InputVc &vc = router.inputVc(p, v);
                    const auto where = [&] {
                        return "in " + std::to_string(p) + " vc " +
                               std::to_string(v);
                    };
                    expect(vc.occupancy() <=
                               static_cast<std::size_t>(depth),
                           Invariant::VcState, now, r, [&] {
                               return where() + " holds " +
                                      std::to_string(vc.occupancy()) +
                                      " flits, buffer depth is " +
                                      std::to_string(depth);
                           });
                    switch (vc.state()) {
                      case InputVc::State::Idle:
                        expect(vc.empty(), Invariant::VcState, now, r, [&] {
                                   return where() + " idle with " +
                                          std::to_string(vc.occupancy()) +
                                          " buffered flits";
                               });
                        break;
                      case InputVc::State::WaitingVa:
                        expect(!vc.empty() &&
                                   isHead(vc.front().flit.type) &&
                                   vc.front().flit.route == vc.route(),
                               Invariant::VcState, now, r, [&] {
                                   return where() + " waiting for VA without a "
                                          "matching head at the front";
                               });
                        break;
                      case InputVc::State::Active: {
                        bool ok = vc.outVc() >= 0 && vc.outVc() < num_vcs &&
                            vc.route().outPort >= 0 &&
                            vc.route().outPort < router.numOutputPorts();
                        if (ok && !vc.outVcExpress()) {
                            const OutputPort &op =
                                router.outputPort(vc.route().outPort);
                            ok = op.connected() &&
                                vc.route().drop < op.numDrops();
                            if (ok) {
                                const OutputVcState &s =
                                    op.vc(vc.route().drop, vc.outVc());
                                ok = s.owned && s.ownerPort == p &&
                                    s.ownerVc == v;
                            }
                        }
                        expect(ok, Invariant::VcState, now, r, [&] {
                                   return where() +
                                          " active without owning its "
                                          "output VC";
                               });
                        break;
                      }
                    }
                }
            }
        }

        // Pseudo-circuit registers.
        if (on(Invariant::Circuits) && has_pc) {
            const PseudoCircuitUnit &pc = router.pcUnit();
            std::array<PortId, kMaxMaskBits> holders;
            holders.fill(kInvalidPort);
            for (PortId in = 0; in < router.numInputPorts(); ++in) {
                const PseudoCircuitUnit::Register &reg = pc.at(in);
                if (!reg.valid)
                    continue;
                const bool route_ok = reg.inVc >= 0 &&
                    reg.inVc < num_vcs && reg.route.outPort >= 0 &&
                    reg.route.outPort < router.numOutputPorts() &&
                    router.outputPort(reg.route.outPort).connected() &&
                    reg.route.drop <
                        router.outputPort(reg.route.outPort).numDrops();
                expect(route_ok, Invariant::Circuits, now, r, [&] {
                           return "circuit at in " + std::to_string(in) +
                                  " references an invalid route";
                       });
                if (!route_ok)
                    continue;
                const PortId out = reg.route.outPort;
                expect(holders[out] == kInvalidPort, Invariant::Circuits,
                       now, r, [&] {
                           return "circuits at in " +
                                  std::to_string(holders[out]) + " and in " +
                                  std::to_string(in) + " both drive out " +
                                  std::to_string(out);
                       });
                holders[out] = in;

                // §3.C condition 2: a circuit that is not actively
                // streaming a packet may not outlive the last credit of
                // its drop (creditTerminations runs every cycle).
                const InputVc &ivc = router.inputVc(in, reg.inVc);
                const bool streaming =
                    ivc.state() == InputVc::State::Active &&
                    ivc.route() == reg.route && !ivc.outVcExpress();
                const OutputPort &op = router.outputPort(out);
                expect(streaming ||
                           op.anyCredit(reg.route.drop, 0, num_vcs),
                       Invariant::Circuits, now, r, [&] {
                           return "idle circuit at in " + std::to_string(in) +
                                  " -> out " + std::to_string(out) +
                                  " survived with zero downstream credits";
                       });
            }
        }
    }

    // NI credit windows.
    if (on(Invariant::Credits)) {
        for (NodeId n = 0; n < net_->numNodes(); ++n) {
            const NetworkInterface &ni = net_->ni(n);
            for (VcId v = 0; v < num_vcs; ++v) {
                expect(ni.credits(v) == depth - niOut_[n][v],
                       Invariant::Credits, now, kInvalidRouter, [&] {
                           return "NI " + std::to_string(n) + " vc " +
                                  std::to_string(v) + ": " +
                                  std::to_string(ni.credits(v)) +
                                  " credits with " +
                                  std::to_string(niOut_[n][v]) +
                                  " flits outstanding";
                       });
            }
        }
    }
}

void
InvariantChecker::scanConservation(Cycle now)
{
    expect(inflight_.size() == net_->packetsOutstanding(),
           Invariant::Conserve, now, kInvalidRouter, [&] {
               return "checker tracks " + std::to_string(inflight_.size()) +
                      " packets in flight, network reports " +
                      std::to_string(net_->packetsOutstanding());
           });
}

void
InvariantChecker::probeDeadlock(Cycle now)
{
    const SimConfig &cfg = net_->config();
    const int num_vcs = cfg.numVcs;
    const Topology &topo = net_->topology();

    // Pass 1: every Active/WaitingVa VC that is credit-blocked becomes
    // a node. (The probe only runs after deadlockAfter cycles with zero
    // flit movement anywhere, so anything holding flits is blocked on
    // *something*; nodes keep only the credit-blocked ones, which are
    // the candidates for a circular wait.)
    WaitForGraph wfg;
    std::map<std::tuple<RouterId, PortId, VcId>, int> nodeOf;
    const bool evc = cfg.scheme == Scheme::Evc;

    for (RouterId r = 0; r < net_->numRouters(); ++r) {
        const Router &router = net_->router(r);
        for (PortId p = 0; p < router.numInputPorts(); ++p) {
            for (VcId v = 0; v < num_vcs; ++v) {
                const InputVc &vc = router.inputVc(p, v);
                if (vc.empty())
                    continue;
                bool blocked = false;
                std::string why;
                if (vc.state() == InputVc::State::Active &&
                    !vc.outVcExpress()) {
                    const RouteDecision &rt = vc.route();
                    const OutputPort &op = router.outputPort(rt.outPort);
                    if (op.vc(rt.drop, vc.outVc()).credits <= 0) {
                        blocked = true;
                        why = "active->out " + std::to_string(rt.outPort) +
                            " vc " + std::to_string(vc.outVc()) +
                            " credits=0";
                    }
                } else if (vc.state() == InputVc::State::WaitingVa &&
                           !evc) {
                    const Flit &head = vc.front().flit;
                    const RouteDecision &rt = vc.route();
                    const OutputPort &op = router.outputPort(rt.outPort);
                    const auto [base, count] = net_->routing().vcRangeAt(
                        r, head.src, head.dst, head.cls, num_vcs);
                    if (!op.anyFreeCreditedVc(rt.drop, base, count)) {
                        blocked = true;
                        why = "va->out " + std::to_string(rt.outPort) +
                            " no free credited vc in [" +
                            std::to_string(base) + "," +
                            std::to_string(base + count) + ")";
                    }
                }
                if (blocked) {
                    nodeOf[{r, p, v}] = wfg.addNode(
                        "r" + std::to_string(r) + " in" +
                        std::to_string(p) + " vc" + std::to_string(v) +
                        " (" + why + ")");
                }
            }
        }
    }

    // Pass 2: wait edges between blocked VCs — an Active VC waits on
    // the downstream buffer its output VC maps to; a VA-blocked head
    // waits on every VC of its range at the downstream input port.
    for (const auto &[key, node] : nodeOf) {
        const auto [r, p, v] = key;
        const Router &router = net_->router(r);
        const InputVc &vc = router.inputVc(p, v);
        const RouteDecision &rt = vc.route();
        const OutputChannel &chan = topo.output(r, rt.outPort);
        if (chan.isTerminal())
            continue;   // NIs always consume; no wait edge
        const Drop &drop = chan.drops[static_cast<std::size_t>(rt.drop)];
        if (vc.state() == InputVc::State::Active) {
            const auto it = nodeOf.find({drop.router, drop.inPort,
                                         vc.outVc()});
            if (it != nodeOf.end())
                wfg.addEdge(node, it->second);
        } else {
            const Flit &head = vc.front().flit;
            const auto [base, count] = net_->routing().vcRangeAt(
                r, head.src, head.dst, head.cls, num_vcs);
            for (VcId w = base; w < base + count; ++w) {
                const auto it = nodeOf.find({drop.router, drop.inPort, w});
                if (it != nodeOf.end())
                    wfg.addEdge(node, it->second);
            }
        }
    }

    const std::vector<int> cycle = wfg.findCycle();
    if (!cycle.empty()) {
        std::ostringstream os;
        os << "deadlock: circular wait of " << cycle.size()
           << " VCs after "
           << net_->cyclesSinceProgress() << " stalled cycles: ";
        for (std::size_t i = 0; i < cycle.size(); ++i) {
            if (i > 0)
                os << " -> ";
            os << wfg.label(cycle[i]);
        }
        os << " -> " << wfg.label(cycle[0]);
        fail(Invariant::Deadlock, now, kInvalidRouter, os.str());
        ++checks_;
        return;
    }

    std::ostringstream os;
    os << "no forward progress for " << net_->cyclesSinceProgress()
       << " cycles without a wait cycle (possible credit loss): "
       << net_->describeStall();
    if (wfg.size() > 0) {
        os << "; blocked:";
        const int shown = std::min(wfg.size(), 8);
        for (int i = 0; i < shown; ++i)
            os << " [" << wfg.label(i) << "]";
        if (wfg.size() > shown)
            os << " (+" << wfg.size() - shown << " more)";
    }
    fail(Invariant::Deadlock, now, kInvalidRouter, os.str());
    ++checks_;
}

void
InvariantChecker::checkDrained(Cycle now)
{
    const SimConfig &cfg = net_->config();
    const int num_vcs = cfg.numVcs;
    const int depth = cfg.bufferDepth;

    if (on(Invariant::Conserve)) {
        expect(inflight_.empty(), Invariant::Conserve, now, kInvalidRouter,
               [&] {
                   return std::to_string(inflight_.size()) +
                          " packets never completed (injected " +
                          std::to_string(injectedPackets_) + ", delivered " +
                          std::to_string(deliveredPackets_) + ")";
               });
        int shown = 0;
        for (const auto &[id, st] : inflight_) {
            if (++shown > 4)
                break;
            fail(Invariant::Conserve, now, kInvalidRouter,
                 "lost packet " + std::to_string(id) + " src " +
                     std::to_string(st.src) + " dst " +
                     std::to_string(st.dst) + ": " +
                     std::to_string(st.ejectedFlits) + "/" +
                     std::to_string(st.size) + " flits ejected, created " +
                     "cycle " + std::to_string(st.created));
        }
        expect(injectedPackets_ == deliveredPackets_ + inflight_.size(),
               Invariant::Conserve, now, kInvalidRouter, [&] {
                   return "packet conservation broke: injected " +
                          std::to_string(injectedPackets_) + " != delivered " +
                          std::to_string(deliveredPackets_) + " + in-flight " +
                          std::to_string(inflight_.size());
               });
    }

    if (on(Invariant::Credits)) {
        const auto link_waived = [this](RouterId r, PortId p, int d) {
            const std::tuple<RouterId, PortId, int> key{r, p, d};
            for (const auto &w : waivedLinks_) {
                if (w == key)
                    return true;
            }
            return false;
        };
        for (RouterId r = 0; r < net_->numRouters(); ++r) {
            const Router &router = net_->router(r);
            for (PortId p = 0; p < router.numOutputPorts(); ++p) {
                const OutputPort &op = router.outputPort(p);
                if (!op.connected())
                    continue;
                for (int d = 0; d < op.numDrops(); ++d) {
                    // Dead link: its dropped flits never return their
                    // credits; the leak is expected and waived by name.
                    if (link_waived(r, p, d))
                        continue;
                    for (VcId v = 0; v < num_vcs; ++v) {
                        const int out = linkOut_[r][p][
                            static_cast<std::size_t>(d * num_vcs + v)];
                        expect(out == 0 && op.vc(d, v).credits == depth,
                               Invariant::Credits, now, r, [&] {
                                   return "drained out " + std::to_string(p) +
                                          " drop " + std::to_string(d) +
                                          " vc " + std::to_string(v) +
                                          " leaked credits (" +
                                          std::to_string(op.vc(d, v).credits) +
                                          "/" + std::to_string(depth) +
                                          " home, ledger " +
                                          std::to_string(out) + ")";
                               });
                    }
                }
            }
        }
        for (const auto &[key, out] : expressOut_) {
            const auto [r, p, v] = key;
            const OutputVcState &s =
                net_->router(r).outputPort(p).expressVc(v);
            expect(out == 0 && s.credits == depth, Invariant::Credits, now,
                   r, [&] {
                       return "drained out " + std::to_string(p) +
                              " express vc " + std::to_string(v) +
                              " leaked credits (" + std::to_string(s.credits) +
                              "/" + std::to_string(depth) + " home, ledger " +
                              std::to_string(out) + ")";
                   });
        }
        for (NodeId n = 0; n < net_->numNodes(); ++n) {
            const NetworkInterface &ni = net_->ni(n);
            for (VcId v = 0; v < num_vcs; ++v) {
                expect(niOut_[n][v] == 0 && ni.credits(v) == depth,
                       Invariant::Credits, now, kInvalidRouter, [&] {
                           return "drained NI " + std::to_string(n) + " vc " +
                                  std::to_string(v) + " leaked credits (" +
                                  std::to_string(ni.credits(v)) + "/" +
                                  std::to_string(depth) + " home, ledger " +
                                  std::to_string(niOut_[n][v]) + ")";
                       });
            }
        }
    }

    if (on(Invariant::VcState)) {
        for (RouterId r = 0; r < net_->numRouters(); ++r) {
            const Router &router = net_->router(r);
            for (PortId p = 0; p < router.numInputPorts(); ++p) {
                for (VcId v = 0; v < num_vcs; ++v) {
                    const InputVc &vc = router.inputVc(p, v);
                    expect(vc.state() == InputVc::State::Idle &&
                               vc.empty(),
                           Invariant::VcState, now, r, [&] {
                               return "drained in " + std::to_string(p) +
                                      " vc " + std::to_string(v) +
                                      " still busy (" +
                                      std::to_string(vc.occupancy()) +
                                      " flits buffered)";
                           });
                }
            }
            for (PortId p = 0; p < router.numOutputPorts(); ++p) {
                const OutputPort &op = router.outputPort(p);
                if (!op.connected())
                    continue;
                for (int d = 0; d < op.numDrops(); ++d) {
                    for (VcId v = 0; v < num_vcs; ++v) {
                        expect(!op.vc(d, v).owned, Invariant::VcState,
                               now, r, [&] {
                                   return "drained out " + std::to_string(p) +
                                          " drop " + std::to_string(d) +
                                          " vc " + std::to_string(v) +
                                          " still owned";
                               });
                    }
                }
            }
        }
    }
}

std::string
InvariantChecker::report() const
{
    std::ostringstream os;
    for (const Violation &v : violations_)
        os << v.describe() << "\n";
    if (violationCount_ > violations_.size()) {
        os << "(" << violationCount_ - violations_.size()
           << " further violations not stored)\n";
    }
    return os.str();
}

} // namespace noc
