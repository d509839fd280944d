/**
 * @file
 * The pipelined virtual-channel router (paper §3.A, Fig 2) with the
 * pseudo-circuit scheme (§3), pseudo-circuit speculation and buffer
 * bypassing (§4), and an EVC mode (§7.B).
 *
 * Pipeline (Fig 6), in cycles of per-hop router delay:
 *   Baseline      BW | VA+SA | ST   (3)
 *   Pseudo        BW | ST          (2)   — SA bypassed on a circuit match
 *   Pseudo+B      ST               (1)   — arrival-cycle switch traversal
 * plus one link-traversal cycle per grid hop in all configurations.
 *
 * Simulation structure per cycle (driven by Network):
 *   1. deliverFlit()/deliverCredit() for everything arriving this cycle
 *      (buffer write, or bypass-latch capture);
 *   2. step(): switch-traversal phase (SA winners from the previous
 *      cycle, then latched flits, then pseudo-circuit buffered bypasses),
 *      followed by the allocation phase (VA, speculative SA,
 *      pseudo-circuit creation/termination/speculation).
 * Outputs accumulate in sentFlits/sentCredits for the caller to drain.
 *
 * Execution-kernel structure: the pipeline methods are member function
 * templates over a *policy* type (router_pipeline.hpp) that decides, at
 * compile time where possible, which scheme features are live and how
 * routing is invoked. One policy — GenericPolicy — resolves everything
 * at runtime; the FastPolicy family folds the scheme to constants,
 * devirtualizes routing and lets idle routers sleep. Every policy walks
 * VC occupancy as bit masks, so a router holds at most 64 VCs, 64 input
 * ports and 64 output ports. A per-configuration RouterOps function
 * table, selected once at construction (router/kernels.hpp), binds the
 * public deliverFlit()/step() entry points to one instantiation. All
 * router *state* is shared between kernels — introspection (verify,
 * probes, telemetry) works identically whichever kernel runs.
 */

#ifndef NOC_ROUTER_ROUTER_HPP
#define NOC_ROUTER_ROUTER_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "router/evc.hpp"
#include "router/flit.hpp"
#include "router/input_unit.hpp"
#include "router/output_unit.hpp"
#include "router/pseudo_circuit.hpp"
#include "router/switch_allocator.hpp"
#include "router/vc_allocator.hpp"
#include "profile/profile.hpp"
#include "telemetry/telemetry.hpp"

namespace noc {

/** Every VC set, port set and crossbar-use set of a router is one
 *  uint64 mask word, so a router holds at most this many VCs per port,
 *  input ports and output ports. */
inline constexpr int kMaxMaskBits = 64;

class Topology;
class RoutingAlgorithm;
class InvariantChecker;
class Router;

/**
 * One simulation kernel: the entry points of a router pipeline bound to
 * a policy instantiation. Instances are function-local statics created
 * by routerOpsFor<Policy>() (router_pipeline.hpp) and live forever.
 */
struct RouterOps
{
    std::string name;   ///< e.g. "generic", "mesh-dor/pseudo-sb"
    bool specialized = false;
    void (*deliverFlit)(Router &, PortId, const Flit &, Cycle) = nullptr;
    void (*step)(Router &, Cycle) = nullptr;
};

/** Per-router event counters (drive energy, reusability and locality). */
struct RouterStats
{
    std::uint64_t flitsArrived = 0;
    std::uint64_t bufferWrites = 0;
    std::uint64_t bufferReads = 0;
    std::uint64_t xbarTraversals = 0;
    std::uint64_t vaGrants = 0;
    std::uint64_t saGrants = 0;
    std::uint64_t saBypasses = 0;      ///< circuit reuse from the buffer
    std::uint64_t bufferBypasses = 0;  ///< circuit reuse through the latch
    std::uint64_t headTraversals = 0;  ///< head flits through the switch
    std::uint64_t headSaBypasses = 0;  ///< heads reusing from the buffer
    std::uint64_t headBufferBypasses = 0;  ///< heads through the latch
    std::uint64_t expressBypasses = 0; ///< EVC intermediate-hop traversals
    std::uint64_t wastedGrants = 0;    ///< speculation / preemption losses

    /// Crossbar-connection temporal locality (Fig 1): per-input-port
    /// consecutive packets using the same output port.
    std::uint64_t localityHeads = 0;
    std::uint64_t localityHits = 0;

    /** Flits that reused a pseudo-circuit. */
    std::uint64_t circuitReuses() const
    {
        return saBypasses + bufferBypasses;
    }
};

class Router
{
  public:
    /** A flit leaving through an output channel. */
    struct SentFlit
    {
        PortId outPort = kInvalidPort;
        int drop = 0;
        Flit flit;
    };

    /** A credit leaving upstream through an input port. */
    struct SentCredit
    {
        PortId inPort = kInvalidPort;
        VcId vc = kInvalidVc;
        bool express = false;
    };

    Router(const SimConfig &cfg, const Topology &topo,
           const RoutingAlgorithm &routing, RouterId id);

    RouterId id() const { return id_; }
    int numInputPorts() const { return static_cast<int>(inputs_.size()); }
    int numOutputPorts() const { return static_cast<int>(outputs_.size()); }
    int numVcs() const { return cfg_.numVcs; }

    /** Name of the kernel this router executes ("generic" or a
     *  specialization label); fixed at construction. */
    const std::string &kernelName() const { return ops_->name; }
    /** True when a template-specialized kernel was selected. */
    bool kernelSpecialized() const { return ops_->specialized; }

    /** Arrival of a flit on an input port at cycle `now` (phase 1). */
    void deliverFlit(PortId in_port, const Flit &flit, Cycle now)
    {
        ops_->deliverFlit(*this, in_port, flit, now);
    }

    /** Arrival of a credit for one of this router's outputs (phase 1). */
    void deliverCredit(const Credit &credit, Cycle now);

    /** One cycle of switch traversal + allocation (phase 2). Stepping a
     *  dormant router is allowed and exact: it wakes it first. */
    void step(Cycle now) { ops_->step(*this, now); }

    /**
     * True while the router sits at a fixed point of step(): its last
     * step left nothing buffered, latched, granted or sent and changed
     * no pseudo-circuit register, so every further step is a no-op
     * until an input arrives. Only the specialized kernels ever go dormant;
     * every mutator (flit, credit, teardown) wakes the router, and the
     * Network skips dormant routers' steps. See docs/architecture.md,
     * "Dormant routers".
     */
    bool dormant() const { return dormant_; }

    /**
     * Fault layer: the link feeding `in_port` rejected a flit (CRC
     * fail), so any pseudo-circuit cached at that input is stale and
     * must be rebuilt by the retransmitted stream. Returns true when a
     * live circuit was actually torn down (for teardown accounting);
     * always false for schemes without pseudo-circuits.
     */
    bool faultTeardown(PortId in_port, Cycle now);

    /**
     * Attach a telemetry sink (nullptr detaches). Pipeline-stage and
     * pseudo-circuit lifecycle events are emitted at the same points
     * the RouterStats counters increment, so event counts reconcile
     * exactly with the aggregate statistics.
     */
    void setTelemetry(TelemetrySink *sink)
    {
        telem_ = sink;
        pc_.attachTelemetry(sink, id_);
    }

    /** Attach an invariant checker (nullptr detaches). */
    void setVerifier(InvariantChecker *chk) { vchk_ = chk; }

    /** Attach a phase profiler (nullptr detaches). The fine per-phase
     *  scopes inside the pipeline run only on the profiler's sampling
     *  cycles (PhaseProfiler::fine()). */
    void setProfiler(PhaseProfiler *prof) { prof_ = prof; }

    /** Bytes the per-router arena has allocated (VC flit storage). */
    std::uint64_t arenaBytes() const { return arena_.bytesAllocated(); }
    std::uint64_t arenaChunks() const { return arena_.numChunks(); }

    /** Flits/credits produced by the latest step(); caller clears. */
    std::vector<SentFlit> sentFlits;
    std::vector<SentCredit> sentCredits;

    const RouterStats &stats() const { return stats_; }
    const PseudoCircuitStats &pcStats() const { return pc_.stats(); }
    const PseudoCircuitUnit &pcUnit() const { return pc_; }
    const InputVc &inputVc(PortId p, VcId v) const
    {
        return inputs_[p].vc(v);
    }
    const OutputPort &outputPort(PortId p) const { return outputs_[p]; }
    OutputPort &outputPortForTest(PortId p)
    {
        dormant_ = false;
        return outputs_[p];
    }

  private:
    friend struct GenericPolicy;
    template <Scheme S, typename RP> friend struct FastPolicy;
    template <typename P> friend const RouterOps &routerOpsFor();

    // --- scheme predicates (runtime forms; policies may fold them) ---
    bool pcEnabled() const
    {
        return cfg_.scheme == Scheme::Pseudo ||
               cfg_.scheme == Scheme::PseudoS ||
               cfg_.scheme == Scheme::PseudoB ||
               cfg_.scheme == Scheme::PseudoSB;
    }
    bool specEnabled() const
    {
        return cfg_.scheme == Scheme::PseudoS ||
               cfg_.scheme == Scheme::PseudoSB;
    }
    bool bbEnabled() const
    {
        return cfg_.scheme == Scheme::PseudoB ||
               cfg_.scheme == Scheme::PseudoSB;
    }
    bool evcEnabled() const { return cfg_.scheme == Scheme::Evc; }

    bool pendingUsesInput(PortId in_port) const;
    bool pendingUsesOutput(PortId out_port) const;

    // --- templated pipeline (definitions in router_pipeline.hpp) ---

    /** VC range this head flit may be allocated into at this router
     *  (position-dependent for torus dateline classes). */
    template <typename P> std::pair<VcId, int> vaRangeT(const Flit &head)
        const;

    template <typename P> void deliverFlitT(PortId in_port,
                                            const Flit &flit, Cycle now);

    /** Try to capture an arriving flit in the buffer-bypass latch. */
    template <typename P> bool tryBufferBypassT(PortId in_port,
                                                const Flit &flit,
                                                Cycle now);

    /** Head-flit VA performed outside the allocation phase (§3.B: "VA is
     *  performed independently"); returns the granted VC or kInvalidVc. */
    template <typename P> VcId independentVaT(const Flit &head,
                                              const RouteDecision &route);

    template <typename P> void stepT(Cycle now);
    template <typename P> void switchPhaseT(Cycle now);
    template <typename P> void allocationPhaseT(Cycle now);
    template <typename P> void vaPhaseT(Cycle now);
    template <typename P> void saPhaseT(Cycle now);

    template <typename P> void doVaT(PortId in_port, VcId in_vc,
                                     Cycle now);

    /** True if this VC's front flit will traverse via the standing
     *  pseudo-circuit, so it must not request SA (§3.B). */
    template <typename P> bool willUseCircuitT(PortId in_port,
                                               VcId in_vc) const;

    /**
     * Move one flit through the crossbar onto its output channel,
     * handling credits, ownership release, lookahead routing and stats.
     * `from_buffer` distinguishes buffered flits (buffer-read energy,
     * upstream credit) from latched ones (credit only).
     */
    template <typename P> void traverseT(PortId in_port, Flit flit,
                                         const RouteDecision &route,
                                         VcId out_vc, bool express_out,
                                         bool from_buffer, Cycle now);

    /** Dequeue the front flit of a VC, maintaining the occupancy
     *  masks. */
    Flit dequeueTracked(PortId in_port, VcId in_vc)
    {
        InputVc &vc = inputs_[in_port].vc(in_vc);
        const Flit flit = vc.dequeue();
        if (vc.empty() && (occ_[in_port] &= ~(1ull << in_vc)) == 0)
            occPorts_ &= ~(1ull << in_port);
        return flit;
    }

    /** Non-speculative SA grant bookkeeping shared by both SA stages. */
    template <typename P> void processSaGrantT(const SaGrant &g,
                                               Cycle now);

    // --- non-templated pieces (policy-independent) ---

    /** EVC: move an express flit through the intermediate-hop latch. */
    void traverseExpress(PortId in_port, Flit flit, Cycle now);

    /** First step after dormancy: advance the VA rotation by the
     *  steps skipped since the router fell asleep. */
    void wakeCatchUp(Cycle now);

    void creditTerminations(Cycle now);
    void speculate(Cycle now);
    void noteLocality(PortId in_port, PortId out_port);

    /** Telemetry emit helper; no-op without an attached sink. */
    void emitTelem(TelemetryEventClass cls, Cycle now, PortId port,
                   VcId vc, std::uint8_t arg = 0) const
    {
#if NOC_TELEMETRY_ENABLED
        if (telem_) {
            TelemetryEvent ev;
            ev.cycle = now;
            ev.router = id_;
            ev.port = static_cast<std::int16_t>(port);
            ev.vc = static_cast<std::int8_t>(vc);
            ev.cls = cls;
            ev.arg = arg;
            telem_->record(ev);
        }
#else
        (void)cls; (void)now; (void)port; (void)vc; (void)arg;
#endif
    }

    const SimConfig cfg_;
    const Topology &topo_;
    const RoutingAlgorithm &routing_;
    const RouterId id_;
    const RouterOps *ops_;

    /// Backs every VC's flit-slot storage (one contiguous
    /// [port][vc][slot] block in a single chunk sized exactly at
    /// construction); must outlive inputs_, hence declared before it.
    Arena arena_;

    std::vector<InputPort> inputs_;
    std::vector<OutputPort> outputs_;
    PseudoCircuitUnit pc_;
    EvcUnit evc_;
    VcAllocator va_;
    SwitchAllocator sa_;

    std::vector<SaGrant> pendingGrants_;          ///< execute next cycle
    std::vector<std::optional<Flit>> bypassLatch_;  ///< per input port
    std::vector<std::optional<Flit>> expressLatch_; ///< per input port
    std::uint64_t usedIn_ = 0;   ///< crossbar inputs taken this cycle
    std::uint64_t usedOut_ = 0;  ///< crossbar outputs taken this cycle
    int vaRotate_ = 0;

    /// VC occupancy, the candidate set of every VA and SA loop: bit vc
    /// of occ_[in_port] is set ⇔ that VC's FIFO is non-empty, and bit
    /// in_port of occPorts_ ⇔ occ_[in_port] != 0.
    std::vector<std::uint64_t> occ_;
    std::uint64_t occPorts_ = 0;

    /// Dormancy (specialized kernels only): set by a step that ended at a
    /// fixed point, cleared by every mutator. sleptAt_ is the cycle of
    /// that step until the next executed step catches up vaRotate_.
    bool dormant_ = false;
    Cycle sleptAt_ = kNeverCycle;

    std::vector<PortId> lastOutPort_;  ///< per input port, for locality

    RouterStats stats_;
    TelemetrySink *telem_ = nullptr;
    InvariantChecker *vchk_ = nullptr;
    PhaseProfiler *prof_ = nullptr;      ///< attached profiler (may be null)
    PhaseProfiler *fineProf_ = nullptr;  ///< non-null on sampling cycles only
};

} // namespace noc

#endif // NOC_ROUTER_ROUTER_HPP
