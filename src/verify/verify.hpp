/**
 * @file
 * Runtime invariant checker for the network core.
 *
 * The pseudo-circuit fast paths (SA bypass, speculation, buffer
 * bypassing) are stateful optimisations that can corrupt results
 * silently: a leaked credit or a stale circuit register still produces
 * plausible aggregate statistics. This layer shadows the flow-control
 * bookkeeping from the outside — an independent ledger fed by hot-path
 * hooks — and cross-checks it against the live router state:
 *
 *   Credits   credit conservation per (link, drop, VC): sender credits
 *             always equal bufferDepth minus flits in flight on the slot
 *   VcState   input-VC state machine legality and output-VC ownership
 *             (Active VC <-> owned output VC, both directions)
 *   Circuits  pseudo-circuit register consistency: at most one circuit
 *             per output, SA grants establish/terminate correctly, a
 *             non-streaming circuit never outlives its last downstream
 *             credit, reuse delivers over the route the flit wanted
 *   Ordering  intra-packet flit ordering and head/tail framing at
 *             injection and ejection, delivery to the right node
 *   Conserve  end-to-end packet conservation: injected = delivered +
 *             in flight, checked per cycle and exhaustively at drain
 *   Deadlock  wait-for-graph cycle search over credit-blocked VCs once
 *             the network makes no progress, with a diagnostic dump
 *
 * Gating mirrors the telemetry layer: configure with -DNOC_VERIFY=OFF
 * and every NOC_VCHK() in the hot paths compiles to nothing. When
 * compiled in, an unattached checker costs one null-pointer test per
 * hook site.
 */

#ifndef NOC_VERIFY_VERIFY_HPP
#define NOC_VERIFY_VERIFY_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "router/flit.hpp"
#include "routing/routing.hpp"

#if defined(NOC_VERIFY_DISABLED)
#define NOC_VERIFY_ENABLED 0
#else
#define NOC_VERIFY_ENABLED 1
#endif

/**
 * Hot-path hook: NOC_VCHK(checker, onCreditTaken(...)) calls the member
 * when a checker is attached, and compiles to nothing when the verify
 * layer is configured out — arguments are never evaluated.
 */
#if NOC_VERIFY_ENABLED
#define NOC_VCHK(checker, call)                                             \
    do {                                                                    \
        if (checker)                                                        \
            (checker)->call;                                                \
    } while (0)
#else
#define NOC_VCHK(checker, call)                                             \
    do {                                                                    \
    } while (0)
#endif

namespace noc {

class Network;

/** Invariant families, usable as a bitmask in VerifyConfig::mask. */
enum class Invariant : std::uint32_t {
    Credits = 1u << 0,
    VcState = 1u << 1,
    Circuits = 1u << 2,
    Ordering = 1u << 3,
    Conserve = 1u << 4,
    Deadlock = 1u << 5,
};

inline constexpr std::uint32_t kAllInvariants = 0x3f;

const char *toString(Invariant inv);

/**
 * Parse "all", "off", or a comma list of credits|state|pc|order|
 * conserve|deadlock into an invariant mask (fatal on unknown names).
 */
std::uint32_t verifyMaskFromSpec(const std::string &spec);

/** Checker knobs; defaults check everything every cycle. */
struct VerifyConfig
{
    /// Carried by job descriptions (e.g. SweepJob) to request a
    /// per-run checker; the checker itself ignores it.
    bool enabled = false;
    std::uint32_t mask = kAllInvariants;
    /// Full-state scan cadence in cycles (0 disables the scans; the
    /// event-driven ledger checks still run).
    Cycle scanEvery = 1;
    /// Cycles without network progress before the wait-for-graph
    /// deadlock probe runs (and re-runs, while the stall persists).
    Cycle deadlockAfter = 1500;
    /// Panic on the first violation instead of recording it.
    bool failFast = false;
    /// Stored-violation cap; the total count keeps running past it.
    std::size_t maxViolations = 64;
};

/** One detected invariant violation. */
struct Violation
{
    Invariant kind = Invariant::Credits;
    Cycle cycle = 0;
    RouterId router = kInvalidRouter;  ///< kInvalidRouter: network level
    std::string detail;

    /** "cycle 1234 router 5 [credits] <detail>" */
    std::string describe() const;
};

/**
 * A small directed graph of labelled wait dependencies with cycle
 * search; standalone so the deadlock detector is unit-testable.
 */
class WaitForGraph
{
  public:
    /** Add a node; returns its index. */
    int addNode(std::string label);
    void addEdge(int from, int to);

    int size() const { return static_cast<int>(labels_.size()); }
    const std::string &label(int node) const { return labels_[node]; }

    /**
     * Indices of the nodes on one directed cycle, in order (first node
     * repeated implicitly); empty when the graph is acyclic.
     */
    std::vector<int> findCycle() const;

  private:
    std::vector<std::string> labels_;
    std::vector<std::vector<int>> edges_;
};

class InvariantChecker
{
  public:
    explicit InvariantChecker(const VerifyConfig &cfg = {});

    /**
     * Bind to a network and size the shadow ledgers from its topology.
     * Called by Network::setVerifier(); the checker observes only — it
     * never mutates network state, so an attached checker cannot
     * perturb simulation results. Fatal when the verify layer was
     * compiled out (the hooks feeding the ledgers do not exist).
     */
    void attach(const Network &net);
    bool attached() const { return net_ != nullptr; }

    const VerifyConfig &config() const { return cfg_; }

    /**
     * Concurrent mode (sharded runs): hook bodies serialise on an
     * internal mutex so shard threads can feed the ledgers from
     * disjoint routers. The ledger updates are order-insensitive within
     * a cycle (counter arithmetic keyed by slot), so the interleaving
     * does not change what a scan observes at a window barrier. Off by
     * default — serial runs pay nothing. Network::beginSharded turns it
     * on, endSharded off.
     */
    void setConcurrent(bool on) { concurrent_ = on; }

    // --- hot-path hooks (call through NOC_VCHK) ---

    /** A packet was handed to its source NI. */
    void onPacketInjected(const PacketDesc &packet, Cycle now);
    /** The source NI emitted one flit onto its terminal link. */
    void onFlitInjected(NodeId node, const Flit &flit, Cycle now);
    /** A flit arrived at a destination NI. */
    void onFlitEjected(NodeId node, const Flit &flit, Cycle now);
    /** Router `r` consumed a downstream credit sending a flit. */
    void onCreditTaken(RouterId r, PortId out_port, int drop, VcId vc,
                       bool express, Cycle now);
    /** A credit returned to router `r` for one of its outputs. */
    void onCreditReturned(RouterId r, PortId out_port, int drop, VcId vc,
                          bool express, Cycle now);
    /** A credit returned to a source NI's terminal input port. */
    void onNiCredit(NodeId node, VcId vc, Cycle now);
    /** SA granted (in_port, in_vc) -> route; pseudo-circuit created. */
    void onSaGrant(RouterId r, PortId in_port, VcId in_vc,
                   const RouteDecision &route, Cycle now);
    /** A flit traversed via the standing pseudo-circuit at `in_port`. */
    void onPcReuse(RouterId r, PortId in_port, VcId in_vc,
                   const RouteDecision &used, const Flit &flit,
                   bool via_latch, Cycle now);
    /** End of the network cycle `now`: scans + deadlock probe. */
    void onCycleEnd(Cycle now);

    // --- fault waivers (installed by the FaultController) ---

    /**
     * Waive the credit ledger of one directed link slot set: a dead
     * link's dropped flits never return their credits, so the drained
     * audit skips every (drop, vc) slot of `out_port`'s `drop` at
     * router `r`. Per-cycle ledger checks for other links stay on.
     */
    void waiveLink(RouterId r, PortId out_port, int drop);

    /**
     * Suppress the forward-progress (deadlock) probe while now is
     * before `until` plus the configured deadlockAfter slack. Used for
     * stall windows (bounded) and dead links (kNeverCycle: packets
     * legitimately stop draining).
     */
    void waiveProgressUntil(Cycle until);

    /**
     * Exhaustive audit of the fully drained network: no packet in
     * flight, every ledger zero, every credit home, every input VC
     * idle and empty, no owned output VC. The caller must let
     * in-flight credits land first (the network is "idle" as soon as
     * the last flit ejects, while its credits are still on the wire).
     */
    void checkDrained(Cycle now);

    // --- results ---

    std::uint64_t checks() const { return checks_; }
    std::uint64_t violationCount() const { return violationCount_; }
    const std::vector<Violation> &violations() const { return violations_; }
    bool clean() const { return violationCount_ == 0; }

    /** Multi-line report of the stored violations (empty when clean). */
    std::string report() const;

  private:
    struct PacketState
    {
        NodeId src = kInvalidNode;
        NodeId dst = kInvalidNode;
        std::uint32_t size = 1;
        std::uint32_t injectedFlits = 0;
        std::uint32_t ejectedFlits = 0;
        Cycle created = 0;
    };

    bool on(Invariant inv) const
    {
        return (cfg_.mask & static_cast<std::uint32_t>(inv)) != 0;
    }

    /** Engaged lock in concurrent mode, a no-op otherwise. */
    std::unique_lock<std::mutex> maybeLock()
    {
        return concurrent_ ? std::unique_lock<std::mutex>(mu_)
                           : std::unique_lock<std::mutex>();
    }

    /**
     * Count a check; record/panic on failure. Returns `ok`. `detail`
     * returns the message and runs only on failure: the per-cycle scans
     * make millions of passing checks, and formatting a message for
     * each one cost far more than the checks themselves.
     */
    template <typename Detail>
    bool expect(bool ok, Invariant kind, Cycle now, RouterId router,
                const Detail &detail)
    {
        ++checks_;
        if (!ok)
            fail(kind, now, router, detail());
        return ok;
    }
    void fail(Invariant kind, Cycle now, RouterId router,
              const std::string &detail);

    int &linkSlot(RouterId r, PortId out_port, int drop, VcId vc);

    void scanRouterState(Cycle now);
    void scanConservation(Cycle now);
    void probeDeadlock(Cycle now);

    VerifyConfig cfg_;
    const Network *net_ = nullptr;
    std::mutex mu_;              ///< guards ledgers in concurrent mode
    bool concurrent_ = false;

    // Shadow ledgers: flits sent minus credits returned, per slot.
    /// [router][outPort][drop * numVcs + vc]
    std::vector<std::vector<std::vector<int>>> linkOut_;
    /// EVC express slots, keyed (router, outPort, vc) — sparse.
    std::map<std::tuple<RouterId, PortId, VcId>, int> expressOut_;
    /// [node][vc]: flits the NI sent whose credit has not returned.
    std::vector<std::vector<int>> niOut_;

    std::unordered_map<PacketId, PacketState> inflight_;
    std::uint64_t injectedPackets_ = 0;
    std::uint64_t deliveredPackets_ = 0;

    Cycle lastDeadlockProbe_ = 0;

    /// Fault waivers: dead-link slot sets excluded from the drained
    /// credit audit, and the progress-probe suppression horizon.
    std::vector<std::tuple<RouterId, PortId, int>> waivedLinks_;
    Cycle progressWaivedUntil_ = 0;

    std::uint64_t checks_ = 0;
    std::uint64_t violationCount_ = 0;
    std::vector<Violation> violations_;
};

} // namespace noc

#endif // NOC_VERIFY_VERIFY_HPP
