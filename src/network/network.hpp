/**
 * @file
 * The complete on-chip network: topology + routers + NIs + links,
 * advanced one cycle at a time.
 *
 * Per cycle:
 *   1. deliver everything arriving now (flits and credits, to routers
 *      and NIs);
 *   2. NIs inject (at most one flit each);
 *   3. routers run switch traversal + allocation; their emitted flits
 *      and credits are placed on the links with wire delay proportional
 *      to physical span.
 */

#ifndef NOC_NETWORK_NETWORK_HPP
#define NOC_NETWORK_NETWORK_HPP

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "fault/fault_controller.hpp"
#include "network/link.hpp"
#include "network/network_interface.hpp"
#include "router/router.hpp"
#include "routing/routing.hpp"
#include "topology/topology.hpp"

namespace noc {

class InvariantChecker;
class PhaseProfiler;
struct ShardPlan;
class ShardRuntime;

/** Build the topology described by a configuration. */
std::unique_ptr<Topology> makeTopology(const SimConfig &cfg);

class Network
{
  public:
    explicit Network(const SimConfig &cfg);
    ~Network();  ///< out-of-line: ShardRuntime is defined in network.cpp

    const SimConfig &config() const { return cfg_; }
    const Topology &topology() const { return *topo_; }
    const RoutingAlgorithm &routing() const { return *routing_; }

    Cycle now() const { return now_; }

    /** Hand a packet to its source NI. */
    void injectPacket(const PacketDesc &packet);

    /** Advance one cycle. */
    void step();

    /** No packet queued, in flight, or partially received. */
    bool idle() const { return outstanding_ == 0; }

    std::uint64_t packetsOutstanding() const { return outstanding_; }

    /**
     * Router steps actually executed since construction: routers x
     * cycles on the generic kernel, fewer on the specialized kernels,
     * whose dormant routers are skipped. A deterministic work counter
     * (the sharded path folds its per-shard counts in at window
     * barriers).
     */
    std::uint64_t routerSteps() const { return routerSteps_; }

    /**
     * Forward-progress watchdog: cycles since a flit last moved
     * anywhere in the network. With packets outstanding, a large value
     * indicates deadlock/livelock (which the scheme set here should
     * never produce); the simulator uses it to fail fast with
     * diagnostics instead of spinning to the drain limit.
     */
    Cycle cyclesSinceProgress() const { return now_ - lastProgress_; }

    /** One-line description of where outstanding packets are stuck. */
    std::string describeStall() const;

    /**
     * Cheap whole-network state probe for the run-health watchdog:
     * where traffic is sitting (NI queues vs. router buffers), how much
     * credit headroom remains, and how old the oldest in-flight packet
     * is. O(routers x ports x VCs); intended for periodic sampling, not
     * per-cycle use.
     */
    struct Probe
    {
        std::uint64_t niQueuedPackets = 0;
        std::uint64_t bufferedFlits = 0;
        std::uint64_t creditsFree = 0;
        /// Earliest createTime among queued/buffered packets;
        /// kNeverCycle when the network holds nothing.
        Cycle oldestCreate = kNeverCycle;
        RouterId hotRouter = kInvalidRouter;  ///< deepest-buffered router
        std::uint64_t hotOccupancy = 0;
    };
    Probe probe() const;

    NetworkInterface &ni(NodeId n) { return *nis_[n]; }
    const NetworkInterface &ni(NodeId n) const { return *nis_[n]; }
    Router &router(RouterId r) { return *routers_[r]; }
    const Router &router(RouterId r) const { return *routers_[r]; }
    int numRouters() const { return static_cast<int>(routers_.size()); }
    int numNodes() const { return static_cast<int>(nis_.size()); }

    /**
     * Name of the router simulation kernel this network runs on (every
     * router in a network shares one kernel; see router/kernels.hpp).
     */
    const std::string &kernelName() const
    {
        return routers_.front()->kernelName();
    }

    /** True when a specialized (devirtualized) kernel was selected. */
    bool kernelSpecialized() const
    {
        return routers_.front()->kernelSpecialized();
    }

    /**
     * Attach a telemetry sink to every router, the pseudo-circuit
     * units, and the link fabric (nullptr detaches). The network never
     * owns the sink; the caller keeps it alive across the run.
     */
    void setTelemetry(TelemetrySink *sink);

    /**
     * Attach a runtime invariant checker to the network and every
     * router (nullptr detaches); attaching also binds the checker's
     * shadow ledgers to this network's topology. The caller keeps the
     * checker alive across the run. Fatal when the verify layer was
     * compiled out (-DNOC_VERIFY=OFF).
     */
    void setVerifier(InvariantChecker *chk);

    /**
     * Attach a phase profiler to the cycle loop and every router
     * (nullptr detaches). The caller keeps the profiler alive across
     * the run. Fatal when the profiling layer was compiled out
     * (-DNOC_PROFILE=OFF).
     */
    void setProfiler(PhaseProfiler *prof);

    /** Move every NI's completed packets into `out`. */
    void drainCompleted(std::vector<CompletedPacket> &out);

    /**
     * The fault controller executing this run's fault plan; nullptr for
     * fault-free configurations (the common case — every fault hook in
     * the cycle loop is gated on this being non-null).
     */
    const FaultController *faults() const { return faults_.get(); }

    RouterStats aggregateRouterStats() const;
    PseudoCircuitStats aggregatePcStats() const;
    NiStats aggregateNiStats() const;

    // ----- Sharded stepping (sim/shard.hpp drives this; see
    // docs/architecture.md §16). The partitioned path replaces step()
    // for a whole run: beginSharded() installs the runtime, shard
    // threads call shardAdvance() for disjoint router/NI bands, the
    // main thread calls shardBarrier() between lookahead windows, and
    // endSharded() collapses pending events back into the serial ring
    // so drain/settle can finish on the ordinary step() path. -----

    /** True between beginSharded() and endSharded(). */
    bool sharded() const { return shard_ != nullptr; }

    /**
     * Enter sharded mode. Requires a fault-free network at cycle 0 with
     * an empty event ring. The plan must partition this network's
     * routers into contiguous row bands (makeShardPlan).
     */
    void beginSharded(const ShardPlan &plan);

    /**
     * Advance one shard's routers and NIs over [from, to). Called
     * concurrently, one thread per shard; `to - from` must not exceed
     * the plan's lookahead window, so no event produced by another
     * shard during the same span can arrive before `to`.
     */
    void shardAdvance(int shard, Cycle from, Cycle to);

    /**
     * Window barrier (main thread, all shard threads parked): route
     * cross-shard events from the SPSC queues into the target shards'
     * calendars, fold per-shard progress/outstanding deltas into the
     * global counters, advance now() to `up_to`, and run the verifier's
     * end-of-cycle scan for cycle `up_to - 1`.
     */
    void shardBarrier(Cycle up_to);

    /**
     * Leave sharded mode: hand every pending calendar event back to the
     * serial event ring (credits first, then flits in deterministic
     * order, exactly as a serial run would hold them) and tear down the
     * shard runtime. The network then continues on step().
     */
    void endSharded();

    /**
     * Staging mode (main thread, shard threads parked): while on,
     * injectPacket() records packets against shardStageCycle()'s cycle
     * on the owning shard instead of touching NIs, so a whole window of
     * open-loop traffic can be generated up front and replayed by the
     * shard threads in serial order.
     */
    void shardStaging(bool on);
    void shardStageCycle(Cycle cycle);

    /**
     * Move completions collected by shardAdvance() into `out` (shard
     * order, unsorted — the Simulator sorts by ejection cycle).
     */
    void takeShardCompletions(std::vector<CompletedPacket> &out);

  private:
    void dispatch(const LinkEvent &event);
    void stepRouters(bool stalls);
    void buildEvcCreditMap();
    void shardStepCycle(int shard, Cycle cycle);
    void shardDispatch(int shard, Cycle cycle, const LinkEvent &ev);
    void shardSchedule(int shard, Cycle cycle, Cycle when,
                       const LinkEvent &ev, std::int32_t rank);
    void shardDrainQueues(Cycle up_to);

    SimConfig cfg_;
    std::unique_ptr<Topology> topo_;
    std::unique_ptr<FaultController> faults_;
    std::unique_ptr<RoutingAlgorithm> routing_;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<NetworkInterface>> nis_;
    EventRing ring_;
    std::vector<LinkEvent> faultPending_;  ///< scratch: released stall holds
    std::vector<TeardownRequest> teardownScratch_;  ///< scratch: churn epochs
    Cycle now_ = 0;
    std::uint64_t outstanding_ = 0;
    Cycle lastProgress_ = 0;
    std::uint64_t routerSteps_ = 0;
    InvariantChecker *verifier_ = nullptr;
    PhaseProfiler *prof_ = nullptr;
    std::unique_ptr<ShardRuntime> shard_;  ///< non-null in sharded mode

    /// EVC express-credit upstream map: [router][inPort] -> (source
    /// router two hops back, its output port); kInvalidRouter if none.
    std::vector<std::vector<std::pair<RouterId, PortId>>> evcUpstream_;
};

} // namespace noc

#endif // NOC_NETWORK_NETWORK_HPP
