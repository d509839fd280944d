/**
 * @file
 * The simulation driver: warmup / measure / drain phasing, statistics
 * collection, and saturation detection.
 */

#ifndef NOC_SIM_SIMULATOR_HPP
#define NOC_SIM_SIMULATOR_HPP

#include <functional>
#include <memory>
#include <stdexcept>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "metrics/flow_matrix.hpp"
#include "metrics/run_health.hpp"
#include "network/network.hpp"
#include "sim/energy.hpp"
#include "telemetry/telemetry.hpp"
#include "traffic/traffic.hpp"
#include "verify/verify.hpp"

namespace noc {

/** Phase lengths and limits for one run. */
struct SimWindows
{
    Cycle warmup = 5000;
    Cycle measure = 20000;
    Cycle drainLimit = 100000;  ///< give up (saturated) past this
    /// Emit a SimSample every N cycles of the measurement window
    /// (0 = off). Useful for convergence/saturation inspection.
    Cycle sampleInterval = 0;
    /// Run-health monitoring (all off by default). With a monitor that
    /// needs the sample stream enabled but sampleInterval == 0, samples
    /// are taken every health.sampleEvery cycles instead.
    RunHealthConfig health;
    /// Cooperative cancellation: polled every few thousand cycles in
    /// every phase; returning true aborts the run by throwing
    /// SimCancelled. Used by the sweep layer's per-job deadline and the
    /// SIGINT/SIGTERM stop flag. Null (the default) costs nothing.
    std::function<bool()> cancel;
};

/**
 * Thrown out of Simulator::run when SimWindows::cancel fires. Derives
 * from std::runtime_error so generic catch sites (the sweep worker's
 * failure isolation) still produce a labelled outcome.
 */
struct SimCancelled : std::runtime_error
{
    explicit SimCancelled(const std::string &why) : std::runtime_error(why)
    {
    }
};

/** One time-series point over a sampling interval. */
struct SimSample
{
    Cycle cycle = 0;            ///< end of the interval
    std::uint64_t packets = 0;  ///< completions in the interval
    double avgLatency = 0.0;    ///< create->eject, this interval only
    double throughput = 0.0;    ///< flits/node/cycle, this interval
};

/**
 * How a result relates to the network-model layer (src/analytic/).
 * Inactive — and absent from every sink — for plain detailed runs, so
 * model-off output stays byte-identical to pre-model releases.
 */
struct ModelAnnotation
{
    bool active = false;
    /// "analytic": the numbers are model predictions, no simulation
    /// ran. "frontier": a cycle-accurate run a hybrid sweep selected;
    /// the predicted_* fields carry the model's screen of the point.
    std::string tag;
    double predictedNetLatency = 0.0;
    double predictedTotalLatency = 0.0;
    /// Frontier only: |predicted - measured| / measured net latency.
    double relErrorNet = 0.0;
    bool predictedSaturated = false;
};

/**
 * How a result relates to the phase-profiling layer (src/profile/).
 * Inactive — and absent from every sink — unless a profiler rode the
 * run, so profile-off output stays byte-identical to prior releases.
 */
struct ProfileAnnotation
{
    bool active = false;
    double jobWallSeconds = 0.0;    ///< wall time of this run/attempt
    double jobQueueSeconds = 0.0;   ///< sweep: claim delay behind other jobs
};

/** Everything one run produces. */
struct SimResult
{
    std::uint64_t measuredPackets = 0;
    double avgTotalLatency = 0.0;   ///< creation -> ejection
    double avgNetLatency = 0.0;     ///< injection -> ejection
    double p99TotalLatency = 0.0;
    double avgHops = 0.0;
    double throughput = 0.0;        ///< accepted flits / node / cycle

    /// Latency split by the paper's bimodal packet mix.
    double avgLatencyAddrPkts = 0.0;   ///< single-flit (address) packets
    double avgLatencyDataPkts = 0.0;   ///< multi-flit (data) packets

    /// Fraction of switch traversals that reused a pseudo-circuit
    /// (Fig 8b / Fig 10: "reusability").
    double reusability = 0.0;

    /// Time series (only when SimWindows::sampleInterval > 0).
    std::vector<SimSample> samples;

    /// Timing-independent trace locality is in sim/locality.hpp; these
    /// are the online equivalents measured during the run.
    double crossbarLocality = 0.0;
    double endToEndLocality = 0.0;

    EnergyBreakdown energy;
    RouterStats routerTotals;
    PseudoCircuitStats pcTotals;
    NiStats niTotals;

    /// Rolled-up telemetry event counts (all zero unless a sink was
    /// attached for the run; exact even when the collector drops).
    TelemetryCounters telemetry;

    /// Run-health record: verdict, steady-state cycle, saturation
    /// early-exit data, watchdog snapshots (verdict == None and
    /// everything empty unless SimWindows::health enabled monitors).
    RunHealth health;

    /// Per-flow (src -> dst) latency histograms over the measured
    /// packets (empty unless SimWindows::health.flows.enabled).
    FlowMatrix flows;

    /// Degradation report of the fault plan (active == false — and no
    /// output anywhere — for fault-free runs).
    FaultReport fault;

    /// Network-model provenance (active == false — and no output
    /// anywhere — for plain detailed runs).
    ModelAnnotation model;

    /// Self-profiling annotation (active == false — and no output
    /// anywhere — unless profiling was requested for the run).
    ProfileAnnotation profile;

    Cycle cyclesRun = 0;
    bool drained = false;           ///< all packets delivered in time

    /// Shard count the run actually executed with (1 = the serial
    /// path). Execution provenance like the kernel name: never
    /// serialized, so sharded output stays byte-identical to serial —
    /// parity tests read it to prove the partitioned path really ran.
    int shardsUsed = 1;

    /// Router steps actually executed over the whole run (the cycles
    /// counted by cyclesRun): routers x cyclesRun on the generic
    /// kernel, fewer on the specialized kernels, whose dormant routers
    /// are skipped. A work counter like shardsUsed: never serialized.
    std::uint64_t routerSteps = 0;
};

class Simulator
{
  public:
    Simulator(const SimConfig &cfg, std::unique_ptr<TrafficSource> source);

    /** Run warmup + measurement + drain; collect statistics. */
    SimResult run(const SimWindows &windows = {});

    /**
     * Attach a telemetry sink for the whole network before run();
     * rolled-up counters land in SimResult::telemetry. The caller owns
     * the sink and keeps it alive across run().
     */
    void setTelemetry(TelemetrySink *sink)
    {
        telem_ = sink;
        net_.setTelemetry(sink);
    }

    /**
     * Attach a runtime invariant checker before run(); the simulator
     * lets in-flight credits settle after the drain phase and runs the
     * checker's exhaustive drained audit. The caller owns the checker.
     * Alternatively, setting the NOC_VERIFY environment variable to an
     * invariant spec ("all", "credits,order", ...) makes every
     * Simulator attach its own fail-fast checker — the switch that lets
     * the whole test suite run under verification unchanged.
     */
    void setVerifier(InvariantChecker *chk)
    {
        verifier_ = chk;
        net_.setVerifier(chk);
    }

    /**
     * Attach a phase profiler before run(); phase costs accumulate in
     * the profiler across the whole run (read them back with
     * PhaseProfiler::report()). The caller owns the profiler. Fatal
     * when the profiling layer was compiled out (-DNOC_PROFILE=OFF).
     */
    void setProfiler(PhaseProfiler *prof)
    {
        prof_ = prof;
        net_.setProfiler(prof);
    }

    Network &network() { return net_; }
    TrafficSource &source() { return *source_; }

  private:
    void stepOnce(SimPhase phase);
    /** One delivered packet into the latency/throughput accumulators. */
    void accumulateCompletion(const CompletedPacket &p);
    /** Shared result-assembly tail of the serial and sharded paths. */
    SimResult assembleResult(const RouterStats &before, RunHealth &&health);
    /**
     * The partitioned run (sim/shard.hpp): same phases as run(), but
     * cycles advance in lookahead windows with one thread per shard.
     * Only taken for eligible runs — open-loop source, no faults, no
     * telemetry/profiler/health monitors, no samples — everything else
     * falls back to the serial loop. Bit-exact with the serial path.
     */
    SimResult runSharded(const SimWindows &windows, int num_shards);

    Network net_;
    std::unique_ptr<TrafficSource> source_;
    TelemetrySink *telem_ = nullptr;
    InvariantChecker *verifier_ = nullptr;
    PhaseProfiler *prof_ = nullptr;
    std::unique_ptr<InvariantChecker> envVerifier_;  ///< NOC_VERIFY=...
    std::vector<CompletedPacket> completedScratch_;

    StatAccumulator totalLatency_;
    StatAccumulator netLatency_;
    StatAccumulator hopCount_;
    StatAccumulator addrLatency_;
    StatAccumulator dataLatency_;
    StatAccumulator intervalLatency_;
    /// Like intervalLatency_ but over *all* completions (warmup packets
    /// included) — feeds adaptive-warmup convergence detection.
    StatAccumulator allPhaseInterval_;
    Histogram latencyHist_{1.0, 4096};
    std::uint64_t measuredFlits_ = 0;
    std::uint64_t intervalFlits_ = 0;
    std::vector<SimSample> samples_;
    FlowMatrix flows_;
    bool flowsEnabled_ = false;
};

/** Convenience: run one configuration with a traffic source factory;
 *  `telemetry` (optional, caller-owned) collects events for the run. */
SimResult runSimulation(const SimConfig &cfg,
                        std::unique_ptr<TrafficSource> source,
                        const SimWindows &windows = {},
                        TelemetrySink *telemetry = nullptr);

} // namespace noc

#endif // NOC_SIM_SIMULATOR_HPP
