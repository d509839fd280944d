#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/log.hpp"
#include "metrics/convergence.hpp"
#include "metrics/saturation.hpp"
#include "metrics/watchdog.hpp"
#include "sim/shard.hpp"

namespace noc {

Simulator::Simulator(const SimConfig &cfg,
                     std::unique_ptr<TrafficSource> source)
    : net_(cfg), source_(std::move(source))
{
    NOC_ASSERT(source_ != nullptr, "simulator needs a traffic source");
#if NOC_VERIFY_ENABLED
    if (const char *env = std::getenv("NOC_VERIFY")) {
        VerifyConfig vcfg;
        vcfg.mask = verifyMaskFromSpec(env);
        if (vcfg.mask != 0) {
            vcfg.failFast = true;
            envVerifier_ = std::make_unique<InvariantChecker>(vcfg);
            setVerifier(envVerifier_.get());
        }
    }
#endif
}

void
Simulator::accumulateCompletion(const CompletedPacket &p)
{
    const auto total = static_cast<double>(p.ejectTime - p.createTime);
    allPhaseInterval_.add(total);
    if (!p.measured)
        return;
    const auto net_lat = static_cast<double>(p.ejectTime - p.injectTime);
    totalLatency_.add(total);
    netLatency_.add(net_lat);
    hopCount_.add(static_cast<double>(p.hops));
    (p.size == 1 ? addrLatency_ : dataLatency_).add(total);
    intervalLatency_.add(total);
    latencyHist_.add(total);
    measuredFlits_ += p.size;
    intervalFlits_ += p.size;
    if (flowsEnabled_)
        flows_.record(p.src, p.dst, total);
}

void
Simulator::stepOnce(SimPhase phase)
{
    source_->tick(net_, net_.now(), phase);
    net_.step();

    completedScratch_.clear();
    net_.drainCompleted(completedScratch_);
    for (const CompletedPacket &p : completedScratch_) {
        source_->onPacketDelivered(p, net_, net_.now());
        accumulateCompletion(p);
    }
}

SimResult
Simulator::run(const SimWindows &windows)
{
    const RunHealthConfig &hc = windows.health;

    // Sharded intra-run parallelism (sim/shard.hpp): taken only when
    // the run is eligible — a fresh network, an open-loop source, and
    // none of the serial-only riders (fault plans, telemetry, the
    // profiler, health monitors, interval samples). Everything the
    // sharded path produces is bit-identical to the serial loop
    // (tests/sim/shard_parity_test.cpp), so eligibility only gates
    // features the v1 path does not carry, never results.
    {
        const SimConfig &cfg = net_.config();
        const int shards = resolveShardCount(cfg);
        if (shards > 1 && net_.now() == 0 && source_->openLoop() &&
            cfg.faultSpec.empty() && cfg.churnSpec.empty() &&
            cfg.dropCreditEvery == 0 &&
            telem_ == nullptr && prof_ == nullptr &&
            windows.sampleInterval == 0 && !hc.any())
            return runSharded(windows, shards);
    }
    // The monitors consume the interval-sample stream; when the caller
    // did not configure one, health monitoring brings its own cadence.
    const Cycle sample_every = windows.sampleInterval > 0
        ? windows.sampleInterval
        : (hc.needsSamples() ? hc.sampleEvery : 0);
    flowsEnabled_ = hc.flows.enabled;

    SaturationConfig sat_cfg = hc.saturation;
    if (sat_cfg.minBacklog == 0)
        sat_cfg.minBacklog =
            4ull * static_cast<std::uint64_t>(net_.numNodes());

    ConvergenceMonitor warmup_monitor(hc.convergence);
    ConvergenceMonitor monitor(hc.convergence);
    SaturationGuard guard(sat_cfg);
    Watchdog watchdog(hc.watchdog);
    RunHealth health;

    // Cooperative cancellation: cheap enough to poll every few thousand
    // cycles without perturbing anything (the checker observes only).
    constexpr Cycle kCancelMask = 4095;
    auto cancelled = [&windows](Cycle c) {
        return windows.cancel && (c & kCancelMask) == 0 && windows.cancel();
    };

    const bool adaptive = hc.convergence.enabled &&
        hc.convergence.adaptiveWarmup && sample_every > 0;
    for (Cycle c = 0; c < windows.warmup; ++c) {
        if (cancelled(c))
            throw SimCancelled("cancelled during warmup");
        stepOnce(SimPhase::Warmup);
        ++health.warmupUsed;
        if (watchdog.due(net_.now()))
            watchdog.snapshot(net_, net_.now());
        if (adaptive && (c + 1) % sample_every == 0) {
            // Warmup packets are unmeasured, so steady-state detection
            // here runs on the all-completions interval accumulator.
            warmup_monitor.observe(net_.now(), allPhaseInterval_.count(),
                                   allPhaseInterval_.mean());
            allPhaseInterval_.reset();
            if (warmup_monitor.steady())
                break;
        }
    }
    allPhaseInterval_.reset();

    const RouterStats before = net_.aggregateRouterStats();
    for (Cycle c = 0; c < windows.measure; ++c) {
        if (cancelled(c))
            throw SimCancelled("cancelled during measurement");
        stepOnce(SimPhase::Measure);
        ++health.measureUsed;
        if (watchdog.due(net_.now()))
            watchdog.snapshot(net_, net_.now());
        if (sample_every > 0 && (c + 1) % sample_every == 0) {
            SimSample sample;
            sample.cycle = net_.now();
            sample.packets = intervalLatency_.count();
            sample.avgLatency = intervalLatency_.mean();
            sample.throughput = static_cast<double>(intervalFlits_) /
                (static_cast<double>(sample_every) *
                 static_cast<double>(net_.numNodes()));
            samples_.push_back(sample);
            intervalLatency_.reset();
            intervalFlits_ = 0;

            const std::uint64_t backlog = net_.packetsOutstanding();
            health.peakBacklog = std::max(health.peakBacklog, backlog);
            if (hc.convergence.enabled)
                monitor.observe(sample.cycle, sample.packets,
                                sample.avgLatency);
            if (hc.saturation.enabled) {
                guard.observe(sample.cycle, sample.avgLatency, backlog);
                if (guard.saturated())
                    break;
            }
        }
    }

    // A saturated network cannot drain: skip the measurement remainder
    // and the whole drain phase — that wasted budget is the guard's
    // sweep speedup.
    Cycle drained_cycles = 0;
    const FaultController *faults = net_.faults();
    while (!guard.saturated() &&
           !(net_.idle() && source_->exhausted()) &&
           drained_cycles < windows.drainLimit) {
        if (cancelled(drained_cycles))
            throw SimCancelled("cancelled during drain");
        stepOnce(SimPhase::Drain);
        ++drained_cycles;
        if (watchdog.due(net_.now()))
            watchdog.snapshot(net_, net_.now());
        // A dead or permanently-down link wedges the packets routed
        // onto it by design: end the drain quietly once nothing has
        // moved for a while — the degradation report (not a stall
        // warning) is the result. Never while a revival is scheduled:
        // deferred flits resume when the link comes back.
        const bool revival =
            faults != nullptr && faults->revivalPending(net_.now());
        if (faults != nullptr && !revival && faults->anyUnavailable() &&
            net_.cyclesSinceProgress() > 4 * faults->retryTimeout() + 64)
            break;
        // Forward-progress watchdog: fail fast on a wedged network
        // instead of spinning to the drain limit. A pending revival is
        // not a wedge — the churn plan promises the outage ends.
        if (!net_.idle() && !revival &&
            net_.cyclesSinceProgress() > 10000) {
            NOC_WARN("network stalled during drain: " +
                     net_.describeStall());
            break;
        }
    }

    if (verifier_ && !guard.saturated() && net_.idle() &&
        source_->exhausted()) {
        // The network reports idle as soon as the last flit ejects,
        // while its ejection/upstream credits are still on the wire.
        // Let them land before the exhaustive drained audit (bounded by
        // the longest credit path; EVC credits travel two hops).
        const SimConfig &cfg = net_.config();
        const Cycle settle = 2 *
            static_cast<Cycle>(std::max(cfg.linkLatency,
                                        cfg.creditLatency)) *
            static_cast<Cycle>(cfg.meshWidth + cfg.meshHeight) + 8;
        for (Cycle c = 0; c < settle; ++c)
            net_.step();
        verifier_->checkDrained(net_.now());
    }

    health.steadyCycle = monitor.steadyCycle();
    health.latencyCov = monitor.cov();
    if (guard.saturated()) {
        health.verdict = RunVerdict::Saturated;
        health.saturationReason = guard.reason();
    } else if (hc.convergence.enabled) {
        health.verdict = monitor.steady() ? RunVerdict::Converged
                                          : RunVerdict::NotConverged;
    }
    health.watchdog = watchdog.takeSnapshots();
    return assembleResult(before, std::move(health));
}

SimResult
Simulator::assembleResult(const RouterStats &before, RunHealth &&health)
{
    const RouterStats after = net_.aggregateRouterStats();

    SimResult result;
    result.cyclesRun = net_.now();
    result.routerSteps = net_.routerSteps();
    result.calendarSlots = net_.calendarSlots();
    result.arenaBytes = net_.arenaBytes();
    result.drained = net_.idle() && source_->exhausted();
    result.measuredPackets = totalLatency_.count();
    result.avgTotalLatency = totalLatency_.mean();
    result.avgNetLatency = netLatency_.mean();
    result.p99TotalLatency = latencyHist_.quantile(0.99);
    result.avgHops = hopCount_.mean();
    result.avgLatencyAddrPkts = addrLatency_.mean();
    result.avgLatencyDataPkts = dataLatency_.mean();
    result.samples = samples_;
    result.throughput = static_cast<double>(measuredFlits_) /
        (static_cast<double>(health.measureUsed) *
         static_cast<double>(net_.numNodes()));
    result.health = std::move(health);
    result.flows = std::move(flows_);

    // Event deltas over the measurement + drain interval.
    RouterStats delta;
    delta.flitsArrived = after.flitsArrived - before.flitsArrived;
    delta.bufferWrites = after.bufferWrites - before.bufferWrites;
    delta.bufferReads = after.bufferReads - before.bufferReads;
    delta.xbarTraversals = after.xbarTraversals - before.xbarTraversals;
    delta.vaGrants = after.vaGrants - before.vaGrants;
    delta.saGrants = after.saGrants - before.saGrants;
    delta.saBypasses = after.saBypasses - before.saBypasses;
    delta.bufferBypasses = after.bufferBypasses - before.bufferBypasses;
    delta.headTraversals = after.headTraversals - before.headTraversals;
    delta.headSaBypasses = after.headSaBypasses - before.headSaBypasses;
    delta.headBufferBypasses =
        after.headBufferBypasses - before.headBufferBypasses;
    delta.expressBypasses = after.expressBypasses - before.expressBypasses;
    delta.wastedGrants = after.wastedGrants - before.wastedGrants;
    delta.localityHeads = after.localityHeads - before.localityHeads;
    delta.localityHits = after.localityHits - before.localityHits;

    result.routerTotals = delta;
    result.pcTotals = net_.aggregatePcStats();
    result.niTotals = net_.aggregateNiStats();
    result.energy = computeEnergy(delta);

    if (delta.xbarTraversals > 0) {
        result.reusability = static_cast<double>(delta.circuitReuses()) /
            static_cast<double>(delta.xbarTraversals);
    }
    if (delta.localityHeads > 0) {
        result.crossbarLocality = static_cast<double>(delta.localityHits) /
            static_cast<double>(delta.localityHeads);
    }
    if (result.niTotals.localityPackets > 0) {
        result.endToEndLocality =
            static_cast<double>(result.niTotals.localityHits) /
            static_cast<double>(result.niTotals.localityPackets);
    }
    if (telem_)
        result.telemetry = telem_->counters();
    if (const FaultController *faults = net_.faults())
        result.fault = faults->report(result.cyclesRun, net_.numNodes());
    return result;
}

SimResult
Simulator::runSharded(const SimWindows &windows, int num_shards)
{
    const ShardPlan plan =
        makeShardPlan(net_.config(), net_.topology(), num_shards);
    NOC_ASSERT(plan.numShards >= 2, "sharded run needs >= 2 shards");

    RunHealth health;
    const Cycle window = plan.window;

    // Stage one span of injections on this thread: the source consumes
    // its RNG in exactly the serial order (cycle-major, node order) and
    // the network records each packet against its cycle for the owning
    // shard thread to replay.
    auto stage = [&](Cycle from, Cycle to, SimPhase phase) {
        net_.shardStaging(true);
        for (Cycle c = from; c < to; ++c) {
            net_.shardStageCycle(c);
            source_->tick(net_, c, phase);
        }
        net_.shardStaging(false);
    };

    // Merge the window's completions across shards back into the serial
    // delivery order: at most one packet completes per NI per cycle, so
    // (ejectTime, dst) keys are unique and reproduce the serial
    // cycle-major, node-ascending drain — which keeps the double
    // additions in the accumulators in the serial order, bit for bit.
    auto merge_completions = [&] {
        completedScratch_.clear();
        net_.takeShardCompletions(completedScratch_);
        std::sort(completedScratch_.begin(), completedScratch_.end(),
                  [](const CompletedPacket &a, const CompletedPacket &b) {
                      return a.ejectTime != b.ejectTime
                                 ? a.ejectTime < b.ejectTime
                                 : a.dst < b.dst;
                  });
        for (const CompletedPacket &p : completedScratch_) {
            // The serial loop reports a delivery the cycle after the
            // flit ejected (now has already advanced past it).
            source_->onPacketDelivered(p, net_, p.ejectTime + 1);
            accumulateCompletion(p);
        }
    };

    constexpr Cycle kCancelMask = 4095;
    auto cancelled = [&windows](Cycle c) {
        return windows.cancel && (c & kCancelMask) == 0 && windows.cancel();
    };

    net_.beginSharded(plan);
    RouterStats before;
    Cycle drained_cycles = 0;
    {
        // Unwind order matters on the cancellation path: the executor
        // (declared second) joins its threads first, then the guard
        // collapses the network back to serial.
        struct ShardedGuard
        {
            Network &net;
            ~ShardedGuard()
            {
                if (net.sharded())
                    net.endSharded();
            }
        } shard_guard{net_};
        ShardExecutor exec(net_, plan);

        Cycle now = 0;
        while (now < windows.warmup) {
            if (cancelled(now))
                throw SimCancelled("cancelled during warmup");
            const Cycle to = std::min(now + window, windows.warmup);
            stage(now, to, SimPhase::Warmup);
            exec.runWindow(now, to);
            net_.shardBarrier(to);
            merge_completions();
            now = to;
        }
        health.warmupUsed = windows.warmup;
        allPhaseInterval_.reset();

        before = net_.aggregateRouterStats();
        const Cycle measure_end = windows.warmup + windows.measure;
        while (now < measure_end) {
            if (cancelled(now))
                throw SimCancelled("cancelled during measurement");
            const Cycle to = std::min(now + window, measure_end);
            stage(now, to, SimPhase::Measure);
            exec.runWindow(now, to);
            net_.shardBarrier(to);
            merge_completions();
            now = to;
        }
        health.measureUsed = windows.measure;

        // Drain advances one cycle per window: the serial loop decides
        // to stop (idle, stall, limit) against every cycle's state, and
        // overshooting by even one cycle would drift the allocator-side
        // stats, so the sharded path must make the same per-cycle
        // decisions.
        while (!(net_.idle() && source_->exhausted()) &&
               drained_cycles < windows.drainLimit) {
            if (cancelled(drained_cycles))
                throw SimCancelled("cancelled during drain");
            stage(now, now + 1, SimPhase::Drain);
            exec.runWindow(now, now + 1);
            net_.shardBarrier(now + 1);
            merge_completions();
            ++now;
            ++drained_cycles;
            if (!net_.idle() && net_.cyclesSinceProgress() > 10000) {
                NOC_WARN("network stalled during drain: " +
                         net_.describeStall());
                break;
            }
        }
    }   // executor joins, then the network collapses to serial

    if (verifier_ && net_.idle() && source_->exhausted()) {
        // Identical settle + drained audit as the serial path; only
        // commuting credits are still in flight, and the network is
        // back on the ordinary step() loop.
        const SimConfig &cfg = net_.config();
        const Cycle settle = 2 *
            static_cast<Cycle>(std::max(cfg.linkLatency,
                                        cfg.creditLatency)) *
            static_cast<Cycle>(cfg.meshWidth + cfg.meshHeight) + 8;
        for (Cycle c = 0; c < settle; ++c)
            net_.step();
        verifier_->checkDrained(net_.now());
    }

    SimResult result = assembleResult(before, std::move(health));
    result.shardsUsed = plan.numShards;
    return result;
}

SimResult
runSimulation(const SimConfig &cfg, std::unique_ptr<TrafficSource> source,
              const SimWindows &windows, TelemetrySink *telemetry)
{
    Simulator sim(cfg, std::move(source));
    if (telemetry)
        sim.setTelemetry(telemetry);
    return sim.run(windows);
}

} // namespace noc
