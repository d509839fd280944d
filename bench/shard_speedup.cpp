/**
 * @file
 * Sharded-execution speedup measurement: a 32x32 mesh (1024 routers,
 * the network scale sharding exists for) run twice per scheme — once on
 * the serial cycle loop (shards=1) and once partitioned across 8 row
 * bands (shards=8) — comparing wall-clock time and flit-hops/sec, and
 * asserting the two runs produced identical statistics (sharding must
 * be behaviorally invisible; tests/sim/shard_parity_test.cpp checks
 * this exhaustively, this harness re-checks the points it times).
 *
 * Exit codes: 0 clean, 2 on any statistic drift between the paths.
 * Speedup is reported, never asserted — it depends on the hardware
 * thread count of the machine running the bench (a single-core CI
 * runner legitimately shows ~1x from barrier overhead).
 *
 * Structured results via the shared sweep CLI (--json/--csv appends
 * one line per timed run); NOC_MEASURE=<cycles> shortens the
 * measurement window.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_main.hpp"
#include "sim/experiment.hpp"
#include "sim/shard.hpp"
#include "traffic/synthetic.hpp"

using namespace noc;

namespace {

SimWindows
benchWindows()
{
    SimWindows w;
    w.warmup = 2000;
    w.measure = 20000;
    w.drainLimit = 60000;
    if (const char *env = std::getenv("NOC_MEASURE")) {
        const long v = std::atol(env);
        if (v > 0)
            w.measure = static_cast<Cycle>(v);
    }
    return w;
}

SimConfig
bigMeshConfig(Scheme scheme)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Mesh;
    cfg.meshWidth = 32;
    cfg.meshHeight = 32;
    cfg.concentration = 1;
    cfg.numVcs = 4;
    cfg.bufferDepth = 4;
    cfg.routing = RoutingKind::XY;
    cfg.vaPolicy = VaPolicy::Static;
    cfg.scheme = scheme;
    cfg.seed = 13;
    return cfg;
}

struct Timed
{
    SimResult result;
    double seconds = 0.0;
};

Timed
timedRun(const SimConfig &cfg)
{
    // 0.02 flits/node/cycle: sub-saturation on the 32x32 mesh, so the
    // comparison times the stepping paths rather than allocation-retry
    // churn, and the drain phase stays short.
    auto src = std::make_unique<SyntheticTraffic>(
        SyntheticPattern::UniformRandom, cfg.numNodes(), 0.02,
        /*packetSize=*/5, cfg.seed * 77 + 5);
    Simulator sim(cfg, std::move(src));
    Timed t;
    const auto start = std::chrono::steady_clock::now();
    t.result = sim.run(benchWindows());
    t.seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    return t;
}

double
flitHopsPerSec(const Timed &t)
{
    const double hops = static_cast<double>(
        t.result.routerTotals.xbarTraversals +
        t.result.routerTotals.expressBypasses);
    return t.seconds > 0.0 ? hops / t.seconds : 0.0;
}

/** The stats that must not depend on which path executed the run. */
bool
sameStats(const SimResult &a, const SimResult &b)
{
    return a.measuredPackets == b.measuredPackets &&
           a.avgTotalLatency == b.avgTotalLatency &&
           a.avgNetLatency == b.avgNetLatency &&
           a.throughput == b.throughput &&
           a.cyclesRun == b.cyclesRun &&
           a.routerTotals.xbarTraversals == b.routerTotals.xbarTraversals &&
           a.routerTotals.saBypasses == b.routerTotals.saBypasses &&
           a.routerTotals.bufferBypasses == b.routerTotals.bufferBypasses &&
           a.pcTotals.created == b.pcTotals.created &&
           a.pcTotals.speculated == b.pcTotals.speculated;
}

} // namespace

int
main(int argc, char **argv)
{
    // The serial leg must really be serial: neutralise an ambient
    // NOC_SHARDS (cfg.shards == 1 would otherwise consult it).
    ::unsetenv("NOC_SHARDS");
    const SweepCli cli = parseSweepCli(argc, argv);
    const int shards = 8;

    std::printf("shard speedup: 32x32 mesh, uniform random @0.02, "
                "serial vs %d row-band shards (%u hardware threads)\n\n",
                shards, std::thread::hardware_concurrency());
    printHeader("point", {"serial-s", "sharded-s", "speedup", "Mfh/s"});

    BenchReport report("shard_speedup");
    std::vector<SweepOutcome> outcomes;
    bool stats_match = true;
    double best = 0.0;
    std::string best_label;
    for (const Scheme scheme : {Scheme::Baseline, Scheme::PseudoSB}) {
        SimConfig cfg = bigMeshConfig(scheme);

        cfg.shards = 1;
        const Timed serial = timedRun(cfg);
        cfg.shards = shards;
        const Timed sharded = timedRun(cfg);

        const std::string point = toString(scheme);
        for (const Timed *t : {&serial, &sharded}) {
            SweepOutcome o;
            o.label = "sspeed:" + point + ":shards" +
                      std::to_string(t->result.shardsUsed);
            o.cfg = cfg;
            o.result = t->result;
            o.ok = true;
            outcomes.push_back(std::move(o));
        }

        if (sharded.result.shardsUsed != shards) {
            std::printf("SHARDED PATH NOT TAKEN at %s (ran with %d)\n",
                        point.c_str(), sharded.result.shardsUsed);
            stats_match = false;
        }
        if (!sameStats(serial.result, sharded.result)) {
            std::printf("STATS DIVERGED at %s\n", point.c_str());
            stats_match = false;
        }
        const double speedup =
            sharded.seconds > 0.0 ? serial.seconds / sharded.seconds : 0.0;
        if (speedup > best) {
            best = speedup;
            best_label = point;
        }
        printRow(point,
                 {serial.seconds, sharded.seconds, speedup,
                  flitHopsPerSec(sharded) / 1e6},
                 11, 2);

        report.configHash(cfg);
        report.metric(point + ":serial_s", serial.seconds, "s", "wall");
        report.metric(point + ":sharded_s", sharded.seconds, "s", "wall");
        report.metric(point + ":speedup", speedup, "ratio", "wall");
        report.metric(point + ":flit_hops",
                      static_cast<double>(
                          sharded.result.routerTotals.xbarTraversals +
                          sharded.result.routerTotals.expressBypasses),
                      "flits", "counter");
        report.metric(point + ":avg_net_latency",
                      sharded.result.avgNetLatency, "cycles", "stat");
        // Memory as exact counters: peak calendar slots and router
        // flit-storage bytes, for each path.
        for (const auto &[leg, t] :
             {std::pair{"serial", &serial}, std::pair{"sharded", &sharded}}) {
            report.metric(point + ":" + leg + "_calendar_slots",
                          static_cast<double>(t->result.calendarSlots),
                          "slots", "counter");
            report.metric(point + ":" + leg + "_arena_bytes",
                          static_cast<double>(t->result.arenaBytes),
                          "bytes", "counter");
        }
    }
    emitStructuredResults(cli, outcomes);

    std::printf("\nbest speedup: %.2fx at %s\n", best, best_label.c_str());
    report.metric("best_speedup", best, "ratio", "wall");
    report.metric("stats_match", stats_match ? 1.0 : 0.0, "bool", "counter");
    report.write();
    if (!stats_match) {
        std::printf("FAIL: serial and sharded paths disagree on "
                    "statistics\n");
        return 2;
    }
    std::printf("all points: serial and sharded paths statistically "
                "identical\n");
    return 0;
}
