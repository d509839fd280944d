/**
 * @file
 * Sweep-resilience tests: per-job deadlines cancel runaway attempts,
 * the stop flag interrupts cleanly (and interrupted jobs are never
 * checkpointed), and the journal round-trips entries exactly — the
 * properties behind crash-tolerant `--resume`.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "sim/sweep.hpp"
#include "traffic/synthetic.hpp"

namespace noc {
namespace {

SweepJob
makeJob(const std::string &label, std::uint64_t seed, Cycle measure = 2000)
{
    SweepJob job;
    job.label = label;
    job.cfg = traceConfig();
    job.cfg.scheme = Scheme::PseudoSB;
    job.cfg.seed = seed;
    job.windows.warmup = 200;
    job.windows.measure = measure;
    job.windows.drainLimit = measure * 10;
    job.makeSource = [](const SimConfig &cfg) {
        return std::make_unique<SyntheticTraffic>(
            SyntheticPattern::UniformRandom, cfg.numNodes(), 0.1, 5,
            cfg.seed * 77 + 5);
    };
    return job;
}

/** A temp journal path that cleans up after itself. */
struct TempJournal
{
    std::string path;
    explicit TempJournal(const char *name) : path(name) { std::remove(name); }
    ~TempJournal() { std::remove(path.c_str()); }
};

TEST(SweepResilience, DeadlineCancelsARunawayAttempt)
{
    // A job that would run for tens of millions of cycles against a
    // millisecond budget: every attempt must be cancelled and the job
    // reported as a deadline failure after exhausting its retries.
    SweepJob job = makeJob("runaway", 1, /*measure=*/200'000'000);
    job.deadlineMs = 1;
    job.maxAttempts = 2;

    const std::vector<SweepOutcome> outs = runSweep({job}, 1);
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_FALSE(outs[0].ok);
    EXPECT_FALSE(outs[0].interrupted);
    EXPECT_EQ(outs[0].attempts, 2);
    EXPECT_NE(outs[0].error.find("deadline"), std::string::npos)
        << outs[0].error;
}

TEST(SweepResilience, JobsWithinDeadlineRetainOneAttempt)
{
    SweepJob job = makeJob("quick", 1);
    job.deadlineMs = 60'000;
    job.maxAttempts = 3;

    const std::vector<SweepOutcome> outs = runSweep({job}, 1);
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_TRUE(outs[0].ok);
    EXPECT_EQ(outs[0].attempts, 1);
    EXPECT_TRUE(outs[0].result.drained);
}

TEST(SweepResilience, PreSetStopFlagInterruptsWithoutCheckpointing)
{
    std::vector<SweepJob> jobs;
    for (int i = 0; i < 3; ++i)
        jobs.push_back(makeJob("job" + std::to_string(i), 1 + i));

    std::atomic<bool> stop{true};
    std::atomic<int> checkpoints{0};
    SweepRunner runner(2);
    runner.setStopFlag(&stop);
    runner.onJobComplete(
        [&](std::size_t, const SweepOutcome &) { ++checkpoints; });

    const std::vector<SweepOutcome> outs = runner.run(jobs);
    ASSERT_EQ(outs.size(), jobs.size());
    for (const SweepOutcome &o : outs) {
        EXPECT_FALSE(o.ok);
        EXPECT_TRUE(o.interrupted);
        EXPECT_EQ(o.error, "interrupted");
    }
    // Interrupted jobs must never be journaled — the hook fires only
    // for jobs that actually finished.
    EXPECT_EQ(checkpoints.load(), 0);
}

TEST(SweepResilience, JournalKeyIsStableAndContentSensitive)
{
    const SweepJob base = makeJob("key", 7);
    EXPECT_EQ(journalKey(base), journalKey(base));

    SweepJob other = base;
    other.cfg.seed = 8;
    EXPECT_NE(journalKey(other), journalKey(base));

    other = base;
    other.label = "key2";
    EXPECT_NE(journalKey(other), journalKey(base));

    other = base;
    other.cfg.faultSpec = "flip-link:5>6@p0.01";
    EXPECT_NE(journalKey(other), journalKey(base));

    other = base;
    other.windows.measure += 1;
    EXPECT_NE(journalKey(other), journalKey(base));

    // Retry knobs do not affect the produced output, so they must not
    // invalidate journal entries between runs.
    other = base;
    other.deadlineMs = 1234;
    other.maxAttempts = 5;
    EXPECT_EQ(journalKey(other), journalKey(base));
}

TEST(SweepResilience, JournalEntryRoundTripsExactly)
{
    SweepJob job = makeJob("roundtrip", 3);
    job.cfg.faultSpec = "flip-link:5>6@p0.01";
    const std::vector<SweepOutcome> outs = runSweep({job}, 1);
    ASSERT_EQ(outs.size(), 1u);
    ASSERT_TRUE(outs[0].ok);

    const JournalEntry entry = makeJournalEntry(job, outs[0]);
    EXPECT_EQ(entry.key, journalKey(job));
    EXPECT_EQ(entry.label, "roundtrip");
    EXPECT_TRUE(entry.ok);
    EXPECT_TRUE(entry.faultActive);
    EXPECT_FALSE(entry.jsonLines.empty());
    EXPECT_FALSE(entry.csvRows.empty());

    // Serialization is lossless: parse(json(entry)) renders the same
    // JSON line, so replayed output is byte-identical by construction.
    const std::string line = journalEntryToJson(entry);
    JournalEntry parsed;
    ASSERT_TRUE(parseJournalEntry(line, parsed));
    EXPECT_EQ(journalEntryToJson(parsed), line);
    EXPECT_EQ(parsed.jsonLines, entry.jsonLines);
    EXPECT_EQ(parsed.csvRows, entry.csvRows);

    // Replay restores the stdout-table scalars bit-exactly.
    const SweepOutcome replay = outcomeFromEntry(parsed, job);
    EXPECT_TRUE(replay.ok);
    EXPECT_EQ(replay.result.avgTotalLatency, outs[0].result.avgTotalLatency);
    EXPECT_EQ(replay.result.avgNetLatency, outs[0].result.avgNetLatency);
    EXPECT_EQ(replay.result.p99TotalLatency, outs[0].result.p99TotalLatency);
    EXPECT_EQ(replay.result.throughput, outs[0].result.throughput);
    EXPECT_EQ(replay.result.reusability, outs[0].result.reusability);
    EXPECT_EQ(replay.result.energy.totalPj(), outs[0].result.energy.totalPj());
    EXPECT_EQ(replay.result.drained, outs[0].result.drained);
    EXPECT_EQ(replay.result.fault.active, outs[0].result.fault.active);
    EXPECT_EQ(replay.result.fault.flitsRetransmitted,
              outs[0].result.fault.flitsRetransmitted);
    EXPECT_EQ(replay.verifyChecks, outs[0].verifyChecks);
}

TEST(SweepResilience, RenderingIsDeterministicAcrossCalls)
{
    // Two renderings of the same outcome must agree byte for byte —
    // the property that makes "replay stored lines" equal "re-render".
    const SweepJob job = makeJob("stable", 5);
    const std::vector<SweepOutcome> outs = runSweep({job}, 1);
    ASSERT_TRUE(outs[0].ok);
    const JournalEntry a = makeJournalEntry(job, outs[0]);
    const JournalEntry b = makeJournalEntry(job, outs[0]);
    EXPECT_EQ(journalEntryToJson(a), journalEntryToJson(b));
}

TEST(SweepResilience, JournalLoadDropsATruncatedFinalLine)
{
    TempJournal tmp("sweep_resume_test.journal.tmp");

    const SweepJob job = makeJob("persisted", 9);
    const std::vector<SweepOutcome> outs = runSweep({job}, 1);
    ASSERT_TRUE(outs[0].ok);
    const JournalEntry entry = makeJournalEntry(job, outs[0]);

    {
        SweepJournal journal(tmp.path);
        journal.append(entry);
    }
    // Simulate a SIGKILL mid-write: append half a line.
    {
        std::ofstream os(tmp.path, std::ios::app);
        const std::string line = journalEntryToJson(entry);
        os << line.substr(0, line.size() / 2);
    }

    const auto loaded = SweepJournal::load(tmp.path);
    ASSERT_EQ(loaded.size(), 1u);
    ASSERT_EQ(loaded.count(entry.key), 1u);
    EXPECT_EQ(journalEntryToJson(loaded.at(entry.key)),
              journalEntryToJson(entry));

    // A missing journal is an empty map, not an error.
    EXPECT_TRUE(SweepJournal::load("no-such-journal.jsonl").empty());
}

/**
 * Stale-resume guard: journal a finished run of `journaled`, then look
 * `resumed` up the way a resume=1 sweep does. The journal must not
 * cover it, so the changed job re-runs instead of replaying stale rows.
 */
void
expectResumeReruns(const SweepJob &journaled, const SweepJob &resumed)
{
    TempJournal tmp("sweep_resume_test.stale.tmp");
    const std::vector<SweepOutcome> outs = runSweep({journaled}, 1);
    ASSERT_TRUE(outs[0].ok);
    {
        SweepJournal journal(tmp.path);
        journal.append(makeJournalEntry(journaled, outs[0]));
    }
    const auto done = SweepJournal::load(tmp.path);
    ASSERT_EQ(done.count(journalKey(journaled)), 1u);
    EXPECT_EQ(done.count(journalKey(resumed)), 0u)
        << "resume would replay the journaled run's rows";
}

TEST(SweepResilience, StaleResumeRerunsOnLinkLatencyChange)
{
    const SweepJob base = makeJob("stale", 1, 500);
    SweepJob changed = base;
    changed.cfg.linkLatency = 3;
    expectResumeReruns(base, changed);
}

TEST(SweepResilience, StaleResumeRerunsOnCreditLatencyChange)
{
    const SweepJob base = makeJob("stale", 1, 500);
    SweepJob changed = base;
    changed.cfg.creditLatency = 2;
    expectResumeReruns(base, changed);
}

TEST(SweepResilience, StaleResumeRerunsOnEvcLmaxChange)
{
    SweepJob base = makeJob("stale", 1, 500);
    base.cfg.scheme = Scheme::Evc;
    base.cfg.numVcs = 4;
    SweepJob changed = base;
    changed.cfg.evcLmax = base.cfg.evcLmax + 1;
    expectResumeReruns(base, changed);
}

TEST(SweepResilience, StaleResumeRerunsOnEvcExpressVcsChange)
{
    SweepJob base = makeJob("stale", 1, 500);
    base.cfg.scheme = Scheme::Evc;
    base.cfg.numVcs = 4;
    SweepJob changed = base;
    changed.cfg.evcNumExpressVcs = base.cfg.evcNumExpressVcs == 1 ? 2 : 1;
    expectResumeReruns(base, changed);
}

TEST(SweepResilience, StaleResumeRerunsOnPcHistoryDepthChange)
{
    const SweepJob base = makeJob("stale", 1, 500);
    SweepJob changed = base;
    changed.cfg.pcHistoryDepth = base.cfg.pcHistoryDepth + 1;
    expectResumeReruns(base, changed);
}

TEST(SweepResilience, CompletionHookSeesSubmissionIndices)
{
    std::vector<SweepJob> jobs;
    for (int i = 0; i < 4; ++i)
        jobs.push_back(makeJob("idx" + std::to_string(i), 1 + i, 500));

    std::vector<char> seen(jobs.size(), 0);
    SweepRunner runner(2);
    runner.onJobComplete([&](std::size_t index, const SweepOutcome &out) {
        ASSERT_LT(index, seen.size());
        seen[index] = 1;
        EXPECT_EQ(out.label, jobs[index].label);
    });
    const std::vector<SweepOutcome> outs = runner.run(jobs);
    ASSERT_EQ(outs.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(outs[i].ok);
        EXPECT_EQ(seen[i], 1) << "job " << i << " never checkpointed";
    }
}

} // namespace
} // namespace noc
