/**
 * @file
 * Crash-tolerant sweep checkpointing: a JSONL journal of completed
 * jobs that a killed sweep replays on `--resume`.
 *
 * Byte-identity is the design center. Re-deriving output from parsed
 * floats would round; instead each journal entry stores the *rendered*
 * output of the finished job — the exact JSON lines and CSV rows the
 * result sinks produced, plus the stdout-table scalars as "%.17g"
 * strings (round-trip exact through strtod). A resumed sweep replays
 * stored lines verbatim and re-runs only the jobs the journal does not
 * cover, so the final outputs are byte-for-byte what an uninterrupted
 * sweep would have written.
 *
 * Jobs are matched to entries by a content key (FNV-1a over the label,
 * the config description, the seed, the fault plan and the phase
 * windows), not by index — editing the sweep's parameter lists between
 * runs invalidates exactly the jobs that changed.
 *
 * Entries are appended one flushed line at a time from the sweep's
 * serialized completion hook, so a SIGKILL can at worst truncate the
 * final line; load() tolerates that by dropping any line that does not
 * parse. Interrupted outcomes are never journaled — an interrupted job
 * must re-run.
 */

#ifndef NOC_SIM_JOURNAL_HPP
#define NOC_SIM_JOURNAL_HPP

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "sim/sweep.hpp"

namespace noc {

/** One completed job, as rendered output plus replay scalars. */
struct JournalEntry
{
    std::uint64_t key = 0;          ///< journalKey() of the job
    std::string label;
    bool ok = false;
    std::string error;              ///< exception text when !ok
    int attempts = 0;

    /// Exact lines a JsonLinesSink produced for this outcome (result
    /// record first, then sample/flow/watchdog records).
    std::vector<std::string> jsonLines;
    /// Exact rows a CsvSink produced (no header row).
    std::vector<std::string> csvRows;

    // stdout-table scalars, "%.17g" (round-trip exact).
    std::string totalLat;
    std::string netLat;
    std::string p99;
    std::string throughput;
    std::string reuse;              ///< reusability fraction (not %)
    std::string energy;             ///< total energy in pJ

    bool drained = false;

    // Run-health verdict line.
    int verdict = 0;                ///< static_cast<int>(RunVerdict)
    std::string satReason;
    std::string measureUsed;        ///< u64 as decimal string
    std::string steadyCycle;
    std::string cov;                ///< "%.17g"

    // Verifier verdict.
    std::string verifyChecks;       ///< u64 as decimal string
    std::string verifyViolations;
    std::string verifyReport;

    // Fault degradation summary (sweep-mode stdout section).
    bool faultActive = false;
    std::string faultOffered;       ///< u64 as decimal string
    std::string faultDelivered;
    std::string faultDropped;
    std::string faultUnroutable;
    std::string faultLinksKilled;
    std::string faultRetransmits;
    std::string faultOfferedTp;     ///< "%.17g"
    std::string faultAchievedTp;
};

/**
 * Content key of a job: FNV-1a 64 over label, cfg.describe(), seed,
 * the fault and churn plans, the link/credit latencies, the EVC and
 * pseudo-circuit history parameters (all excluded from describe(), so
 * hashed explicitly) and the phase windows.
 */
std::uint64_t journalKey(const SweepJob &job);

/** Render a finished outcome into its journal entry. */
JournalEntry makeJournalEntry(const SweepJob &job, const SweepOutcome &out);

/**
 * Reconstruct the outcome of a journaled job for replay: table scalars,
 * health verdict and verifier verdict land in the right SimResult /
 * SweepOutcome fields; everything else stays default-constructed (the
 * structured outputs replay from the stored lines, not from this).
 */
SweepOutcome outcomeFromEntry(const JournalEntry &entry,
                              const SweepJob &job);

/** One entry serialized as a single JSON line (no trailing newline). */
std::string journalEntryToJson(const JournalEntry &entry);

/** Parse one journal line; returns false on malformed input. */
bool parseJournalEntry(const std::string &line, JournalEntry &entry);

/** Append-only journal writer: one flushed JSONL line per entry. */
class SweepJournal
{
  public:
    /** Opens `path` for appending; fatals if it cannot be opened. */
    explicit SweepJournal(const std::string &path);

    /** Write one entry and flush, so a kill loses at most one line. */
    void append(const JournalEntry &entry);

    /**
     * Load every parseable entry of `path`, keyed by journalKey; a
     * missing file yields an empty map and a truncated final line is
     * dropped silently. Later entries win on key collision.
     */
    static std::map<std::uint64_t, JournalEntry> load(
        const std::string &path);

  private:
    std::ofstream os_;
};

} // namespace noc

#endif // NOC_SIM_JOURNAL_HPP
