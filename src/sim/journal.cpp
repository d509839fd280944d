#include "sim/journal.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/log.hpp"

namespace noc {

namespace {

// ---------------------------------------------------------------- keys

std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    // Field separator, so {"ab","c"} and {"a","bc"} hash differently.
    h ^= 0x1f;
    h *= 1099511628211ull;
    return h;
}

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
fmtU64(std::uint64_t v)
{
    return std::to_string(v);
}

// ------------------------------------------------------- JSON plumbing

void
appendEscaped(std::string &out, const std::string &s)
{
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void
appendField(std::string &out, const char *key, const std::string &value,
            bool first = false)
{
    if (!first)
        out += ',';
    out += '"';
    out += key;
    out += "\":\"";
    appendEscaped(out, value);
    out += '"';
}

void
appendArray(std::string &out, const char *key,
            const std::vector<std::string> &values)
{
    out += ",\"";
    out += key;
    out += "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0)
            out += ',';
        out += '"';
        appendEscaped(out, values[i]);
        out += '"';
    }
    out += ']';
}

/**
 * Minimal parser for the journal's own flat shape: an object whose
 * values are strings or arrays of strings. Not a general JSON parser —
 * just enough to read back what journalEntryToJson wrote.
 */
struct FlatJson
{
    std::map<std::string, std::string> strings;
    std::map<std::string, std::vector<std::string>> arrays;
};

bool
scanString(const std::string &s, std::size_t &i, std::string &out)
{
    if (i >= s.size() || s[i] != '"')
        return false;
    ++i;
    out.clear();
    while (i < s.size()) {
        const char c = s[i++];
        if (c == '"')
            return true;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (i >= s.size())
            return false;
        const char e = s[i++];
        switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
            if (i + 4 > s.size())
                return false;
            const unsigned code = static_cast<unsigned>(
                std::strtoul(s.substr(i, 4).c_str(), nullptr, 16));
            i += 4;
            // The writer only emits \u00xx for control bytes.
            out += static_cast<char>(code & 0xff);
            break;
        }
        default:
            return false;
        }
    }
    return false;
}

bool
parseFlat(const std::string &line, FlatJson &out)
{
    std::size_t i = 0;
    auto skipWs = [&] {
        while (i < line.size() &&
               (line[i] == ' ' || line[i] == '\t' || line[i] == '\r'))
            ++i;
    };
    skipWs();
    if (i >= line.size() || line[i] != '{')
        return false;
    ++i;
    skipWs();
    if (i < line.size() && line[i] == '}')
        return true;
    for (;;) {
        skipWs();
        std::string key;
        if (!scanString(line, i, key))
            return false;
        skipWs();
        if (i >= line.size() || line[i] != ':')
            return false;
        ++i;
        skipWs();
        if (i < line.size() && line[i] == '[') {
            ++i;
            std::vector<std::string> items;
            skipWs();
            if (i < line.size() && line[i] == ']') {
                ++i;
            } else {
                for (;;) {
                    skipWs();
                    std::string item;
                    if (!scanString(line, i, item))
                        return false;
                    items.push_back(std::move(item));
                    skipWs();
                    if (i >= line.size())
                        return false;
                    if (line[i] == ']') {
                        ++i;
                        break;
                    }
                    if (line[i] != ',')
                        return false;
                    ++i;
                }
            }
            out.arrays[key] = std::move(items);
        } else {
            std::string value;
            if (!scanString(line, i, value))
                return false;
            out.strings[key] = std::move(value);
        }
        skipWs();
        if (i >= line.size())
            return false;
        if (line[i] == '}')
            return true;
        if (line[i] != ',')
            return false;
        ++i;
    }
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos) {
            lines.push_back(text.substr(start));
            break;
        }
        if (nl > start)
            lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

} // namespace

std::uint64_t
journalKey(const SweepJob &job)
{
    std::uint64_t h = 14695981039346656037ull;
    h = fnv1a(h, job.label);
    h = fnv1a(h, job.cfg.describe());
    h = fnv1a(h, std::to_string(job.cfg.seed));
    // The fault and churn plans are deliberately excluded from
    // describe() (output byte-identity), so they are hashed explicitly.
    h = fnv1a(h, job.cfg.faultSpec);
    h = fnv1a(h, job.cfg.churnSpec);
    h = fnv1a(h, std::to_string(job.cfg.dropCreditEvery));
    // Result-changing fields describe() does not print.
    h = fnv1a(h, std::to_string(job.cfg.linkLatency));
    h = fnv1a(h, std::to_string(job.cfg.creditLatency));
    h = fnv1a(h, std::to_string(job.cfg.evcLmax));
    h = fnv1a(h, std::to_string(job.cfg.evcNumExpressVcs));
    h = fnv1a(h, std::to_string(job.cfg.pcHistoryDepth));
    h = fnv1a(h, std::to_string(job.windows.warmup));
    h = fnv1a(h, std::to_string(job.windows.measure));
    h = fnv1a(h, std::to_string(job.windows.drainLimit));
    return h;
}

JournalEntry
makeJournalEntry(const SweepJob &job, const SweepOutcome &out)
{
    JournalEntry e;
    e.key = journalKey(job);
    e.label = out.label;
    e.ok = out.ok;
    e.error = out.error;
    e.attempts = out.attempts;

    std::ostringstream js;
    {
        JsonLinesSink sink(js);
        if (out.ok) {
            sink.write(out.label, out.cfg, out.result);
            sink.writeSamples(out.label, out.result);
            sink.writeFlows(out.label, out.result);
            sink.writeWatchdog(out.label, out.result);
        } else {
            sink.writeFailure(out.label, out.cfg, out.error);
        }
    }
    e.jsonLines = splitLines(js.str());

    std::ostringstream cs;
    {
        CsvSink sink(cs, /*header=*/false);
        if (out.ok)
            sink.write(out.label, out.cfg, out.result);
        else
            sink.writeFailure(out.label, out.cfg, out.error);
    }
    e.csvRows = splitLines(cs.str());

    const SimResult &r = out.result;
    e.totalLat = fmtDouble(r.avgTotalLatency);
    e.netLat = fmtDouble(r.avgNetLatency);
    e.p99 = fmtDouble(r.p99TotalLatency);
    e.throughput = fmtDouble(r.throughput);
    e.reuse = fmtDouble(r.reusability);
    e.energy = fmtDouble(r.energy.totalPj());
    e.drained = r.drained;

    e.verdict = static_cast<int>(r.health.verdict);
    e.satReason = r.health.saturationReason;
    e.measureUsed = fmtU64(r.health.measureUsed);
    e.steadyCycle = fmtU64(r.health.steadyCycle);
    e.cov = fmtDouble(r.health.latencyCov);

    e.verifyChecks = fmtU64(out.verifyChecks);
    e.verifyViolations = fmtU64(out.verifyViolations);
    e.verifyReport = out.verifyReport;

    e.faultActive = r.fault.active;
    e.faultOffered = fmtU64(r.fault.packetsOffered);
    e.faultDelivered = fmtU64(r.fault.packetsDelivered);
    e.faultDropped = fmtU64(r.fault.packetsDropped);
    e.faultUnroutable = fmtU64(r.fault.packetsUnroutable);
    e.faultLinksKilled = fmtU64(r.fault.linksKilled);
    e.faultRetransmits = fmtU64(r.fault.flitsRetransmitted);
    e.faultOfferedTp = fmtDouble(r.fault.offeredThroughput);
    e.faultAchievedTp = fmtDouble(r.fault.achievedThroughput);
    return e;
}

SweepOutcome
outcomeFromEntry(const JournalEntry &e, const SweepJob &job)
{
    SweepOutcome o;
    o.label = e.label;
    o.cfg = job.cfg;
    o.ok = e.ok;
    o.error = e.error;
    o.attempts = e.attempts;

    SimResult &r = o.result;
    r.avgTotalLatency = std::strtod(e.totalLat.c_str(), nullptr);
    r.avgNetLatency = std::strtod(e.netLat.c_str(), nullptr);
    r.p99TotalLatency = std::strtod(e.p99.c_str(), nullptr);
    r.throughput = std::strtod(e.throughput.c_str(), nullptr);
    r.reusability = std::strtod(e.reuse.c_str(), nullptr);
    // Only totalPj() is replayed (the stdout table prints nothing
    // finer); park the stored total in one component.
    r.energy.bufferPj = std::strtod(e.energy.c_str(), nullptr);
    r.drained = e.drained;

    r.health.verdict = static_cast<RunVerdict>(e.verdict);
    r.health.saturationReason = e.satReason;
    r.health.measureUsed =
        static_cast<Cycle>(std::strtoull(e.measureUsed.c_str(), nullptr, 10));
    r.health.steadyCycle =
        static_cast<Cycle>(std::strtoull(e.steadyCycle.c_str(), nullptr, 10));
    r.health.latencyCov = std::strtod(e.cov.c_str(), nullptr);

    o.verifyChecks = std::strtoull(e.verifyChecks.c_str(), nullptr, 10);
    o.verifyViolations =
        std::strtoull(e.verifyViolations.c_str(), nullptr, 10);
    o.verifyReport = e.verifyReport;

    r.fault.active = e.faultActive;
    r.fault.packetsOffered =
        std::strtoull(e.faultOffered.c_str(), nullptr, 10);
    r.fault.packetsDelivered =
        std::strtoull(e.faultDelivered.c_str(), nullptr, 10);
    r.fault.packetsDropped =
        std::strtoull(e.faultDropped.c_str(), nullptr, 10);
    r.fault.packetsUnroutable =
        std::strtoull(e.faultUnroutable.c_str(), nullptr, 10);
    r.fault.linksKilled =
        std::strtoull(e.faultLinksKilled.c_str(), nullptr, 10);
    r.fault.flitsRetransmitted =
        std::strtoull(e.faultRetransmits.c_str(), nullptr, 10);
    r.fault.offeredThroughput =
        std::strtod(e.faultOfferedTp.c_str(), nullptr);
    r.fault.achievedThroughput =
        std::strtod(e.faultAchievedTp.c_str(), nullptr);
    return o;
}

std::string
journalEntryToJson(const JournalEntry &e)
{
    std::string out = "{";
    appendField(out, "key", fmtU64(e.key), /*first=*/true);
    appendField(out, "label", e.label);
    appendField(out, "ok", e.ok ? "1" : "0");
    appendField(out, "error", e.error);
    appendField(out, "attempts", std::to_string(e.attempts));
    appendArray(out, "json", e.jsonLines);
    appendArray(out, "csv", e.csvRows);
    appendField(out, "total_lat", e.totalLat);
    appendField(out, "net_lat", e.netLat);
    appendField(out, "p99", e.p99);
    appendField(out, "throughput", e.throughput);
    appendField(out, "reuse", e.reuse);
    appendField(out, "energy", e.energy);
    appendField(out, "drained", e.drained ? "1" : "0");
    appendField(out, "verdict", std::to_string(e.verdict));
    appendField(out, "sat_reason", e.satReason);
    appendField(out, "measure_used", e.measureUsed);
    appendField(out, "steady_cycle", e.steadyCycle);
    appendField(out, "cov", e.cov);
    appendField(out, "verify_checks", e.verifyChecks);
    appendField(out, "verify_violations", e.verifyViolations);
    appendField(out, "verify_report", e.verifyReport);
    appendField(out, "fault_active", e.faultActive ? "1" : "0");
    appendField(out, "fault_offered", e.faultOffered);
    appendField(out, "fault_delivered", e.faultDelivered);
    appendField(out, "fault_dropped", e.faultDropped);
    appendField(out, "fault_unroutable", e.faultUnroutable);
    appendField(out, "fault_links_killed", e.faultLinksKilled);
    appendField(out, "fault_retransmits", e.faultRetransmits);
    appendField(out, "fault_offered_tp", e.faultOfferedTp);
    appendField(out, "fault_achieved_tp", e.faultAchievedTp);
    out += '}';
    return out;
}

bool
parseJournalEntry(const std::string &line, JournalEntry &e)
{
    FlatJson flat;
    if (!parseFlat(line, flat))
        return false;
    auto str = [&](const char *key) -> const std::string & {
        static const std::string empty;
        const auto it = flat.strings.find(key);
        return it == flat.strings.end() ? empty : it->second;
    };
    if (flat.strings.find("key") == flat.strings.end())
        return false;
    e = JournalEntry();
    e.key = std::strtoull(str("key").c_str(), nullptr, 10);
    e.label = str("label");
    e.ok = str("ok") == "1";
    e.error = str("error");
    e.attempts = static_cast<int>(std::atol(str("attempts").c_str()));
    const auto json_it = flat.arrays.find("json");
    if (json_it != flat.arrays.end())
        e.jsonLines = json_it->second;
    const auto csv_it = flat.arrays.find("csv");
    if (csv_it != flat.arrays.end())
        e.csvRows = csv_it->second;
    e.totalLat = str("total_lat");
    e.netLat = str("net_lat");
    e.p99 = str("p99");
    e.throughput = str("throughput");
    e.reuse = str("reuse");
    e.energy = str("energy");
    e.drained = str("drained") == "1";
    e.verdict = static_cast<int>(std::atol(str("verdict").c_str()));
    e.satReason = str("sat_reason");
    e.measureUsed = str("measure_used");
    e.steadyCycle = str("steady_cycle");
    e.cov = str("cov");
    e.verifyChecks = str("verify_checks");
    e.verifyViolations = str("verify_violations");
    e.verifyReport = str("verify_report");
    e.faultActive = str("fault_active") == "1";
    e.faultOffered = str("fault_offered");
    e.faultDelivered = str("fault_delivered");
    e.faultDropped = str("fault_dropped");
    e.faultUnroutable = str("fault_unroutable");
    e.faultLinksKilled = str("fault_links_killed");
    e.faultRetransmits = str("fault_retransmits");
    e.faultOfferedTp = str("fault_offered_tp");
    e.faultAchievedTp = str("fault_achieved_tp");
    return true;
}

SweepJournal::SweepJournal(const std::string &path)
    : os_(path, std::ios::app)
{
    if (!os_)
        NOC_FATAL("cannot open sweep journal: " + path);
}

void
SweepJournal::append(const JournalEntry &entry)
{
    os_ << journalEntryToJson(entry) << '\n';
    os_.flush();
}

std::map<std::uint64_t, JournalEntry>
SweepJournal::load(const std::string &path)
{
    std::map<std::uint64_t, JournalEntry> entries;
    std::ifstream is(path);
    if (!is)
        return entries;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        JournalEntry e;
        // A kill can truncate the final line; anything unparseable is
        // simply a job the journal does not cover.
        if (parseJournalEntry(line, e))
            entries[e.key] = e;
    }
    return entries;
}

} // namespace noc
