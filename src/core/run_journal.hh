/**
 * @file
 * Crash-safe run journal for checkpointed region simulation.
 *
 * A journal records one line per *completed* region simulation, so a
 * run that dies mid-phase (host crash, injected kill, OOM) can be
 * resumed without redoing finished work: on `--resume`, regions whose
 * journal record matches the current run are taken from the journal
 * and neither warmed to a stop nor re-simulated. Because journal hits
 * skip work without touching the warming pass's simulated trajectory,
 * a resumed run is bit-identical to an uninterrupted one.
 *
 * On-disk format (line-oriented text, one `crc=XXXXXXXX` trailer per
 * line covering everything before it):
 *
 *   looppoint-journal-v1 crc=...
 *   key app=... input=... threads=... waitpolicy=... seed=...
 *       constrained=... sim=... crc=...          (one line)
 *   region idx=... start=pc:count end=pc:count mult=... attempts=...
 *       cycles=... ... l3m=... crc=...           (one line per region)
 *
 * The file is a CrcLog (util/crc_log.hh): appends go in place, and a
 * torn tail is dropped on load() and cut by the next append, so at
 * worst the last record is lost and its region re-simulates. A run
 * that does not load() starts a fresh file on its first append.
 */

#ifndef LOOPPOINT_CORE_RUN_JOURNAL_HH
#define LOOPPOINT_CORE_RUN_JOURNAL_HH

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "profile/bbv.hh"
#include "sim/config.hh"
#include "sim/multicore.hh"
#include "util/crc_log.hh"
#include "util/load_result.hh"

namespace looppoint {

/**
 * Identity of a run for journal-reuse purposes: everything that
 * changes the simulated per-region results. Host-side knobs (jobs,
 * retries, fault plan) are deliberately excluded — a journal written
 * under fault injection is reusable by the clean re-run.
 */
struct RunKey
{
    std::string app;
    std::string input;
    uint32_t threads = 0;
    std::string waitPolicy;
    uint64_t seed = 0;
    bool constrained = false;
    /** CRC32 fingerprint of the microarchitecture configuration. */
    uint32_t simFingerprint = 0;

    /** One-line textual encoding (no trailing newline). */
    std::string encode() const;

    bool operator==(const RunKey &other) const = default;
};

/**
 * The one place run identity is assembled (journal, store, campaign):
 * the sim fingerprint is the CRC of SimConfig::uarchKeyText(), i.e.
 * exactly the result-affecting config partition — host-side knobs can
 * never split or join journal reuse.
 */
RunKey makeRunKey(const std::string &app, const std::string &input,
                  uint32_t threads, WaitPolicy wait_policy,
                  uint64_t seed, bool constrained,
                  const SimConfig &sim_cfg);

/** See file comment. */
class RunJournal
{
  public:
    /** One completed region simulation. */
    struct Record
    {
        uint32_t regionIndex = 0;
        Marker start;
        Marker end;
        double multiplier = 1.0;
        /** Attempts the original run needed (bookkeeping only). */
        uint32_t attempts = 1;
        SimMetrics metrics;

        bool operator==(const Record &other) const = default;
    };

    RunJournal(std::string path, RunKey key);

    /**
     * Load an existing journal from disk. A missing file is an Io
     * error when `must_exist` (--resume names a journal that should be
     * there) and an empty journal otherwise. A journal written by a
     * different run (key mismatch) is a Validation error. Torn or
     * corrupt trailing records are dropped, not errors — see
     * droppedRecords().
     */
    std::optional<LoadError> load(bool must_exist);

    /**
     * The journaled metrics for a region, if the journal has a record
     * matching its identity exactly (index, markers, multiplier — all
     * round-trip losslessly). Returns a copy: appends from concurrent
     * region tasks may relocate the underlying storage.
     */
    std::optional<Record> find(uint32_t region_index, const Marker &start,
                               const Marker &end,
                               double multiplier) const;

    /**
     * Record a completed region and append its line to the file.
     * Thread-safe: region tasks append concurrently. Disk failures are
     * swallowed after counting — a journal is an optimization, never
     * worth failing the run for.
     */
    void append(const Record &rec);

    const std::string &path() const { return log.path(); }
    size_t size() const;
    /** Copy of the current records (audit / reporting). */
    std::vector<Record> snapshot() const;
    /** Invalid tail records dropped by load(). */
    size_t droppedRecords() const { return log.dropped(); }
    /** Appends that failed to persist (disk full, permissions). */
    size_t failedWrites() const { return log.failedWrites(); }

  private:
    CrcLog log;
    std::vector<Record> records;
    mutable std::mutex mu;
};

/**
 * One journal record as a single text line (no newline, no CRC
 * trailer). %.17g round-trips every double exactly, so a journaled
 * metric set reloads bit-identical to what the simulation produced.
 *
 * Inline so the codec is shared without a link dependency: the journal
 * itself uses it for persistence, and the stage cache (lp_store, which
 * lp_core links) stores region-sim and full-sim metrics as exactly
 * these lines.
 */
inline std::string
encodeJournalRecord(const RunJournal::Record &r)
{
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "region idx=%" PRIu32 " start=%" PRIu64 ":%" PRIu64
        " end=%" PRIu64 ":%" PRIu64 " mult=%.17g attempts=%" PRIu32
        " cycles=%" PRIu64 " instrs=%" PRIu64 " filtered=%" PRIu64
        " runtime=%.17g branches=%" PRIu64 " mispredicts=%" PRIu64
        " l1da=%" PRIu64 " l1dm=%" PRIu64 " l2a=%" PRIu64
        " l2m=%" PRIu64 " l3a=%" PRIu64 " l3m=%" PRIu64,
        r.regionIndex, static_cast<uint64_t>(r.start.pc), r.start.count,
        static_cast<uint64_t>(r.end.pc), r.end.count, r.multiplier,
        r.attempts, r.metrics.cycles, r.metrics.instructions,
        r.metrics.filteredInstructions, r.metrics.runtimeSeconds,
        r.metrics.branches, r.metrics.branchMispredicts,
        r.metrics.l1dAccesses, r.metrics.l1dMisses,
        r.metrics.l2Accesses, r.metrics.l2Misses,
        r.metrics.l3Accesses, r.metrics.l3Misses);
    return buf;
}

/**
 * Parse a line written by encodeJournalRecord. Returns nullopt unless
 * re-encoding the parsed record reproduces `payload` byte for byte —
 * catching trailing junk sscanf ignores and any lossy double round
 * trip.
 */
inline std::optional<RunJournal::Record>
parseJournalRecord(const std::string &payload)
{
    RunJournal::Record r;
    uint64_t start_pc = 0, end_pc = 0;
    int n = std::sscanf(
        payload.c_str(),
        "region idx=%" SCNu32 " start=%" SCNu64 ":%" SCNu64
        " end=%" SCNu64 ":%" SCNu64 " mult=%lg attempts=%" SCNu32
        " cycles=%" SCNu64 " instrs=%" SCNu64 " filtered=%" SCNu64
        " runtime=%lg branches=%" SCNu64 " mispredicts=%" SCNu64
        " l1da=%" SCNu64 " l1dm=%" SCNu64 " l2a=%" SCNu64
        " l2m=%" SCNu64 " l3a=%" SCNu64 " l3m=%" SCNu64,
        &r.regionIndex, &start_pc, &r.start.count, &end_pc,
        &r.end.count, &r.multiplier, &r.attempts, &r.metrics.cycles,
        &r.metrics.instructions, &r.metrics.filteredInstructions,
        &r.metrics.runtimeSeconds, &r.metrics.branches,
        &r.metrics.branchMispredicts, &r.metrics.l1dAccesses,
        &r.metrics.l1dMisses, &r.metrics.l2Accesses,
        &r.metrics.l2Misses, &r.metrics.l3Accesses,
        &r.metrics.l3Misses);
    if (n != 19)
        return std::nullopt;
    r.start.pc = start_pc;
    r.end.pc = end_pc;
    if (encodeJournalRecord(r) != payload)
        return std::nullopt;
    return r;
}

} // namespace looppoint

#endif // LOOPPOINT_CORE_RUN_JOURNAL_HH
