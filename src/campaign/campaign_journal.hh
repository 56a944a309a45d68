/**
 * @file
 * Crash-safe campaign journal: the supervisor's exactly-once ledger.
 *
 * One line per job state transition (launch, completion, failure,
 * timeout, stale-result invalidation), in the run journal's CRC-line
 * format, so a supervisor killed at any instant restarts knowing
 * precisely which jobs completed, which were mid-flight (their launch
 * has no matching completion — rerun), and how many attempts each has
 * consumed. A completed job is adopted without relaunching, which is
 * what makes campaign accounting exactly-once across restarts.
 *
 * On-disk format (line-oriented text, one ` crc=XXXXXXXX` trailer per
 * line covering everything before it):
 *
 *   looppoint-campaign-journal-v1 crc=...
 *   key fp=<campaign fingerprint> crc=...
 *   job idx=N id=<id> event=<ev> attempt=K code=C sig=S crc=...
 *
 * Events: launch, ok, degraded, interrupted, fail-transient,
 * fail-permanent, timeout, killed, stale. `code` is the child's exit
 * code (-1 for signal deaths and non-exit events), `sig` the
 * terminating signal (0 when none).
 *
 * The file is a CrcLog (util/crc_log.hh): appends go in place, and a
 * torn tail is dropped on load() and cut by the next append. Append
 * failures are counted and swallowed: the journal is a recovery aid,
 * never worth failing the campaign for.
 */

#ifndef LOOPPOINT_CAMPAIGN_CAMPAIGN_JOURNAL_HH
#define LOOPPOINT_CAMPAIGN_CAMPAIGN_JOURNAL_HH

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/crc_log.hh"
#include "util/load_result.hh"

namespace looppoint {

/** One job state transition (see file comment for the vocabulary). */
struct CampaignEvent
{
    uint32_t index = 0;
    std::string id;
    std::string event;
    uint32_t attempt = 0;
    int32_t code = -1;
    int32_t sig = 0;

    bool operator==(const CampaignEvent &other) const = default;
};

/** See file comment. */
class CampaignJournal
{
  public:
    CampaignJournal(std::string path, std::string fingerprint);

    /**
     * Load an existing journal from disk. A missing file is an Io
     * error when `must_exist` and an empty journal otherwise. A
     * journal written by a different campaign (fingerprint mismatch)
     * is a Validation error. Torn or corrupt trailing records are
     * dropped, not errors — see droppedRecords().
     */
    std::optional<LoadError> load(bool must_exist);

    /** Record a transition and append its line to the file. */
    void append(const CampaignEvent &ev);

    /** What the journal knows about one job, replayed in order. */
    struct Ledger
    {
        /** Launches recorded (across all supervisor invocations). */
        uint32_t attempts = 0;
        /** Completed (ok/degraded) and not since invalidated. */
        bool completed = false;
        /** Final status when completed: "ok" or "degraded". */
        std::string finalStatus;
    };

    /** Replay the event stream into per-job ledgers. */
    std::map<uint32_t, Ledger> ledgers() const;

    const std::string &path() const { return log.path(); }
    /** Copy of the loaded + appended events, in order. */
    std::vector<CampaignEvent> events() const;
    /** Invalid tail records dropped by load(). */
    size_t droppedRecords() const { return log.dropped(); }

  private:
    CrcLog log;
    std::vector<CampaignEvent> records;
    mutable std::mutex mu;
};

/**
 * One event as a single text line (no newline, no CRC trailer). Job
 * ids are matrix-derived (`<prog>-<input>-tN-<uarch>`) and event
 * names come from a fixed vocabulary, so neither can contain the
 * spaces the line format splits on.
 */
inline std::string
encodeCampaignEvent(const CampaignEvent &ev)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "job idx=%" PRIu32 " id=%s event=%s attempt=%" PRIu32
                  " code=%" PRId32 " sig=%" PRId32,
                  ev.index, ev.id.c_str(), ev.event.c_str(), ev.attempt,
                  ev.code, ev.sig);
    return buf;
}

/**
 * Parse a line written by encodeCampaignEvent. Returns nullopt unless
 * re-encoding the parsed event reproduces `payload` byte for byte.
 */
inline std::optional<CampaignEvent>
parseCampaignEvent(const std::string &payload)
{
    CampaignEvent ev;
    char id[256] = {};
    char event[64] = {};
    int n = std::sscanf(payload.c_str(),
                        "job idx=%" SCNu32 " id=%255s event=%63s"
                        " attempt=%" SCNu32 " code=%" SCNd32
                        " sig=%" SCNd32,
                        &ev.index, id, event, &ev.attempt, &ev.code,
                        &ev.sig);
    if (n != 6)
        return std::nullopt;
    ev.id = id;
    ev.event = event;
    if (encodeCampaignEvent(ev) != payload)
        return std::nullopt;
    return ev;
}

} // namespace looppoint

#endif // LOOPPOINT_CAMPAIGN_CAMPAIGN_JOURNAL_HH
