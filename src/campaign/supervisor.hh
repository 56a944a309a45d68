/**
 * @file
 * Campaign supervisor: crash-isolated job execution with retry and a
 * watchdog.
 *
 * Each job runs in a forked child, so a crashing simulation — real or
 * injected — costs one job attempt, never the sweep. Around the fork
 * the supervisor layers, from the inside out:
 *
 *   watchdog     a per-job wall-clock budget (`jobTimeoutSeconds`).
 *                On expiry the child gets SIGTERM (a healthy job
 *                parks at the next region boundary, journals, and
 *                exits 4 = resumable); after `killGraceSeconds` a
 *                still-alive child gets SIGKILL.
 *   classify     the wait status maps onto FailureClass: degraded
 *                and permanent outcomes are final; transient ones
 *                (exit 3, any signal death) and boundary interrupts
 *                are retried.
 *   retry        up to `jobRetries` extra attempts, spaced by
 *                BackoffPolicy. The per-job region journal makes
 *                each retry resume completed regions bit-identically.
 *   journal      every launch and outcome lands in the crash-safe
 *                campaign journal, the one record of which jobs
 *                completed. Adoption is decided under the job's
 *                `.lock` from the journal as it is on disk then, so
 *                a restarted supervisor (or a concurrent one) adopts
 *                each completed job exactly once; a launch without a
 *                completion reruns, cheaply and bit-identically from
 *                the store and the job's region journal.
 *
 * Signal contract (SIGINT/SIGTERM): the first request drains — the
 * running child finishes, nothing new launches; the second kills the
 * child (SIGKILL), journals the kill, and flushes state; a third
 * falls through to default disposition. status.json is rewritten
 * atomically on every transition for `lp_report --campaign`.
 */

#ifndef LOOPPOINT_CAMPAIGN_SUPERVISOR_HH
#define LOOPPOINT_CAMPAIGN_SUPERVISOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/campaign_journal.hh"
#include "util/backoff.hh"
#include "util/fault.hh"

namespace looppoint {

/** Supervision policy; see file comment for the model. */
struct SupervisorOptions
{
    /** Extra attempts after the first (so jobRetries=2 → 3 launches
     * max per job per supervisor invocation). */
    uint32_t jobRetries = 2;
    /** Wall-clock watchdog per attempt; 0 disables. */
    double jobTimeoutSeconds = 0.0;
    /** SIGTERM → SIGKILL escalation grace. */
    double killGraceSeconds = 5.0;
    /** Retry spacing. */
    BackoffPolicy backoff;
    /** Deterministic fault injection (job: clauses). */
    FaultPlan faults;
};

/** Outcome of one CampaignSupervisor::run(). */
struct SupervisorResult
{
    /** 0 all ok, 1 degraded/failed jobs, 4 interrupted. */
    int exitCode = 0;
    std::vector<CampaignJob> jobs;
    uint32_t launches = 0;
    uint32_t retries = 0;
    uint32_t timeouts = 0;
    uint32_t adopted = 0; ///< completed jobs taken from the journal
    uint32_t staleResults = 0;
    /** A shutdown request stopped the campaign early. */
    bool interrupted = false;
};

/** See file comment. */
class CampaignSupervisor
{
  public:
    CampaignSupervisor(CampaignSpec spec, SupervisorOptions opts);

    /**
     * Run the campaign to completion (or until interrupted). Writes
     * campaign.json at the end and status.json on every transition.
     */
    SupervisorResult run();

  private:
    struct ChildOutcome
    {
        FailureClass cls = FailureClass::Transient;
        int32_t code = -1;
        int32_t sig = 0;
        bool timedOut = false;
        bool killedByShutdown = false;
        double wallSeconds = 0.0;
    };

    /** Adopt the job if the journal on disk says it completed and its
     * result still parses; a completion without one is journaled
     * stale. Call with the job's lock held. True = adopted. */
    bool adopt(CampaignJob &job, const std::string &job_dir,
               CampaignJournal &jnl);
    /** Run one job's attempt loop (job is an element of
     * result.jobs). */
    void superviseJob(CampaignJob &job, const std::string &job_dir,
                      CampaignJournal &jnl);
    /** Fork, babysit (watchdog + shutdown), reap, classify. */
    ChildOutcome launchAttempt(CampaignJob &job,
                               const std::string &job_dir,
                               uint32_t attempt);
    /** Atomic rewrite of status.json. */
    void writeStatus(const std::string &state);

    CampaignSpec spec;
    SupervisorOptions opts;
    SupervisorResult result;
};

} // namespace looppoint

#endif // LOOPPOINT_CAMPAIGN_SUPERVISOR_HH
