/**
 * @file
 * Campaign model: the matrix spec, its expansion into jobs, and the
 * in-child job body. This is the portable core the supervisor forks
 * around — everything here is plain sequential code with no process
 * or signal machinery, so tests can drive a job body directly.
 *
 * A campaign expands (apps x inputs x threads x uarchs) into one job
 * per combination, in an order chosen for store reuse: all uarch
 * points of one (app, input, threads) triple are adjacent, so after
 * the first the analysis stages are store hits. Job indices are
 * positions in this expansion and are stable across restarts — they
 * key the campaign journal and the `job:index=N` fault site.
 *
 * Layout under CampaignSpec::outDir:
 *
 *   campaign.json            summary (written last, atomically)
 *   campaign.journal         supervisor state journal (crash-safe)
 *   status.json              live supervisor surface (atomic rewrite)
 *   store/                   the shared store (override: storeDir)
 *   <job>/result.json        one "lp_campaign_job" document per job
 *   <job>/journal            per-job region journal (resume-able)
 *   <job>/.done              completion marker (skip-done)
 *   <job>/.lock              flock target (skip-running)
 */

#ifndef LOOPPOINT_CAMPAIGN_CAMPAIGN_HH
#define LOOPPOINT_CAMPAIGN_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace looppoint {

/** The sweep matrix plus the per-job execution knobs. */
struct CampaignSpec
{
    std::vector<std::string> apps{"demo-matrix-1"};
    std::vector<std::string> inputs{"test"};
    std::vector<uint32_t> threads{4};
    std::vector<std::string> uarchs{"baseline"};
    std::string outDir;
    std::string storeDir; ///< default: <outDir>/store
    uint32_t jobs = 1;    ///< host workers per job
    WaitPolicy waitPolicy = WaitPolicy::Passive;
    uint64_t seed = 42;
    bool fullSim = true;
    /** Run the post-job artifact audit and record its findings. */
    bool audit = false;
};

/** One expanded sweep point. */
struct CampaignJob
{
    /** Position in matrix order: stable across restarts; keys the
     * campaign journal and the `job:index=N` fault site. */
    uint32_t index = 0;
    std::string id;      ///< <prog>-<input>-t<T>-<uarch>
    std::string program; ///< artifact-style name
    std::string input;
    uint32_t threads = 0;
    std::string uarch;
    /** pending | done | running | ok | degraded | failed | parked
     * (set as the campaign runs). */
    std::string status = "pending";
    double wallSeconds = 0.0;
    /** Launches this campaign invocation made for the job. */
    uint32_t attempts = 0;
    /** Backoff the supervisor is currently waiting out (status.json
     * surface; 0 when not in backoff). */
    double backoffSeconds = 0.0;
};

/** Expand the matrix in store-reuse order (see file comment). */
std::vector<CampaignJob> expandCampaignMatrix(const CampaignSpec &spec);

/**
 * Identity of the campaign for journal-reuse purposes: the matrix and
 * every result-affecting knob, canonically encoded. Host-side knobs
 * (jobs, retry budget, timeouts) are excluded so a restart with a
 * different supervision policy still adopts the journal.
 */
std::string campaignFingerprint(const CampaignSpec &spec);

/**
 * Does `<job_dir>/result.json` exist and parse as a complete
 * lp_campaign_job document? The skip-done path must call this before
 * trusting a `.done` marker: a crash (or an injected corrupt-result
 * fault) can leave a marker next to a missing or garbage result, and
 * skipping such a job would silently hole the campaign.
 */
bool validJobResult(const std::string &job_dir);

/**
 * The experiment a job runs: its matrix point under `spec`, journaled
 * at `<job_dir>/journal` and resuming from that journal when it
 * exists.
 */
ExperimentConfig campaignJobConfig(const CampaignJob &job,
                                   const std::string &job_dir,
                                   const CampaignSpec &spec);

/**
 * The in-child job body: configure and run the experiment, write
 * `result.json` + `.done`. Returns the run_looppoint exit-code
 * contract (0 ok, 1 degraded, 3 runtime failure, 4 interrupted at a
 * region boundary). A per-job region journal at `<job_dir>/journal`
 * is always recorded and auto-resumed when present, so a killed job's
 * next attempt continues bit-identically instead of starting over.
 */
int runCampaignJob(CampaignJob &job, const std::string &job_dir,
                   const CampaignSpec &spec);

/** Atomically (tmp + rename) write the campaign summary document. */
void writeCampaignJson(const std::string &path, const CampaignSpec &spec,
                       const std::vector<CampaignJob> &jobs);

/** mkdir -p one level; fatal() on failure other than EEXIST. */
void makeCampaignDir(const std::string &path);

} // namespace looppoint

#endif // LOOPPOINT_CAMPAIGN_CAMPAIGN_HH
