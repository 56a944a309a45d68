/**
 * @file
 * lp_campaign: supervised sweep driver over the artifact store.
 *
 * A thin CLI over src/campaign: the matrix spec and execution knobs
 * parse into a CampaignSpec, the supervision policy (retry budget,
 * watchdog, backoff, disk watermarks, daemon mode, fault injection)
 * into SupervisorOptions, and CampaignSupervisor::run() does the rest.
 * Each job runs in a forked child for crash isolation; see
 * src/campaign/supervisor.hh for the full supervision model.
 *
 * Layout under --out=DIR:
 *
 *   campaign.json             summary (written last, atomically)
 *   campaign.journal          supervisor state (crash-safe; restarts
 *                             adopt completed jobs exactly once)
 *   status.json               live surface (`lp_report --campaign`)
 *   store/                    the shared store (override: --store)
 *   <job>/result.json         one "lp_campaign_job" document per job
 *   <job>/journal             per-job region journal (resume-able)
 *   <job>/.done               completion marker (skip-done)
 *   <job>/.lock               flock target (skip-running)
 *
 * Aggregate with `lp_report --campaign=DIR`. Exit codes follow
 * run_looppoint: 0 all jobs ok, 1 some job degraded/failed/parked,
 * 2 usage, 3 runtime failure, 4 interrupted (drained on SIGINT or
 * SIGTERM; re-invoke to resume exactly-once from the journal).
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/supervisor.hh"
#include "core/experiment.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

using namespace looppoint;

namespace {

CommandLine
commandLine(CampaignSpec &spec, SupervisorOptions &sup)
{
    std::vector<Flag> flags = {
        {"apps", 0, "LIST", "artifact-style programs (default: demo-matrix-1)",
         setList(spec.apps, [](const std::string &p) {
             findApp(resolveArtifactProgram(p));
         })},
        {"inputs", 0, "LIST", "input classes (default: test)",
         setList(spec.inputs,
                 [](const std::string &ic) { resolveInputClass(ic); })},
        {"threads", 0, "LIST", "thread counts (default: 4)",
         [&spec](const std::string &v) {
             spec.threads.clear();
             for (const auto &t : splitList(v))
                 spec.threads.push_back(
                     static_cast<uint32_t>(parseUnsigned(t, 1, UINT32_MAX)));
         }},
        {"uarch", 0, "LIST",
         "uarch presets: " + uarchPresetNames() + " (default: baseline)",
         setList(spec.uarchs, [](const std::string &u) {
             SimConfig scratch;
             applyUarchPreset(scratch, u);
         })},
        {"out", 0, "DIR", "campaign directory (required)",
         setString(spec.outDir)},
        {"store", 0, "DIR", "artifact store (default: <out>/store)",
         setString(spec.storeDir)},
        {"jobs", 0, "N", "host workers per job (default: 1)",
         setUnsigned(spec.jobs, 0, ThreadPool::kMaxJobs)},
        {"wait-policy", 0, "P", "passive | active (default: passive)",
         setChoice(spec.waitPolicy, parseWaitPolicy)},
        {"seed", 0, "N", "analysis seed (default: 42)",
         setUnsigned(spec.seed)},
        {"no-fullsim", 0, "", "skip per-job ground-truth simulation",
         setBool(spec.fullSim, false)},
        {"audit", 0, "",
         "statically cross-check each job's artifacts after it runs; "
         "finding counts land in result.json",
         setBool(spec.audit)},
        {"job-retries", 0, "N", "extra attempts per failed job (default: 2)",
         setUnsigned(sup.jobRetries)},
        {"job-timeout", 0, "SEC",
         "per-attempt wall-clock watchdog; SIGTERM (job parks at the next "
         "region boundary and resumes on retry), then SIGKILL after the "
         "grace period. 0 disables (default)",
         setDouble(sup.jobTimeoutSeconds)},
        {"kill-grace", 0, "SEC",
         "SIGTERM -> SIGKILL escalation grace (default: 5)",
         setDouble(sup.killGraceSeconds)},
        {"backoff-base", 0, "SEC",
         "first retry delay (default: 0.5); doubles per retry with "
         "deterministic per-job jitter",
         setDouble(sup.backoff.baseSeconds)},
        {"backoff-cap", 0, "SEC", "retry delay ceiling (default: 60)",
         setDouble(sup.backoff.capSeconds)},
        {"gc-watermark", 0, "BYTES",
         "run store GC before a launch when free disk under the store "
         "drops below this; 0 disables (default)",
         setUnsigned(sup.gcWatermarkBytes)},
        {"gc-floor", 0, "BYTES",
         "park the queue when free disk is still below this after GC; 0 "
         "disables",
         setUnsigned(sup.gcFloorBytes)},
        {"gc-target", 0, "BYTES",
         "GC size target (default: unlimited, so GC only collects "
         "orphaned objects and never evicts live results)",
         setUnsigned(sup.gcTargetBytes)},
        {"daemon", 0, "",
         "keep running after a pass: rescan the matrix on SIGHUP or "
         "--rescan interval, heartbeat status.json while idle",
         setBool(sup.daemonMode)},
        {"rescan", 0, "SEC", "daemon rescan interval (default: SIGHUP only)",
         setDouble(sup.rescanSeconds)},
        {"inject-fault", 0, "SPEC",
         "deterministic job faults, e.g. "
         "job:index=2,kind=crash|wedge|corrupt-result[,times=M]; "
         "';'-separated",
         [&sup](const std::string &v) {
             sup.faults = FaultPlan::parse(v);
             // Only job-site clauses make sense here: sim/corrupt
             // faults fire inside the pipeline, which jobs reach via
             // run_looppoint-style configs, not this driver.
             for (const auto &f : sup.faults.specs())
                 if (f.site != FaultSpec::Site::Job)
                     throw UsageError("only job: clauses are accepted "
                                      "(sim:/corrupt: fire inside the "
                                      "pipeline)");
         }},
    };
    return {"lp_campaign", "--out=DIR [options]", std::move(flags),
            "\nJobs are grouped by (app, input, threads) so consecutive\n"
            "uarch points reuse the analysis stages from the store. Each\n"
            "job runs in a forked child: crashes cost one attempt, never\n"
            "the sweep, and the retry resumes the job from its run\n"
            "journal bit-identically. Completed jobs are adopted from\n"
            "campaign.journal on restart (exactly-once); SIGINT/SIGTERM\n"
            "drains at the next job boundary (exit 4, resumable), a\n"
            "second signal kills the running child first.\n",
            0, [&spec] {
                if (spec.outDir.empty())
                    throw UsageError("--out=DIR is required");
                if (spec.storeDir.empty())
                    spec.storeDir = spec.outDir + "/store";
            }};
}

} // namespace

int
main(int argc, char **argv)
{
    CampaignSpec spec;
    SupervisorOptions sup_opts;
    parseCommandLine(commandLine(spec, sup_opts), argc, argv);
    try {
        CampaignSupervisor sup(spec, sup_opts);
        SupervisorResult res = sup.run();
        std::printf("campaign: %zu job(s), %u launch(es), %u "
                    "retry(ies), %u timeout(s), %u adopted, summary "
                    "%s/campaign.json, store %s\n",
                    res.jobs.size(), res.launches, res.retries,
                    res.timeouts, res.adopted,
                    spec.outDir.c_str(),
                    spec.storeDir.c_str());
        if (res.interrupted)
            warn("campaign interrupted; re-invoke the same command "
                 "to resume (completed jobs are adopted from the "
                 "journal)");
        return res.exitCode;
    } catch (const FatalError &e) {
        logError("lp_campaign: %s", e.what());
        return 3;
    }
}
