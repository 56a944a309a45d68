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

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/supervisor.hh"
#include "core/experiment.hh"
#include "util/logging.hh"

using namespace looppoint;

namespace {

struct CliOptions
{
    CampaignSpec spec;
    SupervisorOptions sup;
};

void
usage()
{
    std::printf(
        "usage: lp_campaign --out=DIR [options]\n"
        "  --apps=LIST        artifact-style programs\n"
        "                     (default: demo-matrix-1)\n"
        "  --inputs=LIST      input classes (default: test)\n"
        "  --threads=LIST     thread counts (default: 4)\n"
        "  --uarch=LIST       uarch presets: %s\n"
        "                     (default: baseline)\n"
        "  --out=DIR          campaign directory (required)\n"
        "  --store=DIR        artifact store (default: <out>/store)\n"
        "  --jobs=N           host workers per job (default: 1)\n"
        "  --wait-policy=P    passive | active (default: passive)\n"
        "  --seed=N           analysis seed (default: 42)\n"
        "  --no-fullsim       skip per-job ground-truth simulation\n"
        "  --audit            statically cross-check each job's\n"
        "                     artifacts after it runs; finding counts\n"
        "                     land in result.json\n"
        "supervision:\n"
        "  --job-retries=N    extra attempts per failed job\n"
        "                     (default: 2)\n"
        "  --job-timeout=SEC  per-attempt wall-clock watchdog; SIGTERM\n"
        "                     (job parks at the next region boundary\n"
        "                     and resumes on retry), then SIGKILL after\n"
        "                     the grace period. 0 disables (default)\n"
        "  --kill-grace=SEC   SIGTERM -> SIGKILL escalation grace\n"
        "                     (default: 5)\n"
        "  --backoff-base=SEC first retry delay (default: 0.5);\n"
        "                     doubles per retry with deterministic\n"
        "                     per-job jitter\n"
        "  --backoff-cap=SEC  retry delay ceiling (default: 60)\n"
        "  --gc-watermark=BYTES  run store GC before a launch when\n"
        "                     free disk under the store drops below\n"
        "                     this; 0 disables (default)\n"
        "  --gc-floor=BYTES   park the queue when free disk is still\n"
        "                     below this after GC; 0 disables\n"
        "  --gc-target=BYTES  GC size target (default: unlimited, so\n"
        "                     GC only collects orphaned objects and\n"
        "                     never evicts live results)\n"
        "  --daemon           keep running after a pass: rescan the\n"
        "                     matrix on SIGHUP or --rescan interval,\n"
        "                     heartbeat status.json while idle\n"
        "  --rescan=SEC       daemon rescan interval (default: SIGHUP\n"
        "                     only)\n"
        "  --inject-fault=SPEC  deterministic job faults, e.g.\n"
        "                     job:index=2,kind=crash|wedge|\n"
        "                     corrupt-result[,times=M]; ';'-separated\n"
        "  -h, --help         this message\n"
        "\nJobs are grouped by (app, input, threads) so consecutive\n"
        "uarch points reuse the analysis stages from the store. Each\n"
        "job runs in a forked child: crashes cost one attempt, never\n"
        "the sweep, and the retry resumes the job from its run\n"
        "journal bit-identically. Completed jobs are adopted from campaign.journal\n"
        "on restart (exactly-once); SIGINT/SIGTERM drains at the next\n"
        "job boundary (exit 4, resumable), a second signal kills the\n"
        "running child first.\n",
        uarchPresetNames().c_str());
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos) {
            out.push_back(s.substr(pos));
            break;
        }
        out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

bool
parseArg(int argc, char **argv, int &i, const char *long_name,
         std::string *value)
{
    std::string arg = argv[i];
    std::string long_eq = std::string(long_name) + "=";
    if (arg == long_name) {
        if (i + 1 >= argc)
            fatal("option %s requires a value", arg.c_str());
        *value = argv[++i];
        return true;
    }
    if (arg.rfind(long_eq, 0) == 0) {
        *value = arg.substr(long_eq.size());
        return true;
    }
    return false;
}

CliOptions
parseCli(int argc, char **argv)
{
    CliOptions opts;
    CampaignSpec &spec = opts.spec;
    SupervisorOptions &sup = opts.sup;
    std::string value;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            usage();
            std::exit(0);
        } else if (parseArg(argc, argv, i, "--apps", &value)) {
            spec.apps = splitCommas(value);
        } else if (parseArg(argc, argv, i, "--inputs", &value)) {
            spec.inputs = splitCommas(value);
        } else if (parseArg(argc, argv, i, "--threads", &value)) {
            spec.threads.clear();
            for (const auto &t : splitCommas(value))
                spec.threads.push_back(
                    static_cast<uint32_t>(std::stoul(t)));
        } else if (parseArg(argc, argv, i, "--uarch", &value)) {
            spec.uarchs = splitCommas(value);
        } else if (parseArg(argc, argv, i, "--out", &value)) {
            spec.outDir = value;
        } else if (parseArg(argc, argv, i, "--store", &value)) {
            spec.storeDir = value;
        } else if (parseArg(argc, argv, i, "--jobs", &value)) {
            spec.jobs = static_cast<uint32_t>(std::stoul(value));
        } else if (parseArg(argc, argv, i, "--wait-policy", &value)) {
            spec.waitPolicy = value;
        } else if (parseArg(argc, argv, i, "--seed", &value)) {
            spec.seed = std::stoull(value);
        } else if (arg == "--no-fullsim") {
            spec.fullSim = false;
        } else if (arg == "--audit") {
            spec.audit = true;
        } else if (parseArg(argc, argv, i, "--job-retries", &value)) {
            sup.jobRetries = static_cast<uint32_t>(std::stoul(value));
        } else if (parseArg(argc, argv, i, "--job-timeout", &value)) {
            sup.jobTimeoutSeconds = std::stod(value);
        } else if (parseArg(argc, argv, i, "--kill-grace", &value)) {
            sup.killGraceSeconds = std::stod(value);
        } else if (parseArg(argc, argv, i, "--backoff-base", &value)) {
            sup.backoff.baseSeconds = std::stod(value);
        } else if (parseArg(argc, argv, i, "--backoff-cap", &value)) {
            sup.backoff.capSeconds = std::stod(value);
        } else if (parseArg(argc, argv, i, "--gc-watermark", &value)) {
            sup.gcWatermarkBytes = std::stoull(value);
        } else if (parseArg(argc, argv, i, "--gc-floor", &value)) {
            sup.gcFloorBytes = std::stoull(value);
        } else if (parseArg(argc, argv, i, "--gc-target", &value)) {
            sup.gcTargetBytes = std::stoull(value);
        } else if (arg == "--daemon") {
            sup.daemonMode = true;
        } else if (parseArg(argc, argv, i, "--rescan", &value)) {
            sup.rescanSeconds = std::stod(value);
        } else if (parseArg(argc, argv, i, "--inject-fault", &value)) {
            sup.faults = FaultPlan::parse(value);
        } else {
            logError("unknown option '%s'", arg.c_str());
            usage();
            std::exit(2);
        }
    }
    if (spec.storeDir.empty() && !spec.outDir.empty())
        spec.storeDir = spec.outDir + "/store";
    validateCampaignSpec(spec);
    // Only job-site clauses make sense here: sim/corrupt faults fire
    // inside the pipeline, which jobs reach via run_looppoint-style
    // configs, not this driver.
    for (const auto &f : sup.faults.specs())
        if (f.site != FaultSpec::Site::Job)
            fatal("lp_campaign --inject-fault accepts job: clauses "
                  "only (sim:/corrupt: fire inside the pipeline)");
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opts;
    try {
        opts = parseCli(argc, argv);
    } catch (const std::exception &e) {
        logError("lp_campaign: %s", e.what());
        return 2;
    }
    try {
        CampaignSupervisor sup(opts.spec, opts.sup);
        SupervisorResult res = sup.run();
        std::printf("campaign: %zu job(s), %u launch(es), %u "
                    "retry(ies), %u timeout(s), %u adopted, summary "
                    "%s/campaign.json, store %s\n",
                    res.jobs.size(), res.launches, res.retries,
                    res.timeouts, res.adopted,
                    opts.spec.outDir.c_str(),
                    opts.spec.storeDir.c_str());
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
