#include "campaign/campaign.hh"

#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "analysis/experiment_audit.hh"
#include "core/experiment.hh"
#include "obs/json.hh"
#include "util/checksum.hh"
#include "util/crc_log.hh"
#include "util/interrupt.hh"
#include "util/logging.hh"

namespace looppoint {

namespace {

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
atomicWrite(const std::string &path, const std::string &contents)
{
    if (!writeFileAtomic(path, contents))
        fatal("cannot publish '%s': %s", path.c_str(),
              std::strerror(errno));
}

void
writeResultJson(const std::string &path, const CampaignJob &job,
                const ExperimentResult &r)
{
    size_t errors = 0, warnings = 0;
    for (const auto &d : r.analysis.diagnostics) {
        errors += d.severity == Severity::Error;
        warnings += d.severity == Severity::Warning;
    }
    std::ostringstream os;
    os << "{\n"
       << "  \"kind\": \"lp_campaign_job\",\n"
       << "  \"job\": " << jsonQuote(job.id) << ",\n"
       << "  \"program\": " << jsonQuote(job.program) << ",\n"
       << "  \"app\": " << jsonQuote(r.app) << ",\n"
       << "  \"input\": " << jsonQuote(job.input) << ",\n"
       << "  \"threads\": " << r.threads << ",\n"
       << "  \"uarch\": " << jsonQuote(job.uarch) << ",\n"
       << "  \"chosenK\": " << r.analysis.chosenK << ",\n"
       << "  \"regions\": " << r.analysis.regions.size() << ",\n"
       << "  \"coverage\": " << fmtDouble(r.coverage) << ",\n"
       << "  \"predictedRuntime\": "
       << fmtDouble(r.predicted.runtimeSeconds) << ",\n"
       << "  \"fullsimRuntime\": "
       << fmtDouble(r.haveFullSim ? r.fullSim.runtimeSeconds : 0.0)
       << ",\n"
       << "  \"runtimeErrorPct\": " << fmtDouble(r.runtimeErrorPct)
       << ",\n"
       << "  \"stageHits\": {\"record\": "
       << (r.analysis.stageHashes.recordHit ? "true" : "false")
       << ", \"profile\": "
       << (r.analysis.stageHashes.profileHit ? "true" : "false")
       << ", \"cluster\": "
       << (r.analysis.stageHashes.clusterHit ? "true" : "false")
       << ", \"sim\": " << (r.simStageHit ? "true" : "false")
       << ", \"fullsim\": " << (r.fullSimHit ? "true" : "false")
       << "},\n"
       << "  \"store\": {\"hits\": " << r.storeStats.hits
       << ", \"misses\": " << r.storeStats.misses
       << ", \"publishes\": " << r.storeStats.publishes
       << ", \"failedPublishes\": " << r.storeStats.failedPublishes
       << ", \"corrupt\": " << r.storeStats.corruptEntries
       << ", \"bytesStored\": " << r.storeStats.bytesStored
       << ", \"bytesDeduped\": " << r.storeStats.bytesDeduped
       << ", \"bytesRead\": " << r.storeStats.bytesRead << "},\n"
       << "  \"analysis\": {\"findings\": "
       << r.analysis.diagnostics.size() << ", \"errors\": " << errors
       << ", \"warnings\": " << warnings
       << ", \"auditFindings\": " << r.auditFindings << "},\n"
       << "  \"wallSeconds\": " << fmtDouble(job.wallSeconds) << "\n"
       << "}\n";
    atomicWrite(path, os.str());
}

} // namespace

void
makeCampaignDir(const std::string &path)
{
    if (mkdir(path.c_str(), 0777) != 0 && errno != EEXIST)
        fatal("cannot create directory '%s': %s", path.c_str(),
              std::strerror(errno));
}

std::vector<CampaignJob>
expandCampaignMatrix(const CampaignSpec &spec)
{
    std::vector<CampaignJob> jobs;
    for (const auto &prog : spec.apps)
        for (const auto &input : spec.inputs)
            for (uint32_t threads : spec.threads)
                for (const auto &uarch : spec.uarchs) {
                    CampaignJob j;
                    j.index = static_cast<uint32_t>(jobs.size());
                    j.program = prog;
                    j.input = input;
                    j.threads = threads;
                    j.uarch = uarch;
                    j.id = prog + "-" + input + "-t" +
                           std::to_string(threads) + "-" + uarch;
                    jobs.push_back(std::move(j));
                }
    return jobs;
}

std::string
campaignFingerprint(const CampaignSpec &spec)
{
    std::ostringstream os;
    os << "lp-campaign-v1;apps=";
    for (const auto &a : spec.apps)
        os << a << "|";
    os << ";inputs=";
    for (const auto &i : spec.inputs)
        os << i << "|";
    os << ";threads=";
    for (uint32_t t : spec.threads)
        os << t << "|";
    os << ";uarchs=";
    for (const auto &u : spec.uarchs)
        os << u << "|";
    os << ";wait=" << waitPolicyName(spec.waitPolicy)
       << ";seed=" << spec.seed
       << ";fullsim=" << (spec.fullSim ? 1 : 0)
       << ";audit=" << (spec.audit ? 1 : 0) << ";";
    const std::string text = os.str();
    return crcHex(crc32(text));
}

bool
validJobResult(const std::string &job_dir)
{
    std::ifstream f(job_dir + "/result.json");
    if (!f)
        return false;
    std::ostringstream buf;
    buf << f.rdbuf();
    auto doc = parseJson(buf.str());
    if (!doc || !doc->isObject())
        return false;
    if (doc->stringOr("kind", "") != "lp_campaign_job")
        return false;
    // A truncated-but-parseable document is still invalid: the
    // trailing wallSeconds field doubles as a completeness witness.
    return doc->find("coverage") != nullptr &&
           doc->find("wallSeconds") != nullptr;
}

ExperimentConfig
campaignJobConfig(const CampaignJob &job, const std::string &job_dir,
                  const CampaignSpec &spec)
{
    ExperimentConfig cfg;
    cfg.app = resolveArtifactProgram(job.program);
    cfg.input = resolveInputClass(job.input);
    cfg.requestedThreads = job.threads;
    cfg.waitPolicy = spec.waitPolicy;
    cfg.jobs = spec.jobs;
    cfg.simulateFull = spec.fullSim;
    cfg.loopPoint.seed = spec.seed;
    applyUarchPreset(cfg.sim, job.uarch);
    cfg.storeDir = spec.storeDir;
    if (cfg.input == InputClass::Test)
        cfg.loopPoint.sliceSizePerThread = 25'000;

    // Always journal, auto-resume: a killed attempt's successor
    // continues from completed regions bit-identically instead of
    // starting over — the substrate the supervisor's retry and
    // watchdog policies stand on.
    cfg.journalPath = job_dir + "/journal";
    struct stat st;
    cfg.resume = stat(cfg.journalPath.c_str(), &st) == 0;
    return cfg;
}

int
runCampaignJob(CampaignJob &job, const std::string &job_dir,
               const CampaignSpec &spec)
{
    const ExperimentConfig cfg = campaignJobConfig(job, job_dir, spec);
    auto t0 = std::chrono::steady_clock::now();
    ExperimentResult r;
    try {
        r = runExperiment(cfg);
    } catch (const InterruptedRun &e) {
        // Parked at a region boundary (supervisor SIGTERM): completed
        // regions are journaled, the next attempt resumes.
        warn("job %s: %s", job.id.c_str(), e.what());
        return 4;
    }
    if (spec.audit)
        auditExperiment(cfg, r);
    job.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    job.status = r.coverage < 1.0 ? "degraded" : "ok";

    writeResultJson(job_dir + "/result.json", job, r);
    std::ofstream done(job_dir + "/.done");
    done << job.status << "\n";
    return r.coverage < 1.0 ? 1 : 0;
}

void
writeCampaignJson(const std::string &path, const CampaignSpec &spec,
                  const std::vector<CampaignJob> &jobs)
{
    size_t ran = 0, done = 0, running = 0, degraded = 0, failed = 0,
           parked = 0;
    for (const auto &j : jobs) {
        if (j.status == "ok")
            ++ran;
        else if (j.status == "done")
            ++done;
        else if (j.status == "running")
            ++running;
        else if (j.status == "degraded")
            ++degraded;
        else if (j.status == "failed")
            ++failed;
        else if (j.status == "parked")
            ++parked;
    }
    std::ostringstream os;
    os << "{\n"
       << "  \"kind\": \"lp_campaign\",\n"
       << "  \"store\": " << jsonQuote(spec.storeDir) << ",\n"
       << "  \"jobsTotal\": " << jobs.size() << ",\n"
       << "  \"jobsRan\": " << ran << ",\n"
       << "  \"jobsSkippedDone\": " << done << ",\n"
       << "  \"jobsSkippedRunning\": " << running << ",\n"
       << "  \"jobsDegraded\": " << degraded << ",\n"
       << "  \"jobsFailed\": " << failed << ",\n"
       << "  \"jobsParked\": " << parked << ",\n"
       << "  \"jobs\": [\n";
    for (size_t i = 0; i < jobs.size(); ++i)
        os << "    {\"job\": " << jsonQuote(jobs[i].id)
           << ", \"status\": " << jsonQuote(jobs[i].status)
           << ", \"attempts\": " << jobs[i].attempts
           << ", \"wallSeconds\": " << fmtDouble(jobs[i].wallSeconds)
           << "}" << (i + 1 < jobs.size() ? "," : "") << "\n";
    os << "  ]\n}\n";
    atomicWrite(path, os.str());
}

} // namespace looppoint
