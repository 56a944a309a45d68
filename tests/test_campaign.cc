/**
 * @file
 * Campaign-supervisor tests: the failure classifier and the capped
 * exponential backoff schedule, the crash-safe campaign journal
 * (roundtrip, torn tail, fingerprint mismatch, exactly-once replay),
 * stale-result detection, and the supervisor end to end — injected
 * crash, wedge (watchdog escalation), and corrupt-result faults must
 * each cost one attempt, never the campaign; a restarted supervisor
 * must adopt completed jobs from the journal without relaunching
 * them, and rerun (then journal once) a job whose completion the
 * journal never recorded.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/campaign_journal.hh"
#include "campaign/supervisor.hh"
#include "obs/json.hh"
#include "util/backoff.hh"
#include "util/checksum.hh"
#include "util/fault.hh"

namespace looppoint {
namespace {

std::string
freshDir(const std::string &name)
{
    std::string dir = testing::TempDir() + "lp_campaign_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

// ------------------------------------------------- classification

/** Raw wait statuses in the Linux encoding waitpid() hands back. */
int
exitStatus(int code)
{
    return (code & 0xff) << 8;
}

int
signalStatus(int sig)
{
    return sig & 0x7f;
}

TEST(FailureClassify, ExitCodeTable)
{
    EXPECT_EQ(classifyWaitStatus(exitStatus(0)),
              FailureClass::Success);
    EXPECT_EQ(classifyWaitStatus(exitStatus(1)),
              FailureClass::Degraded);
    EXPECT_EQ(classifyWaitStatus(exitStatus(2)),
              FailureClass::Permanent);
    EXPECT_EQ(classifyWaitStatus(exitStatus(3)),
              FailureClass::Transient);
    EXPECT_EQ(classifyWaitStatus(exitStatus(4)),
              FailureClass::Interrupted);
    // Unknown codes: the same command line will fail the same way.
    EXPECT_EQ(classifyWaitStatus(exitStatus(5)),
              FailureClass::Permanent);
    EXPECT_EQ(classifyWaitStatus(exitStatus(127)),
              FailureClass::Permanent);
}

TEST(FailureClassify, AnySignalDeathIsTransient)
{
    for (int sig : {SIGKILL, SIGSEGV, SIGTERM, SIGBUS, SIGABRT})
        EXPECT_EQ(classifyWaitStatus(signalStatus(sig)),
                  FailureClass::Transient)
            << "signal " << sig;
}

TEST(FailureClassify, StableNames)
{
    EXPECT_STREQ(failureClassName(FailureClass::Success), "success");
    EXPECT_STREQ(failureClassName(FailureClass::Degraded), "degraded");
    EXPECT_STREQ(failureClassName(FailureClass::Permanent),
                 "permanent");
    EXPECT_STREQ(failureClassName(FailureClass::Transient),
                 "transient");
    EXPECT_STREQ(failureClassName(FailureClass::Interrupted),
                 "interrupted");
}

// ------------------------------------------------------- backoff

TEST(Backoff, CapSaturatesExactly)
{
    BackoffPolicy p;
    p.baseSeconds = 1.0;
    p.capSeconds = 10.0;
    // 1, 2, 4, 8 are under the cap; 16 and beyond saturate and the
    // cap comes back exactly.
    EXPECT_LT(p.delaySeconds(3), 10.0);
    for (uint32_t retry = 4; retry < 40; ++retry)
        EXPECT_EQ(p.delaySeconds(retry), 10.0) << "retry " << retry;
}

TEST(Backoff, ZeroJitterIsPureExponential)
{
    BackoffPolicy p;
    p.baseSeconds = 0.5;
    p.capSeconds = 1e9;
    EXPECT_EQ(p.delaySeconds(0), 0.5);
    EXPECT_EQ(p.delaySeconds(1), 1.0);
    EXPECT_EQ(p.delaySeconds(2), 2.0);
    EXPECT_EQ(p.delaySeconds(3), 4.0);
}

// ------------------------------------------------ fault plan (job:)

TEST(JobFaults, ParseAndMatch)
{
    FaultPlan plan = FaultPlan::parse(
        "job:index=2,kind=crash,times=1;job:index=3,kind=wedge;"
        "job:index=5,kind=corrupt-result");
    EXPECT_EQ(plan.jobFault(2, 0), FaultSpec::Kind::Crash);
    EXPECT_EQ(plan.jobFault(2, 1), std::nullopt); // times=1: retry ok
    EXPECT_EQ(plan.jobFault(3, 0), FaultSpec::Kind::Wedge);
    EXPECT_EQ(plan.jobFault(3, 7), FaultSpec::Kind::Wedge); // all
    EXPECT_EQ(plan.jobFault(5, 0), FaultSpec::Kind::CorruptResult);
    EXPECT_EQ(plan.jobFault(0, 0), std::nullopt);
}

// -------------------------------------------------------- journal

CampaignEvent
ev(uint32_t index, const std::string &event, uint32_t attempt,
   int32_t code = -1, int32_t sig = 0)
{
    return {index, "job-" + std::to_string(index), event, attempt,
            code, sig};
}

TEST(CampaignJournal, RoundtripAndReplay)
{
    const std::string dir = freshDir("journal_roundtrip");
    mkdir(dir.c_str(), 0777);
    const std::string path = dir + "/campaign.journal";
    {
        CampaignJournal jnl(path, "fp1234");
        ASSERT_FALSE(jnl.load(false)); // fresh
        jnl.append(ev(0, "launch", 0));
        jnl.append(ev(0, "ok", 0, 0));
        jnl.append(ev(1, "launch", 0));
        jnl.append(ev(1, "fail-transient", 0, 3));
        jnl.append(ev(1, "launch", 1));
        jnl.append(ev(1, "degraded", 1, 1));
        jnl.append(ev(2, "launch", 0));
        // job 2: launched, never completed (mid-flight at the kill).
    }
    CampaignJournal jnl(path, "fp1234");
    ASSERT_FALSE(jnl.load(true));
    EXPECT_EQ(jnl.events().size(), 7u);
    EXPECT_EQ(jnl.droppedRecords(), 0u);

    auto ledgers = jnl.ledgers();
    ASSERT_EQ(ledgers.size(), 3u);
    EXPECT_TRUE(ledgers[0].completed);
    EXPECT_EQ(ledgers[0].finalStatus, "ok");
    EXPECT_EQ(ledgers[0].attempts, 1u);
    EXPECT_TRUE(ledgers[1].completed);
    EXPECT_EQ(ledgers[1].finalStatus, "degraded");
    EXPECT_EQ(ledgers[1].attempts, 2u);
    EXPECT_FALSE(ledgers[2].completed); // must rerun
    EXPECT_EQ(ledgers[2].attempts, 1u);
}

/** Each supervisor invocation numbers its attempts from 0, so the
 * ledger counts launch events, not the highest attempt number. */
TEST(CampaignJournal, LaunchesCountAcrossInvocations)
{
    const std::string dir = freshDir("journal_invocations");
    mkdir(dir.c_str(), 0777);
    CampaignJournal jnl(dir + "/campaign.journal", "fp");
    ASSERT_FALSE(jnl.load(false));
    jnl.append(ev(0, "launch", 0));
    jnl.append(ev(0, "launch", 0)); // the next invocation's first try
    jnl.append(ev(0, "fail-transient", 0, 3));
    jnl.append(ev(0, "launch", 1));
    jnl.append(ev(0, "ok", 1, 0));
    auto ledgers = jnl.ledgers();
    EXPECT_EQ(ledgers[0].attempts, 3u);
    EXPECT_TRUE(ledgers[0].completed);
}

TEST(CampaignJournal, StaleEventInvalidatesACompletion)
{
    const std::string dir = freshDir("journal_stale");
    mkdir(dir.c_str(), 0777);
    CampaignJournal jnl(dir + "/campaign.journal", "fp");
    ASSERT_FALSE(jnl.load(false));
    jnl.append(ev(0, "launch", 0));
    jnl.append(ev(0, "ok", 0, 0));
    jnl.append(ev(0, "stale", 0));
    auto ledgers = jnl.ledgers();
    EXPECT_FALSE(ledgers[0].completed);
}

TEST(CampaignJournal, TornTailIsDroppedNotFatal)
{
    const std::string dir = freshDir("journal_torn");
    mkdir(dir.c_str(), 0777);
    const std::string path = dir + "/campaign.journal";
    {
        CampaignJournal jnl(path, "fp");
        ASSERT_FALSE(jnl.load(false));
        jnl.append(ev(0, "launch", 0));
        jnl.append(ev(0, "ok", 0, 0));
        jnl.append(ev(1, "launch", 0));
    }
    // Simulate a supervisor killed mid-write: a valid prefix, then a
    // record whose CRC does not match, then pure garbage.
    {
        std::ofstream os(path, std::ios::app);
        os << withCrcLine(encodeCampaignEvent(ev(1, "ok", 0, 0)))
           << "corrupted-mid-line\n";
        os << "job idx=2 id=x event=launch"; // no CRC at all
    }
    CampaignJournal jnl(path, "fp");
    ASSERT_FALSE(jnl.load(true)); // torn tail is tolerated
    EXPECT_EQ(jnl.events().size(), 3u);
    EXPECT_EQ(jnl.droppedRecords(), 2u);
    auto ledgers = jnl.ledgers();
    EXPECT_TRUE(ledgers[0].completed);
    EXPECT_FALSE(ledgers[1].completed); // the torn "ok" never counted

    // The first append cuts the torn tail off, so the new event does
    // not sit behind a bad line: a reload keeps every event.
    jnl.append(ev(1, "ok", 0, 0));
    CampaignJournal again(path, "fp");
    ASSERT_FALSE(again.load(true));
    EXPECT_EQ(again.events(), jnl.events());
    EXPECT_EQ(again.events().size(), 4u);
    EXPECT_EQ(again.droppedRecords(), 0u);
    EXPECT_TRUE(again.ledgers()[1].completed);
}

TEST(CampaignJournal, FingerprintMismatchRefusesTheJournal)
{
    const std::string dir = freshDir("journal_fp");
    mkdir(dir.c_str(), 0777);
    const std::string path = dir + "/campaign.journal";
    {
        CampaignJournal jnl(path, "fp-old");
        ASSERT_FALSE(jnl.load(false));
        jnl.append(ev(0, "launch", 0));
    }
    CampaignJournal jnl(path, "fp-new");
    auto err = jnl.load(true);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->kind, LoadErrorKind::Validation);
}

TEST(CampaignJournal, EventEncodingRoundtripsExactly)
{
    CampaignEvent e{7, "a-b-t4-c", "fail-transient", 3, -1, 9};
    auto parsed = parseCampaignEvent(encodeCampaignEvent(e));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, e);
    EXPECT_FALSE(parseCampaignEvent("job idx=x id=y event=z"));
    EXPECT_FALSE(
        parseCampaignEvent("job idx=1 id=a event=ok attempt=0 "
                           "code=0 sig=0 trailing"));
}

// -------------------------------------------- campaign model bits

TEST(CampaignModel, FingerprintCoversTheMatrixNotHostKnobs)
{
    CampaignSpec a;
    a.outDir = "/tmp/x";
    CampaignSpec b = a;
    EXPECT_EQ(campaignFingerprint(a), campaignFingerprint(b));
    b.jobs = 8; // host knob: journal stays adoptable
    EXPECT_EQ(campaignFingerprint(a), campaignFingerprint(b));
    b = a;
    b.seed = 43; // result-affecting: different campaign
    EXPECT_NE(campaignFingerprint(a), campaignFingerprint(b));
    b = a;
    b.uarchs.push_back("bigcore");
    EXPECT_NE(campaignFingerprint(a), campaignFingerprint(b));
}

/**
 * The journal key of an unchanged matrix must not move, or every
 * existing campaign directory would be refused instead of adopted.
 * `lp_campaign --apps=demo-matrix-1 --inputs=test --threads=2
 * --no-fullsim` writes `key fp=6cab5e3e`.
 */
TEST(CampaignModel, FingerprintIsStableAcrossReleases)
{
    CampaignSpec spec;
    spec.apps = {"demo-matrix-1"};
    spec.inputs = {"test"};
    spec.threads = {2};
    spec.uarchs = {"baseline"};
    spec.fullSim = false;
    EXPECT_EQ(campaignFingerprint(spec), "6cab5e3e");
}

TEST(CampaignModel, MatrixIndicesAreStablePositions)
{
    CampaignSpec spec;
    spec.apps = {"a1", "a2"};
    spec.inputs = {"test"};
    spec.threads = {2, 4};
    spec.uarchs = {"u1", "u2"};
    auto jobs = expandCampaignMatrix(spec);
    ASSERT_EQ(jobs.size(), 8u);
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[0].id, "a1-test-t2-u1");
    EXPECT_EQ(jobs[1].id, "a1-test-t2-u2"); // uarch innermost
    EXPECT_EQ(jobs[4].id, "a2-test-t2-u1");
}

TEST(CampaignModel, ValidJobResultRejectsGarbageAndTruncation)
{
    const std::string dir = freshDir("valid_result");
    mkdir(dir.c_str(), 0777);
    EXPECT_FALSE(validJobResult(dir)); // missing
    auto put = [&](const std::string &text) {
        std::ofstream os(dir + "/result.json");
        os << text;
    };
    put("{\"kind\": \"lp_campaign_job\", \"trunc");
    EXPECT_FALSE(validJobResult(dir)); // unparseable
    put("{\"kind\": \"something_else\", \"coverage\": 1, "
        "\"wallSeconds\": 1}");
    EXPECT_FALSE(validJobResult(dir)); // wrong kind
    put("{\"kind\": \"lp_campaign_job\", \"coverage\": 1}");
    EXPECT_FALSE(validJobResult(dir)); // incomplete
    put("{\"kind\": \"lp_campaign_job\", \"coverage\": 1, "
        "\"wallSeconds\": 0.5}");
    EXPECT_TRUE(validJobResult(dir));
}

// -------------------------------------------- supervisor end to end

CampaignSpec
tinySpec(const std::string &out_dir)
{
    CampaignSpec spec;
    spec.apps = {"demo-matrix-1"};
    spec.inputs = {"test"};
    spec.threads = {4};
    spec.uarchs = {"baseline"};
    spec.outDir = out_dir;
    spec.storeDir = out_dir + "/store";
    spec.fullSim = false; // keep the child cheap
    return spec;
}

SupervisorOptions
fastOptions()
{
    SupervisorOptions opts;
    opts.backoff.baseSeconds = 0.01;
    opts.backoff.capSeconds = 0.05;
    return opts;
}

/** One event per (index, event) pair, for exactly-once assertions. */
size_t
countEvents(const CampaignJournal &jnl, uint32_t index,
            const std::string &event)
{
    size_t n = 0;
    for (const auto &e : jnl.events())
        n += e.index == index && e.event == event;
    return n;
}

TEST(Supervisor, CleanRunCompletesAndJournals)
{
    const std::string dir = freshDir("sup_clean");
    CampaignSpec spec = tinySpec(dir);
    CampaignSupervisor sup(spec, fastOptions());
    SupervisorResult res = sup.run();
    EXPECT_EQ(res.exitCode, 0);
    ASSERT_EQ(res.jobs.size(), 1u);
    EXPECT_EQ(res.jobs[0].status, "ok");
    EXPECT_EQ(res.launches, 1u);
    EXPECT_EQ(res.retries, 0u);
    EXPECT_TRUE(validJobResult(dir + "/" + res.jobs[0].id));

    CampaignJournal jnl(dir + "/campaign.journal",
                        campaignFingerprint(spec));
    ASSERT_FALSE(jnl.load(true));
    EXPECT_EQ(countEvents(jnl, 0, "launch"), 1u);
    EXPECT_EQ(countEvents(jnl, 0, "ok"), 1u);

    // status.json reached its terminal state.
    const std::string status = slurp(dir + "/status.json");
    EXPECT_NE(status.find("\"state\": \"done\""), std::string::npos);
}

TEST(Supervisor, RestartAdoptsCompletedJobsExactlyOnce)
{
    const std::string dir = freshDir("sup_adopt");
    CampaignSpec spec = tinySpec(dir);
    {
        CampaignSupervisor sup(spec, fastOptions());
        EXPECT_EQ(sup.run().exitCode, 0);
    }
    const std::string result_before =
        slurp(dir + "/" + tinySpec(dir).apps[0] + "-test-t4-baseline" +
              "/result.json");

    CampaignSupervisor sup(spec, fastOptions());
    SupervisorResult res = sup.run();
    EXPECT_EQ(res.exitCode, 0);
    EXPECT_EQ(res.launches, 0u); // adopted, not relaunched
    EXPECT_EQ(res.adopted, 1u);
    EXPECT_EQ(res.jobs[0].status, "ok");

    // Exactly-once at the journal level: still one launch, one ok.
    CampaignJournal jnl(dir + "/campaign.journal",
                        campaignFingerprint(spec));
    ASSERT_FALSE(jnl.load(true));
    EXPECT_EQ(countEvents(jnl, 0, "launch"), 1u);
    EXPECT_EQ(countEvents(jnl, 0, "ok"), 1u);

    // And the adopted result is untouched, byte for byte.
    const std::string result_after =
        slurp(dir + "/" + res.jobs[0].id + "/result.json");
    EXPECT_EQ(result_before, result_after);
}

TEST(Supervisor, CrashFaultCostsOneAttemptNotTheCampaign)
{
    const std::string dir = freshDir("sup_crash");
    CampaignSpec spec = tinySpec(dir);
    SupervisorOptions opts = fastOptions();
    opts.faults = FaultPlan::parse("job:index=0,kind=crash,times=1");
    CampaignSupervisor sup(spec, opts);
    SupervisorResult res = sup.run();
    EXPECT_EQ(res.exitCode, 0);
    EXPECT_EQ(res.jobs[0].status, "ok");
    EXPECT_EQ(res.launches, 2u); // crash + successful retry
    EXPECT_EQ(res.retries, 1u);

    CampaignJournal jnl(dir + "/campaign.journal",
                        campaignFingerprint(spec));
    ASSERT_FALSE(jnl.load(true));
    EXPECT_EQ(countEvents(jnl, 0, "fail-transient"), 1u);
    EXPECT_EQ(countEvents(jnl, 0, "ok"), 1u);
}

/**
 * A host death mid-simulation ends the job's attempt; the retry
 * resumes from the job's run journal and writes the clean job's
 * prediction and coverage.
 */
TEST(Supervisor, KilledJobResumesFromItsJournal)
{
    auto job_dir_of = [](const CampaignSpec &spec,
                         const CampaignJob &job) {
        makeCampaignDir(spec.outDir);
        const std::string job_dir = spec.outDir + "/" + job.id;
        makeCampaignDir(job_dir);
        return job_dir;
    };
    auto spec_in = [](const std::string &name) {
        CampaignSpec spec = tinySpec(freshDir(name));
        // Five regions at 4 threads; region 1 is the third in warming
        // order, so two regions are journaled when it dies.
        spec.apps = {"spec-lbm-1"};
        return spec;
    };
    const CampaignSpec killed_spec = spec_in("job_killed");
    CampaignJob job = expandCampaignMatrix(killed_spec)[0];
    const std::string killed_dir = job_dir_of(killed_spec, job);
    ExperimentConfig dying =
        campaignJobConfig(job, killed_dir, killed_spec);
    dying.sim.faults = FaultPlan::parse("sim:region=1,kind=kill");
    EXPECT_THROW(runExperiment(dying), InjectedKill);
    ASSERT_TRUE(campaignJobConfig(job, killed_dir, killed_spec).resume);
    EXPECT_EQ(runCampaignJob(job, killed_dir, killed_spec), 0);

    const CampaignSpec clean_spec = spec_in("job_clean");
    const std::string clean_dir = job_dir_of(clean_spec, job);
    EXPECT_EQ(runCampaignJob(job, clean_dir, clean_spec), 0);

    auto resumed = parseJson(slurp(killed_dir + "/result.json"));
    auto clean = parseJson(slurp(clean_dir + "/result.json"));
    ASSERT_TRUE(resumed && clean);
    EXPECT_EQ(resumed->numberOr("predictedRuntime", -1.0),
              clean->numberOr("predictedRuntime", -2.0));
    EXPECT_EQ(resumed->numberOr("coverage", -1.0),
              clean->numberOr("coverage", -2.0));
}

TEST(Supervisor, WedgeFaultIsClearedByWatchdogEscalation)
{
    const std::string dir = freshDir("sup_wedge");
    CampaignSpec spec = tinySpec(dir);
    SupervisorOptions opts = fastOptions();
    opts.faults = FaultPlan::parse("job:index=0,kind=wedge,times=1");
    // The wedged child ignores SIGTERM, so the grace period must
    // elapse and SIGKILL must clear it.
    opts.jobTimeoutSeconds = 0.3;
    opts.killGraceSeconds = 0.2;
    CampaignSupervisor sup(spec, opts);
    SupervisorResult res = sup.run();
    EXPECT_EQ(res.exitCode, 0);
    EXPECT_EQ(res.jobs[0].status, "ok");
    EXPECT_EQ(res.timeouts, 1u);
    EXPECT_EQ(res.retries, 1u);

    CampaignJournal jnl(dir + "/campaign.journal",
                        campaignFingerprint(spec));
    ASSERT_FALSE(jnl.load(true));
    EXPECT_EQ(countEvents(jnl, 0, "timeout"), 1u);
    EXPECT_EQ(countEvents(jnl, 0, "ok"), 1u);
}

TEST(Supervisor, CorruptResultFaultIsDetectedAndRetried)
{
    const std::string dir = freshDir("sup_corrupt");
    CampaignSpec spec = tinySpec(dir);
    SupervisorOptions opts = fastOptions();
    opts.faults =
        FaultPlan::parse("job:index=0,kind=corrupt-result,times=1");
    CampaignSupervisor sup(spec, opts);
    SupervisorResult res = sup.run();
    // The faulty child exits 0 with a garbage result.json; trusting
    // it would silently hole the campaign.
    EXPECT_EQ(res.exitCode, 0);
    EXPECT_EQ(res.jobs[0].status, "ok");
    EXPECT_EQ(res.staleResults, 1u);
    EXPECT_EQ(res.retries, 1u);
    EXPECT_TRUE(validJobResult(dir + "/" + res.jobs[0].id));

    CampaignJournal jnl(dir + "/campaign.journal",
                        campaignFingerprint(spec));
    ASSERT_FALSE(jnl.load(true));
    EXPECT_EQ(countEvents(jnl, 0, "stale"), 1u);
    EXPECT_EQ(countEvents(jnl, 0, "ok"), 1u);
}

/**
 * A supervisor that dies after its child finished but before it
 * journaled the completion leaves only the launch. The journal is the
 * one completion record, so a restart reruns the job (cheaply, from
 * the store and the job's region journal) and journals one `ok`.
 */
TEST(Supervisor, UnjournaledCompletionIsRerunAndJournaledOnce)
{
    const std::string dir = freshDir("sup_unjournaled");
    CampaignSpec spec = tinySpec(dir);
    {
        CampaignSupervisor sup(spec, fastOptions());
        ASSERT_EQ(sup.run().exitCode, 0);
    }
    const std::string path = dir + "/campaign.journal";
    {
        // Keep the header (magic + key) and the launch only.
        std::istringstream in(slurp(path));
        std::string line, kept;
        for (int i = 0; i < 3 && std::getline(in, line); ++i)
            kept += line + "\n";
        ASSERT_NE(kept.find("event=launch"), std::string::npos);
        std::ofstream(path, std::ios::trunc) << kept;
    }

    CampaignSupervisor sup(spec, fastOptions());
    SupervisorResult res = sup.run();
    EXPECT_EQ(res.exitCode, 0);
    EXPECT_EQ(res.launches, 1u);
    EXPECT_EQ(res.adopted, 0u);
    EXPECT_EQ(res.jobs[0].status, "ok");
    EXPECT_TRUE(validJobResult(dir + "/" + res.jobs[0].id));

    CampaignJournal jnl(path, campaignFingerprint(spec));
    ASSERT_FALSE(jnl.load(true));
    EXPECT_EQ(countEvents(jnl, 0, "launch"), 2u);
    EXPECT_EQ(countEvents(jnl, 0, "ok"), 1u);
    const std::string summary = slurp(dir + "/campaign.json");
    EXPECT_NE(summary.find("\"status\": \"ok\""), std::string::npos)
        << summary;
}

/**
 * A job launched once by each of two invocations (two `launch
 * attempt=0` lines) is adopted by a third with both launches counted,
 * in its ledger and in campaign.json.
 */
TEST(Supervisor, AdoptedJobCountsTheLaunchesOfEveryInvocation)
{
    const std::string dir = freshDir("sup_two_invocations");
    CampaignSpec spec = tinySpec(dir);
    {
        CampaignSupervisor sup(spec, fastOptions());
        ASSERT_EQ(sup.run().exitCode, 0);
    }
    const std::string path = dir + "/campaign.journal";
    {
        // Drop the `ok`, as if the supervisor died after the launch.
        std::istringstream in(slurp(path));
        std::string line, kept;
        for (int i = 0; i < 3 && std::getline(in, line); ++i)
            kept += line + "\n";
        std::ofstream(path, std::ios::trunc) << kept;
    }
    {
        CampaignSupervisor sup(spec, fastOptions());
        ASSERT_EQ(sup.run().launches, 1u);
    }
    {
        CampaignJournal jnl(path, campaignFingerprint(spec));
        ASSERT_FALSE(jnl.load(true));
        size_t first_tries = 0;
        for (const CampaignEvent &e : jnl.events())
            first_tries += e.event == "launch" && e.attempt == 0;
        ASSERT_EQ(first_tries, 2u);
        EXPECT_EQ(jnl.ledgers()[0].attempts, 2u);
    }

    CampaignSupervisor sup(spec, fastOptions());
    SupervisorResult res = sup.run();
    EXPECT_EQ(res.exitCode, 0);
    EXPECT_EQ(res.launches, 0u);
    EXPECT_EQ(res.adopted, 1u);
    EXPECT_EQ(res.jobs[0].attempts, 2u);
    const std::string summary = slurp(dir + "/campaign.json");
    EXPECT_NE(summary.find("\"attempts\": 2"), std::string::npos)
        << summary;
}

/**
 * The journal says the job completed, but its result.json is gone:
 * adoption must not trust the journal alone. It journals the
 * completion stale and reruns the job to a valid result.
 */
TEST(Supervisor, JournaledCompletionWithoutResultIsRerun)
{
    const std::string dir = freshDir("sup_lost_result");
    CampaignSpec spec = tinySpec(dir);
    {
        CampaignSupervisor sup(spec, fastOptions());
        ASSERT_EQ(sup.run().exitCode, 0);
    }
    const std::string job_dir =
        dir + "/" + expandCampaignMatrix(spec)[0].id;
    ASSERT_EQ(unlink((job_dir + "/result.json").c_str()), 0);

    CampaignSupervisor sup(spec, fastOptions());
    SupervisorResult res = sup.run();
    EXPECT_EQ(res.exitCode, 0);
    EXPECT_EQ(res.adopted, 0u);
    EXPECT_EQ(res.staleResults, 1u);
    EXPECT_EQ(res.launches, 1u);
    EXPECT_EQ(res.jobs[0].status, "ok");
    EXPECT_TRUE(validJobResult(job_dir));

    CampaignJournal jnl(dir + "/campaign.journal",
                        campaignFingerprint(spec));
    ASSERT_FALSE(jnl.load(true));
    EXPECT_EQ(countEvents(jnl, 0, "stale"), 1u);
    EXPECT_EQ(countEvents(jnl, 0, "ok"), 2u); // one per completion
    EXPECT_TRUE(jnl.ledgers()[0].completed);
}

} // namespace
} // namespace looppoint
