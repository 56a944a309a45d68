/**
 * @file
 * Campaign-supervisor tests: the failure classifier and deterministic
 * backoff schedule, the crash-safe campaign journal (roundtrip, torn
 * tail, fingerprint mismatch, exactly-once replay), stale-result
 * detection, and the supervisor end to end — injected crash, wedge
 * (watchdog escalation), and corrupt-result faults must each cost one
 * attempt, never the campaign, and a restarted supervisor must adopt
 * completed jobs from the journal without relaunching them.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
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
#include "util/rng.hh"

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

TEST(Backoff, DeterministicForFixedSeed)
{
    BackoffPolicy a;
    a.seed = 1234;
    BackoffPolicy b = a;
    for (uint32_t retry = 0; retry < 8; ++retry)
        EXPECT_EQ(a.delaySeconds(retry), b.delaySeconds(retry))
            << "retry " << retry;
}

TEST(Backoff, SeedSelectsTheJitterStream)
{
    BackoffPolicy a;
    a.seed = 1;
    BackoffPolicy b = a.withSeed(2);
    // Same envelope, different jitter: at least one early retry must
    // differ (all-equal would mean the seed is ignored).
    bool differ = false;
    for (uint32_t retry = 0; retry < 4 && !differ; ++retry)
        differ = a.delaySeconds(retry) != b.delaySeconds(retry);
    EXPECT_TRUE(differ);
}

TEST(Backoff, JitterStaysInsideTheBand)
{
    BackoffPolicy p;
    p.baseSeconds = 1.0;
    p.multiplier = 2.0;
    p.capSeconds = 1e9;
    p.jitterFraction = 0.5;
    for (uint64_t seed = 0; seed < 50; ++seed) {
        p.seed = seed;
        for (uint32_t retry = 0; retry < 6; ++retry) {
            const double envelope = std::ldexp(1.0, retry); // 2^retry
            const double d = p.delaySeconds(retry);
            EXPECT_GE(d, envelope * 0.75);
            EXPECT_LE(d, envelope * 1.25);
        }
    }
}

TEST(Backoff, CapSaturatesExactly)
{
    BackoffPolicy p;
    p.baseSeconds = 1.0;
    p.multiplier = 2.0;
    p.capSeconds = 10.0;
    p.jitterFraction = 0.5;
    p.seed = 99;
    // 1, 2, 4, 8 are under the cap; 16 and beyond saturate and the
    // cap comes back exactly (no jitter band around it).
    EXPECT_LT(p.delaySeconds(3), 10.0);
    for (uint32_t retry = 4; retry < 40; ++retry)
        EXPECT_EQ(p.delaySeconds(retry), 10.0) << "retry " << retry;
}

TEST(Backoff, ZeroJitterIsPureExponential)
{
    BackoffPolicy p;
    p.baseSeconds = 0.5;
    p.multiplier = 2.0;
    p.capSeconds = 1e9;
    p.jitterFraction = 0.0;
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
    // The faulty child exits 0 with a .done marker and garbage
    // result.json; trusting it would silently hole the campaign.
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

TEST(Supervisor, StaleDoneMarkerWithoutResultIsRerun)
{
    const std::string dir = freshDir("sup_stale_done");
    CampaignSpec spec = tinySpec(dir);
    // Fabricate the stale state an old crash could leave: a .done
    // marker with no (or garbage) result.json beside it.
    auto jobs = expandCampaignMatrix(spec);
    ASSERT_EQ(jobs.size(), 1u);
    const std::string job_dir = dir + "/" + jobs[0].id;
    makeCampaignDir(dir);
    makeCampaignDir(job_dir);
    {
        std::ofstream done(job_dir + "/.done");
        done << "ok\n";
    }
    CampaignSupervisor sup(spec, fastOptions());
    SupervisorResult res = sup.run();
    EXPECT_EQ(res.exitCode, 0);
    EXPECT_EQ(res.jobs[0].status, "ok");
    EXPECT_EQ(res.staleResults, 1u);
    EXPECT_EQ(res.launches, 1u); // it actually ran
    EXPECT_TRUE(validJobResult(job_dir));
}

TEST(Supervisor, DiskWatermarkRunsGcWithoutEvictingLiveObjects)
{
    const std::string dir = freshDir("sup_gc");
    CampaignSpec spec = tinySpec(dir);
    {
        // Warm run populates the store.
        CampaignSupervisor sup(spec, fastOptions());
        ASSERT_EQ(sup.run().exitCode, 0);
    }
    // Second run with a probe reporting pressure below the watermark
    // (but above the floor): GC must fire, and with the default
    // target it must not evict anything a manifest still binds.
    const std::string rerun_dir = freshDir("sup_gc_rerun");
    CampaignSpec spec2 = tinySpec(rerun_dir);
    spec2.storeDir = spec.storeDir; // same store
    SupervisorOptions opts = fastOptions();
    opts.gcWatermarkBytes = 1ull << 40;
    opts.gcFloorBytes = 1; // never park
    opts.freeDiskProbe = [](const std::string &) {
        return uint64_t{1} << 30;
    };
    CampaignSupervisor sup(spec2, opts);
    SupervisorResult res = sup.run();
    EXPECT_EQ(res.exitCode, 0);
    EXPECT_GE(res.gcRuns, 1u);
    // The live objects survived: the rerun's job was served from the
    // store (store hits recorded in its result.json).
    const std::string result =
        slurp(rerun_dir + "/" + res.jobs[0].id + "/result.json");
    EXPECT_NE(result.find("\"record\": true"), std::string::npos)
        << result;
}

TEST(Supervisor, DiskFloorParksTheQueue)
{
    const std::string dir = freshDir("sup_park");
    CampaignSpec spec = tinySpec(dir);
    SupervisorOptions opts = fastOptions();
    opts.gcWatermarkBytes = 100;
    opts.gcFloorBytes = 50;
    opts.freeDiskProbe = [](const std::string &) {
        return uint64_t{10}; // hopeless, even after GC
    };
    CampaignSupervisor sup(spec, opts);
    SupervisorResult res = sup.run();
    EXPECT_EQ(res.exitCode, 1);
    EXPECT_TRUE(res.parked);
    EXPECT_EQ(res.launches, 0u); // parked instead of launching
    EXPECT_EQ(res.jobs[0].status, "parked");
}

} // namespace
} // namespace looppoint
