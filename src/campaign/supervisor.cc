#include "campaign/supervisor.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/statvfs.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "store/artifact_store.hh"
#include "util/crc_log.hh"
#include "util/interrupt.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace looppoint {

namespace {

using clock_type = std::chrono::steady_clock;

double
secondsSince(clock_type::time_point t0)
{
    return std::chrono::duration<double>(clock_type::now() - t0)
        .count();
}

/** Daemon rescan request (SIGHUP). */
std::atomic<bool> rescanRequested{false};

void
onHup(int)
{
    rescanRequested.store(true, std::memory_order_relaxed);
}

void
installHupHandler()
{
    struct sigaction sa = {};
    sa.sa_handler = onHup;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    sigaction(SIGHUP, &sa, nullptr);
}

uint64_t
defaultFreeDisk(const std::string &path)
{
    struct statvfs vfs{};
    if (statvfs(path.c_str(), &vfs) != 0) {
        // An unprobeable path must never park the queue: report
        // "plenty" and let real I/O errors surface in the jobs.
        return UINT64_MAX;
    }
    return static_cast<uint64_t>(vfs.f_bavail) *
           static_cast<uint64_t>(vfs.f_frsize);
}

/** Chunked sleep that returns early once shutdown is requested. */
void
defaultSleep(double seconds)
{
    auto t0 = clock_type::now();
    while (secondsSince(t0) < seconds && !shutdownRequested()) {
        struct timespec ts{0, 50'000'000};
        nanosleep(&ts, nullptr);
    }
}

void
shortNap()
{
    struct timespec ts{0, 20'000'000};
    nanosleep(&ts, nullptr);
}

/**
 * The forked child's whole life. Never returns; exits with the
 * run_looppoint code contract so classifyWaitStatus() can read it.
 */
[[noreturn]] void
childEntry(CampaignJob job, const std::string &job_dir,
           const CampaignSpec &spec,
           std::optional<FaultSpec::Kind> fault)
{
#ifdef PR_SET_PDEATHSIG
    // A SIGKILLed supervisor must not leave orphan simulations
    // burning CPU behind it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
    // Fresh signal state: the child answers the supervisor's SIGTERM
    // by parking at the next region boundary and exiting 4.
    clearShutdownRequest();
    installInterruptHandlers();

    if (fault == FaultSpec::Kind::Crash) {
        // Simulated hard crash (SIGSEGV-equivalent, but deterministic).
        raise(SIGKILL);
        _exit(3);
    }
    if (fault == FaultSpec::Kind::Wedge) {
        // A stuck job that ignores polite requests: the watchdog must
        // escalate SIGTERM -> SIGKILL to clear it.
        std::signal(SIGTERM, SIG_IGN);
        std::signal(SIGINT, SIG_IGN);
        for (;;)
            pause();
    }
    if (fault == FaultSpec::Kind::CorruptResult) {
        // The nastiest failure: "success" with a garbage result and a
        // .done marker. Exercises the result-validation guard.
        {
            std::ofstream r(job_dir + "/result.json");
            r << "{\"kind\": \"lp_campaign_job\", \"trunc";
        }
        {
            std::ofstream d(job_dir + "/.done");
            d << "ok\n";
        }
        _exit(0);
    }

    int rc = 3;
    try {
        rc = runCampaignJob(job, job_dir, spec);
    } catch (const InjectedKill &e) {
        logError("job %s: %s", job.id.c_str(), e.what());
        rc = 3;
    } catch (const FatalError &e) {
        logError("job %s: %s", job.id.c_str(), e.what());
        rc = 3;
    } catch (const std::exception &e) {
        logError("job %s: %s", job.id.c_str(), e.what());
        rc = 3;
    }
    // _exit, not exit: the child shares the parent's stdio buffers
    // (flushed before fork) and must not run parent-owned atexit
    // handlers or static destructors.
    _exit(rc);
}

} // namespace

CampaignSupervisor::CampaignSupervisor(CampaignSpec spec_,
                                       SupervisorOptions opts_)
    : spec(std::move(spec_)), opts(std::move(opts_))
{
    if (!opts.freeDiskProbe)
        opts.freeDiskProbe = defaultFreeDisk;
    if (!opts.sleeper)
        opts.sleeper = defaultSleep;
}

CampaignSupervisor::ChildOutcome
CampaignSupervisor::launchAttempt(CampaignJob &job,
                                  const std::string &job_dir,
                                  uint32_t attempt)
{
    ChildOutcome out;
    auto fault = opts.faults.jobFault(job.index, attempt);

    // The child inherits stdio buffers: anything pending would be
    // flushed twice (once per process) if left unflushed here.
    std::fflush(stdout);
    std::fflush(stderr);
    auto t0 = clock_type::now();
    pid_t pid = fork();
    if (pid < 0) {
        logError("campaign: fork for job %s: %s", job.id.c_str(),
                 std::strerror(errno));
        out.cls = FailureClass::Transient;
        return out;
    }
    if (pid == 0)
        childEntry(job, job_dir, spec, fault); // never returns

    const double grace = std::max(0.0, opts.killGraceSeconds);
    bool sent_term = false, sent_kill = false;
    double term_at = 0.0;
    int status = 0;
    for (;;) {
        pid_t r = waitpid(pid, &status, WNOHANG);
        if (r == pid)
            break;
        if (r < 0 && errno != EINTR) {
            logError("campaign: waitpid for job %s: %s",
                     job.id.c_str(), std::strerror(errno));
            status = 0;
            break;
        }
        const double elapsed = secondsSince(t0);
        if (!sent_kill && shutdownSignalCount() >= 2) {
            // Second shutdown request: stop draining, kill the child
            // now. The journal records the kill before we exit.
            kill(pid, SIGKILL);
            sent_kill = true;
            out.killedByShutdown = true;
        } else if (!sent_term && opts.jobTimeoutSeconds > 0.0 &&
                   elapsed > opts.jobTimeoutSeconds) {
            // Watchdog: ask nicely first. A healthy job parks at the
            // next region boundary and exits 4 (resumable).
            kill(pid, SIGTERM);
            sent_term = true;
            term_at = elapsed;
            out.timedOut = true;
        } else if (sent_term && !sent_kill &&
                   elapsed > term_at + grace) {
            kill(pid, SIGKILL);
            sent_kill = true;
        }
        shortNap();
    }
    out.wallSeconds = secondsSince(t0);
    out.cls = classifyWaitStatus(status);
    out.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    out.sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    return out;
}

void
CampaignSupervisor::superviseJob(std::vector<CampaignJob> &jobs,
                                 CampaignJob &job,
                                 const std::string &job_dir,
                                 CampaignJournal &jnl)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    const BackoffPolicy policy =
        opts.backoff.withSeed(hashCombine(spec.seed, job.index));
    const uint32_t max_attempts = 1 + opts.jobRetries;

    for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
        if (shutdownRequested()) {
            result.interrupted = true;
            return;
        }
        job.status = "running";
        job.attempts = attempt + 1;
        ++result.launches;
        reg.counter("campaign.launches").add();
        if (attempt > 0) {
            ++result.retries;
            reg.counter("campaign.retries").add();
        }
        std::printf("[run ] %-44s attempt %u/%u\n", job.id.c_str(),
                    attempt + 1, max_attempts);
        jnl.append({job.index, job.id, "launch", attempt, -1, 0});
        writeStatus(jobs, "running");

        ChildOutcome oc = launchAttempt(job, job_dir, attempt);
        job.wallSeconds += oc.wallSeconds;

        if (oc.timedOut) {
            ++result.timeouts;
            reg.counter("campaign.timeouts").add();
            jnl.append({job.index, job.id, "timeout", attempt, oc.code,
                        oc.sig});
            std::printf("[time] %-44s watchdog fired after %.1f s\n",
                        job.id.c_str(), opts.jobTimeoutSeconds);
        }
        if (oc.killedByShutdown) {
            jnl.append({job.index, job.id, "killed", attempt, -1,
                        SIGKILL});
            job.status = "pending";
            result.interrupted = true;
            return;
        }

        bool retry = false;
        switch (oc.cls) {
          case FailureClass::Success:
          case FailureClass::Degraded:
            if (!validJobResult(job_dir)) {
                // Exit 0/1 with a missing or garbage result.json:
                // never trust it. Scrub and retry.
                ++result.staleResults;
                reg.counter("campaign.stale_results").add();
                jnl.append({job.index, job.id, "stale", attempt,
                            oc.code, oc.sig});
                unlink((job_dir + "/.done").c_str());
                unlink((job_dir + "/result.json").c_str());
                logError("job %s: exit %d but result.json is missing "
                         "or corrupt; retrying", job.id.c_str(),
                         oc.code);
                retry = true;
                break;
            }
            job.status =
                oc.cls == FailureClass::Success ? "ok" : "degraded";
            jnl.append({job.index, job.id, job.status, attempt,
                        oc.code, 0});
            std::printf("[%s] %-44s %.3f s\n",
                        oc.cls == FailureClass::Success ? " ok "
                                                        : "DEGR",
                        job.id.c_str(), oc.wallSeconds);
            writeStatus(jobs, "running");
            return;
          case FailureClass::Permanent:
            job.status = "failed";
            jnl.append({job.index, job.id, "fail-permanent", attempt,
                        oc.code, oc.sig});
            logError("job %s: permanent failure (exit %d); not "
                     "retrying", job.id.c_str(), oc.code);
            writeStatus(jobs, "running");
            return;
          case FailureClass::Interrupted:
            // Parked at a region boundary (usually our own watchdog's
            // SIGTERM). The per-job journal holds its progress, so the
            // retry resumes rather than restarts.
            jnl.append({job.index, job.id, "interrupted", attempt,
                        oc.code, oc.sig});
            if (shutdownRequested()) {
                job.status = "pending";
                result.interrupted = true;
                return;
            }
            retry = true;
            break;
          case FailureClass::Transient:
            jnl.append({job.index, job.id, "fail-transient", attempt,
                        oc.code, oc.sig});
            std::printf("[fail] %-44s transient (%s %d)\n",
                        job.id.c_str(), oc.sig ? "signal" : "exit",
                        oc.sig ? oc.sig : oc.code);
            retry = true;
            break;
        }
        if (!retry)
            return;
        if (attempt + 1 >= max_attempts)
            break;

        const double delay = policy.delaySeconds(attempt);
        job.status = "backoff";
        job.backoffSeconds = delay;
        writeStatus(jobs, "running");
        std::printf("[wait] %-44s backoff %.3f s before attempt "
                    "%u/%u\n", job.id.c_str(), delay, attempt + 2,
                    max_attempts);
        std::fflush(stdout);
        opts.sleeper(delay);
        job.backoffSeconds = 0.0;
        if (shutdownRequested()) {
            job.status = "pending";
            result.interrupted = true;
            return;
        }
    }

    job.status = "failed";
    logError("job %s: failed after %u attempt(s)", job.id.c_str(),
             max_attempts);
    writeStatus(jobs, "running");
}

bool
CampaignSupervisor::diskPressureOk(CampaignJob &job)
{
    if (opts.gcWatermarkBytes == 0 && opts.gcFloorBytes == 0)
        return true;
    uint64_t free_bytes = opts.freeDiskProbe(spec.storeDir);
    if (opts.gcWatermarkBytes != 0 &&
        free_bytes < opts.gcWatermarkBytes) {
        inform("campaign: %llu free bytes under store below watermark "
               "%llu; running store gc",
               static_cast<unsigned long long>(free_bytes),
               static_cast<unsigned long long>(opts.gcWatermarkBytes));
        ArtifactStore store(spec.storeDir);
        auto gc = store.gc(opts.gcTargetBytes);
        ++result.gcRuns;
        MetricsRegistry::global().counter("campaign.gc_runs").add();
        inform("campaign: gc removed %llu object(s) / %llu byte(s), "
               "kept %llu object(s)",
               static_cast<unsigned long long>(gc.removedObjects),
               static_cast<unsigned long long>(gc.removedBytes),
               static_cast<unsigned long long>(gc.keptObjects));
        free_bytes = opts.freeDiskProbe(spec.storeDir);
    }
    if (opts.gcFloorBytes != 0 && free_bytes < opts.gcFloorBytes) {
        logError("campaign: %llu free bytes under store below hard "
                 "floor %llu even after gc; parking job %s and the "
                 "rest of the queue",
                 static_cast<unsigned long long>(free_bytes),
                 static_cast<unsigned long long>(opts.gcFloorBytes),
                 job.id.c_str());
        return false;
    }
    return true;
}

void
CampaignSupervisor::runPass(std::vector<CampaignJob> &jobs,
                            CampaignJournal &jnl)
{
    auto ledgers = jnl.ledgers();
    bool announced_drain = false;
    for (auto &job : jobs) {
        if (shutdownRequested()) {
            if (!announced_drain) {
                inform("campaign: shutdown requested; draining (no "
                       "new launches)");
                announced_drain = true;
            }
            result.interrupted = true;
            break;
        }
        const std::string job_dir = spec.outDir + "/" + job.id;
        makeCampaignDir(job_dir);

        // Exactly-once adoption: the campaign journal says this job
        // completed — but only trust it while the result on disk
        // still parses. A completed-then-corrupted job reruns.
        auto led = ledgers.find(job.index);
        if (led != ledgers.end() && led->second.completed) {
            if (validJobResult(job_dir)) {
                job.status = led->second.finalStatus;
                job.attempts = led->second.attempts;
                ++result.adopted;
                std::printf("[skip] %-44s complete per journal (%s)\n",
                            job.id.c_str(), job.status.c_str());
                continue;
            }
            ++result.staleResults;
            MetricsRegistry::global()
                .counter("campaign.stale_results")
                .add();
            jnl.append({job.index, job.id, "stale",
                        led->second.attempts, -1, 0});
            warn("job %s: journal says complete but result.json is "
                 "missing or corrupt; rerunning", job.id.c_str());
            unlink((job_dir + "/.done").c_str());
            unlink((job_dir + "/result.json").c_str());
        }

        // Marker-based skip (a job finished by an earlier campaign
        // instance that shares the directory but not this journal).
        // The marker alone proves nothing: verify the result parses.
        struct stat st;
        if (stat((job_dir + "/.done").c_str(), &st) == 0) {
            if (validJobResult(job_dir)) {
                job.status = "done";
                std::printf("[skip] %-44s already done\n",
                            job.id.c_str());
                continue;
            }
            ++result.staleResults;
            MetricsRegistry::global()
                .counter("campaign.stale_results")
                .add();
            warn("job %s: stale .done marker without a valid "
                 "result.json; rerunning", job.id.c_str());
            unlink((job_dir + "/.done").c_str());
            unlink((job_dir + "/result.json").c_str());
        }

        // Skip-running: the lock dies with its holder, so a crashed
        // job never wedges the campaign.
        int lock_fd = open((job_dir + "/.lock").c_str(),
                           O_CREAT | O_RDWR | O_CLOEXEC, 0666);
        if (lock_fd < 0)
            fatal("cannot open '%s/.lock': %s", job_dir.c_str(),
                  std::strerror(errno));
        if (flock(lock_fd, LOCK_EX | LOCK_NB) != 0) {
            close(lock_fd);
            job.status = "running";
            std::printf("[skip] %-44s running elsewhere\n",
                        job.id.c_str());
            continue;
        }

        // Resource-pressure degradation: GC below the watermark,
        // park below the floor.
        if (!diskPressureOk(job)) {
            job.status = "parked";
            result.parked = true;
            flock(lock_fd, LOCK_UN);
            close(lock_fd);
            writeStatus(jobs, "parked");
            break;
        }

        superviseJob(jobs, job, job_dir, jnl);

        flock(lock_fd, LOCK_UN);
        close(lock_fd);
        if (result.interrupted)
            break;
    }
}

void
CampaignSupervisor::writeStatus(const std::vector<CampaignJob> &jobs,
                                const std::string &state)
{
    size_t done = 0, failed = 0, pending = 0;
    for (const auto &j : jobs) {
        if (j.status == "ok" || j.status == "degraded" ||
            j.status == "done")
            ++done;
        else if (j.status == "failed")
            ++failed;
        else if (j.status == "pending")
            ++pending;
    }
    std::ostringstream os;
    os << "{\n"
       << "  \"kind\": \"lp_campaign_status\",\n"
       << "  \"pid\": " << static_cast<long>(getpid()) << ",\n"
       << "  \"state\": " << jsonQuote(state) << ",\n"
       << "  \"pass\": " << result.passes << ",\n"
       << "  \"jobsTotal\": " << jobs.size() << ",\n"
       << "  \"jobsDone\": " << done << ",\n"
       << "  \"jobsFailed\": " << failed << ",\n"
       << "  \"jobsPending\": " << pending << ",\n"
       << "  \"launches\": " << result.launches << ",\n"
       << "  \"retries\": " << result.retries << ",\n"
       << "  \"timeouts\": " << result.timeouts << ",\n"
       << "  \"gcRuns\": " << result.gcRuns << ",\n"
       << "  \"adopted\": " << result.adopted << ",\n"
       << "  \"staleResults\": " << result.staleResults << ",\n"
       << "  \"freeDiskBytes\": "
       << opts.freeDiskProbe(spec.storeDir) << ",\n"
       << "  \"jobs\": [\n";
    for (size_t i = 0; i < jobs.size(); ++i) {
        const CampaignJob &j = jobs[i];
        char backoff[64], wall[64];
        std::snprintf(backoff, sizeof(backoff), "%.3f",
                      j.backoffSeconds);
        std::snprintf(wall, sizeof(wall), "%.3f", j.wallSeconds);
        os << "    {\"job\": " << jsonQuote(j.id) << ", \"status\": "
           << jsonQuote(j.status) << ", \"attempts\": " << j.attempts
           << ", \"backoffSeconds\": " << backoff
           << ", \"wallSeconds\": " << wall << "}"
           << (i + 1 < jobs.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";

    // Best effort: a live surface is never worth failing the
    // campaign for.
    writeFileAtomic(statusPath, os.str());
}

SupervisorResult
CampaignSupervisor::run()
{
    makeCampaignDir(spec.outDir);
    statusPath = opts.statusPath.empty()
                     ? spec.outDir + "/status.json"
                     : opts.statusPath;
    // A shutdown request left over from an earlier campaign in this
    // process (tests run several) must not drain this one.
    clearShutdownRequest();
    installInterruptHandlers();
    if (opts.daemonMode)
        installHupHandler();

    CampaignJournal jnl(spec.outDir + "/campaign.journal",
                        campaignFingerprint(spec));
    if (auto err = jnl.load(/*must_exist=*/false))
        fatal("campaign journal '%s': %s", jnl.path().c_str(),
              err->describe().c_str());
    if (jnl.droppedRecords())
        warn("campaign journal: dropped %zu torn trailing record(s)",
             jnl.droppedRecords());

    std::vector<CampaignJob> jobs;
    for (;;) {
        ++result.passes;
        result.parked = false;
        jobs = expandCampaignMatrix(spec);
        writeStatus(jobs, "running");
        runPass(jobs, jnl);

        result.exitCode = 0;
        for (const auto &j : jobs)
            if (j.status == "degraded" || j.status == "failed" ||
                j.status == "parked")
                result.exitCode = 1;

        writeCampaignJson(spec.outDir + "/campaign.json", spec, jobs);
        const char *state = result.interrupted ? "interrupted"
                            : result.parked    ? "parked"
                            : opts.daemonMode  ? "idle"
                                               : "done";
        writeStatus(jobs, state);
        if (!opts.daemonMode || result.interrupted)
            break;
        if (!idleWait(jobs)) {
            result.interrupted = true;
            writeStatus(jobs, "interrupted");
            break;
        }
    }

    result.jobs = jobs;
    if (result.interrupted)
        result.exitCode = 4;
    return result;
}

bool
CampaignSupervisor::idleWait(const std::vector<CampaignJob> &jobs)
{
    auto t0 = clock_type::now();
    auto last_beat = t0;
    for (;;) {
        if (shutdownRequested())
            return false;
        if (rescanRequested.exchange(false,
                                     std::memory_order_relaxed)) {
            inform("campaign: SIGHUP received; rescanning matrix");
            return true;
        }
        if (opts.rescanSeconds > 0.0 &&
            secondsSince(t0) >= opts.rescanSeconds)
            return true;
        if (secondsSince(last_beat) >= 1.0) {
            // Periodic heartbeat so watchers can tell "idle daemon"
            // from "dead daemon".
            writeStatus(jobs, "idle");
            last_beat = clock_type::now();
        }
        shortNap();
    }
}

} // namespace looppoint
