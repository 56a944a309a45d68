#include "campaign/supervisor.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/json.hh"
#include "util/crc_log.hh"
#include "util/interrupt.hh"
#include "util/logging.hh"

namespace looppoint {

namespace {

using clock_type = std::chrono::steady_clock;

double
secondsSince(clock_type::time_point t0)
{
    return std::chrono::duration<double>(clock_type::now() - t0)
        .count();
}

void
loadJournal(CampaignJournal &jnl)
{
    if (auto err = jnl.load(/*must_exist=*/false))
        fatal("campaign journal '%s': %s", jnl.path().c_str(),
              err->describe().c_str());
}

/** Chunked sleep that returns early once shutdown is requested. */
void
interruptibleSleep(double seconds)
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
        // The nastiest failure: "success" with a garbage result.
        // Exercises the result-validation guard.
        {
            std::ofstream r(job_dir + "/result.json");
            r << "{\"kind\": \"lp_campaign_job\", \"trunc";
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
CampaignSupervisor::superviseJob(CampaignJob &job,
                                 const std::string &job_dir,
                                 CampaignJournal &jnl)
{
    const uint32_t max_attempts = 1 + opts.jobRetries;

    for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
        if (shutdownRequested()) {
            result.interrupted = true;
            return;
        }
        job.status = "running";
        job.attempts = attempt + 1;
        ++result.launches;
        if (attempt > 0)
            ++result.retries;
        std::printf("[run ] %-44s attempt %u/%u\n", job.id.c_str(),
                    attempt + 1, max_attempts);
        jnl.append({job.index, job.id, "launch", attempt, -1, 0});
        writeStatus("running");

        ChildOutcome oc = launchAttempt(job, job_dir, attempt);
        job.wallSeconds += oc.wallSeconds;

        if (oc.timedOut) {
            ++result.timeouts;
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

        // Every case that does not return falls through to a retry.
        switch (oc.cls) {
          case FailureClass::Success:
          case FailureClass::Degraded:
            if (!validJobResult(job_dir)) {
                // Exit 0/1 with a missing or garbage result.json:
                // never trust it. Scrub and retry.
                ++result.staleResults;
                jnl.append({job.index, job.id, "stale", attempt,
                            oc.code, oc.sig});
                unlink((job_dir + "/result.json").c_str());
                logError("job %s: exit %d but result.json is missing "
                         "or corrupt; retrying", job.id.c_str(),
                         oc.code);
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
            writeStatus("running");
            return;
          case FailureClass::Permanent:
            job.status = "failed";
            jnl.append({job.index, job.id, "fail-permanent", attempt,
                        oc.code, oc.sig});
            logError("job %s: permanent failure (exit %d); not "
                     "retrying", job.id.c_str(), oc.code);
            writeStatus("running");
            return;
          case FailureClass::Interrupted:
            // Parked at a region boundary (usually our own watchdog's
            // SIGTERM). The store holds its completed regions, so the
            // retry resumes rather than restarts.
            jnl.append({job.index, job.id, "interrupted", attempt,
                        oc.code, oc.sig});
            if (shutdownRequested()) {
                job.status = "pending";
                result.interrupted = true;
                return;
            }
            break;
          case FailureClass::Transient:
            jnl.append({job.index, job.id, "fail-transient", attempt,
                        oc.code, oc.sig});
            std::printf("[fail] %-44s transient (%s %d)\n",
                        job.id.c_str(), oc.sig ? "signal" : "exit",
                        oc.sig ? oc.sig : oc.code);
            break;
        }
        if (attempt + 1 >= max_attempts)
            break;

        const double delay = opts.backoff.delaySeconds(attempt);
        job.status = "backoff";
        job.backoffSeconds = delay;
        writeStatus("running");
        std::printf("[wait] %-44s backoff %.3f s before attempt "
                    "%u/%u\n", job.id.c_str(), delay, attempt + 2,
                    max_attempts);
        std::fflush(stdout);
        interruptibleSleep(delay);
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
    writeStatus("running");
}

bool
CampaignSupervisor::adopt(CampaignJob &job, const std::string &job_dir,
                          CampaignJournal &jnl)
{
    // Another invocation journals a job's completion before it drops
    // the job's lock, so the file as it is now is the whole truth.
    loadJournal(jnl);
    const auto ledgers = jnl.ledgers();
    const auto led = ledgers.find(job.index);
    if (led == ledgers.end() || !led->second.completed)
        return false;
    // Trust a completion only while its result on disk still parses:
    // a completed-then-corrupted job reruns.
    if (validJobResult(job_dir)) {
        job.status = led->second.finalStatus;
        job.attempts = led->second.attempts;
        ++result.adopted;
        std::printf("[skip] %-44s complete per journal (%s)\n",
                    job.id.c_str(), job.status.c_str());
        return true;
    }
    ++result.staleResults;
    jnl.append({job.index, job.id, "stale", led->second.attempts, -1, 0});
    warn("job %s: journal says complete but result.json is missing or "
         "corrupt; rerunning", job.id.c_str());
    unlink((job_dir + "/result.json").c_str());
    return false;
}

void
CampaignSupervisor::writeStatus(const std::string &state)
{
    size_t done = 0, failed = 0, pending = 0;
    for (const auto &j : result.jobs) {
        done += j.status == "ok" || j.status == "degraded";
        failed += j.status == "failed";
        pending += j.status == "pending";
    }
    std::ostringstream os;
    os << "{\n"
       << "  \"kind\": \"lp_campaign_status\",\n"
       << "  \"pid\": " << static_cast<long>(getpid()) << ",\n"
       << "  \"state\": " << jsonQuote(state) << ",\n"
       << "  \"jobsTotal\": " << result.jobs.size() << ",\n"
       << "  \"jobsDone\": " << done << ",\n"
       << "  \"jobsFailed\": " << failed << ",\n"
       << "  \"jobsPending\": " << pending << ",\n"
       << "  \"launches\": " << result.launches << ",\n"
       << "  \"retries\": " << result.retries << ",\n"
       << "  \"timeouts\": " << result.timeouts << ",\n"
       << "  \"adopted\": " << result.adopted << ",\n"
       << "  \"staleResults\": " << result.staleResults << ",\n"
       << "  \"jobs\": [\n";
    for (size_t i = 0; i < result.jobs.size(); ++i) {
        const CampaignJob &j = result.jobs[i];
        char backoff[64], wall[64];
        std::snprintf(backoff, sizeof(backoff), "%.3f",
                      j.backoffSeconds);
        std::snprintf(wall, sizeof(wall), "%.3f", j.wallSeconds);
        os << "    {\"job\": " << jsonQuote(j.id) << ", \"status\": "
           << jsonQuote(j.status) << ", \"attempts\": " << j.attempts
           << ", \"backoffSeconds\": " << backoff
           << ", \"wallSeconds\": " << wall << "}"
           << (i + 1 < result.jobs.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";

    // Best effort: a live surface is never worth failing the
    // campaign for.
    writeFileAtomic(spec.outDir + "/status.json", os.str());
}

SupervisorResult
CampaignSupervisor::run()
{
    makeCampaignDir(spec.outDir);
    // A shutdown request left over from an earlier campaign in this
    // process (tests run several) must not drain this one.
    clearShutdownRequest();
    installInterruptHandlers();

    CampaignJournal jnl(spec.outDir + "/campaign.journal",
                        campaignFingerprint(spec));
    loadJournal(jnl);
    if (jnl.droppedRecords())
        warn("campaign journal: dropped %zu torn trailing record(s)",
             jnl.droppedRecords());

    result.jobs = expandCampaignMatrix(spec);
    writeStatus("running");
    for (auto &job : result.jobs) {
        if (shutdownRequested()) {
            inform("campaign: shutdown requested; draining (no new "
                   "launches)");
            result.interrupted = true;
            break;
        }
        const std::string job_dir = spec.outDir + "/" + job.id;
        makeCampaignDir(job_dir);

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

        if (!adopt(job, job_dir, jnl))
            superviseJob(job, job_dir, jnl);

        flock(lock_fd, LOCK_UN);
        close(lock_fd);
        if (result.interrupted)
            break;
    }

    for (const auto &j : result.jobs)
        if (j.status == "degraded" || j.status == "failed")
            result.exitCode = 1;
    writeCampaignJson(spec.outDir + "/campaign.json", spec, result.jobs);
    writeStatus(result.interrupted ? "interrupted" : "done");
    if (result.interrupted)
        result.exitCode = 4;
    return result;
}

} // namespace looppoint
