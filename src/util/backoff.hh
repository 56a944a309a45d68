/**
 * @file
 * Retry policy for supervised job execution: transient-vs-permanent
 * failure classification from a waitpid() status, and capped
 * exponential backoff.
 *
 * The campaign supervisor runs each job in a forked child; when the
 * child stops, everything it knows is the wait status. The classifier
 * maps that status onto the shared exit-code contract (0 success,
 * 1 degraded, 2 usage, 3 runtime failure, 4 interrupted at a region
 * boundary) plus the signal dispositions: any signal death — SIGSEGV
 * from a real crash, SIGKILL from the OOM killer or the watchdog —
 * is transient (a retry from the same inputs may well succeed),
 * while usage errors and unknown exit codes are permanent (the same
 * command line will fail the same way forever).
 *
 * The delay before retry r is min(cap, base * 2^r): a pure function
 * of (policy, retry), and the cap comes back exactly once reached.
 * Jobs run one at a time, so there is no herd for jitter to spread.
 */

#ifndef LOOPPOINT_UTIL_BACKOFF_HH
#define LOOPPOINT_UTIL_BACKOFF_HH

#include <cstdint>

namespace looppoint {

/** Why a supervised child stopped, classified from its wait status. */
enum class FailureClass : uint8_t
{
    Success,     ///< exit 0: full-coverage run
    Degraded,    ///< exit 1: completed with reduced coverage/findings
    Permanent,   ///< exit 2 or an unknown code: retrying cannot help
    Transient,   ///< exit 3 or any signal death: worth retrying
    Interrupted, ///< exit 4: stopped at a region boundary on request
};

/** Stable lowercase name (journal / status.json vocabulary). */
const char *failureClassName(FailureClass c);

/**
 * Classify a status filled in by waitpid(). See the file comment for
 * the table; WIFSTOPPED/WIFCONTINUED (not requested by the
 * supervisor) conservatively classify as Transient.
 */
FailureClass classifyWaitStatus(int wait_status);

/** See file comment. */
struct BackoffPolicy
{
    /** Delay before the first retry. */
    double baseSeconds = 0.5;
    /** Hard ceiling; saturated delays return exactly this. */
    double capSeconds = 60.0;

    /** The delay before retry `retry` (0-based: retry 0 follows the
     * first failure). */
    double delaySeconds(uint32_t retry) const;
};

} // namespace looppoint

#endif // LOOPPOINT_UTIL_BACKOFF_HH
