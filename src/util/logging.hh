/**
 * @file
 * Status/error reporting helpers in the spirit of gem5's logging.hh.
 *
 * fatal() is for conditions that are the caller's fault (bad configuration,
 * invalid arguments); it throws FatalError, printing nothing, so tests
 * can observe it and the catch site reports it once.
 * panic() is for internal invariant violations (a bug in this library);
 * it aborts the process.
 * logError()/warn()/inform()/debug() print leveled status to stderr
 * without stopping the run.
 *
 * Verbosity is controlled by a global level: the LOOPPOINT_LOG
 * environment variable (quiet | error | warn | info | debug) sets the
 * default, setLogLevel() overrides it programmatically, and the legacy
 * setQuiet() maps onto it (quiet=true -> Error, quiet=false -> back to
 * the environment default). Every tool and library in the repo logs
 * through these helpers so one knob filters everything.
 */

#ifndef LOOPPOINT_UTIL_LOGGING_HH
#define LOOPPOINT_UTIL_LOGGING_HH

#include <cstdarg>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace looppoint {

/** Exception thrown by fatal() for user-correctable errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Verbosity levels, in increasing order of chattiness. */
enum class LogLevel : uint8_t
{
    Quiet = 0, ///< nothing, not even errors
    Error = 1,
    Warn = 2,
    Info = 3, ///< the default
    Debug = 4
};

/**
 * Parse a level name ("quiet" | "error" | "warn" | "info" | "debug",
 * case-insensitive). Sets *ok accordingly when given; an unknown name
 * returns Info.
 */
LogLevel parseLogLevel(const std::string &name, bool *ok = nullptr);

/** The active level: the override if set, else the LOOPPOINT_LOG
 * environment default (Info when unset or unparseable). */
LogLevel logLevel();

/** Override the active level (wins over LOOPPOINT_LOG). */
void setLogLevel(LogLevel level);

/** Printf-style formatting into a std::string. */
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Throw FatalError with the formatted message. Prints nothing: the
 * catch site reports e.what(), so the error appears once. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an internal bug and abort. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a non-fatal error to stderr (LogLevel::Error and up). */
void logError(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr (LogLevel::Warn and up). */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message (LogLevel::Info and up). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a debugging message (LogLevel::Debug only). */
void debug(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Legacy verbosity switch: quiet=true caps the level at Error (errors
 * still print), quiet=false restores the LOOPPOINT_LOG default.
 */
void setQuiet(bool quiet);

/**
 * Internal-invariant check that is active in all build types.
 * Prefer this over <cassert> so release benches keep the checks.
 */
#define LP_ASSERT(cond, ...)                                              \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::looppoint::panic("assertion '%s' failed at %s:%d", #cond,   \
                               __FILE__, __LINE__);                       \
        }                                                                 \
    } while (0)

} // namespace looppoint

#endif // LOOPPOINT_UTIL_LOGGING_HH
