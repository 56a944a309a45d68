#include "util/logging.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace looppoint {

namespace {

/** Programmatic override; negative = none (use the env default). */
int levelOverride = -1;

LogLevel
envDefaultLevel()
{
    static const LogLevel level = [] {
        const char *env = std::getenv("LOOPPOINT_LOG");
        if (!env || !*env)
            return LogLevel::Info;
        bool ok = false;
        LogLevel parsed = parseLogLevel(env, &ok);
        if (!ok) {
            std::fprintf(stderr,
                         "warn: LOOPPOINT_LOG='%s' is not a log level "
                         "(quiet|error|warn|info|debug); using info\n",
                         env);
            return LogLevel::Info;
        }
        return parsed;
    }();
    return level;
}

std::string
vFormat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int len = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (len < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(len));
}

} // namespace

LogLevel
parseLogLevel(const std::string &name, bool *ok)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    if (ok)
        *ok = true;
    if (lower == "quiet" || lower == "none")
        return LogLevel::Quiet;
    if (lower == "error")
        return LogLevel::Error;
    if (lower == "warn" || lower == "warning")
        return LogLevel::Warn;
    if (lower == "info")
        return LogLevel::Info;
    if (lower == "debug")
        return LogLevel::Debug;
    if (ok)
        *ok = false;
    return LogLevel::Info;
}

LogLevel
logLevel()
{
    return levelOverride >= 0
               ? static_cast<LogLevel>(levelOverride)
               : envDefaultLevel();
}

void
setLogLevel(LogLevel level)
{
    levelOverride = static_cast<int>(level);
}

std::string
strFormat(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vFormat(fmt, ap);
    va_end(ap);
    return s;
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vFormat(fmt, ap);
    va_end(ap);
    throw FatalError(msg);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vFormat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
logError(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Error)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vFormat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "error: %s\n", msg.c_str());
}

void
warn(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Warn)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vFormat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Info)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vFormat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
debug(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Debug)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vFormat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "debug: %s\n", msg.c_str());
}

void
setQuiet(bool quiet)
{
    if (quiet)
        setLogLevel(LogLevel::Error);
    else
        levelOverride = -1;
}

} // namespace looppoint
