/**
 * @file
 * Shared helpers for the experiment harnesses in bench/: the shared
 * flags and table formatting. Each bench binary regenerates one
 * table or figure of the paper and prints the corresponding rows.
 */

#ifndef LOOPPOINT_BENCH_BENCH_UTIL_HH
#define LOOPPOINT_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "util/flags.hh"
#include "util/logging.hh"

namespace looppoint::bench {

/** Parse a bench's flags: --help prints them and exits 0, an unknown
 * flag or bad value exits 2. */
inline void
parseBenchFlags(int argc, char **argv, std::vector<Flag> flags)
{
    const std::string path = argv[0];
    parseCommandLine({path.substr(path.rfind('/') + 1), "[options]",
                      std::move(flags)},
                     argc, argv);
}

/** The flags most benches share; each bench lists the ones it reads. */
inline Flag
quickFlag(bool &quick)
{
    return {"quick", 0, "", "small subset of applications (CI-friendly)",
            setBool(quick)};
}

inline Flag
fullFlag(bool &full)
{
    return {"full", 0, "", "every application, not the default subset",
            setBool(full)};
}

inline Flag
appFlag(std::string &app)
{
    return {"app", 0, "NAME", "run this application only", setString(app)};
}

inline Flag
csvFlag(std::string &dir)
{
    return {"csv", 0, "[DIR]",
            "also write the plotted series to DIR/<figure>.csv (default "
            "DIR: .)",
            [&dir](const std::string &v) { dir = v.empty() ? "." : v; }};
}

/**
 * Optional CSV emission for plotting: pass --csv (or --csv=DIR) to a
 * bench and it writes its series to <DIR>/<name>.csv alongside the
 * console table. Disabled (all calls no-ops) when --csv is absent.
 */
class CsvFile
{
  public:
    /** @param dir csvFlag()'s value: DIR, "." for a bare --csv, "" =
     * disabled; @param name file stem, e.g. "fig5" */
    CsvFile(const std::string &dir, const std::string &name)
    {
        if (dir.empty())
            return;
        path = dir + "/" + name + ".csv";
        file = std::fopen(path.c_str(), "w");
        if (!file)
            looppoint::warn("cannot write %s", path.c_str());
    }

    ~CsvFile()
    {
        if (file)
            std::fclose(file);
    }

    CsvFile(const CsvFile &) = delete;
    CsvFile &operator=(const CsvFile &) = delete;

    /** Emit one row; quoting is unnecessary for our simple fields. */
    void
    row(const std::vector<std::string> &fields)
    {
        if (!file)
            return;
        for (size_t i = 0; i < fields.size(); ++i)
            std::fprintf(file, "%s%s", i ? "," : "",
                         fields[i].c_str());
        std::fprintf(file, "\n");
    }

    bool enabled() const { return file != nullptr; }
    const std::string &fileName() const { return path; }

  private:
    std::FILE *file = nullptr;
    std::string path;
};

/**
 * Short git SHA of the working tree, or "unknown" when git (or the
 * .git directory) is unavailable — bench results stay comparable
 * across checkouts without making git a hard dependency.
 */
inline std::string
gitSha()
{
    std::FILE *p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
    if (!p)
        return "unknown";
    char buf[64] = {0};
    std::string sha;
    if (std::fgets(buf, sizeof(buf), p)) {
        sha = buf;
        while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
            sha.pop_back();
    }
    ::pclose(p);
    return sha.empty() ? "unknown" : sha;
}

/** UTC wall-clock timestamp, ISO 8601, for bench provenance. */
inline std::string
utcTimestamp()
{
    std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    gmtime_r(&now, &tm_utc);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    return buf;
}

inline std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** Wall-clock stopwatch for phase timing around pool-parallel work. */
class WallTimer
{
  public:
    WallTimer() : t0(std::chrono::steady_clock::now()) {}

    void reset() { t0 = std::chrono::steady_clock::now(); }

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point t0;
};

/**
 * Measured host-parallel self-relative speedup of a phase: the
 * serial-equivalent time (sum of per-task wall times, plus any serial
 * prefix) over the measured phase wall time. This is what the host
 * actually achieved, as opposed to the theoretical region-count bound
 * the figures also report.
 */
inline double
hostSpeedup(double serial_equivalent_s, double phase_wall_s)
{
    return phase_wall_s > 0.0 ? serial_equivalent_s / phase_wall_s
                              : 0.0;
}

/** Parallel efficiency of a phase run on `jobs` host workers. */
inline double
hostEfficiency(double serial_equivalent_s, double phase_wall_s,
               uint32_t jobs)
{
    return jobs ? hostSpeedup(serial_equivalent_s, phase_wall_s) /
                      static_cast<double>(jobs)
                : 0.0;
}

inline void
printRule(int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

inline void
printHeader(const char *title)
{
    printRule();
    std::printf("%s\n", title);
    printRule();
}

} // namespace looppoint::bench

#endif // LOOPPOINT_BENCH_BENCH_UTIL_HH
