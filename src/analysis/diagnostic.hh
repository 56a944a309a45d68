/**
 * @file
 * Shared diagnostic representation for the guest-program lint
 * (ProgramLint), the artifact audit and degraded pipeline runs. Every
 * check reports through a DiagnosticSink so callers get structured,
 * machine-readable findings instead of scattered asserts; emitters
 * render the collected list as human-readable text or as a JSON array.
 */

#ifndef LOOPPOINT_ANALYSIS_DIAGNOSTIC_HH
#define LOOPPOINT_ANALYSIS_DIAGNOSTIC_HH

#include <cstddef>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace looppoint {

/** How bad a finding is. */
enum class Severity : uint8_t
{
    Info,    ///< context / statistics, never affects exit status
    Warning, ///< suspicious but not invariant-breaking
    Error    ///< a checked invariant is violated
};

/** Printable name ("info", "warning", "error"). */
std::string_view severityName(Severity s);

/** One finding from an analysis pass. */
struct Diagnostic
{
    Severity severity = Severity::Info;
    /** Pass that produced it ("structure", "audit", ...). */
    std::string pass;
    /** Where: "kernel 'k0'", "block 12 (pc 0x...)", ... */
    std::string location;
    std::string message;
};

/**
 * Collects diagnostics from any number of passes. Thread-safe, so
 * any thread may report into one sink (the checkpointed phase reports
 * its region faults through one).
 */
class DiagnosticSink
{
  public:
    void report(Severity severity, std::string pass,
                std::string location, std::string message);

    void error(std::string pass, std::string location,
               std::string message)
    {
        report(Severity::Error, std::move(pass), std::move(location),
               std::move(message));
    }
    void warning(std::string pass, std::string location,
                 std::string message)
    {
        report(Severity::Warning, std::move(pass), std::move(location),
               std::move(message));
    }
    void info(std::string pass, std::string location,
              std::string message)
    {
        report(Severity::Info, std::move(pass), std::move(location),
               std::move(message));
    }

    const std::vector<Diagnostic> &diagnostics() const { return list; }
    size_t count(Severity s) const;
    size_t errors() const { return count(Severity::Error); }
    size_t warnings() const { return count(Severity::Warning); }
    bool empty() const { return list.empty(); }

    /** Move the collected list out (sink becomes empty). */
    std::vector<Diagnostic> take();

  private:
    mutable std::mutex mtx;
    std::vector<Diagnostic> list;
};

/** Render one list of diagnostics as "severity [pass] location: msg". */
void printDiagnosticsText(std::ostream &os,
                          const std::vector<Diagnostic> &diags);

/** Render a list of diagnostics as a JSON array. */
void printDiagnosticsJson(std::ostream &os,
                          const std::vector<Diagnostic> &diags);

/**
 * Sort diagnostics into the canonical report order: by pass, then
 * location, then message, then severity. Analyses that run under a
 * thread pool append findings in completion order; sorting before
 * emission makes the output independent of `--jobs`.
 */
void sortDiagnosticsCanonical(std::vector<Diagnostic> &diags);

} // namespace looppoint

#endif // LOOPPOINT_ANALYSIS_DIAGNOSTIC_HH
