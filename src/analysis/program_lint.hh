/**
 * @file
 * ProgramLint: a pass-based static verifier over the Program IR and
 * (optionally) its DCFG and recorded pinball. Each pass checks one
 * family of invariants LoopPoint's correctness rests on and reports
 * violations through the shared DiagnosticSink instead of asserting,
 * so release builds get actionable errors rather than UB:
 *
 *   structure         dense BlockIds, kernel-table and runtime-table
 *                     consistency, body-tree well-formedness (the
 *                     diagnostic mirror of Program::validate())
 *   reachability      blocks not referenced by any kernel or the
 *                     runtime table; routine-membership consistency
 *   streams           StreamPlan ranges that escape their
 *                     addr_space.hh slots or overlap across kernels
 *   sync              unpaired lock acquire/release stubs, runtime
 *                     stubs in the wrong image, declared-vs-used
 *                     synchronization features
 *   loops             malformed or non-natural loop nesting in the
 *                     DCFG loop list (requires a Dcfg)
 *   markers           duplicate PCs that break (PC, count) marker
 *                     identity; missing main-image loop headers
 *   marker-stability  every candidate marker is reached with
 *                     identical counts under two constrained replays
 *                     at different flow quanta, and those counts match
 *                     the DCFG profile (requires Dcfg + Pinball;
 *                     paper Section III marker stability)
 */

#ifndef LOOPPOINT_ANALYSIS_PROGRAM_LINT_HH
#define LOOPPOINT_ANALYSIS_PROGRAM_LINT_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.hh"
#include "dcfg/dcfg.hh"
#include "isa/program.hh"
#include "pinball/pinball.hh"

namespace looppoint {

/** Inputs available to the passes; only `prog` is mandatory. */
struct LintContext
{
    const Program *prog = nullptr;
    /** Enables the loops/markers dynamic checks when present. */
    const Dcfg *dcfg = nullptr;
    /** Enables the marker-stability replays when present. */
    const Pinball *pinball = nullptr;
    /** Flow-control quantum for the stability replays. */
    uint64_t flowQuantum = 1000;
};

/** One verification pass. Passes are stateless and reusable. */
class LintPass
{
  public:
    virtual ~LintPass() = default;
    virtual std::string_view name() const = 0;
    virtual void run(const LintContext &ctx,
                     DiagnosticSink &sink) const = 0;
};

/** The default pass pipeline. */
class ProgramLint
{
  public:
    /** Registers the built-in passes in dependency order. */
    ProgramLint();

    const std::vector<std::unique_ptr<LintPass>> &passes() const
    {
        return passList;
    }

    /**
     * Run the (optionally name-filtered) passes. When the structure
     * pass reports errors the remaining passes are skipped: they are
     * only memory-safe on structurally sound programs. Returns the
     * number of errors added to `sink`.
     */
    size_t run(const LintContext &ctx, DiagnosticSink &sink,
               const std::vector<std::string> &only = {}) const;

  private:
    std::vector<std::unique_ptr<LintPass>> passList;
};

/**
 * Core of the loops pass, exposed so tests can feed handcrafted loop
 * lists (the Dcfg constructor only ever produces natural loops from
 * real edge data; the defects this guards against come from corrupted
 * or hand-built inputs).
 */
void lintLoopList(const Program &prog,
                  const std::vector<DcfgLoop> &loops,
                  DiagnosticSink &sink);

} // namespace looppoint

#endif // LOOPPOINT_ANALYSIS_PROGRAM_LINT_HH
