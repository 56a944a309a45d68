/**
 * @file
 * ArtifactAudit: a sampling-validity auditor that statically
 * cross-checks pipeline artifacts without re-running simulation.
 *
 * LoopPoint's Eq. 1/2 extrapolation is only as sound as the artifacts
 * it is computed from. Each sub-check validates one link between
 * neighboring pipeline stages:
 *
 *  - markers: every region/slice boundary marker names a main-image
 *    loop-header PC the DCFG actually profiled, with an execution
 *    count the profile can reach;
 *  - weights: cluster weights sum to 1 within tolerance, Eq. 2
 *    multipliers reproduce each cluster's slice population, and
 *    region/cluster/slice cross-references are in range and mutually
 *    consistent;
 *  - pinball: the recording round-trips through its serialization and
 *    its thread roster matches the requested configuration;
 *  - journal: the run journal loads under its expected key, every
 *    record references an existing region and matches its identity;
 *  - store: every manifest entry hash-verifies, the stage-key chains
 *    (record -> profile -> cluster -> warm/sim) are complete and
 *    acyclic, and every warm checkpoint's header matches its key and
 *    payload length.
 *
 * Sub-checks run only when their inputs are present in the
 * AuditContext, so the same analysis serves lp_lint (program +
 * pinball only) and run_looppoint --audit (everything). A program
 * that fails ProgramLint's structure pass is not audited at all. All
 * findings use pass name "audit".
 */

#ifndef LOOPPOINT_ANALYSIS_ARTIFACT_AUDIT_HH
#define LOOPPOINT_ANALYSIS_ARTIFACT_AUDIT_HH

#include <string>

#include "analysis/diagnostic.hh"
#include "core/looppoint.hh"
#include "core/run_journal.hh"
#include "dcfg/dcfg.hh"
#include "pinball/pinball.hh"

namespace looppoint {

/** Inputs the audit may cross-check; null/empty fields skip checks. */
struct AuditContext
{
    const Program *prog = nullptr;
    const Dcfg *dcfg = nullptr;
    /** The whole-program recording. */
    const Pinball *pinball = nullptr;
    /** Completed analysis (slices, clustering, regions). */
    const LoopPointResult *result = nullptr;
    /** Threads the run was configured for (0 = don't check). */
    uint32_t expectedThreads = 0;
    /** On-disk pinball artifact to parse-check ("" = skip). */
    std::string pinballPath;
    /** Run journal to validate ("" = skip; key required). */
    std::string journalPath;
    const RunKey *journalKey = nullptr;
    /** Artifact store to hash-verify and chain-check ("" = skip). */
    std::string storeDir;
};

/**
 * Run every sub-check whose inputs are present, unless `ctx.prog`
 * fails the structure pass (then only an info line is emitted).
 * Returns the number of warning/error findings emitted (info lines
 * excluded).
 */
size_t runArtifactAudit(const AuditContext &ctx, DiagnosticSink &sink);

} // namespace looppoint

#endif // LOOPPOINT_ANALYSIS_ARTIFACT_AUDIT_HH
