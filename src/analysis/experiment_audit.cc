#include "analysis/experiment_audit.hh"

#include <string>
#include <utility>

#include "analysis/artifact_audit.hh"
#include "core/run_journal.hh"
#include "dcfg/dcfg.hh"
#include "obs/trace.hh"
#include "pinball/pinball.hh"
#include "workload/descriptor.hh"

namespace looppoint {

size_t
auditExperiment(const ExperimentConfig &cfg, ExperimentResult &res)
{
    ScopedSpan span(Tracer::global(), "phase.audit");

    // Re-derive the run's identity the same way runExperiment() did;
    // program generation is deterministic, so this is the exact
    // program the recording was made from.
    const AppDescriptor &app = findApp(cfg.app);
    const uint32_t threads = res.threads;
    Program prog = generateProgram(app, cfg.input);
    LoopPointOptions opts = cfg.loopPoint;
    opts.numThreads = threads;
    opts.waitPolicy = cfg.waitPolicy;
    opts.jobs = cfg.jobs;
    SimConfig sim_cfg = cfg.sim;
    sim_cfg.jobs = cfg.jobs;

    // The marker checks want the DCFG profile; rebuild it from the
    // recording (a constrained replay, cheap next to simulation).
    DcfgBuilder dcfg_builder(prog, threads);
    replayPinball(prog, res.analysis.pinball, opts.flowQuantum,
                  &dcfg_builder);
    Dcfg dcfg = dcfg_builder.build();

    AuditContext actx;
    actx.prog = &prog;
    actx.dcfg = &dcfg;
    actx.pinball = &res.analysis.pinball;
    actx.result = &res.analysis;
    actx.expectedThreads = threads;
    actx.storeDir = cfg.storeDir;
    RunKey journal_key;
    if (!cfg.journalPath.empty()) {
        journal_key = makeRunKey(
            cfg.app, std::string(inputClassName(cfg.input)), threads,
            cfg.waitPolicy, opts.seed, cfg.constrainedRegions,
            sim_cfg);
        actx.journalPath = cfg.journalPath;
        actx.journalKey = &journal_key;
    }

    DiagnosticSink sink;
    res.auditFindings = runArtifactAudit(actx, sink);
    auto diags = sink.take();
    sortDiagnosticsCanonical(diags);
    for (auto &d : diags)
        res.analysis.diagnostics.push_back(std::move(d));
    span.arg("findings",
             static_cast<uint64_t>(res.auditFindings));
    return res.auditFindings;
}

} // namespace looppoint
