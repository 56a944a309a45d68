/**
 * @file
 * run-looppoint: the command-line driver, mirroring the artifact's
 * run-looppoint.py (paper appendix A.E); `--help` lists its flags.
 * Programs are named like the artifact (demo-matrix-1,
 * spec-bwaves-1, spec-xz-2, npb-bt-1, ...); multiple programs may be
 * given comma-separated. The tool runs profiling, region selection,
 * region simulation, (optionally) the full-application simulation, and
 * prints the estimated error and speedups — the artifact's console
 * output, end to end.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/diagnostic.hh"
#include "analysis/experiment_audit.hh"
#include "analysis/sarif.hh"
#include "core/experiment.hh"
#include "exec/driver.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/fault.hh"
#include "util/flags.hh"
#include "util/interrupt.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

using namespace looppoint;

namespace {

struct CliOptions
{
    /** Every run's configuration but the application, which runOne()
     * fills in per program. */
    ExperimentConfig exp;
    std::vector<std::string> programs{"demo-matrix-1"};
    bool native = false;
    bool audit = false;
    /** Write analysis findings as SARIF 2.1.0 to this path. */
    std::string sarifPath;
    std::string tracePath;
    std::string metricsPath;
    /** Named microarchitecture preset ("" = baseline). */
    std::string uarchPreset;
};

const char *const kEpilog =
    "\nexit codes:\n"
    "  0  success, full coverage\n"
    "  1  completed degraded (regions dropped, coverage < 1.0) or\n"
    "     analysis findings with error severity\n"
    "  2  usage error (bad flag or argument)\n"
    "  4  interrupted: SIGTERM/SIGINT (or an injected\n"
    "     kind=interrupt fault) parked the run at the next region\n"
    "     boundary; completed regions are already journaled, so a\n"
    "     rerun with --resume continues bit-identically. A third\n"
    "     signal skips the graceful stop and dies immediately\n"
    "  3  runtime failure: I/O error, corrupt artifact or journal,\n"
    "     or (injected) crash. A crash mid-simulation (real, or\n"
    "     an injected kind=kill) ends the run; completed regions\n"
    "     are already journaled, so --resume (or lp_campaign's\n"
    "     automatic retry) continues it bit-identically. The\n"
    "     journal identity excludes host-side knobs, so the\n"
    "     resumed run may use a different --jobs\n"
    "\nexamples (artifact appendix):\n"
    "  ./run_looppoint -p demo-matrix-1 -n 8 --force\n"
    "  ./run_looppoint -p demo-matrix-2,demo-matrix-3 -w active "
    "-i test --force\n"
    "  ./run_looppoint -p spec-imagick-1 -i train -n 8\n";

CommandLine
commandLine(CliOptions &cli)
{
    // The driver's defaults where ExperimentConfig's differ: test
    // input, and jobs auto-detected (resolved in the check below).
    ExperimentConfig &exp = cli.exp;
    exp.input = InputClass::Test;
    exp.jobs = 0;
    // For the flags run-looppoint.py takes that have no effect here.
    const FlagSetter noop = [](const std::string &) {};
    std::vector<Flag> flags = {
        {"program", 'p', "LIST",
         "comma-separated programs, each <suite>-<app>-<input-num> "
         "(default: demo-matrix-1)",
         setList(cli.programs, [](const std::string &program) {
             findApp(resolveArtifactProgram(program));
         })},
        {"ncores", 'n', "N", "number of threads (default: 8)",
         setUnsigned(exp.requestedThreads, 1)},
        {"jobs", 'j', "N",
         "host workers for region simulation, clustering and the "
         "warming pass's cache-set partitions (inline when the "
         "prefetcher is on); N > 1 also pipelines a cold analysis "
         "(recording and DCFG builder on helper threads); 0 or "
         "omitted = auto-detect (hardware concurrency). Results are "
         "identical for any N",
         setUnsigned(exp.jobs, 0, ThreadPool::kMaxJobs)},
        {"input-class", 'i', "C",
         "test | train | ref | A | C | D (default: test)",
         [&exp](const std::string &v) { exp.input = resolveInputClass(v); }},
        {"wait-policy", 'w', "P", "passive | active (default: passive)",
         setChoice(exp.waitPolicy, parseWaitPolicy)},
        {"native", 0, "", "run the application functionally only",
         setBool(cli.native)},
        {"inorder", 0, "", "simulate an in-order core",
         [&exp](const std::string &) {
             exp.sim.coreType = CoreType::InOrder;
         }},
        {"constrained", 0, "", "constrained (replay-ordered) regions",
         setBool(exp.constrainedRegions)},
        {"no-fullsim", 0, "", "skip the full-application simulation",
         setBool(exp.simulateFull, false)},
        {"audit", 0, "",
         "after the run, statically cross-check the pipeline artifacts "
         "(markers vs. DCFG, cluster-weight closure, journal and store "
         "integrity) without re-simulating. The program verifiers "
         "(lint, race, lockset) are lp_lint's: lp_lint -p PROG "
         "--race-check --lock-check",
         setBool(cli.audit)},
        {"sarif", 0, "PATH",
         "also write the analysis findings as SARIF 2.1.0 to PATH",
         setString(cli.sarifPath)},
        {"force", 0, "",
         "start a new end-to-end run (accepted for artifact "
         "compatibility; runs are always fresh here)",
         noop},
        {"reuse-profile", 0, "",
         "accepted for artifact compatibility; no effect", noop},
        {"reuse-fullsim", 0, "",
         "accepted for artifact compatibility; no effect", noop},
        {"region-retries", 0, "N",
         "re-attempt a failed region from its checkpoint up to N times "
         "before dropping it (default: 0)",
         setUnsigned(exp.sim.regionRetries)},
        {"journal", 0, "PATH",
         "record completed regions in a crash-safe journal at PATH",
         setString(exp.journalPath)},
        {"resume", 0, "PATH",
         "resume from the journal at PATH: already-completed regions "
         "are reused, results are bit-identical to an uninterrupted run",
         [&exp](const std::string &v) {
             exp.journalPath = v;
             exp.resume = true;
         }},
        {"inject-fault", 0, "SPEC",
         "deterministic fault injection, e.g. "
         "sim:region=3,kind=throw|diverge|kill[,times=M]; clauses "
         "separated by ';'",
         [&exp](const std::string &v) {
             exp.sim.faults = FaultPlan::parse(v);
         }},
        {"trace", 0, "PATH",
         "write a Chrome/Perfetto trace of the whole pipeline to PATH "
         "(open it in ui.perfetto.dev or chrome://tracing; inspect it "
         "with lp_report)",
         setString(cli.tracePath)},
        {"metrics", 0, "PATH",
         "write the metrics registry to PATH (*.txt = text, otherwise "
         "JSON)",
         setString(cli.metricsPath)},
        {"store", 0, "DIR",
         "content-addressed artifact store at DIR: recording, "
         "profiling, clustering, region simulation and the full sim "
         "are served from the store when their stage keys hit "
         "(bit-identical) and published back when recomputed. Safe to "
         "share between concurrent runs. Manage with lp_store; sweep "
         "with lp_campaign",
         setString(exp.storeDir)},
        {"uarch", 0, "PRESET",
         "named microarchitecture preset (" + uarchPresetNames() +
             "); changing it re-keys only the simulation stages of the "
             "store",
         setString(cli.uarchPreset)},
    };
    return {"run_looppoint", "[options]", std::move(flags), kEpilog, 0,
            [&cli, &exp] {
                if (!cli.uarchPreset.empty())
                    applyUarchPreset(exp.sim, cli.uarchPreset);
                exp.sim.obs.trace = !cli.tracePath.empty();
                exp.sim.obs.metrics = !cli.metricsPath.empty();
                // Test-class runs are small; shrink slices so
                // clustering has enough intervals to work with (paper
                // Sec. III-B).
                if (exp.input == InputClass::Test)
                    exp.loopPoint.sliceSizePerThread = 25'000;
                exp.jobs = ThreadPool::resolveWorkers(exp.jobs);
            }};
}

int
runNative(const std::string &app_name, const CliOptions &cli)
{
    const AppDescriptor &app = findApp(app_name);
    uint32_t threads = app.effectiveThreads(cli.exp.requestedThreads);
    Program prog = generateProgram(app, cli.exp.input);
    ExecConfig cfg;
    cfg.numThreads = threads;
    cfg.waitPolicy = cli.exp.waitPolicy;
    ExecutionEngine engine(prog, cfg);
    RoundRobinDriver driver(engine, 1000);
    driver.run();
    std::printf("[native] %s: %llu instructions (%llu in the main "
                "image), %u threads\n",
                app_name.c_str(),
                static_cast<unsigned long long>(engine.globalIcount()),
                static_cast<unsigned long long>(
                    engine.globalFilteredIcount()),
                threads);
    return 0;
}

/** Findings of every program this invocation ran, for --sarif. */
std::vector<Diagnostic> g_sarifDiags;

int
runOne(const std::string &program, const CliOptions &cli)
{
    std::string app_name = resolveArtifactProgram(program);
    std::printf("==== %s (%s, input %s, %u cores, %s wait, %u jobs) "
                "====\n",
                program.c_str(), app_name.c_str(),
                std::string(inputClassName(cli.exp.input)).c_str(),
                cli.exp.requestedThreads,
                waitPolicyName(cli.exp.waitPolicy), cli.exp.jobs);
    if (cli.native)
        return runNative(app_name, cli);

    ExperimentConfig cfg = cli.exp;
    cfg.app = app_name;
    ExperimentResult r = runExperiment(cfg);
    if (cli.audit)
        auditExperiment(cfg, r);

    std::printf("profiling      : %zu slices, %llu filtered "
                "instructions\n",
                r.analysis.slices.size(),
                static_cast<unsigned long long>(
                    r.analysis.totalFilteredIcount));
    std::printf("region selection: k = %u looppoints\n",
                r.analysis.chosenK);
    for (const auto &region : r.analysis.regions) {
        std::printf("  cluster %2u: slice %3u, start=(%#llx,%llu) "
                    "end=(%#llx,%llu) mult=%.3f\n",
                    region.cluster, region.sliceIndex,
                    static_cast<unsigned long long>(region.start.pc),
                    static_cast<unsigned long long>(region.start.count),
                    static_cast<unsigned long long>(region.end.pc),
                    static_cast<unsigned long long>(region.end.count),
                    region.multiplier);
    }
    std::printf("prediction     : runtime %.6f s\n",
                r.predicted.runtimeSeconds);
    std::printf("coverage       : %.4f (%zu of %zu regions failed)\n",
                r.coverage, r.failedRegions,
                r.analysis.regions.size());
    if (!cfg.journalPath.empty())
        std::printf("journal        : %s, %zu region(s) reused\n",
                    cfg.journalPath.c_str(), r.journalHits);
    if (!cfg.storeDir.empty())
        std::printf("store          : %llu hit(s), %llu miss(es), "
                    "%llu publish(es), %llu failed, %llu corrupt, "
                    "regions %s, fullsim %s\n",
                    static_cast<unsigned long long>(r.storeStats.hits),
                    static_cast<unsigned long long>(
                        r.storeStats.misses),
                    static_cast<unsigned long long>(
                        r.storeStats.publishes),
                    static_cast<unsigned long long>(
                        r.storeStats.failedPublishes),
                    static_cast<unsigned long long>(
                        r.storeStats.corruptEntries),
                    r.simStageHit ? "cached" : "simulated",
                    !r.haveFullSim     ? "skipped"
                    : r.fullSimHit     ? "cached"
                                       : "simulated");
    if (!cfg.storeDir.empty() && !r.simStageHit)
        std::printf("store warm     : %u of %zu region checkpoint(s) "
                    "loaded, %u published, warming pass %s\n",
                    r.warmHits, r.analysis.regions.size(),
                    r.warmPublished,
                    r.warmStageHit ? "skipped" : "ran");
    if (r.haveFullSim) {
        std::printf("full simulation: runtime %.6f s\n",
                    r.fullSim.runtimeSeconds);
        std::printf("estimated error: %.2f %%\n", r.runtimeErrorPct);
        std::printf("actual speedup : %.1fx serial, %.1fx parallel "
                    "(checkpoint generation %.2f s)\n",
                    r.actualSerialSpeedup, r.actualParallelSpeedup,
                    r.wallCheckpointSeconds);
    }
    std::printf("host-parallel  : %u jobs, %u warm partition(s), "
                "phase %.3f s, self-relative speedup %.2fx "
                "(efficiency %.0f%%)\n",
                r.jobs, r.warmPartitions, r.wallPhaseSeconds,
                r.hostParallelSpeedup, 100.0 * r.hostParallelEfficiency);
    std::printf("theo. speedup  : %.1fx serial, %.1fx parallel\n\n",
                r.theoreticalSerialSpeedup,
                r.theoreticalParallelSpeedup);

    const auto &diags = r.analysis.diagnostics;
    if (!cli.sarifPath.empty())
        g_sarifDiags.insert(g_sarifDiags.end(), diags.begin(),
                            diags.end());
    if (cli.audit || !diags.empty()) {
        printDiagnosticsText(std::cout, diags);
        size_t errors = 0;
        for (const auto &d : diags)
            if (d.severity == Severity::Error)
                ++errors;
        if (cli.audit)
            std::printf("audit          : %zu finding(s)\n",
                        r.auditFindings);
        std::printf("analysis       : %zu finding(s), %zu error(s)\n\n",
                    diags.size(), errors);
        if (errors > 0)
            return 1;
    }
    return r.coverage < 1.0 ? 1 : 0;
}

/**
 * Flush the accumulated observability outputs (all programs of the
 * invocation share the global tracer/registry). Returns 0, or 3 when
 * a requested output could not be written.
 */
int
writeObsOutputs(const CliOptions &cli)
{
    int rc = 0;
    if (!cli.tracePath.empty()) {
        std::ofstream os(cli.tracePath);
        if (!os) {
            logError("cannot write trace to '%s'",
                     cli.tracePath.c_str());
            rc = 3;
        } else {
            Tracer::global().writeChromeTrace(os);
            std::printf("trace          : %s (load in "
                        "ui.perfetto.dev or chrome://tracing)\n",
                        cli.tracePath.c_str());
        }
    }
    if (!cli.metricsPath.empty()) {
        std::ofstream os(cli.metricsPath);
        if (!os) {
            logError("cannot write metrics to '%s'",
                     cli.metricsPath.c_str());
            rc = 3;
        } else {
            const std::string &p = cli.metricsPath;
            const bool text = p.size() >= 4 &&
                              p.compare(p.size() - 4, 4, ".txt") == 0;
            if (text)
                MetricsRegistry::global().printText(os);
            else
                MetricsRegistry::global().printJson(os);
            std::printf("metrics        : %s\n", p.c_str());
        }
    }
    if (!cli.sarifPath.empty()) {
        std::ofstream os(cli.sarifPath);
        if (!os) {
            logError("cannot write SARIF to '%s'",
                     cli.sarifPath.c_str());
            rc = 3;
        } else {
            sortDiagnosticsCanonical(g_sarifDiags);
            printDiagnosticsSarif(os, g_sarifDiags);
            std::printf("sarif          : %s (%zu finding(s))\n",
                        cli.sarifPath.c_str(), g_sarifDiags.size());
        }
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    // Exit-code contract (documented in --help): 0 success, 1
    // degraded/findings, 2 usage, 3 runtime failure, 4 interrupted at
    // a region boundary (resume-able).
    CliOptions cli;
    parseCommandLine(commandLine(cli), argc, argv);
    installInterruptHandlers();
    int rc = 0;
    try {
        for (const auto &program : cli.programs)
            rc = std::max(rc, runOne(program, cli));
    } catch (const InjectedKill &e) {
        // A simulated host crash: like the real thing, it leaves no
        // trace/metrics files behind.
        logError("run_looppoint: %s", e.what());
        return 3;
    } catch (const InterruptedRun &e) {
        // Graceful stop at a region boundary: the run journal already
        // holds every completed region, so the supervisor (or user)
        // can rerun with --resume for a bit-identical continuation.
        // Flush obs outputs first — a parked daemon job should still
        // leave its trace behind.
        warn("run_looppoint: %s", e.what());
        writeObsOutputs(cli);
        return 4;
    } catch (const FatalError &e) {
        logError("run_looppoint: %s", e.what());
        return 3;
    }
    rc = std::max(rc, writeObsOutputs(cli));
    return rc;
}
