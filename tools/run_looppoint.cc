/**
 * @file
 * run-looppoint: the command-line driver, mirroring the artifact's
 * run-looppoint.py (paper appendix A.E):
 *
 *   run_looppoint -p <suite>-<application>-<input-num> [-n N]
 *                 [-i CLASS] [-w POLICY] [--force] [--native]
 *                 [--inorder] [--constrained] [--no-fullsim]
 *
 * Programs are named like the artifact (demo-matrix-1,
 * spec-bwaves-1, spec-xz-2, npb-bt-1, ...); multiple programs may be
 * given comma-separated. The tool runs profiling, region selection,
 * region simulation, (optionally) the full-application simulation, and
 * prints the estimated error and speedups — the artifact's console
 * output, end to end.
 */

#include <cstdio>
#include <cstring>
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
#include "util/interrupt.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

using namespace looppoint;

namespace {

struct CliOptions
{
    std::vector<std::string> programs{"demo-matrix-1"};
    uint32_t ncores = 8;
    /** Host workers for the parallel phases; 0 = hardware concurrency
     * (resolved at parse time so the report shows the real width). */
    uint32_t jobs = 0;
    std::string inputClass = "test";
    std::string waitPolicy = "passive";
    bool native = false;
    bool inorder = false;
    bool constrained = false;
    bool fullSim = true;
    bool audit = false;
    /** Write analysis findings as SARIF 2.1.0 to this path. */
    std::string sarifPath;
    uint32_t regionRetries = 0;
    std::string faultSpec;
    std::string journalPath;
    bool resume = false;
    std::string tracePath;
    std::string metricsPath;
    /** Artifact-store directory; empty = no memoization. */
    std::string storeDir;
    /** Named microarchitecture preset ("" = baseline). */
    std::string uarchPreset;
};

void
usage()
{
    std::printf(
        "usage: run_looppoint [options]\n"
        "  -p, --program=LIST   comma-separated programs, each\n"
        "                       <suite>-<app>-<input-num>\n"
        "                       (default: demo-matrix-1)\n"
        "  -n, --ncores=N       number of threads (default: 8)\n"
        "  -j, --jobs=N         host workers for region simulation,\n"
        "                       clustering and the warming pass's\n"
        "                       cache-set partitions (inline when\n"
        "                       the prefetcher is on); N > 1 also\n"
        "                       pipelines a cold analysis (recording\n"
        "                       and DCFG builder on helper threads);\n"
        "                       0 or omitted = auto-detect (hardware\n"
        "                       concurrency). Results are identical\n"
        "                       for any N\n"
        "  -i, --input-class=C  test | train | ref | A | C | D\n"
        "                       (default: test)\n"
        "  -w, --wait-policy=P  passive | active (default: passive)\n"
        "      --native         run the application functionally only\n"
        "      --inorder        simulate an in-order core\n"
        "      --constrained    constrained (replay-ordered) regions\n"
        "      --no-fullsim     skip the full-application simulation\n"
        "      --audit          after the run, statically cross-check\n"
        "                       the pipeline artifacts (markers vs.\n"
        "                       DCFG, cluster-weight closure, journal\n"
        "                       and store integrity) without\n"
        "                       re-simulating. The program\n"
        "                       verifiers (lint, race, lockset) are\n"
        "                       lp_lint's: lp_lint -p PROG\n"
        "                       --race-check --lock-check\n"
        "      --sarif=PATH     also write the analysis findings as\n"
        "                       SARIF 2.1.0 to PATH\n"
        "      --force          start a new end-to-end run (accepted\n"
        "                       for artifact compatibility; runs are\n"
        "                       always fresh here)\n"
        "      --region-retries=N  re-attempt a failed region from its\n"
        "                       checkpoint up to N times before\n"
        "                       dropping it (default: 0)\n"
        "      --journal=PATH   record completed regions in a\n"
        "                       crash-safe journal at PATH\n"
        "      --resume=PATH    resume from the journal at PATH:\n"
        "                       already-completed regions are reused,\n"
        "                       results are bit-identical to an\n"
        "                       uninterrupted run\n"
        "      --inject-fault=SPEC  deterministic fault injection, e.g.\n"
        "                       sim:region=3,kind=throw|diverge|kill\n"
        "                       [,times=M]; clauses separated by ';'\n"
        "      --trace=PATH     write a Chrome/Perfetto trace of the\n"
        "                       whole pipeline to PATH (open it in\n"
        "                       ui.perfetto.dev or chrome://tracing;\n"
        "                       inspect it with lp_report)\n"
        "      --metrics=PATH   write the metrics registry to PATH\n"
        "                       (*.txt = text, otherwise JSON)\n"
        "      --store=DIR      content-addressed artifact store at\n"
        "                       DIR: recording, profiling, clustering,\n"
        "                       region simulation and the full sim are\n"
        "                       served from the store when their stage\n"
        "                       keys hit (bit-identical) and published\n"
        "                       back when recomputed. Safe to share\n"
        "                       between concurrent runs. Manage with\n"
        "                       lp_store; sweep with lp_campaign\n"
        "      --uarch=PRESET   named microarchitecture preset\n"
        "                       (baseline, big-l2, small-rob,\n"
        "                       slow-mem, prefetch, narrow, inorder);\n"
        "                       changing it re-keys only the\n"
        "                       simulation stages of the store\n"
        "  -h, --help           this message\n"
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
        "  ./run_looppoint -p spec-imagick-1 -i train -n 8\n");
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos) {
            out.push_back(s.substr(pos));
            break;
        }
        out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

bool
parseArg(int argc, char **argv, int &i, const char *short_name,
         const char *long_name, std::string *value)
{
    std::string arg = argv[i];
    std::string long_eq = std::string(long_name) + "=";
    if (arg == short_name || arg == long_name) {
        if (i + 1 >= argc)
            fatal("option %s requires a value", arg.c_str());
        *value = argv[++i];
        return true;
    }
    if (arg.rfind(long_eq, 0) == 0) {
        *value = arg.substr(long_eq.size());
        return true;
    }
    return false;
}

CliOptions
parseCli(int argc, char **argv)
{
    CliOptions opts;
    std::string value;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            usage();
            std::exit(0);
        } else if (parseArg(argc, argv, i, "-p", "--program", &value)) {
            opts.programs = splitCommas(value);
        } else if (parseArg(argc, argv, i, "-n", "--ncores", &value)) {
            opts.ncores = static_cast<uint32_t>(std::stoul(value));
        } else if (parseArg(argc, argv, i, "-j", "--jobs", &value)) {
            opts.jobs = static_cast<uint32_t>(std::stoul(value));
        } else if (parseArg(argc, argv, i, "-i", "--input-class",
                            &value)) {
            opts.inputClass = value;
        } else if (parseArg(argc, argv, i, "-w", "--wait-policy",
                            &value)) {
            opts.waitPolicy = value;
        } else if (arg == "--native") {
            opts.native = true;
        } else if (arg == "--inorder") {
            opts.inorder = true;
        } else if (arg == "--constrained") {
            opts.constrained = true;
        } else if (arg == "--no-fullsim") {
            opts.fullSim = false;
        } else if (arg == "--audit") {
            opts.audit = true;
        } else if (parseArg(argc, argv, i, "", "--sarif", &value)) {
            opts.sarifPath = value;
        } else if (parseArg(argc, argv, i, "", "--region-retries",
                            &value)) {
            opts.regionRetries =
                static_cast<uint32_t>(std::stoul(value));
        } else if (parseArg(argc, argv, i, "", "--journal", &value)) {
            opts.journalPath = value;
        } else if (parseArg(argc, argv, i, "", "--resume", &value)) {
            opts.journalPath = value;
            opts.resume = true;
        } else if (parseArg(argc, argv, i, "", "--inject-fault",
                            &value)) {
            opts.faultSpec = value;
        } else if (parseArg(argc, argv, i, "", "--trace", &value)) {
            opts.tracePath = value;
        } else if (parseArg(argc, argv, i, "", "--metrics", &value)) {
            opts.metricsPath = value;
        } else if (parseArg(argc, argv, i, "", "--store", &value)) {
            opts.storeDir = value;
        } else if (parseArg(argc, argv, i, "", "--uarch", &value)) {
            opts.uarchPreset = value;
        } else if (arg == "--force" || arg == "--reuse-profile" ||
                   arg == "--reuse-fullsim") {
            // Artifact compatibility: runs are always fresh.
        } else {
            logError("unknown option '%s'", arg.c_str());
            usage();
            std::exit(2);
        }
    }
    if (opts.waitPolicy != "passive" && opts.waitPolicy != "active")
        fatal("wait policy must be 'passive' or 'active'");
    // Validate the fault spec and uarch preset up front: a malformed
    // one is a usage error (exit 2), not a runtime failure.
    FaultPlan::parse(opts.faultSpec);
    if (!opts.uarchPreset.empty()) {
        SimConfig scratch;
        applyUarchPreset(scratch, opts.uarchPreset);
    }
    opts.jobs = ThreadPool::resolveWorkers(opts.jobs);
    return opts;
}

int
runNative(const std::string &app_name, const CliOptions &cli)
{
    const AppDescriptor &app = findApp(app_name);
    uint32_t threads = app.effectiveThreads(cli.ncores);
    Program prog = generateProgram(app, resolveInputClass(cli.inputClass));
    ExecConfig cfg;
    cfg.numThreads = threads;
    cfg.waitPolicy = cli.waitPolicy == "active" ? WaitPolicy::Active
                                                : WaitPolicy::Passive;
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
                cli.inputClass.c_str(), cli.ncores,
                cli.waitPolicy.c_str(), cli.jobs);
    if (cli.native)
        return runNative(app_name, cli);

    ExperimentConfig cfg;
    cfg.app = app_name;
    cfg.input = resolveInputClass(cli.inputClass);
    cfg.requestedThreads = cli.ncores;
    cfg.jobs = cli.jobs;
    cfg.waitPolicy = cli.waitPolicy == "active" ? WaitPolicy::Active
                                                : WaitPolicy::Passive;
    cfg.constrainedRegions = cli.constrained;
    cfg.simulateFull = cli.fullSim;
    if (!cli.uarchPreset.empty())
        applyUarchPreset(cfg.sim, cli.uarchPreset);
    if (cli.inorder)
        cfg.sim.coreType = CoreType::InOrder;
    cfg.sim.regionRetries = cli.regionRetries;
    cfg.sim.faults = FaultPlan::parse(cli.faultSpec);
    cfg.sim.obs.trace = !cli.tracePath.empty();
    cfg.sim.obs.metrics = !cli.metricsPath.empty();
    cfg.journalPath = cli.journalPath;
    cfg.resume = cli.resume;
    cfg.storeDir = cli.storeDir;
    // Test-class runs are small; shrink slices so clustering has
    // enough intervals to work with (paper Sec. III-B).
    if (cfg.input == InputClass::Test)
        cfg.loopPoint.sliceSizePerThread = 25'000;

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
    try {
        cli = parseCli(argc, argv);
    } catch (const std::exception &e) {
        logError("run_looppoint: %s", e.what());
        return 2;
    }
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
