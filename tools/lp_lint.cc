/**
 * @file
 * lp_lint: standalone guest-program verifier. Generates a workload
 * program, records a pinball, builds the DCFG, and runs the full
 * analysis registry against it — the ProgramLint passes, the dynamic
 * replay checkers (race, lockset, deadlock), and the artifact audit —
 * reporting through the shared diagnostic sink as text, JSON, or
 * SARIF 2.1.0, optionally filtered through a baseline file.
 *
 *   lp_lint -p demo-matrix-1 -n 8
 *   lp_lint -p npb-bt-1 --race-check --lock-check --json
 *   lp_lint --list-passes
 *   lp_lint -p spec-imagick-1 --passes=structure,streams,lockset
 *   lp_lint -p demo-matrix-1 --sarif=findings.sarif
 *   lp_lint -p demo-matrix-1 --write-baseline=known.txt
 *   lp_lint -p demo-matrix-1 --baseline=known.txt
 *
 * Exit status (shared contract with run_looppoint): 0 when no
 * error-severity diagnostics were produced, 1 on findings, 2 on usage
 * errors, 3 on runtime failures.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/baseline.hh"
#include "analysis/program_lint.hh"
#include "analysis/race_detector.hh"
#include "analysis/registry.hh"
#include "analysis/sarif.hh"
#include "core/run_journal.hh"
#include "dcfg/dcfg.hh"
#include "pinball/pinball.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "workload/descriptor.hh"

using namespace looppoint;

namespace {

struct CliOptions
{
    std::vector<std::string> programs{"demo-matrix-1"};
    uint32_t ncores = 8;
    InputClass input = InputClass::Test;
    WaitPolicy waitPolicy = WaitPolicy::Passive;
    uint64_t quantum = 1000;
    bool lint = true;
    bool raceCheck = false;
    bool lockCheck = false;
    bool audit = false;
    bool json = false;
    bool listPasses = false;
    uint32_t maxFindings = 0;
    std::string sarifPath;
    /** Artifact-store directory for the audit pass ("" = skip). */
    std::string storeDir;
    /** Run journal for the audit pass ("" = skip). */
    std::string journalPath;
    std::string baselinePath;
    std::string writeBaselinePath;
    std::vector<std::string> passes;
};

CommandLine
commandLine(CliOptions &cli)
{
    std::vector<Flag> flags = {
        {"program", 'p', "LIST",
         "comma-separated programs, each <suite>-<app>-<input-num> "
         "(default: demo-matrix-1)",
         setList(cli.programs, [](const std::string &program) {
             findApp(resolveArtifactProgram(program));
         })},
        {"ncores", 'n', "N", "number of threads (default: 8)",
         setUnsigned(cli.ncores, 1)},
        {"input-class", 'i', "C",
         "test | train | ref | A | C | D (default: test)",
         [&cli](const std::string &v) { cli.input = resolveInputClass(v); }},
        {"wait-policy", 'w', "P", "passive | active (default: passive)",
         setChoice(cli.waitPolicy, parseWaitPolicy)},
        {"quantum", 'q', "N",
         "flow-control quantum in instructions (default: 1000)",
         setUnsigned(cli.quantum, 1)},
        {"passes", 0, "LIST",
         "run exactly these analyses (see --list-passes; overrides the "
         "toggles below)",
         setList(cli.passes, [](const std::string &p) {
             const auto known = analysisNames();
             if (std::find(known.begin(), known.end(), p) == known.end())
                 throw UsageError("unknown pass '" + p +
                                  "' (see --list-passes)");
         })},
        {"race-check", 0, "",
         "also replay with the happens-before race detector",
         setBool(cli.raceCheck)},
        {"lock-check", 0, "",
         "also replay with the lockset and lock-order deadlock detectors",
         setBool(cli.lockCheck)},
        {"audit", 0, "",
         "also cross-check the recording with the artifact audit",
         setBool(cli.audit)},
        {"no-lint", 0, "", "skip the lint passes (dynamic checks only)",
         setBool(cli.lint, false)},
        {"max-findings", 0, "N",
         "cap each analysis pass at N reported findings (default: "
         "pass-specific, 32)",
         setUnsigned(cli.maxFindings)},
        {"json", 0, "", "print diagnostics as a JSON array",
         setBool(cli.json)},
        {"sarif", 0, "PATH",
         "also write the findings as SARIF 2.1.0 to PATH",
         setString(cli.sarifPath)},
        {"store", 0, "DIR",
         "audit pass: hash-verify and chain-check the artifact store at "
         "DIR",
         setString(cli.storeDir)},
        {"journal", 0, "PATH",
         "audit pass: validate the run journal at PATH against this "
         "program's default-configuration run key",
         setString(cli.journalPath)},
        {"baseline", 0, "PATH",
         "drop findings whose fingerprints are in the baseline file at "
         "PATH",
         setString(cli.baselinePath)},
        {"write-baseline", 0, "PATH",
         "snapshot the current warnings and errors as a baseline at "
         "PATH and exit 0",
         setString(cli.writeBaselinePath)},
        {"list-passes", 0, "", "print every analysis name and exit",
         setBool(cli.listPasses)},
    };
    return {"lp_lint", "[options]", std::move(flags),
            "\nexit codes:\n"
            "  0  no error-severity findings\n"
            "  1  at least one error-severity finding\n"
            "  2  usage error (bad flag or argument)\n"
            "  3  runtime failure (I/O error, corrupt artifact, ...)\n",
            0, [&cli] {
                if (cli.listPasses)
                    return;
                if (!cli.lint && !cli.raceCheck && !cli.lockCheck &&
                    !cli.audit && cli.passes.empty())
                    throw UsageError("--no-lint with no dynamic check or "
                                     "--passes leaves nothing to do");
                if (!cli.baselinePath.empty() &&
                    !cli.writeBaselinePath.empty())
                    throw UsageError(
                        "--baseline and --write-baseline are exclusive");
            }};
}

/** The registry filter this invocation's toggles translate to. */
std::vector<std::string>
selectedPasses(const CliOptions &cli)
{
    if (!cli.passes.empty())
        return cli.passes;
    std::vector<std::string> out;
    if (cli.lint)
        out = lintPassNames();
    if (cli.raceCheck)
        out.push_back("race");
    if (cli.lockCheck) {
        out.push_back("lockset");
        out.push_back("deadlock");
    }
    if (cli.audit)
        out.push_back("audit");
    return out;
}

int
checkOne(const std::string &program, const CliOptions &cli,
         DiagnosticSink &sink)
{
    const std::string app_name = resolveArtifactProgram(program);
    const AppDescriptor &app = findApp(app_name);
    const uint32_t threads = app.effectiveThreads(cli.ncores);
    Program prog = generateProgram(app, cli.input);

    ExecConfig cfg;
    cfg.numThreads = threads;
    cfg.waitPolicy = cli.waitPolicy;
    DcfgBuilder dcfg_builder(prog, threads);
    Pinball pinball =
        recordPinball(prog, cfg, cli.quantum, &dcfg_builder);
    Dcfg dcfg = dcfg_builder.build();

    AnalysisContext ctx;
    ctx.lint.prog = &prog;
    ctx.lint.dcfg = &dcfg;
    ctx.lint.pinball = &pinball;
    ctx.lint.flowQuantum = cli.quantum;
    ctx.replayQuantum = cli.quantum;
    if (cli.maxFindings)
        ctx.maxFindings = cli.maxFindings;
    ctx.audit.expectedThreads = threads;
    ctx.audit.storeDir = cli.storeDir;
    // The journal key of a default-configuration run_looppoint run of
    // this program, so a lint invocation can validate a pipeline run's
    // journal.
    RunKey journal_key;
    if (!cli.journalPath.empty()) {
        journal_key = makeRunKey(
            app_name, std::string(inputClassName(cli.input)), threads,
            cfg.waitPolicy, LoopPointOptions{}.seed,
            /*constrained=*/false, SimConfig{});
        ctx.audit.journalPath = cli.journalPath;
        ctx.audit.journalKey = &journal_key;
    }
    return runAnalyses(ctx, sink, selectedPasses(cli)) > 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Exit-code contract (documented in --help): 0 clean, 1 findings,
    // 2 usage, 3 runtime failure.
    CliOptions cli;
    parseCommandLine(commandLine(cli), argc, argv);
    if (cli.listPasses) {
        for (const auto &name : analysisNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }
    int rc = 0;
    DiagnosticSink sink;
    try {
        for (const auto &program : cli.programs)
            rc |= checkOne(program, cli, sink);

        std::vector<Diagnostic> diags = sink.take();
        if (!cli.writeBaselinePath.empty()) {
            std::ofstream os(cli.writeBaselinePath);
            if (!os)
                fatal("cannot write baseline to '%s'",
                      cli.writeBaselinePath.c_str());
            writeBaseline(os, diags);
            std::printf("baseline       : %s\n",
                        cli.writeBaselinePath.c_str());
            return 0;
        }
        size_t suppressed = 0;
        if (!cli.baselinePath.empty()) {
            std::ifstream is(cli.baselinePath);
            if (!is)
                fatal("cannot read baseline '%s'",
                      cli.baselinePath.c_str());
            auto baseline = loadBaseline(is);
            if (!baseline.ok())
                fatal("baseline '%s': %s", cli.baselinePath.c_str(),
                      baseline.error().describe().c_str());
            suppressed = applyBaseline(diags, baseline.value());
        }
        size_t errors = 0;
        for (const auto &d : diags)
            if (d.severity == Severity::Error)
                ++errors;
        rc = errors > 0 ? 1 : 0;

        if (!cli.sarifPath.empty()) {
            std::ofstream os(cli.sarifPath);
            if (!os)
                fatal("cannot write SARIF to '%s'",
                      cli.sarifPath.c_str());
            printDiagnosticsSarif(os, diags);
        }
        if (cli.json) {
            printDiagnosticsJson(std::cout, diags);
        } else {
            printDiagnosticsText(std::cout, diags);
            std::printf("%zu finding(s), %zu error(s)",
                        diags.size(), errors);
            if (suppressed)
                std::printf(", %zu baseline-suppressed", suppressed);
            std::printf("\n");
        }
    } catch (const FatalError &e) {
        logError("lp_lint: %s", e.what());
        return 3;
    }
    return rc;
}
