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
#include "util/logging.hh"
#include "workload/descriptor.hh"

using namespace looppoint;

namespace {

struct CliOptions
{
    std::vector<std::string> programs{"demo-matrix-1"};
    uint32_t ncores = 8;
    std::string inputClass = "test";
    std::string waitPolicy = "passive";
    uint64_t quantum = 1000;
    bool lint = true;
    bool raceCheck = false;
    bool lockCheck = false;
    bool audit = false;
    bool json = false;
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

void
usage()
{
    std::printf(
        "usage: lp_lint [options]\n"
        "  -p, --program=LIST   comma-separated programs, each\n"
        "                       <suite>-<app>-<input-num>\n"
        "                       (default: demo-matrix-1)\n"
        "  -n, --ncores=N       number of threads (default: 8)\n"
        "  -i, --input-class=C  test | train | ref | A | C | D\n"
        "                       (default: test)\n"
        "  -w, --wait-policy=P  passive | active (default: passive)\n"
        "  -q, --quantum=N      flow-control quantum in instructions\n"
        "                       (default: 1000)\n"
        "      --passes=LIST    run exactly these analyses (see\n"
        "                       --list-passes; overrides the toggles\n"
        "                       below)\n"
        "      --race-check     also replay with the happens-before\n"
        "                       race detector\n"
        "      --lock-check     also replay with the lockset and\n"
        "                       lock-order deadlock detectors\n"
        "      --audit          also cross-check the recording with\n"
        "                       the artifact audit\n"
        "      --no-lint        skip the lint passes (dynamic checks\n"
        "                       only)\n"
        "      --max-findings=N cap each analysis pass at N reported\n"
        "                       findings (default: pass-specific, 32)\n"
        "      --json           print diagnostics as a JSON array\n"
        "      --sarif=PATH     also write the findings as SARIF\n"
        "                       2.1.0 to PATH\n"
        "      --store=DIR      audit pass: hash-verify and\n"
        "                       chain-check the artifact store at DIR\n"
        "      --journal=PATH   audit pass: validate the run journal\n"
        "                       at PATH against this program's\n"
        "                       default-configuration run key\n"
        "      --baseline=PATH  drop findings whose fingerprints are\n"
        "                       in the baseline file at PATH\n"
        "      --write-baseline=PATH  snapshot the current warnings\n"
        "                       and errors as a baseline at PATH and\n"
        "                       exit 0\n"
        "      --list-passes    print every analysis name and exit\n"
        "  -h, --help           this message\n"
        "\nexit codes:\n"
        "  0  no error-severity findings\n"
        "  1  at least one error-severity finding\n"
        "  2  usage error (bad flag or argument)\n"
        "  3  runtime failure (I/O error, corrupt artifact, ...)\n");
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
        } else if (arg == "--list-passes") {
            for (const auto &name : analysisNames())
                std::printf("%s\n", name.c_str());
            std::exit(0);
        } else if (parseArg(argc, argv, i, "-p", "--program", &value)) {
            opts.programs = splitCommas(value);
        } else if (parseArg(argc, argv, i, "-n", "--ncores", &value)) {
            opts.ncores = static_cast<uint32_t>(std::stoul(value));
        } else if (parseArg(argc, argv, i, "-i", "--input-class",
                            &value)) {
            opts.inputClass = value;
        } else if (parseArg(argc, argv, i, "-w", "--wait-policy",
                            &value)) {
            opts.waitPolicy = value;
        } else if (parseArg(argc, argv, i, "-q", "--quantum", &value)) {
            opts.quantum = std::stoull(value);
        } else if (parseArg(argc, argv, i, "", "--passes", &value)) {
            opts.passes = splitCommas(value);
        } else if (arg == "--race-check") {
            opts.raceCheck = true;
        } else if (arg == "--lock-check") {
            opts.lockCheck = true;
        } else if (arg == "--audit") {
            opts.audit = true;
        } else if (arg == "--no-lint") {
            opts.lint = false;
        } else if (parseArg(argc, argv, i, "", "--max-findings",
                            &value)) {
            opts.maxFindings =
                static_cast<uint32_t>(std::stoul(value));
        } else if (parseArg(argc, argv, i, "", "--sarif", &value)) {
            opts.sarifPath = value;
        } else if (parseArg(argc, argv, i, "", "--store", &value)) {
            opts.storeDir = value;
        } else if (parseArg(argc, argv, i, "", "--journal",
                            &value)) {
            opts.journalPath = value;
        } else if (parseArg(argc, argv, i, "", "--baseline",
                            &value)) {
            opts.baselinePath = value;
        } else if (parseArg(argc, argv, i, "", "--write-baseline",
                            &value)) {
            opts.writeBaselinePath = value;
        } else if (arg == "--json") {
            opts.json = true;
        } else {
            logError("unknown option '%s'", arg.c_str());
            usage();
            std::exit(2);
        }
    }
    if (opts.waitPolicy != "passive" && opts.waitPolicy != "active")
        fatal("wait policy must be 'passive' or 'active'");
    if (opts.quantum == 0)
        fatal("quantum must be positive");
    if (!opts.lint && !opts.raceCheck && !opts.lockCheck &&
        !opts.audit && opts.passes.empty())
        fatal("--no-lint with no dynamic check or --passes leaves "
              "nothing to do");
    if (!opts.baselinePath.empty() &&
        !opts.writeBaselinePath.empty())
        fatal("--baseline and --write-baseline are exclusive");
    {
        const auto known = analysisNames();
        for (const auto &p : opts.passes)
            if (std::find(known.begin(), known.end(), p) ==
                known.end())
                fatal("unknown pass '%s' (see --list-passes)",
                      p.c_str());
    }
    return opts;
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
    const InputClass input = resolveInputClass(cli.inputClass);
    Program prog = generateProgram(app, input);

    ExecConfig cfg;
    cfg.numThreads = threads;
    cfg.waitPolicy = cli.waitPolicy == "active" ? WaitPolicy::Active
                                                : WaitPolicy::Passive;
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
            app_name, std::string(inputClassName(input)), threads,
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
    try {
        cli = parseCli(argc, argv);
    } catch (const std::exception &e) {
        logError("lp_lint: %s", e.what());
        return 2;
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
