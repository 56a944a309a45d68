/**
 * @file
 * lp_lint: standalone guest-program verifier. Generates a workload
 * program, records a pinball, builds the DCFG, runs every ProgramLint
 * pass (including marker stability) and, with --audit, the artifact
 * audit against it, reporting through the shared diagnostic sink as
 * text or JSON.
 *
 *   lp_lint -p demo-matrix-1 -n 8
 *   lp_lint -p npb-bt-1 --audit --json
 *   lp_lint -p demo-matrix-1 --no-lint --audit --store=DIR
 *
 * Exit status (shared contract with run_looppoint): 0 when no
 * error-severity diagnostics were produced, 1 on findings, 2 on usage
 * errors, 3 on runtime failures.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/artifact_audit.hh"
#include "analysis/program_lint.hh"
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
    bool audit = false;
    bool json = false;
    /** Artifact-store directory for the audit ("" = skip). */
    std::string storeDir;
    /** Run journal for the audit ("" = skip). */
    std::string journalPath;
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
        {"audit", 0, "",
         "also cross-check the recording with the artifact audit",
         setBool(cli.audit)},
        {"no-lint", 0, "", "skip the lint passes (audit only)",
         setBool(cli.lint, false)},
        {"json", 0, "", "print diagnostics as a JSON array",
         setBool(cli.json)},
        {"store", 0, "DIR",
         "audit: hash-verify and chain-check the artifact store at DIR",
         setString(cli.storeDir)},
        {"journal", 0, "PATH",
         "audit: validate the run journal at PATH against this "
         "program's default-configuration run key",
         setString(cli.journalPath)},
    };
    return {"lp_lint", "[options]", std::move(flags),
            "\nexit codes:\n"
            "  0  no error-severity findings\n"
            "  1  at least one error-severity finding\n"
            "  2  usage error (bad flag or argument)\n"
            "  3  runtime failure (I/O error, corrupt artifact, ...)\n",
            0, [&cli] {
                if (!cli.lint && !cli.audit)
                    throw UsageError(
                        "--no-lint without --audit leaves nothing to do");
            }};
}

/** Lint and/or audit one program; its findings in canonical order. */
std::vector<Diagnostic>
checkOne(const std::string &program, const CliOptions &cli)
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

    DiagnosticSink sink;
    if (cli.lint) {
        LintContext lint;
        lint.prog = &prog;
        lint.dcfg = &dcfg;
        lint.pinball = &pinball;
        lint.flowQuantum = cli.quantum;
        ProgramLint().run(lint, sink);
    }
    if (cli.audit) {
        AuditContext audit;
        audit.prog = &prog;
        audit.dcfg = &dcfg;
        audit.pinball = &pinball;
        audit.expectedThreads = threads;
        audit.storeDir = cli.storeDir;
        // The journal key of a default-configuration run_looppoint run
        // of this program, so a lint invocation can validate a
        // pipeline run's journal.
        RunKey journal_key;
        if (!cli.journalPath.empty()) {
            journal_key = makeRunKey(
                app_name, std::string(inputClassName(cli.input)),
                threads, cfg.waitPolicy, LoopPointOptions{}.seed,
                /*constrained=*/false, SimConfig{});
            audit.journalPath = cli.journalPath;
            audit.journalKey = &journal_key;
        }
        runArtifactAudit(audit, sink);
    }
    std::vector<Diagnostic> diags = sink.take();
    sortDiagnosticsCanonical(diags);
    return diags;
}

} // namespace

int
main(int argc, char **argv)
{
    // Exit-code contract (documented in --help): 0 clean, 1 findings,
    // 2 usage, 3 runtime failure.
    CliOptions cli;
    parseCommandLine(commandLine(cli), argc, argv);
    std::vector<Diagnostic> diags;
    try {
        for (const auto &program : cli.programs)
            for (Diagnostic &d : checkOne(program, cli))
                diags.push_back(std::move(d));
    } catch (const FatalError &e) {
        logError("lp_lint: %s", e.what());
        return 3;
    }
    size_t errors = 0;
    for (const auto &d : diags)
        errors += d.severity == Severity::Error;
    if (cli.json) {
        printDiagnosticsJson(std::cout, diags);
    } else {
        printDiagnosticsText(std::cout, diags);
        std::printf("%zu finding(s), %zu error(s)\n", diags.size(),
                    errors);
    }
    return errors > 0 ? 1 : 0;
}
