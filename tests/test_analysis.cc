/**
 * @file
 * Tests for the guest-program analyses: ProgramLint (one seeded defect
 * per lint defect class, asserting the exact diagnostic), the
 * happens-before RaceDetector oracle (an injected guest race it must
 * flag, a negative control, and zero false positives over every
 * bundled workload suite at 4 and 8 threads), the Eraser-style lockset
 * and lock-order deadlock oracle (each catching an injected defect the
 * happens-before checker provably misses), the diagnostic emitters and
 * canonical order, and the pipeline wiring.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/program_lint.hh"
#include "core/looppoint.hh"
#include "dcfg/dcfg.hh"
#include "isa/addr_space.hh"
#include "isa/program_builder.hh"
#include "obs/json.hh"
#include "oracles/lockset.hh"
#include "oracles/race_detector.hh"
#include "pinball/pinball.hh"
#include "util/logging.hh"
#include "workload/descriptor.hh"

namespace looppoint {
namespace {

bool
hasDiag(const std::vector<Diagnostic> &diags, Severity sev,
        const std::string &pass, const std::string &substr)
{
    return std::any_of(
        diags.begin(), diags.end(), [&](const Diagnostic &d) {
            return d.severity == sev && d.pass == pass &&
                   d.message.find(substr) != std::string::npos;
        });
}

size_t
countSeverity(const std::vector<Diagnostic> &diags, Severity sev)
{
    size_t n = 0;
    for (const auto &d : diags)
        if (d.severity == sev)
            ++n;
    return n;
}

/** A small well-formed program exercising locks and dynamic-for. */
Program
makeValidProgram()
{
    ProgramBuilder b("lint-valid", 7);
    uint32_t k0 = b.beginKernel("dyn", SchedPolicy::DynamicFor, 64, 4);
    b.addStream({.footprintBytes = 1 << 16, .strideBytes = 8});
    b.addBlock({.numInstrs = 24, .fracMem = 0.3, .streams = {0}});
    b.addCritical(0, {.numInstrs = 10, .streams = {0}});
    b.endKernel();
    uint32_t k1 = b.beginKernel("stat", SchedPolicy::StaticFor, 48);
    b.addStream({.footprintBytes = 1 << 14, .strideBytes = 8});
    b.beginInnerLoop(4);
    b.addBlock({.numInstrs = 16, .fracMem = 0.4, .streams = {0}});
    b.endInnerLoop();
    b.endKernel();
    b.runKernels({k0, k1}, 2);
    return b.build();
}

std::vector<Diagnostic>
lintOnly(const Program &prog, const std::string &pass,
         const Dcfg *dcfg = nullptr, const Pinball *pinball = nullptr)
{
    LintContext ctx;
    ctx.prog = &prog;
    ctx.dcfg = dcfg;
    ctx.pinball = pinball;
    DiagnosticSink sink;
    ProgramLint().run(ctx, sink, {pass});
    return sink.take();
}

TEST(ProgramLint, CleanProgramHasNoFindings)
{
    Program p = makeValidProgram();
    LintContext ctx;
    ctx.prog = &p;
    DiagnosticSink sink;
    size_t errors = ProgramLint().run(ctx, sink);
    EXPECT_EQ(errors, 0u);
    for (const auto &d : sink.diagnostics())
        EXPECT_NE(d.severity, Severity::Error) << d.message;
}

TEST(ProgramLint, PassNamesAreExposedInRunOrder)
{
    ProgramLint lint;
    const auto &passes = lint.passes();
    ASSERT_EQ(passes.size(), 7u);
    EXPECT_EQ(passes.front()->name(), "structure");
    EXPECT_EQ(passes.back()->name(), "marker-stability");
}

TEST(ProgramLint, StructureCatchesNonDenseBlockIds)
{
    Program p = makeValidProgram();
    p.blocks[1].id = 5;
    auto diags = lintOnly(p, "structure");
    EXPECT_TRUE(hasDiag(diags, Severity::Error, "structure",
                        "non-dense BlockId"));
}

TEST(ProgramLint, StructureCatchesDanglingKernelReference)
{
    Program p = makeValidProgram();
    p.kernels[0].workerHeader = 9999;
    auto diags = lintOnly(p, "structure");
    EXPECT_TRUE(hasDiag(diags, Severity::Error, "structure",
                        "out-of-range block"));
}

TEST(ProgramLint, StructuralErrorsGateLaterPasses)
{
    Program p = makeValidProgram();
    p.blocks[1].id = 5;
    LintContext ctx;
    ctx.prog = &p;
    DiagnosticSink sink;
    ProgramLint().run(ctx, sink);
    auto diags = sink.take();
    EXPECT_TRUE(hasDiag(diags, Severity::Info, "lint",
                        "remaining passes skipped"));
    for (const auto &d : diags)
        EXPECT_TRUE(d.pass == "structure" || d.pass == "lint")
            << d.pass;
}

TEST(ProgramLint, ReachabilityCatchesOrphanBlock)
{
    Program p = makeValidProgram();
    BasicBlock orphan;
    orphan.id = static_cast<BlockId>(p.blocks.size());
    orphan.pc = 0xdead000;
    orphan.image = ImageId::Main;
    orphan.routine = 0;
    orphan.instrs.push_back({});
    p.blocks.push_back(orphan);
    p.finalizeDerived();
    auto diags = lintOnly(p, "reachability");
    EXPECT_TRUE(hasDiag(diags, Severity::Warning, "reachability",
                        "unreachable"));
    EXPECT_TRUE(hasDiag(diags, Severity::Warning, "reachability",
                        "missing from its routine"));
}

TEST(ProgramLint, StreamsCatchesBaseEscapingItsSlot)
{
    Program p = makeValidProgram();
    p.kernels[0].plans[0].base += 64;
    auto diags = lintOnly(p, "streams");
    EXPECT_TRUE(hasDiag(diags, Severity::Error, "streams",
                        "escapes its address-space slot"));
}

TEST(ProgramLint, StreamsCatchesOverlappingRanges)
{
    Program p = makeValidProgram();
    // Park kernel 1's stream on kernel 0's slot: two kernels now
    // claim overlapping address ranges.
    p.kernels[1].plans[0].base = p.kernels[0].plans[0].base;
    auto diags = lintOnly(p, "streams");
    EXPECT_TRUE(hasDiag(diags, Severity::Error, "streams",
                        "overlaps"));
}

TEST(ProgramLint, StreamsCatchesFootprintBeyondItsBound)
{
    Program p = makeValidProgram();
    StreamPlan &plan = p.kernels[0].plans[0];
    ASSERT_FALSE(plan.shared);
    plan.footprint = kPrivPerThreadBytes + 64;
    plan.jumpBound = plan.footprint / plan.stride + 1;
    auto diags = lintOnly(p, "streams");
    EXPECT_TRUE(hasDiag(diags, Severity::Error, "streams",
                        "exceeds the per-thread private bound"));
}

TEST(ProgramLint, SyncCatchesUnpairedCriticalRelease)
{
    Program p = makeValidProgram();
    BodyItem *critical = nullptr;
    for (auto &item : p.kernels[0].body)
        if (item.kind == BodyItem::Kind::Critical)
            critical = &item;
    ASSERT_NE(critical, nullptr);
    critical->blocks[2] = critical->blocks[1]; // release -> CS block
    auto diags = lintOnly(p, "sync");
    EXPECT_TRUE(hasDiag(diags, Severity::Error, "sync",
                        "unpaired lock release"));
}

TEST(ProgramLint, SyncCatchesUnpairedBarrierStub)
{
    Program p = makeValidProgram();
    p.runtime.barrierEnter = kInvalidBlock;
    auto diags = lintOnly(p, "sync");
    EXPECT_TRUE(hasDiag(diags, Severity::Error, "sync",
                        "unpaired barrier stubs"));
}

TEST(ProgramLint, SyncWarnsOnDeclaredButUnusedFeatures)
{
    Program p = makeValidProgram();
    p.kernels[1].sync.lock = true; // declared, never used
    auto diags = lintOnly(p, "sync");
    EXPECT_TRUE(hasDiag(diags, Severity::Warning, "sync",
                        "declares critical sections"));
}

/** Main-image blocks of one routine, for handcrafted loop lists. */
std::vector<BlockId>
sameRoutineBlocks(const Program &p, size_t need)
{
    for (size_t r = 0; r < p.routines.size(); ++r) {
        std::vector<BlockId> out;
        for (size_t i = 0; i < p.blocks.size(); ++i)
            if (p.blocks[i].routine == r &&
                p.blocks[i].image == ImageId::Main)
                out.push_back(static_cast<BlockId>(i));
        if (out.size() >= need)
            return out;
    }
    return {};
}

TEST(ProgramLint, LoopsCatchesNonNaturalOverlap)
{
    Program p = makeValidProgram();
    std::vector<BlockId> bs = sameRoutineBlocks(p, 4);
    ASSERT_GE(bs.size(), 4u);
    const uint32_t routine = p.blocks[bs[0]].routine;
    DcfgLoop l1{bs[0], {bs[0], bs[1], bs[2]}, 3, 4, 1,
                ImageId::Main, routine};
    DcfgLoop l2{bs[1], {bs[1], bs[2], bs[3]}, 3, 4, 1,
                ImageId::Main, routine};
    DiagnosticSink sink;
    lintLoopList(p, {l1, l2}, sink);
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Error, "loops",
                        "without nesting"));
}

TEST(ProgramLint, LoopsCatchesHeaderOutsideBody)
{
    Program p = makeValidProgram();
    std::vector<BlockId> bs = sameRoutineBlocks(p, 2);
    ASSERT_GE(bs.size(), 2u);
    DcfgLoop l{bs[0], {bs[1]}, 1, 2, 1, ImageId::Main,
               p.blocks[bs[0]].routine};
    DiagnosticSink sink;
    lintLoopList(p, {l}, sink);
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Error, "loops",
                        "does not contain its header"));
}

TEST(ProgramLint, LoopsCatchesMalformedAccounting)
{
    Program p = makeValidProgram();
    std::vector<BlockId> bs = sameRoutineBlocks(p, 1);
    ASSERT_GE(bs.size(), 1u);
    // More back edges than header executions is impossible in a real
    // profile.
    DcfgLoop l{bs[0], {bs[0]}, 5, 3, 0, ImageId::Main,
               p.blocks[bs[0]].routine};
    DiagnosticSink sink;
    lintLoopList(p, {l}, sink);
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Error, "loops",
                        "loop accounting is malformed"));
}

TEST(ProgramLint, NestedLoopsAreAccepted)
{
    Program p = makeValidProgram();
    std::vector<BlockId> bs = sameRoutineBlocks(p, 3);
    ASSERT_GE(bs.size(), 3u);
    const uint32_t routine = p.blocks[bs[0]].routine;
    DcfgLoop outer{bs[0], {bs[0], bs[1], bs[2]}, 2, 3, 1,
                   ImageId::Main, routine};
    DcfgLoop inner{bs[1], {bs[1], bs[2]}, 4, 5, 1, ImageId::Main,
                   routine};
    DiagnosticSink sink;
    lintLoopList(p, {outer, inner}, sink);
    EXPECT_EQ(countSeverity(sink.diagnostics(), Severity::Error), 0u);
}

TEST(ProgramLint, MarkersCatchesDuplicatePcs)
{
    Program p = makeValidProgram();
    p.blocks[2].pc = p.blocks[1].pc;
    auto diags = lintOnly(p, "markers");
    EXPECT_TRUE(hasDiag(diags, Severity::Error, "markers",
                        "shares pc"));
}

TEST(ProgramLint, MarkersCatchesMissingMainImageHeaders)
{
    Program p = makeValidProgram();
    // A DCFG with no edges discovers no loops, hence no legal markers.
    Dcfg empty(p, {}, {}, std::vector<uint64_t>(p.numBlocks(), 0));
    auto diags = lintOnly(p, "markers", &empty);
    EXPECT_TRUE(hasDiag(diags, Severity::Error, "markers",
                        "no main-image loop headers"));
}

TEST(ProgramLint, MarkerStabilityAcceptsRealRecording)
{
    Program p = makeValidProgram();
    ExecConfig cfg{.numThreads = 4};
    Pinball pb = recordPinball(p, cfg, 500);
    DcfgBuilder builder(p, cfg.numThreads);
    replayPinball(p, pb, 500, &builder);
    Dcfg dcfg = builder.build();
    auto diags = lintOnly(p, "marker-stability", &dcfg, &pb);
    EXPECT_EQ(countSeverity(diags, Severity::Error), 0u);
    EXPECT_TRUE(hasDiag(diags, Severity::Info, "marker-stability",
                        "stable across two constrained replays"));
}

TEST(ProgramLint, MarkerStabilityCatchesReplayDivergence)
{
    Program p = makeValidProgram();
    ExecConfig cfg{.numThreads = 4};
    Pinball pb = recordPinball(p, cfg, 500);
    DcfgBuilder builder(p, cfg.numThreads);
    replayPinball(p, pb, 500, &builder);
    Dcfg dcfg = builder.build();
    pb.threadFilteredIcounts[0] += 1; // corrupt the recording
    auto diags = lintOnly(p, "marker-stability", &dcfg, &pb);
    EXPECT_TRUE(hasDiag(diags, Severity::Error, "marker-stability",
                        "constrained replay diverged"));
}

TEST(ProgramLint, MarkerStabilityCatchesProfileCountMismatch)
{
    Program p = makeValidProgram();
    ExecConfig cfg{.numThreads = 4};
    Pinball pb = recordPinball(p, cfg, 500);
    DcfgBuilder builder(p, cfg.numThreads);
    replayPinball(p, pb, 500, &builder);
    Dcfg real = builder.build();
    std::vector<BlockId> headers = real.mainImageLoopHeaders();
    ASSERT_FALSE(headers.empty());
    std::vector<uint64_t> execs(p.numBlocks(), 0);
    for (size_t i = 0; i < p.numBlocks(); ++i)
        execs[i] = real.blockExecs(static_cast<BlockId>(i));
    execs[headers[0]] += 7; // profile no longer matches any replay
    Dcfg tampered(p, real.edges(), real.summaryEdges(), execs);
    auto diags = lintOnly(p, "marker-stability", &tampered, &pb);
    EXPECT_TRUE(hasDiag(diags, Severity::Error, "marker-stability",
                        "disagrees with the DCFG profile count"));
}

// --------------------------------------------------------------------
// RaceDetector
// --------------------------------------------------------------------

/**
 * The injected guest race: a dynamic-for kernel whose master prologue
 * stores to the shared stream without any ordering operation between
 * the prologue and the worker that claims iteration 0. With chunk size
 * 1 and a recording quantum smaller than the prologue, thread 0's
 * first turn expires before it can claim a chunk, so another thread
 * takes iteration 0 and touches the same shared-window positions the
 * prologue wrote — a textbook unsynchronized publish.
 */
Program
makeRacyProgram(bool shared_prologue)
{
    ProgramBuilder b(shared_prologue ? "racy" : "racy-control", 11);
    uint32_t k = b.beginKernel("pub", SchedPolicy::DynamicFor, 4, 1);
    b.addStream({.footprintBytes = 1 << 16,
                 .strideBytes = 8,
                 .shared = true});
    b.addStream({.footprintBytes = 1 << 12, .strideBytes = 8});
    b.setMasterPrologue({.numInstrs = 64,
                         .fracMem = 0.5,
                         .loadFrac = 0.0,
                         .streams = {shared_prologue
                                         ? uint8_t{0}
                                         : uint8_t{1}}},
                        /*is_single=*/false);
    b.addBlock({.numInstrs = 32, .fracMem = 0.5, .streams = {0}});
    b.endKernel();
    b.runKernels({k}, 1);
    return b.build();
}

TEST(RaceDetector, FlagsInjectedMasterPrologueRace)
{
    Program p = makeRacyProgram(/*shared_prologue=*/true);
    ExecConfig cfg{.numThreads = 4};
    Pinball pb = recordPinball(p, cfg, /*quantum=*/10);
    DiagnosticSink sink;
    RaceCheckStats st = checkGuestRaces(p, pb, sink);
    EXPECT_GT(st.races, 0u);
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Error, "race",
                        "data race"));
    // Both sites must be cited.
    bool two_sites = false;
    for (const auto &d : sink.diagnostics())
        if (d.pass == "race" &&
            d.message.find("unordered with") != std::string::npos &&
            !d.location.empty())
            two_sites = true;
    EXPECT_TRUE(two_sites);
}

TEST(RaceDetector, PrivatePrologueControlIsClean)
{
    Program p = makeRacyProgram(/*shared_prologue=*/false);
    ExecConfig cfg{.numThreads = 4};
    Pinball pb = recordPinball(p, cfg, /*quantum=*/10);
    DiagnosticSink sink;
    RaceCheckStats st = checkGuestRaces(p, pb, sink);
    EXPECT_EQ(st.races, 0u);
    EXPECT_EQ(countSeverity(sink.diagnostics(), Severity::Error), 0u);
}

TEST(RaceDetector, ReportsAreDeduplicatedPerSitePair)
{
    Program p = makeRacyProgram(/*shared_prologue=*/true);
    ExecConfig cfg{.numThreads = 4};
    Pinball pb = recordPinball(p, cfg, /*quantum=*/10);
    DiagnosticSink sink;
    RaceCheckStats st = checkGuestRaces(p, pb, sink);
    // Each racing (prologue instr, body instr) site pair is reported
    // exactly once, and reports beyond the cap are only counted.
    EXPECT_GE(st.races, 1u);
    EXPECT_LE(st.races, 64u);
    const size_t reported =
        countSeverity(sink.diagnostics(), Severity::Error) +
        countSeverity(sink.diagnostics(), Severity::Warning);
    EXPECT_EQ(reported,
              std::min(st.races, RaceDetector::kMaxReports));
}

TEST(RaceDetector, CorruptPinballReportsDivergence)
{
    Program p = makeValidProgram();
    ExecConfig cfg{.numThreads = 4};
    Pinball pb = recordPinball(p, cfg, 500);
    pb.threadFilteredIcounts[1] += 3;
    DiagnosticSink sink;
    checkGuestRaces(p, pb, sink);
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Error, "race",
                        "replay diverged"));
}

/** Lint plus the race and lock oracles over every app at 4 and 8
 * requested threads; each must be free of warnings and errors. */
void
expectSuiteClean(const std::vector<AppDescriptor> &apps)
{
    for (const uint32_t requested : {4u, 8u}) {
        for (const auto &app : apps) {
            const std::string what =
                app.name + " at " + std::to_string(requested);
            Program p = generateProgram(app, InputClass::Test);
            ExecConfig cfg;
            cfg.numThreads = app.effectiveThreads(requested);
            Pinball pb = recordPinball(p, cfg, 1000);
            DcfgBuilder builder(p, cfg.numThreads);
            replayPinball(p, pb, 1000, &builder);
            Dcfg dcfg = builder.build();

            DiagnosticSink sink;
            LintContext ctx;
            ctx.prog = &p;
            ctx.dcfg = &dcfg;
            ctx.pinball = &pb;
            ProgramLint().run(ctx, sink);
            RaceCheckStats st = checkGuestRaces(p, pb, sink);
            EXPECT_EQ(st.races, 0u) << what;
            LockDisciplineStats ld =
                checkGuestLockDiscipline(p, pb, sink);
            EXPECT_EQ(ld.locksetViolations, 0u) << what;
            EXPECT_EQ(ld.deadlockCycles, 0u) << what;
            EXPECT_EQ(countSeverity(sink.diagnostics(), Severity::Error),
                      0u)
                << what;
            EXPECT_EQ(
                countSeverity(sink.diagnostics(), Severity::Warning), 0u)
                << what;
        }
    }
}

TEST(RaceDetector, Spec2017SuiteIsCleanUnderLintAndRaceCheck)
{
    expectSuiteClean(spec2017Apps());
}

TEST(RaceDetector, NpbSuiteIsCleanUnderLintAndRaceCheck)
{
    expectSuiteClean(npbApps());
}

TEST(RaceDetector, PthreadAndDemoAppsAreCleanUnderLintAndRaceCheck)
{
    std::vector<AppDescriptor> apps = pthreadApps();
    apps.push_back(demoMatrixApp());
    expectSuiteClean(apps);
}

// --------------------------------------------------------------------
// LockDisciplineDetector: lockset + deadlock
// --------------------------------------------------------------------

/**
 * The injected lockset defect: two barrier-separated kernels guard the
 * same shared data with *different* locks (phase-b's shared stream is
 * parked on phase-a's slot after build). The barrier between the
 * kernels orders every cross-kernel access pair, so the happens-before
 * RaceDetector stays provably silent — but no common lock guards the
 * data, which is exactly the discipline Eraser's lockset catches. With
 * `split` false both phases use lock 0 (the clean control).
 */
Program
makeSplitLockProgram(bool split)
{
    ProgramBuilder b(split ? "split-lock" : "split-lock-control", 13);
    uint32_t k0 = b.beginKernel("phase-a", SchedPolicy::DynamicFor, 32,
                                1);
    b.addStream({.footprintBytes = 1 << 14,
                 .strideBytes = 8,
                 .shared = true});
    b.addCritical(0, {.numInstrs = 16, .fracMem = 0.5, .streams = {0}});
    b.endKernel();
    uint32_t k1 = b.beginKernel("phase-b", SchedPolicy::StaticFor, 32);
    b.addStream({.footprintBytes = 1 << 14,
                 .strideBytes = 8,
                 .shared = true});
    b.addCritical(split ? 1 : 0,
                  {.numInstrs = 16, .fracMem = 0.5, .streams = {0}});
    b.endKernel();
    b.runKernels({k0, k1}, 1);
    Program p = b.build();
    // Same data, different guards: park phase-b's shared stream on
    // phase-a's address slot.
    p.kernels[1].plans[0].base = p.kernels[0].plans[0].base;
    return p;
}

TEST(LockDiscipline, FlagsInconsistentLocksTheRaceDetectorMisses)
{
    Program p = makeSplitLockProgram(/*split=*/true);
    ExecConfig cfg{.numThreads = 4};
    Pinball pb = recordPinball(p, cfg, /*quantum=*/10);

    DiagnosticSink sink;
    LockDisciplineStats st = checkGuestLockDiscipline(p, pb, sink);
    EXPECT_GT(st.guardedAccesses, 0u);
    EXPECT_GT(st.locksetViolations, 0u);
    auto diags = sink.take();
    EXPECT_TRUE(hasDiag(diags, Severity::Error, "lockset",
                        "inconsistent lock discipline") ||
                hasDiag(diags, Severity::Warning, "lockset",
                        "inconsistent lock discipline"));
    // Both sites and both locksets must be cited.
    bool full_report = false;
    for (const auto &d : diags)
        if (d.pass == "lockset" &&
            d.message.find("no common lock guards") !=
                std::string::npos &&
            d.message.find("lock 0") != std::string::npos &&
            d.message.find("lock 1") != std::string::npos &&
            !d.location.empty())
            full_report = true;
    EXPECT_TRUE(full_report);

    // The happens-before checker is silent on the very same recording:
    // the barrier orders the phases.
    DiagnosticSink hb;
    RaceCheckStats rc = checkGuestRaces(p, pb, hb);
    EXPECT_EQ(rc.races, 0u);
    EXPECT_EQ(countSeverity(hb.diagnostics(), Severity::Error), 0u);
}

TEST(LockDiscipline, ConsistentLockControlIsClean)
{
    Program p = makeSplitLockProgram(/*split=*/false);
    ExecConfig cfg{.numThreads = 4};
    Pinball pb = recordPinball(p, cfg, /*quantum=*/10);
    DiagnosticSink sink;
    LockDisciplineStats st = checkGuestLockDiscipline(p, pb, sink);
    EXPECT_GT(st.guardedAccesses, 0u);
    EXPECT_EQ(st.locksetViolations, 0u);
    EXPECT_EQ(countSeverity(sink.diagnostics(), Severity::Error), 0u);
    EXPECT_EQ(countSeverity(sink.diagnostics(), Severity::Warning), 0u);
}

/**
 * The injected deadlock potential: kernel 'fwd' nests lock 1 inside
 * lock 0, kernel 'rev' nests lock 0 inside lock 1. The two kernels are
 * barrier-separated, so the recorded run cannot deadlock (and the
 * happens-before checker sees nothing) — but a run interleaving the
 * two orders could. With `gated`, both nests sit inside gate lock 2,
 * which serializes them and must suppress the cycle.
 */
Program
makeAbbaProgram(bool gated)
{
    ProgramBuilder b(gated ? "abba-gated" : "abba", 17);
    auto nest = [&](uint32_t outer, uint32_t inner) {
        if (gated)
            b.beginCritical(2, {.numInstrs = 4, .streams = {0}});
        b.beginCritical(outer, {.numInstrs = 8, .streams = {0}});
        b.beginCritical(inner, {.numInstrs = 8, .streams = {0}});
        b.endCritical();
        b.endCritical();
        if (gated)
            b.endCritical();
    };
    uint32_t k0 = b.beginKernel("fwd", SchedPolicy::DynamicFor, 16, 1);
    b.addStream({.footprintBytes = 1 << 12, .strideBytes = 8});
    nest(0, 1);
    b.endKernel();
    uint32_t k1 = b.beginKernel("rev", SchedPolicy::DynamicFor, 16, 1);
    b.addStream({.footprintBytes = 1 << 12, .strideBytes = 8});
    nest(1, 0);
    b.endKernel();
    b.runKernels({k0, k1}, 1);
    return b.build();
}

TEST(LockDiscipline, FlagsAbbaCycleTheRaceDetectorMisses)
{
    Program p = makeAbbaProgram(/*gated=*/false);
    ExecConfig cfg{.numThreads = 4};
    Pinball pb = recordPinball(p, cfg, 1000);

    DiagnosticSink sink;
    LockDisciplineStats st = checkGuestLockDiscipline(p, pb, sink);
    EXPECT_EQ(st.deadlockCycles, 1u);
    EXPECT_EQ(st.gateSuppressedCycles, 0u);
    auto diags = sink.take();
    EXPECT_TRUE(hasDiag(diags, Severity::Error, "deadlock",
                        "potential deadlock"));
    // The report must carry both acquisition sites.
    bool both_sites = false;
    for (const auto &d : diags)
        if (d.pass == "deadlock" &&
            d.message.find("while holding lock 0") !=
                std::string::npos &&
            d.message.find("while holding lock 1") !=
                std::string::npos &&
            d.message.find("'fwd'") != std::string::npos &&
            d.message.find("'rev'") != std::string::npos)
            both_sites = true;
    EXPECT_TRUE(both_sites);

    // The recorded interleaving never deadlocks and carries no data
    // race, so the happens-before pass reports nothing.
    DiagnosticSink hb;
    RaceCheckStats rc = checkGuestRaces(p, pb, hb);
    EXPECT_EQ(rc.races, 0u);
    EXPECT_EQ(countSeverity(hb.diagnostics(), Severity::Error), 0u);
}

TEST(LockDiscipline, GateLockSuppressesSerializedCycle)
{
    Program p = makeAbbaProgram(/*gated=*/true);
    ExecConfig cfg{.numThreads = 4};
    Pinball pb = recordPinball(p, cfg, 1000);
    DiagnosticSink sink;
    LockDisciplineStats st = checkGuestLockDiscipline(p, pb, sink);
    EXPECT_EQ(st.deadlockCycles, 0u);
    EXPECT_EQ(st.gateSuppressedCycles, 1u);
    auto diags = sink.take();
    EXPECT_TRUE(hasDiag(diags, Severity::Info, "deadlock",
                        "serialized by gate"));
    EXPECT_EQ(countSeverity(diags, Severity::Error), 0u);
}

TEST(LockDiscipline, PassSelectionFiltersDiagnostics)
{
    Program p = makeAbbaProgram(/*gated=*/false);
    ExecConfig cfg{.numThreads = 4};
    Pinball pb = recordPinball(p, cfg, 1000);
    DiagnosticSink sink;
    checkGuestLockDiscipline(p, pb, sink, 1000, 32,
                             /*run_lockset=*/false,
                             /*run_deadlock=*/true);
    for (const auto &d : sink.diagnostics())
        EXPECT_EQ(d.pass, "deadlock") << d.message;
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Error, "deadlock",
                        "potential deadlock"));
}

TEST(RaceDetector, MaxFindingsCapIsConfigurable)
{
    Program p = makeRacyProgram(/*shared_prologue=*/true);
    ExecConfig cfg{.numThreads = 4};
    Pinball pb = recordPinball(p, cfg, /*quantum=*/10);

    DiagnosticSink full;
    RaceCheckStats st_full = checkGuestRaces(p, pb, full);
    ASSERT_GT(st_full.races, 1u);

    DiagnosticSink capped;
    RaceCheckStats st = checkGuestRaces(p, pb, capped, 1000,
                                        /*max_findings=*/1);
    // The cap bounds *reports*, not detection: stats are unchanged.
    EXPECT_EQ(st.races, st_full.races);
    EXPECT_EQ(countSeverity(capped.diagnostics(), Severity::Error) +
                  countSeverity(capped.diagnostics(), Severity::Warning),
              1u);
    EXPECT_TRUE(hasDiag(capped.diagnostics(), Severity::Info, "race",
                        "further reports suppressed"));
}

// --------------------------------------------------------------------
// Diagnostics plumbing
// --------------------------------------------------------------------

TEST(Diagnostics, SinkCountsAndTakes)
{
    DiagnosticSink sink;
    sink.error("p1", "loc", "bad");
    sink.warning("p2", "", "odd");
    sink.info("p3", "", "fyi");
    EXPECT_EQ(sink.errors(), 1u);
    EXPECT_EQ(sink.warnings(), 1u);
    EXPECT_EQ(sink.count(Severity::Info), 1u);
    auto diags = sink.take();
    EXPECT_EQ(diags.size(), 3u);
    EXPECT_TRUE(sink.empty());
}

TEST(Diagnostics, TextEmitterFormat)
{
    std::vector<Diagnostic> diags{
        {Severity::Error, "streams", "kernel 'k0' stream 1",
         "footprint out of range"},
        {Severity::Info, "race", "", "0 races"},
    };
    std::ostringstream os;
    printDiagnosticsText(os, diags);
    EXPECT_EQ(os.str(),
              "error [streams] kernel 'k0' stream 1: footprint out "
              "of range\n"
              "info [race] 0 races\n");
}

TEST(Diagnostics, JsonEmitterEscapesSpecials)
{
    std::vector<Diagnostic> diags{
        {Severity::Warning, "sync", "a\"b\\c", "line1\nline2\t"},
    };
    std::ostringstream os;
    printDiagnosticsJson(os, diags);
    EXPECT_EQ(os.str(),
              "[\n  {\"severity\": \"warning\", \"pass\": \"sync\", "
              "\"location\": \"a\\\"b\\\\c\", "
              "\"message\": \"line1\\nline2\\t\"}\n]\n");
}

TEST(Diagnostics, JsonEmitterHandlesControlAndNonUtf8Bytes)
{
    std::vector<Diagnostic> diags{
        {Severity::Error, "audit", "", "raw \x01 bytes \x7f\xff here"},
        {Severity::Info, "lint", "empty-message", ""},
    };
    std::ostringstream os;
    printDiagnosticsJson(os, diags);
    const std::string out = os.str();
    // Control characters and non-UTF8 bytes escape to \u00XX, so the
    // output is valid JSON no matter what artifact bytes leaked into a
    // message.
    EXPECT_NE(out.find("raw \\u0001 bytes \\u007f\\u00ff here"),
              std::string::npos);
    EXPECT_NE(out.find("\"message\": \"\""), std::string::npos);
    std::string err;
    EXPECT_TRUE(parseJson(out, &err)) << err;
}

TEST(Diagnostics, CanonicalOrderIsIndependentOfReportOrder)
{
    Program p = makeSplitLockProgram(/*split=*/true);
    ExecConfig cfg{.numThreads = 4};
    Pinball pb = recordPinball(p, cfg, 1000);
    LintContext ctx;
    ctx.prog = &p;
    ctx.pinball = &pb;

    // The same findings, reported in two different pass orders.
    auto run = [&](bool lint_first) {
        DiagnosticSink sink;
        if (lint_first)
            ProgramLint().run(ctx, sink);
        checkGuestLockDiscipline(p, pb, sink);
        checkGuestRaces(p, pb, sink);
        if (!lint_first)
            ProgramLint().run(ctx, sink);
        std::vector<Diagnostic> diags = sink.take();
        sortDiagnosticsCanonical(diags);
        return diags;
    };
    std::vector<Diagnostic> a = run(true);
    std::vector<Diagnostic> b = run(false);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].severity, b[i].severity);
        EXPECT_EQ(a[i].pass, b[i].pass);
        EXPECT_EQ(a[i].location, b[i].location);
        EXPECT_EQ(a[i].message, b[i].message);
    }
    // Canonical order: by pass first, and sorting again is the
    // identity.
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_LE(a[i - 1].pass, a[i].pass) << i;
    std::vector<Diagnostic> sorted = a;
    sortDiagnosticsCanonical(sorted);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].message, sorted[i].message) << i;
}

TEST(Diagnostics, PipelineSkipsAnalysesByDefault)
{
    Program p = generateProgram(demoMatrixApp(), InputClass::Test);
    LoopPointOptions opts;
    opts.numThreads = 4;
    opts.sliceSizePerThread = 25'000;
    LoopPointPipeline pipe(p, opts);
    LoopPointResult lp = pipe.analyze();
    EXPECT_TRUE(lp.diagnostics.empty());
}

} // namespace
} // namespace looppoint
