/**
 * @file
 * ArtifactAudit tests: a clean end-to-end pipeline run must audit with
 * zero findings, and every artifact fault class — tampered markers,
 * broken Eq. 2 weight closure, corrupt pinball frames, journal
 * mismatches, and store hash/stage-chain damage — must be flagged with
 * the exact diagnostic, all without re-running simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/artifact_audit.hh"
#include "core/experiment.hh"
#include "core/looppoint.hh"
#include "core/region_run.hh"
#include "core/run_journal.hh"
#include "dcfg/dcfg.hh"
#include "pinball/pinball.hh"
#include "store/artifact_store.hh"
#include "store/stage_cache.hh"
#include "util/fault.hh"
#include "util/sha1.hh"
#include "workload/descriptor.hh"

namespace looppoint {
namespace {

bool
hasDiag(const std::vector<Diagnostic> &diags, Severity sev,
        const std::string &substr)
{
    return std::any_of(
        diags.begin(), diags.end(), [&](const Diagnostic &d) {
            return d.severity == sev && d.pass == "audit" &&
                   d.message.find(substr) != std::string::npos;
        });
}

/** One completed analysis over the demo app, shared by the tests. */
struct PipelineFixture
{
    AppDescriptor app;
    Program prog;
    LoopPointOptions opts;
    LoopPointResult result;
    Dcfg dcfg;

    PipelineFixture()
        : app(demoMatrixApp()),
          prog(generateProgram(app, InputClass::Test)),
          opts(makeOpts()),
          result(LoopPointPipeline(prog, opts).analyze()),
          dcfg(buildDcfg())
    {
    }

    static LoopPointOptions
    makeOpts()
    {
        LoopPointOptions o;
        o.numThreads = 4;
        // Small slices so the demo run spans several of them and the
        // interior boundaries carry real (pc, count) markers.
        o.sliceSizePerThread = 5'000;
        return o;
    }

    Dcfg
    buildDcfg()
    {
        DcfgBuilder builder(prog, opts.numThreads);
        replayPinball(prog, result.pinball, opts.flowQuantum,
                      &builder);
        return builder.build();
    }
};

const PipelineFixture &
fixture()
{
    static PipelineFixture f;
    return f;
}

AuditContext
baseContext(const PipelineFixture &f)
{
    AuditContext ctx;
    ctx.prog = &f.prog;
    ctx.dcfg = &f.dcfg;
    ctx.pinball = &f.result.pinball;
    ctx.result = &f.result;
    ctx.expectedThreads = f.opts.numThreads;
    return ctx;
}

/** A fresh, empty scratch directory under the test tmpdir. */
std::string
freshDir(const std::string &name)
{
    std::string dir = testing::TempDir() + "lp_audit_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    return dir;
}

TEST(ArtifactAudit, CleanPipelineHasZeroFindings)
{
    const PipelineFixture &f = fixture();
    AuditContext ctx = baseContext(f);
    DiagnosticSink sink;
    const size_t findings = runArtifactAudit(ctx, sink);
    EXPECT_EQ(findings, 0u);
    for (const auto &d : sink.diagnostics())
        EXPECT_EQ(d.severity, Severity::Info) << d.message;
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Info,
                        "artifact sub-check(s) run"));
}

TEST(ArtifactAudit, FlagsMarkerOutsideDcfgProfile)
{
    const PipelineFixture &f = fixture();
    ASSERT_FALSE(f.result.regions.empty());
    LoopPointResult tampered = f.result;
    tampered.regions[0].start.pc += 2; // no longer a loop-header pc
    AuditContext ctx = baseContext(f);
    ctx.result = &tampered;
    DiagnosticSink sink;
    runArtifactAudit(ctx, sink);
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Error,
                        "is not a main-image loop header"));
}

TEST(ArtifactAudit, FlagsMarkerCountBeyondProfile)
{
    const PipelineFixture &f = fixture();
    LoopPointResult tampered = f.result;
    ASSERT_FALSE(tampered.slices.empty());
    // Find any non-boundary marker to inflate: region ends are loop
    // headers even when every slice boundary is a program sentinel.
    bool tampered_any = false;
    auto inflate = [&](Marker &m) {
        if (tampered_any || m.isProgramBoundary())
            return;
        m.count = 1u << 30;
        tampered_any = true;
    };
    for (auto &s : tampered.slices) {
        inflate(s.start);
        inflate(s.end);
    }
    for (auto &r : tampered.regions) {
        inflate(r.start);
        inflate(r.end);
    }
    ASSERT_TRUE(tampered_any);
    AuditContext ctx = baseContext(f);
    ctx.result = &tampered;
    DiagnosticSink sink;
    runArtifactAudit(ctx, sink);
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Error,
                        "outside the profiled execution count"));
}

TEST(ArtifactAudit, FlagsBrokenWeightClosure)
{
    const PipelineFixture &f = fixture();
    LoopPointResult tampered = f.result;
    ASSERT_FALSE(tampered.regions.empty());
    tampered.regions[0].multiplier *= 1.5; // Eq. 2 no longer closes
    AuditContext ctx = baseContext(f);
    ctx.result = &tampered;
    DiagnosticSink sink;
    runArtifactAudit(ctx, sink);
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Error,
                        "Eq. 2 multiplier"));
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Error,
                        "cluster weights sum to"));
}

TEST(ArtifactAudit, FlagsDanglingRegionReferences)
{
    const PipelineFixture &f = fixture();
    LoopPointResult tampered = f.result;
    ASSERT_FALSE(tampered.regions.empty());
    tampered.regions[0].sliceIndex =
        static_cast<uint32_t>(tampered.slices.size() + 7);
    AuditContext ctx = baseContext(f);
    ctx.result = &tampered;
    DiagnosticSink sink;
    runArtifactAudit(ctx, sink);
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Error,
                        "out of range"));
}

TEST(ArtifactAudit, FlagsThreadRosterMismatch)
{
    const PipelineFixture &f = fixture();
    AuditContext ctx = baseContext(f);
    ctx.result = nullptr;
    ctx.expectedThreads = f.opts.numThreads + 2;
    DiagnosticSink sink;
    runArtifactAudit(ctx, sink);
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Error,
                        "but the run is configured for"));
}

TEST(ArtifactAudit, FlagsCorruptPinballArtifactOnDisk)
{
    const PipelineFixture &f = fixture();
    const std::string dir = freshDir("pinball");
    ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
    const std::string path = dir + "/whole.pinball";
    {
        std::ostringstream os;
        f.result.pinball.save(os);
        std::string bytes = os.str();
        // The --inject-fault corrupt: class: XOR one payload byte.
        FaultPlan plan = FaultPlan::parse("corrupt:byte=64");
        plan.corrupt(bytes);
        std::ofstream out(path, std::ios::binary);
        out << bytes;
    }
    AuditContext ctx;
    ctx.prog = &f.prog;
    ctx.pinballPath = path;
    DiagnosticSink sink;
    runArtifactAudit(ctx, sink);
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Error,
                        "artifact does not parse"));

    // And a missing artifact is its own finding.
    AuditContext missing;
    missing.prog = &f.prog;
    missing.pinballPath = dir + "/nonexistent.pinball";
    DiagnosticSink sink2;
    runArtifactAudit(missing, sink2);
    EXPECT_TRUE(hasDiag(sink2.diagnostics(), Severity::Error,
                        "cannot be opened"));
}

TEST(ArtifactAudit, FlagsJournalKeyAndRegionMismatches)
{
    const PipelineFixture &f = fixture();
    const std::string dir = freshDir("journal");
    ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
    const std::string path = dir + "/run.journal";

    SimConfig sim_cfg;
    RunKey key = makeRunKey(f.app.name, "test", f.opts.numThreads,
                            f.opts.waitPolicy, f.opts.seed, false,
                            sim_cfg);
    ASSERT_FALSE(f.result.regions.empty());
    {
        RunJournal journal(path, key);
        ASSERT_FALSE(journal.load(false).has_value());
        RunJournal::Record rec;
        rec.regionIndex = 0;
        rec.start = f.result.regions[0].start;
        rec.end = f.result.regions[0].end;
        rec.multiplier = f.result.regions[0].multiplier;
        rec.attempts = 1;
        journal.append(rec);
    }

    // Clean journal, matching key: no findings.
    AuditContext ctx;
    ctx.prog = &f.prog;
    ctx.result = &f.result;
    ctx.journalPath = path;
    ctx.journalKey = &key;
    DiagnosticSink clean;
    EXPECT_EQ(runArtifactAudit(ctx, clean), 0u);

    // A journal written under a different run key must not validate.
    RunKey other = key;
    other.seed = key.seed + 1;
    ctx.journalKey = &other;
    DiagnosticSink mismatched;
    runArtifactAudit(ctx, mismatched);
    EXPECT_TRUE(hasDiag(mismatched.diagnostics(), Severity::Error,
                        "journal does not load"));

    // A record referencing a region the analysis never selected.
    {
        RunJournal journal(path, key);
        ASSERT_FALSE(journal.load(true).has_value());
        RunJournal::Record rec;
        rec.regionIndex =
            static_cast<uint32_t>(f.result.regions.size() + 3);
        rec.start = f.result.regions[0].start;
        rec.end = f.result.regions[0].end;
        rec.multiplier = 1.0;
        rec.attempts = 1;
        journal.append(rec);
    }
    ctx.journalKey = &key;
    DiagnosticSink dangling;
    runArtifactAudit(ctx, dangling);
    EXPECT_TRUE(hasDiag(dangling.diagnostics(), Severity::Error,
                        "but the analysis selected"));

    // A record whose identity drifted from its region's.
    {
        std::string drift_path = dir + "/drift.journal";
        RunJournal journal(drift_path, key);
        ASSERT_FALSE(journal.load(false).has_value());
        RunJournal::Record rec;
        rec.regionIndex = 0;
        rec.start = f.result.regions[0].start;
        rec.end = f.result.regions[0].end;
        rec.multiplier = f.result.regions[0].multiplier + 0.25;
        rec.attempts = 1;
        journal.append(rec);
        ctx.journalPath = drift_path;
        DiagnosticSink drifted;
        runArtifactAudit(ctx, drifted);
        EXPECT_TRUE(hasDiag(drifted.diagnostics(), Severity::Error,
                            "does not match the region's identity"));
    }
}

TEST(ArtifactAudit, FlagsCorruptStoreObjectsAndBrokenChains)
{
    const std::string dir = freshDir("store");
    std::string record_hash, profile_hash;
    {
        ArtifactStore store(dir);
        record_hash =
            store.publish("record", "record-v1;prog=demo;threads=4;",
                          "recording-bytes");
        profile_hash = store.publish(
            "profile",
            "profile-v1;record=" + record_hash + ";slice_size=100;",
            "profile-bytes");
        store.publish("cluster",
                      "cluster-v1;profile=" + profile_hash +
                          ";max_k=50;",
                      "cluster-bytes");
    }

    // Intact store: zero findings.
    AuditContext ctx;
    ctx.storeDir = dir;
    DiagnosticSink clean;
    EXPECT_EQ(runArtifactAudit(ctx, clean), 0u);

    // Corrupt one object payload on disk (the corrupt: fault class).
    {
        const std::string obj = dir + "/objects/" + record_hash;
        std::fstream f(obj,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good()) << obj;
        f.seekp(-3, std::ios::end);
        f.put('!');
    }
    DiagnosticSink corrupt;
    runArtifactAudit(ctx, corrupt);
    EXPECT_TRUE(hasDiag(corrupt.diagnostics(), Severity::Error,
                        "failed hash verification"));

    // An incomplete chain: a profile entry referencing a record hash
    // with no manifest binding.
    const std::string dir2 = freshDir("chain");
    {
        ArtifactStore store(dir2);
        store.publish("profile",
                      "profile-v1;record=" + std::string(40, 'a') +
                          ";slice_size=100;",
                      "orphan-profile");
    }
    AuditContext ctx2;
    ctx2.storeDir = dir2;
    DiagnosticSink orphan;
    runArtifactAudit(ctx2, orphan);
    EXPECT_TRUE(hasDiag(orphan.diagnostics(), Severity::Error,
                        "incomplete stage-key chain"));

    // A cyclic chain: a record-stage entry claiming a cluster-stage
    // upstream (the hash is bound at an equal-or-later rank).
    const std::string dir3 = freshDir("cycle");
    {
        ArtifactStore store(dir3);
        const std::string h =
            store.publish("cluster", "cluster-v1;max_k=50;", "c-bytes");
        store.publish("record", "record-v1;cluster=" + h + ";",
                      "r-bytes");
    }
    AuditContext ctx3;
    ctx3.storeDir = dir3;
    DiagnosticSink cyclic;
    runArtifactAudit(ctx3, cyclic);
    EXPECT_TRUE(hasDiag(cyclic.diagnostics(), Severity::Error,
                        "not acyclic"));
}

TEST(ArtifactAudit, FlagsBadWarmCheckpointHeader)
{
    // A warm checkpoint (core/region_run.hh): a header line padded to
    // the image offset, the microarch image, then functional state.
    auto warm_payload = [](const char *header_fields, size_t image) {
        std::string header =
            std::string("looppoint-warm-v1 ") + header_fields;
        header.resize(WarmSnapshot::kImageOffset - 1, ' ');
        return header + '\n' + std::string(image, '\x5a') +
               "engine state\n";
    };
    const std::string dir = freshDir("warm");
    {
        ArtifactStore store(dir);
        const std::string cluster =
            store.publish("cluster", "cluster-v1;max_k=50;", "c-bytes");
        const SimConfig sim;
        store.publish("warm", StageCache::warmKey(cluster, sim, false, 0),
                      warm_payload("region=0 start=4096:3 image=64 "
                                   "constrained=0",
                                   64));
        // Hash-valid, but the header names another region than its key.
        store.publish("warm", StageCache::warmKey(cluster, sim, false, 1),
                      warm_payload("region=0 start=4096:7 image=64 "
                                   "constrained=0",
                                   64));
    }
    AuditContext ctx;
    ctx.storeDir = dir;
    DiagnosticSink sink;
    EXPECT_EQ(runArtifactAudit(ctx, sink), 1u);
    EXPECT_EQ(sink.errors(), 1u);
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Error,
                        "header 'looppoint-warm-v1 region=0 "
                        "start=4096:7 image=64 constrained=0' does not "
                        "match its key (...constrained=0;region=1;)"));
}

TEST(ArtifactAudit, RegistryRunsAuditBehindItsPassName)
{
    // A sound program: every sub-check runs, reporting as "audit".
    const PipelineFixture &f = fixture();
    DiagnosticSink sink;
    EXPECT_EQ(runArtifactAudit(baseContext(f), sink), 0u);
    bool have_audit_info = false;
    for (const auto &d : sink.diagnostics()) {
        EXPECT_EQ(d.pass, "audit") << d.message;
        have_audit_info |= d.severity == Severity::Info;
    }
    EXPECT_TRUE(have_audit_info);
}

TEST(Registry, StructuralErrorsGateDynamicAnalyses)
{
    const PipelineFixture &f = fixture();
    // A corrupt block table fails the structure pass, so the audit,
    // whose marker checks index that table, only reports the skip,
    // even over a weight closure it would otherwise flag.
    Program broken = f.prog;
    broken.blocks[1].id = 5;
    LoopPointResult tampered = f.result;
    ASSERT_FALSE(tampered.regions.empty());
    tampered.regions[0].multiplier *= 1.5;
    AuditContext ctx = baseContext(f);
    ctx.prog = &broken;
    ctx.result = &tampered;
    DiagnosticSink sink;
    EXPECT_EQ(runArtifactAudit(ctx, sink), 0u);
    EXPECT_EQ(sink.diagnostics().size(), 1u);
    EXPECT_TRUE(hasDiag(sink.diagnostics(), Severity::Info,
                        "structural errors found; audit skipped"));
}

} // namespace
} // namespace looppoint
