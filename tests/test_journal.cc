/**
 * @file
 * Fault-tolerance layer tests, part 2: the run journal and the
 * fault-injected checkpointed-simulation pipeline. Covers the journal
 * codec (lossless double round-trips, torn-tail tolerance, run-key
 * mismatch), per-region failure isolation (retry, watchdog
 * divergence, graceful degradation with renormalized Eq. 2 weights),
 * and the headline crash-resume property: a run killed mid-phase and
 * resumed from its journal is bit-identical to an uninterrupted one.
 * Journals are written in program order, so their bytes do not depend
 * on the jobs count.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/looppoint.hh"
#include "core/run_journal.hh"
#include "sim/config.hh"
#include "util/fault.hh"
#include "util/interrupt.hh"
#include "util/logging.hh"
#include "workload/descriptor.hh"

namespace looppoint {
namespace {

RunKey
makeKey()
{
    RunKey key;
    key.app = "628.pop2_s.1";
    key.input = "test";
    key.threads = 4;
    key.waitPolicy = "passive";
    key.seed = 1;
    key.constrained = false;
    key.simFingerprint = 0xDEADBEEF;
    return key;
}

RunJournal::Record
makeRecord(uint32_t idx)
{
    RunJournal::Record rec;
    rec.regionIndex = idx;
    rec.start = Marker{0x400000 + idx, 10 + idx};
    rec.end = Marker{0x400100 + idx, 20 + idx};
    // Deliberately awkward doubles: the codec must round-trip them
    // losslessly or find() will miss on resume.
    rec.multiplier = 3.0000000000000004 + idx * 0.1;
    rec.attempts = 1 + idx;
    rec.metrics.cycles = 1000 + idx;
    rec.metrics.instructions = 2000 + idx;
    rec.metrics.filteredInstructions = 1500 + idx;
    rec.metrics.runtimeSeconds = 1.0 / 3.0 + idx;
    rec.metrics.branches = 100 + idx;
    rec.metrics.branchMispredicts = 10 + idx;
    rec.metrics.l1dAccesses = 500 + idx;
    rec.metrics.l1dMisses = 50 + idx;
    rec.metrics.l2Accesses = 40 + idx;
    rec.metrics.l2Misses = 20 + idx;
    rec.metrics.l3Accesses = 15 + idx;
    rec.metrics.l3Misses = 5 + idx;
    return rec;
}

/** A fresh journal path under the test temp dir. */
std::string
journalPath(const std::string &name)
{
    std::string path = testing::TempDir() + "lp_journal_" + name + ".txt";
    std::remove(path.c_str());
    return path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

TEST(RunKeyCodec, EncodeDistinguishesRuns)
{
    RunKey a = makeKey();
    RunKey b = a;
    EXPECT_EQ(a.encode(), b.encode());
    b.seed = 2;
    EXPECT_NE(a.encode(), b.encode());
    b = a;
    b.simFingerprint ^= 1;
    EXPECT_NE(a.encode(), b.encode());
    b = a;
    b.constrained = true;
    EXPECT_NE(a.encode(), b.encode());
}

TEST(Journal, AppendLoadRoundTrip)
{
    const std::string path = journalPath("roundtrip");
    {
        RunJournal j(path, makeKey());
        for (uint32_t i = 0; i < 3; ++i)
            j.append(makeRecord(i));
        EXPECT_EQ(j.size(), 3u);
        EXPECT_EQ(j.failedWrites(), 0u);
    }
    RunJournal j2(path, makeKey());
    auto err = j2.load(/*must_exist=*/true);
    ASSERT_FALSE(err.has_value()) << err->describe();
    EXPECT_EQ(j2.size(), 3u);
    EXPECT_EQ(j2.droppedRecords(), 0u);
    for (uint32_t i = 0; i < 3; ++i) {
        RunJournal::Record want = makeRecord(i);
        auto got = j2.find(i, want.start, want.end, want.multiplier);
        ASSERT_TRUE(got.has_value()) << "record " << i;
        EXPECT_EQ(*got, want);
    }
}

TEST(Journal, FindRequiresExactIdentity)
{
    const std::string path = journalPath("identity");
    RunJournal j(path, makeKey());
    RunJournal::Record rec = makeRecord(0);
    j.append(rec);
    EXPECT_TRUE(j.find(0, rec.start, rec.end, rec.multiplier));
    // Any identity drift — index, marker, or weight — must miss, so a
    // changed analysis can never silently reuse stale metrics.
    EXPECT_FALSE(j.find(1, rec.start, rec.end, rec.multiplier));
    EXPECT_FALSE(j.find(0, Marker{rec.start.pc, rec.start.count + 1},
                        rec.end, rec.multiplier));
    EXPECT_FALSE(j.find(0, rec.start, rec.end,
                        rec.multiplier * (1.0 + 1e-15)));
}

TEST(Journal, MissingFile)
{
    const std::string path = journalPath("missing");
    RunJournal strict(path, makeKey());
    auto err = strict.load(/*must_exist=*/true);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->kind, LoadErrorKind::Io);

    RunJournal lax(path, makeKey());
    EXPECT_FALSE(lax.load(/*must_exist=*/false).has_value());
    EXPECT_EQ(lax.size(), 0u);
}

TEST(Journal, KeyMismatchIsValidation)
{
    const std::string path = journalPath("keymismatch");
    {
        RunJournal j(path, makeKey());
        j.append(makeRecord(0));
    }
    RunKey other = makeKey();
    other.seed = 99;
    RunJournal j2(path, other);
    auto err = j2.load(/*must_exist=*/true);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->kind, LoadErrorKind::Validation);
}

TEST(Journal, ForeignFileIsBadMagic)
{
    const std::string path = journalPath("foreign");
    spit(path, "this is not a journal\n");
    RunJournal j(path, makeKey());
    auto err = j.load(/*must_exist=*/true);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->kind, LoadErrorKind::BadMagic);

    spit(path, "");
    RunJournal j2(path, makeKey());
    auto err2 = j2.load(/*must_exist=*/true);
    ASSERT_TRUE(err2.has_value());
    EXPECT_EQ(err2->kind, LoadErrorKind::Truncated);
}

TEST(Journal, TornTailIsDroppedNotFatal)
{
    const std::string path = journalPath("torntail");
    {
        RunJournal j(path, makeKey());
        for (uint32_t i = 0; i < 3; ++i)
            j.append(makeRecord(i));
    }
    // Simulate an append that raced a power cut: chop the tail
    // mid-record.
    std::string bytes = slurp(path);
    spit(path, bytes.substr(0, bytes.size() - 10));

    RunJournal j2(path, makeKey());
    auto err = j2.load(/*must_exist=*/true);
    ASSERT_FALSE(err.has_value()) << err->describe();
    EXPECT_EQ(j2.size(), 2u);
    EXPECT_EQ(j2.droppedRecords(), 1u);
    RunJournal::Record want = makeRecord(1);
    EXPECT_TRUE(j2.find(1, want.start, want.end, want.multiplier));

    // The first append cuts the torn tail off, so the new record does
    // not sit behind a bad line: a reload keeps every record.
    j2.append(makeRecord(2));
    RunJournal j3(path, makeKey());
    ASSERT_FALSE(j3.load(/*must_exist=*/true));
    EXPECT_EQ(j3.size(), 3u);
    EXPECT_EQ(j3.droppedRecords(), 0u);
    EXPECT_EQ(j3.snapshot(), j2.snapshot());
}

TEST(Journal, AppendKeepsTheFileInode)
{
    const std::string path = journalPath("inode");
    auto inode = [&] {
        struct stat st{};
        EXPECT_EQ(::stat(path.c_str(), &st), 0);
        return st.st_ino;
    };
    RunJournal j(path, makeKey());
    j.append(makeRecord(0));
    const ino_t first = inode();
    j.append(makeRecord(1));
    EXPECT_EQ(inode(), first);

    RunJournal resumed(path, makeKey());
    ASSERT_FALSE(resumed.load(/*must_exist=*/true));
    resumed.append(makeRecord(2));
    EXPECT_EQ(inode(), first);
    RunJournal reloaded(path, makeKey());
    ASSERT_FALSE(reloaded.load(/*must_exist=*/true));
    EXPECT_EQ(reloaded.size(), 3u);
}

TEST(Journal, FreshRunReplacesAnOldOrForeignFile)
{
    // A run that does not resume never loads its journal, so its
    // first append starts a fresh file over whatever was there.
    const std::string path = journalPath("fresh");
    {
        RunKey other = makeKey();
        other.seed = 2;
        RunJournal old(path, other);
        old.append(makeRecord(0));
        old.append(makeRecord(1));
    }
    RunJournal(path, makeKey()).append(makeRecord(5));
    RunJournal j(path, makeKey());
    ASSERT_FALSE(j.load(/*must_exist=*/true));
    ASSERT_EQ(j.size(), 1u);
    EXPECT_EQ(j.snapshot()[0], makeRecord(5));
    EXPECT_EQ(j.droppedRecords(), 0u);

    spit(path, "not a journal\nat all");
    RunJournal(path, makeKey()).append(makeRecord(3));
    ASSERT_FALSE(j.load(/*must_exist=*/true));
    ASSERT_EQ(j.size(), 1u);
    EXPECT_EQ(j.snapshot()[0], makeRecord(3));
    EXPECT_EQ(j.droppedRecords(), 0u);
}

TEST(Journal, CorruptRecordInvalidatesItsSuffix)
{
    const std::string path = journalPath("corruptmid");
    {
        RunJournal j(path, makeKey());
        for (uint32_t i = 0; i < 3; ++i)
            j.append(makeRecord(i));
    }
    // Flip a byte inside the *first* record's line: everything from
    // there on is untrusted and must be dropped.
    std::string bytes = slurp(path);
    size_t at = bytes.find("region idx=0");
    ASSERT_NE(at, std::string::npos);
    bytes[at + 12] ^= 0x01;
    spit(path, bytes);

    RunJournal j2(path, makeKey());
    auto err = j2.load(/*must_exist=*/true);
    ASSERT_FALSE(err.has_value()) << err->describe();
    EXPECT_EQ(j2.size(), 0u);
    EXPECT_EQ(j2.droppedRecords(), 3u);
}

TEST(Journal, AppendAfterLoadPreservesPriorRecords)
{
    const std::string path = journalPath("appendafter");
    {
        RunJournal j(path, makeKey());
        j.append(makeRecord(0));
    }
    RunJournal j2(path, makeKey());
    ASSERT_FALSE(j2.load(/*must_exist=*/true).has_value());
    j2.append(makeRecord(1));

    RunJournal j3(path, makeKey());
    ASSERT_FALSE(j3.load(/*must_exist=*/true).has_value());
    EXPECT_EQ(j3.size(), 2u);
}

// --------------------------------------- pipeline-level fault tests

/** One analyzed app, shared by every pipeline-level test below (the
 * analysis pass is the expensive part and is read-only from here). */
struct Analyzed
{
    Program prog;
    LoopPointOptions opts;
    std::unique_ptr<LoopPointPipeline> pipe;
    LoopPointResult lp;

    Analyzed()
        : prog(generateProgram(findApp("628.pop2_s.1"),
                               InputClass::Test))
    {
        opts.numThreads =
            findApp("628.pop2_s.1").effectiveThreads(4);
        opts.sliceSizePerThread = 25'000;
        pipe = std::make_unique<LoopPointPipeline>(prog, opts);
        lp = pipe->analyze();
    }
};

const Analyzed &
analyzed()
{
    static Analyzed a;
    return a;
}

using CheckpointedSimResult = LoopPointPipeline::CheckpointedSimResult;

CheckpointedSimResult
runCheckpointed(const SimConfig &sim, RunJournal *journal = nullptr)
{
    return analyzed().pipe->simulateRegionsCheckpointed(
        analyzed().lp, sim, /*constrained=*/false, journal);
}

size_t
errorCount(const std::vector<Diagnostic> &diags)
{
    size_t n = 0;
    for (const auto &d : diags)
        n += d.severity == Severity::Error ? 1 : 0;
    return n;
}

TEST(FaultPipeline, CleanRunHasFullCoverage)
{
    SimConfig sim;
    auto ckpt = runCheckpointed(sim);
    EXPECT_EQ(ckpt.coverage, 1.0); // exactly, by Eq. 2 closure
    EXPECT_EQ(ckpt.failedRegions(), 0u);
    EXPECT_EQ(ckpt.journalHits, 0u);
    EXPECT_TRUE(ckpt.diagnostics.empty());
    for (const auto &o : ckpt.regionOutcomes) {
        EXPECT_TRUE(o.ok);
        EXPECT_FALSE(o.fromJournal);
        EXPECT_EQ(o.attempts, 1u);
    }
}

TEST(FaultPipeline, DegradedRunRenormalizesExtrapolation)
{
    const auto &lp = analyzed().lp;
    ASSERT_GE(lp.regions.size(), 2u);

    SimConfig clean;
    auto base = runCheckpointed(clean);
    MetricPrediction full =
        extrapolateMetrics(lp, base.regionMetrics, clean);
    EXPECT_EQ(full.coverage, 1.0);

    SimConfig sim;
    sim.faults = FaultPlan::parse("sim:region=0,kind=throw");
    auto ckpt = runCheckpointed(sim);

    EXPECT_EQ(ckpt.failedRegions(), 1u);
    EXPECT_FALSE(ckpt.regionOutcomes[0].ok);
    EXPECT_NE(ckpt.regionOutcomes[0].error.find("injected"),
              std::string::npos);
    EXPECT_LT(ckpt.coverage, 1.0);
    EXPECT_GT(ckpt.coverage, 0.0);
    EXPECT_GE(errorCount(ckpt.diagnostics), 1u);

    // The surviving regions simulated identically to the clean run.
    for (size_t i = 1; i < lp.regions.size(); ++i)
        EXPECT_EQ(ckpt.regionMetrics[i], base.regionMetrics[i]);

    // Degradation-aware Eq. 1: the lost region's weight is gone and
    // the survivors are renormalized by the covered fraction.
    MetricPrediction pred = extrapolateMetrics(
        lp, ckpt.regionMetrics, ckpt.okMask(), sim);
    EXPECT_EQ(pred.coverage, ckpt.coverage);

    double lost_w = 0.0, total_w = 0.0;
    for (const auto &r : lp.regions)
        total_w += r.multiplier *
                   static_cast<double>(r.filteredIcount);
    lost_w = lp.regions[0].multiplier *
             static_cast<double>(lp.regions[0].filteredIcount);
    EXPECT_DOUBLE_EQ(ckpt.coverage, (total_w - lost_w) / total_w);

    double expect_cycles = 0.0;
    for (size_t i = 1; i < lp.regions.size(); ++i)
        expect_cycles +=
            lp.regions[i].multiplier / ckpt.coverage *
            static_cast<double>(ckpt.regionMetrics[i].cycles);
    EXPECT_DOUBLE_EQ(pred.cycles, expect_cycles);

    // With every region masked out, the prediction degrades to empty
    // instead of dividing by zero.
    std::vector<uint8_t> none(lp.regions.size(), 0);
    MetricPrediction zero =
        extrapolateMetrics(lp, ckpt.regionMetrics, none, sim);
    EXPECT_EQ(zero.coverage, 0.0);
    EXPECT_EQ(zero.cycles, 0.0);
}

TEST(FaultPipeline, RetryRecoversTransientFault)
{
    SimConfig clean;
    auto base = runCheckpointed(clean);

    SimConfig sim;
    sim.faults = FaultPlan::parse("sim:region=0,kind=throw,times=1");
    sim.regionRetries = 1;
    auto ckpt = runCheckpointed(sim);

    EXPECT_EQ(ckpt.failedRegions(), 0u);
    EXPECT_EQ(ckpt.coverage, 1.0);
    EXPECT_EQ(ckpt.regionOutcomes[0].attempts, 2u);
    EXPECT_EQ(errorCount(ckpt.diagnostics), 0u);
    ASSERT_EQ(ckpt.diagnostics.size(), 1u); // the recovery warning
    // Retried-from-checkpoint simulation is bit-identical: the retry
    // starts from a pristine copy of the snapshot.
    EXPECT_EQ(ckpt.regionMetrics, base.regionMetrics);
}

TEST(FaultPipeline, RetriesExhaustedDropsRegion)
{
    SimConfig sim;
    sim.faults = FaultPlan::parse("sim:region=0,kind=throw");
    sim.regionRetries = 2;
    auto ckpt = runCheckpointed(sim);
    EXPECT_FALSE(ckpt.regionOutcomes[0].ok);
    EXPECT_EQ(ckpt.regionOutcomes[0].attempts, 3u);
    EXPECT_NE(ckpt.regionOutcomes[0].error.find("injected"),
              std::string::npos);
}

TEST(FaultPipeline, RetryBudgetDoesNotPerturbFaultFreeRuns)
{
    SimConfig clean;
    auto base = runCheckpointed(clean);
    SimConfig sim;
    sim.regionRetries = 2; // forces the pristine-copy path
    auto ckpt = runCheckpointed(sim);
    EXPECT_EQ(ckpt.regionMetrics, base.regionMetrics);
    EXPECT_EQ(ckpt.coverage, 1.0);
}

TEST(FaultPipeline, WatchdogCatchesDivergentRegion)
{
    SimConfig sim;
    sim.faults = FaultPlan::parse("sim:region=0,kind=diverge");
    auto ckpt = runCheckpointed(sim);
    EXPECT_FALSE(ckpt.regionOutcomes[0].ok);
    EXPECT_NE(ckpt.regionOutcomes[0].error.find(
                  "end marker not reached"),
              std::string::npos);
    EXPECT_LT(ckpt.coverage, 1.0);
}

TEST(FaultPipeline, FaultIsolationIsJobsInvariant)
{
    SimConfig serial;
    serial.faults = FaultPlan::parse("sim:region=0,kind=throw");
    serial.jobs = 1;
    auto a = runCheckpointed(serial);

    SimConfig parallel = serial;
    parallel.jobs = 4;
    auto b = runCheckpointed(parallel);

    EXPECT_EQ(a.regionMetrics, b.regionMetrics);
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.failedRegions(), b.failedRegions());
}

TEST(FaultPipeline, KilledRunResumesBitIdentical)
{
    const auto &lp = analyzed().lp;
    ASSERT_GE(lp.regions.size(), 2u);

    SimConfig clean;
    clean.jobs = 1;
    auto base = runCheckpointed(clean);

    // Kill the region whose checkpoint is taken last, so (with jobs=1,
    // regions simulated inline in warming order) every other region
    // has already been journaled when the host "dies".
    uint32_t last = 0;
    for (uint32_t i = 0; i < lp.regions.size(); ++i)
        if (lp.regions[i].sliceIndex >
            lp.regions[last].sliceIndex)
            last = i;

    const std::string path = journalPath("killresume");
    {
        RunJournal journal(path, makeKey());
        SimConfig dying = clean;
        dying.faults = FaultPlan::parse(
            "sim:region=" + std::to_string(last) + ",kind=kill");
        EXPECT_THROW(runCheckpointed(dying, &journal), InjectedKill);
    }

    // Resume: the journal satisfies every region but the killed one,
    // and the final results are bit-identical to the uninterrupted
    // run — journal hits still stop the warming pass at their region
    // start, so the simulated trajectory is unchanged.
    RunJournal journal(path, makeKey());
    ASSERT_FALSE(journal.load(/*must_exist=*/true).has_value());
    EXPECT_EQ(journal.size(), lp.regions.size() - 1);

    auto resumed = runCheckpointed(clean, &journal);
    EXPECT_EQ(resumed.journalHits, lp.regions.size() - 1);
    EXPECT_EQ(resumed.coverage, 1.0);
    EXPECT_EQ(resumed.regionMetrics, base.regionMetrics);
    for (uint32_t i = 0; i < lp.regions.size(); ++i) {
        EXPECT_TRUE(resumed.regionOutcomes[i].ok);
        EXPECT_EQ(resumed.regionOutcomes[i].fromJournal, i != last);
    }

    // A second resume now reuses everything.
    RunJournal journal2(path, makeKey());
    ASSERT_FALSE(journal2.load(/*must_exist=*/true).has_value());
    EXPECT_EQ(journal2.size(), lp.regions.size());
    auto full = runCheckpointed(clean, &journal2);
    EXPECT_EQ(full.journalHits, lp.regions.size());
    EXPECT_EQ(full.regionMetrics, base.regionMetrics);
}

TEST(FaultPipeline, InterruptedRunResumesBitIdentical)
{
    // The cooperative-interrupt path (supervisor SIGTERM / ctrl-C):
    // unlike kind=kill, the run parks at a region *boundary* instead
    // of throwing, flags the result as interrupted, and everything
    // already simulated is in the journal for the resume.
    const auto &lp = analyzed().lp;
    ASSERT_GE(lp.regions.size(), 2u);

    SimConfig clean;
    clean.jobs = 1;
    auto base = runCheckpointed(clean);

    uint32_t last = 0;
    for (uint32_t i = 0; i < lp.regions.size(); ++i)
        if (lp.regions[i].sliceIndex > lp.regions[last].sliceIndex)
            last = i;

    const std::string path = journalPath("interruptresume");
    {
        RunJournal journal(path, makeKey());
        SimConfig parked = clean;
        parked.faults = FaultPlan::parse(
            "sim:region=" + std::to_string(last) + ",kind=interrupt");
        auto ckpt = runCheckpointed(parked, &journal);
        clearShutdownRequest();
        EXPECT_TRUE(ckpt.interrupted);
        // Everything before the boundary completed and journaled.
        EXPECT_EQ(journal.size(), lp.regions.size() - 1);
    }

    RunJournal journal(path, makeKey());
    ASSERT_FALSE(journal.load(/*must_exist=*/true).has_value());
    auto resumed = runCheckpointed(clean, &journal);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.journalHits, lp.regions.size() - 1);
    EXPECT_EQ(resumed.coverage, 1.0);
    EXPECT_EQ(resumed.regionMetrics, base.regionMetrics);
}

TEST(FaultPipeline, JournalFromDifferentMicroarchIsNotReused)
{
    // The run key fingerprints the sim config; the pipeline itself
    // only trusts what find() returns, and find() matches on region
    // identity. A journal recorded for this analysis but loaded under
    // a *matching* key with different metrics would be the caller's
    // bug — what the pipeline must guarantee is that an unloaded
    // journal (fresh object, nothing on disk) never produces hits.
    const std::string path = journalPath("fresh");
    RunJournal journal(path, makeKey());
    SimConfig sim;
    sim.jobs = 1;
    auto ckpt = runCheckpointed(sim, &journal);
    EXPECT_EQ(ckpt.journalHits, 0u);
    EXPECT_EQ(journal.size(), analyzed().lp.regions.size());
}

TEST(FaultPipeline, JournalBytesAreJobsInvariant)
{
    // roms train at 4 threads has a dozen regions, so a -j 4 phase
    // completes them out of program order; the journal must not show
    // it.
    const AppDescriptor &app = findApp("654.roms_s.1");
    const Program prog = generateProgram(app, InputClass::Train);
    LoopPointOptions opts;
    opts.numThreads = app.effectiveThreads(4);
    opts.sliceSizePerThread = 25'000;
    LoopPointPipeline pipe(prog, opts);
    const LoopPointResult lp = pipe.analyze();
    ASSERT_GE(lp.regions.size(), 8u);
    auto journal_bytes = [&](uint32_t jobs, const std::string &name) {
        const std::string path = journalPath(name);
        {
            RunJournal journal(path, makeKey());
            SimConfig sim;
            sim.jobs = jobs;
            auto ckpt = pipe.simulateRegionsCheckpointed(
                lp, sim, /*constrained=*/false, &journal);
            EXPECT_EQ(journal.size(), lp.regions.size());
            EXPECT_EQ(ckpt.coverage, 1.0);
        }
        return slurp(path);
    };
    const std::string serial = journal_bytes(1, "order_j1");
    EXPECT_EQ(journal_bytes(4, "order_j4a"), serial);
    EXPECT_EQ(journal_bytes(4, "order_j4b"), serial);
}

} // namespace
} // namespace looppoint
