/**
 * @file
 * The observability layer: JSON reader round-trips, deterministic
 * Chrome-trace emission under a FakeClock, ring-buffer overflow
 * accounting, leveled-logging parsing, the host-parallel speedup
 * stats, and — the contract that matters most — that arming the
 * tracer leaves simulated results bit-identical.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "core/looppoint.hh"
#include "obs/clock.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "workload/descriptor.hh"

namespace looppoint {
namespace {

// --------------------------------------------------------------------
// JSON reader
// --------------------------------------------------------------------

TEST(ObsJson, ParsesValuesOfEveryKind)
{
    std::string err;
    auto v = parseJson(
        R"({"n": -12.5e1, "s": "a\"b\\cA", "t": true,)"
        R"( "z": null, "arr": [1, 2, 3], "obj": {"k": "v"}})",
        &err);
    ASSERT_TRUE(v.has_value()) << err;
    ASSERT_TRUE(v->isObject());
    EXPECT_DOUBLE_EQ(v->numberOr("n", 0.0), -125.0);
    EXPECT_EQ(v->stringOr("s", ""), "a\"b\\cA");
    ASSERT_NE(v->find("t"), nullptr);
    EXPECT_TRUE(v->find("t")->boolean);
    EXPECT_TRUE(v->find("z")->isNull());
    ASSERT_TRUE(v->find("arr")->isArray());
    EXPECT_EQ(v->find("arr")->array.size(), 3u);
    EXPECT_EQ(v->find("obj")->stringOr("k", ""), "v");
    // Key order is preserved as written.
    EXPECT_EQ(v->object.front().first, "n");
    EXPECT_EQ(v->object.back().first, "obj");
}

TEST(ObsJson, RejectsMalformedDocuments)
{
    std::string err;
    EXPECT_FALSE(parseJson("{\"a\": 1} trailing", &err).has_value());
    EXPECT_NE(err.find("at byte"), std::string::npos) << err;
    EXPECT_FALSE(parseJson("[1, 2,]", nullptr).has_value());
    EXPECT_FALSE(parseJson("{\"a\" 1}", nullptr).has_value());
    EXPECT_FALSE(parseJson("\"unterminated", nullptr).has_value());
    EXPECT_FALSE(parseJson("nul", nullptr).has_value());
    EXPECT_FALSE(parseJson("", nullptr).has_value());
}

TEST(ObsJson, DepthCapStopsHostileNesting)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    EXPECT_FALSE(parseJson(deep, nullptr).has_value());
    std::string ok(64, '[');
    ok += std::string(64, ']');
    EXPECT_TRUE(parseJson(ok, nullptr).has_value());
}

TEST(ObsJson, QuoteEscapesControlAndSpecials)
{
    EXPECT_EQ(jsonQuote("a\"b\\c\n\t"), "\"a\\\"b\\\\c\\n\\t\"");
    // Escaped output must parse back to the original.
    auto v = parseJson(jsonQuote(std::string("\x01 x \x1f")), nullptr);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->str, "\x01 x \x1f");
}

// --------------------------------------------------------------------
// Tracer
// --------------------------------------------------------------------

/** Drain `tracer` and parse the emitted document. */
JsonValue
emitAndParse(Tracer &tracer)
{
    std::ostringstream os;
    tracer.writeChromeTrace(os);
    std::string err;
    auto v = parseJson(os.str(), &err);
    EXPECT_TRUE(v.has_value()) << err << "\n" << os.str();
    return v.value_or(JsonValue{});
}

/** The non-metadata events of a parsed trace, in document order. */
std::vector<const JsonValue *>
spanEvents(const JsonValue &doc)
{
    std::vector<const JsonValue *> out;
    const JsonValue *evs = doc.find("traceEvents");
    if (!evs)
        return out;
    for (const JsonValue &e : evs->array)
        if (e.stringOr("ph", "") != "M")
            out.push_back(&e);
    return out;
}

TEST(ObsTrace, FakeClockYieldsDeterministicNestedSpans)
{
    FakeClock clock;
    clock.setNs(1'000'000);
    Tracer tracer(&clock);
    tracer.setEnabled(true);
    tracer.nameCurrentThread("main");
    {
        ScopedSpan outer(tracer, "outer");
        outer.arg("region", 7);
        clock.advanceNs(500'000);
        {
            ScopedSpan inner(tracer, "inner");
            clock.advanceNs(250'000);
        }
        clock.advanceNs(250'000);
    }

    JsonValue doc = emitAndParse(tracer);
    auto evs = spanEvents(doc);
    ASSERT_EQ(evs.size(), 2u);
    // Sorted for nesting: the enclosing span first despite being
    // recorded last (it destructs after its child).
    EXPECT_EQ(evs[0]->stringOr("name", ""), "outer");
    EXPECT_DOUBLE_EQ(evs[0]->numberOr("ts", 0), 1000.0);
    EXPECT_DOUBLE_EQ(evs[0]->numberOr("dur", 0), 1000.0);
    EXPECT_EQ(evs[1]->stringOr("name", ""), "inner");
    EXPECT_DOUBLE_EQ(evs[1]->numberOr("ts", 0), 1500.0);
    EXPECT_DOUBLE_EQ(evs[1]->numberOr("dur", 0), 250.0);
    ASSERT_NE(evs[0]->find("args"), nullptr);
    EXPECT_DOUBLE_EQ(evs[0]->find("args")->numberOr("region", -1), 7.0);

    // Identical activity replayed at identical fake times must emit a
    // byte-identical document (the contract golden tests rely on).
    std::ostringstream first, second;
    for (std::ostringstream *os : {&first, &second}) {
        clock.setNs(1'000'000);
        {
            ScopedSpan outer(tracer, "outer");
            outer.arg("region", 7);
            clock.advanceNs(500'000);
            {
                ScopedSpan inner(tracer, "inner");
                clock.advanceNs(250'000);
            }
            clock.advanceNs(250'000);
        }
        tracer.writeChromeTrace(*os);
    }
    EXPECT_EQ(first.str(), second.str());
}

TEST(ObsTrace, EqualTimestampsSortLongerSpanFirst)
{
    FakeClock clock;
    Tracer tracer(&clock);
    tracer.setEnabled(true);
    {
        ScopedSpan outer(tracer, "outer");
        ScopedSpan inner(tracer, "inner");
        clock.advanceNs(10'000);
        inner.finish();
        clock.advanceNs(10'000);
    }
    JsonValue doc = emitAndParse(tracer);
    auto evs = spanEvents(doc);
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0]->stringOr("name", ""), "outer");
    EXPECT_EQ(evs[1]->stringOr("name", ""), "inner");
}

TEST(ObsTrace, DisabledTracerIsInert)
{
    FakeClock clock;
    Tracer tracer(&clock);
    {
        ScopedSpan span(tracer, "never");
        EXPECT_FALSE(span.active());
        span.arg("k", 1);
    }
    tracer.instant("nope");
    ScopedSpan null_span(nullptr, "also never");
    EXPECT_FALSE(null_span.active());
    EXPECT_EQ(tracer.pendingEvents(), 0u);
    EXPECT_EQ(tracer.droppedEvents(), 0u);
}

TEST(ObsTrace, RingOverflowDropsOldestAndCounts)
{
    FakeClock clock;
    Tracer tracer(&clock, /*ring_capacity=*/4);
    tracer.setEnabled(true);
    for (int i = 0; i < 6; ++i) {
        clock.advanceNs(1'000);
        tracer.instant("ev" + std::to_string(i));
    }
    EXPECT_EQ(tracer.pendingEvents(), 4u);
    EXPECT_EQ(tracer.droppedEvents(), 2u);

    JsonValue doc = emitAndParse(tracer);
    auto evs = spanEvents(doc);
    ASSERT_EQ(evs.size(), 4u);
    // The oldest two were overwritten; survivors stay chronological.
    EXPECT_EQ(evs[0]->stringOr("name", ""), "ev2");
    EXPECT_EQ(evs[3]->stringOr("name", ""), "ev5");
    const JsonValue *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_DOUBLE_EQ(other->numberOr("dropped_events", 0), 2.0);
    // The drain resets the drop accounting.
    EXPECT_EQ(tracer.droppedEvents(), 0u);
}

TEST(ObsTrace, InstantEventsAndArgEscaping)
{
    FakeClock clock;
    clock.setNs(5'000);
    Tracer tracer(&clock);
    tracer.setEnabled(true);
    tracer.nameCurrentThread("na\"me");
    tracer.instant("hit", {{"path", "a\\b\"c", /*quoted=*/true}});

    JsonValue doc = emitAndParse(tracer);
    auto evs = spanEvents(doc);
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0]->stringOr("ph", ""), "i");
    EXPECT_EQ(evs[0]->stringOr("s", ""), "t");
    EXPECT_DOUBLE_EQ(evs[0]->numberOr("ts", 0), 5.0);
    EXPECT_EQ(evs[0]->find("args")->stringOr("path", ""), "a\\b\"c");
}

TEST(ObsTrace, MirroredSpanLandsOnIdempotentVirtualTrack)
{
    FakeClock clock;
    Tracer tracer(&clock);
    tracer.setEnabled(true);
    tracer.nameCurrentThread("main");
    uint32_t track = tracer.virtualTrack("region 3");
    EXPECT_EQ(tracer.virtualTrack("region 3"), track);
    {
        ScopedSpan span(tracer, "region.sim");
        span.mirror(track).arg("region", 3);
        clock.advanceNs(2'000);
    }
    JsonValue doc = emitAndParse(tracer);
    auto evs = spanEvents(doc);
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_NE(evs[0]->numberOr("tid", -1), evs[1]->numberOr("tid", -1));
    EXPECT_EQ(evs[0]->stringOr("name", ""), evs[1]->stringOr("name", ""));
    EXPECT_DOUBLE_EQ(evs[0]->numberOr("ts", -1),
                     evs[1]->numberOr("ts", -2));
    // Exactly one copy is marked as the mirror, so reporting tools
    // can aggregate without double counting.
    int mirrors = 0;
    for (const JsonValue *e : evs)
        if (e->find("args") && e->find("args")->find("mirror"))
            ++mirrors;
    EXPECT_EQ(mirrors, 1);
}

TEST(ObsTrace, EachThreadGetsItsOwnFirstTouchTrack)
{
    FakeClock clock;
    Tracer tracer(&clock);
    tracer.setEnabled(true);
    tracer.nameCurrentThread("main");
    EXPECT_EQ(tracer.virtualTrack("region 0"), 1u);
    // One thread after another: the runtime may hand a joined
    // thread's id to the next one, but never its track.
    for (int t = 0; t < 2; ++t)
        std::thread([&tracer] { tracer.instant("ev"); }).join();
    tracer.instant("ev");

    JsonValue doc = emitAndParse(tracer);
    std::vector<std::string> names;
    for (const JsonValue &e : doc.find("traceEvents")->array)
        if (e.stringOr("name", "") == "thread_name")
            names.push_back(e.find("args")->stringOr("name", ""));
    EXPECT_EQ(names, (std::vector<std::string>{
                         "main", "region 0", "host thread 2",
                         "host thread 3"}));
    std::vector<double> tids;
    for (const JsonValue *e : spanEvents(doc))
        tids.push_back(e->numberOr("tid", -1));
    std::sort(tids.begin(), tids.end());
    EXPECT_EQ(tids, (std::vector<double>{0, 2, 3}));
}

TEST(ObsTrace, NonFiniteDoubleArgsStayParseable)
{
    FakeClock clock;
    Tracer tracer(&clock);
    tracer.setEnabled(true);
    {
        ScopedSpan span(tracer, "s");
        span.arg("ipc", 1.5);
        span.arg("bad", std::numeric_limits<double>::infinity());
    }
    JsonValue doc = emitAndParse(tracer);
    auto evs = spanEvents(doc);
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_DOUBLE_EQ(evs[0]->find("args")->numberOr("ipc", 0), 1.5);
    EXPECT_TRUE(evs[0]->find("args")->find("bad")->isString());
}

// --------------------------------------------------------------------
// Leveled logging
// --------------------------------------------------------------------

TEST(ObsLogging, ParseLogLevelNamesAndFallback)
{
    bool ok = false;
    EXPECT_EQ(parseLogLevel("quiet", &ok), LogLevel::Quiet);
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseLogLevel("none", nullptr), LogLevel::Quiet);
    EXPECT_EQ(parseLogLevel("ERROR", nullptr), LogLevel::Error);
    EXPECT_EQ(parseLogLevel("Warn", nullptr), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("warning", nullptr), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("info", nullptr), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("debug", nullptr), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("bogus", &ok), LogLevel::Info);
    EXPECT_FALSE(ok);
}

TEST(ObsLogging, OverrideAndQuietMapping)
{
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setQuiet(true); // legacy switch caps at Error
    EXPECT_EQ(logLevel(), LogLevel::Error);
    setQuiet(false); // back to the environment default
    EXPECT_GE(logLevel(), LogLevel::Error);
}

// --------------------------------------------------------------------
// Host-parallel accounting
// --------------------------------------------------------------------

TEST(ObsStats, FreshRunAccountingUnchanged)
{
    LoopPointPipeline::CheckpointedSimResult r;
    r.checkpointWallSeconds = 10.0;
    r.regionWallSeconds = {0.5, 1.0};
    r.phaseWallSeconds = 6.0;
    r.jobs = 4;
    EXPECT_DOUBLE_EQ(r.serialEquivalentSeconds(), 11.5);
    EXPECT_DOUBLE_EQ(r.hostParallelSpeedup(), 11.5 / 6.0);
    EXPECT_DOUBLE_EQ(r.parallelEfficiency(), 11.5 / 6.0 / 4.0);
}

TEST(ObsStats, FullResumeReportsNoParallelWork)
{
    // Every region came from its stored record: no warming pass, no
    // region simulation, only the lookups' wall time.
    LoopPointPipeline::CheckpointedSimResult r;
    r.regionWallSeconds = {0.0, 0.0};
    r.phaseWallSeconds = 0.002;
    r.jobs = 4;
    EXPECT_DOUBLE_EQ(r.hostParallelSpeedup(), 0.0);
    EXPECT_DOUBLE_EQ(r.parallelEfficiency(), 0.0);
}

// --------------------------------------------------------------------
// Observability must not perturb simulation
// --------------------------------------------------------------------

struct PipelineOutput
{
    LoopPointResult lp;
    LoopPointPipeline::CheckpointedSimResult ckpt;
};

PipelineOutput
runPipeline()
{
    const AppDescriptor &app = findApp("628.pop2_s.1");
    LoopPointOptions opts;
    opts.numThreads = app.effectiveThreads(4);
    opts.sliceSizePerThread = 20'000;
    opts.jobs = 2;
    Program prog = generateProgram(app, InputClass::Test);
    LoopPointPipeline pipe(prog, opts);
    PipelineOutput out;
    out.lp = pipe.analyze();
    SimConfig sim_cfg;
    sim_cfg.jobs = 2;
    out.ckpt = pipe.simulateRegionsCheckpointed(out.lp, sim_cfg);
    return out;
}

TEST(ObsIsolation, SimResultsBitIdenticalWithObsOnAndOff)
{
    PipelineOutput off = runPipeline();

    Tracer &tracer = Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    PipelineOutput on = runPipeline();
    tracer.setEnabled(false);
    // The instrumented run must actually have produced telemetry: one
    // region.sim span per simulated region on the host tracks (the
    // mirrored copies on the region tracks aside).
    JsonValue doc = emitAndParse(tracer);
    std::vector<double> sim_regions;
    for (const JsonValue *ev : spanEvents(doc)) {
        const JsonValue *args = ev->find("args");
        if (ev->stringOr("name", "") == "region.sim" && args &&
            !args->find("mirror"))
            sim_regions.push_back(args->numberOr("region", -1));
    }
    std::sort(sim_regions.begin(), sim_regions.end());
    std::vector<double> every_region(on.lp.regions.size());
    for (size_t i = 0; i < every_region.size(); ++i)
        every_region[i] = static_cast<double>(i);
    EXPECT_FALSE(every_region.empty());
    EXPECT_EQ(sim_regions, every_region);

    EXPECT_EQ(off.lp.chosenK, on.lp.chosenK);
    EXPECT_EQ(off.lp.assignment, on.lp.assignment);
    ASSERT_EQ(off.ckpt.regionMetrics.size(),
              on.ckpt.regionMetrics.size());
    for (size_t i = 0; i < off.ckpt.regionMetrics.size(); ++i) {
        const SimMetrics &a = off.ckpt.regionMetrics[i];
        const SimMetrics &b = on.ckpt.regionMetrics[i];
        EXPECT_EQ(a.cycles, b.cycles) << "region " << i;
        EXPECT_EQ(a.instructions, b.instructions) << "region " << i;
        EXPECT_EQ(a.branchMispredicts, b.branchMispredicts)
            << "region " << i;
        EXPECT_EQ(a.l1dMisses, b.l1dMisses) << "region " << i;
        EXPECT_EQ(a.l2Misses, b.l2Misses) << "region " << i;
        EXPECT_EQ(a.l3Misses, b.l3Misses) << "region " << i;
    }
    EXPECT_EQ(off.ckpt.coverage, on.ckpt.coverage);
    EXPECT_EQ(off.ckpt.simHits, on.ckpt.simHits);
}

} // namespace
} // namespace looppoint
