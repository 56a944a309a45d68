/**
 * @file
 * Ablations over LoopPoint's design choices (DESIGN.md Section 5):
 *
 *   1. slice size        — error/speedup tradeoff of the N x 100M rule
 *   2. maxK              — clustering budget
 *   3. projection dims   — the 100-dimension random projection
 *   4. spin filtering    — the core contribution: filtering
 *                          synchronization code from BBVs and counts
 *                          (evaluated under the active wait policy,
 *                          where it matters)
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "core/experiment.hh"
#include "util/logging.hh"

using namespace looppoint;

namespace {

ExperimentResult
runWith(const std::string &app, WaitPolicy policy,
        const LoopPointOptions &lp_opts)
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.input = InputClass::Train;
    cfg.requestedThreads = 8;
    cfg.waitPolicy = policy;
    cfg.loopPoint = lp_opts;
    return runExperiment(cfg);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app = "603.bwaves_s.1";
    bench::parseBenchFlags(
        argc, argv,
        {bench::appFlag(app),
         {"full", 0, "", "all four sweeps (the default; kept for symmetry)",
          [](const std::string &) {}}});
    setQuiet(true);

    bench::printHeader(("Ablations of LoopPoint design choices on " +
                        app + " (train, 8 threads)")
                           .c_str());

    std::printf("\n(1) slice size per thread (paper: 100M; scaled "
                "analog default 100K)\n");
    std::printf("%8s | %8s | %8s | %10s | %10s\n", "slice", "slices",
                "k", "err%", "par-spdup");
    bench::printRule(60);
    for (uint64_t slice : {25'000ull, 50'000ull, 100'000ull,
                           200'000ull, 400'000ull}) {
        LoopPointOptions o;
        o.sliceSizePerThread = slice;
        ExperimentResult r = runWith(app, WaitPolicy::Passive, o);
        std::printf("%7lluK | %8zu | %8u | %10.2f | %10.1f\n",
                    static_cast<unsigned long long>(slice / 1000),
                    r.analysis.slices.size(), r.analysis.chosenK,
                    r.runtimeErrorPct, r.theoreticalParallelSpeedup);
    }

    std::printf("\n(2) maxK (paper: 50)\n");
    std::printf("%8s | %8s | %10s | %10s\n", "maxK", "k", "err%",
                "ser-spdup");
    bench::printRule(46);
    for (uint32_t maxk : {2u, 5u, 10u, 25u, 50u}) {
        LoopPointOptions o;
        o.maxK = maxk;
        ExperimentResult r = runWith(app, WaitPolicy::Passive, o);
        std::printf("%8u | %8u | %10.2f | %10.1f\n", maxk,
                    r.analysis.chosenK, r.runtimeErrorPct,
                    r.theoreticalSerialSpeedup);
    }

    std::printf("\n(3) random-projection dimensions (paper: 100)\n");
    std::printf("%8s | %8s | %10s\n", "dims", "k", "err%");
    bench::printRule(32);
    for (uint32_t dims : {10u, 25u, 50u, 100u, 200u}) {
        LoopPointOptions o;
        o.projectionDims = dims;
        ExperimentResult r = runWith(app, WaitPolicy::Passive, o);
        std::printf("%8u | %8u | %10.2f\n", dims, r.analysis.chosenK,
                    r.runtimeErrorPct);
    }

    std::printf("\n(4) spin/synchronization filtering under the "
                "ACTIVE wait policy (the key design choice)\n");
    std::printf("%10s | %8s | %10s\n", "filter", "k", "err%");
    bench::printRule(34);
    for (bool filter : {true, false}) {
        LoopPointOptions o;
        o.filterSpin = filter;
        ExperimentResult r = runWith(app, WaitPolicy::Active, o);
        std::printf("%10s | %8u | %10.2f\n", filter ? "on" : "off",
                    r.analysis.chosenK, r.runtimeErrorPct);
    }
    std::printf("\nexpected shapes: error grows with very large "
                "slices (fewer choices) and very small maxK; "
                "filtering off hurts under active waiting because "
                "spin code pollutes the work metric.\n");
    return 0;
}
