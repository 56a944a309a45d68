/**
 * @file
 * Microarchitecture-portability ablation (generalizing Fig. 5b): the
 * LoopPoint analysis is microarchitecture-independent, so the *same*
 * looppoints should predict runtime accurately across different target
 * machines. One analysis per app; region + full simulation on five
 * targets: the Table I baseline, an in-order core, a quarter-size L2,
 * a slow memory, and a machine with an aggressive L2 prefetcher.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "core/looppoint.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "workload/descriptor.hh"

using namespace looppoint;

namespace {

struct Target
{
    const char *name;
    SimConfig cfg;
};

std::vector<Target>
makeTargets()
{
    std::vector<Target> targets;
    targets.push_back({"baseline", SimConfig{}});
    {
        SimConfig c;
        c.coreType = CoreType::InOrder;
        c.dispatchWidth = 2;
        targets.push_back({"in-order", c});
    }
    {
        SimConfig c;
        c.l2.sizeBytes = 64 * 1024;
        targets.push_back({"L2/4", c});
    }
    {
        SimConfig c;
        c.memLatency = 400;
        targets.push_back({"slow-mem", c});
    }
    {
        SimConfig c;
        c.prefetchDegree = 2;
        targets.push_back({"prefetch", c});
    }
    return targets;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false, full = false;
    std::string only;
    bench::parseBenchFlags(argc, argv,
                           {bench::quickFlag(quick), bench::fullFlag(full),
                            bench::appFlag(only)});
    setQuiet(true);

    auto targets = makeTargets();
    bench::printHeader("Microarchitecture portability: one analysis, "
                       "runtime error% on five targets (train, 8 "
                       "threads, passive)");
    std::printf("%-22s |", "application");
    for (const auto &t : targets)
        std::printf(" %9s", t.name);
    std::printf("\n");
    bench::printRule();

    std::vector<std::vector<double>> errs(targets.size());
    size_t count = 0;
    for (const auto &app : spec2017Apps()) {
        if (!only.empty() && app.name != only)
            continue;
        if ((quick || !full) && count >= 3)
            break; // default subset; --full runs all fourteen
        ++count;

        const uint32_t threads = app.effectiveThreads(8);
        Program prog = generateProgram(app, InputClass::Train);
        LoopPointOptions opts;
        opts.numThreads = threads;
        LoopPointPipeline pipe(prog, opts);
        LoopPointResult lp = pipe.analyze(); // once per app

        std::printf("%-22s |", app.name.c_str());
        for (size_t t = 0; t < targets.size(); ++t) {
            auto ckpt =
                pipe.simulateRegionsCheckpointed(lp, targets[t].cfg);
            MetricPrediction pred = extrapolateMetrics(
                lp, ckpt.regionMetrics, targets[t].cfg);
            SimMetrics full = pipe.simulateFull(targets[t].cfg);
            double err = absRelErrorPct(pred.runtimeSeconds,
                                        full.runtimeSeconds);
            errs[t].push_back(err);
            std::printf(" %9.2f", err);
        }
        std::printf("\n");
    }
    bench::printRule();
    std::printf("%-22s |", "mean");
    for (const auto &column : errs)
        std::printf(" %9.2f", mean(column));
    std::printf("\n\npaper reference: Fig. 5b shows looppoints chosen "
                "on architecture-level features stay accurate on an "
                "in-order core; this sweep extends the claim to cache, "
                "memory, and prefetcher changes.\n");
    return 0;
}
