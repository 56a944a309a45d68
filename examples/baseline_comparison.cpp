/**
 * @file
 * Example: compare the three sampling methodologies this library
 * implements — LoopPoint, BarrierPoint, and naive multi-threaded
 * SimPoint — plus the time-based-sampling baseline on one workload,
 * under the active wait policy where the differences matter most.
 *
 * Usage: baseline_comparison [app-name]   (default 644.nab_s.1)
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/barrierpoint.hh"
#include "baselines/naive_simpoint.hh"
#include "baselines/time_sampling.hh"
#include "core/experiment.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/stats.hh"

using namespace looppoint;

int
main(int argc, char **argv)
{
    // No flags but -h, so every argument is positional: take the one
    // given, if any, and reject a second.
    const CommandLine cl{"baseline_comparison", "[app-name]", {},
                         "\ndefault: 644.nab_s.1\n",
                         std::min<size_t>(argc - 1, 1)};
    const std::vector<std::string> args =
        parseCommandLine(cl, argc, argv);
    const std::string name = args.empty() ? "644.nab_s.1" : args[0];
    const AppDescriptor *found = nullptr;
    try {
        found = &findApp(name);
    } catch (const std::exception &e) {
        logError("baseline_comparison: %s (see --help)", e.what());
        return 2;
    }
    const AppDescriptor &app = *found;
    const uint32_t threads = app.effectiveThreads(8);
    Program prog = generateProgram(app, InputClass::Train);
    SimConfig sim_cfg;

    std::printf("methodology comparison on %s (train, %u threads, "
                "active wait)\n\n", name.c_str(), threads);

    // Ground truth.
    ExecConfig ecfg;
    ecfg.numThreads = threads;
    ecfg.waitPolicy = WaitPolicy::Active;
    MulticoreSim full_sim(prog, ecfg, sim_cfg);
    SimMetrics full = full_sim.run();
    std::printf("%-18s runtime %.6f s (ground truth)\n\n",
                "full detailed:", full.runtimeSeconds);

    // LoopPoint.
    {
        ExperimentConfig cfg;
        cfg.app = name;
        cfg.input = InputClass::Train;
        cfg.requestedThreads = threads;
        cfg.waitPolicy = WaitPolicy::Active;
        ExperimentResult r = runExperiment(cfg);
        std::printf("%-18s %2u regions, err %5.2f%%, theoretical "
                    "%.0fx parallel speedup\n",
                    "LoopPoint:", r.analysis.chosenK,
                    r.runtimeErrorPct, r.theoreticalParallelSpeedup);
    }

    // BarrierPoint (analysis-only: region sizes + theoretical gain).
    {
        BarrierPointOptions opts;
        opts.numThreads = threads;
        opts.waitPolicy = WaitPolicy::Active;
        BarrierPointResult bp = analyzeBarrierPoint(prog, opts);
        std::printf("%-18s %2u regions, largest region %.1fM "
                    "instructions, theoretical %.0fx parallel\n",
                    "BarrierPoint:", bp.chosenK,
                    static_cast<double>(bp.largestRegionIcount()) / 1e6,
                    bp.theoreticalParallelSpeedup());
    }

    // Naive MT-SimPoint.
    {
        NaiveSimpointOptions opts;
        opts.numThreads = threads;
        opts.waitPolicy = WaitPolicy::Active;
        opts.sliceSizeGlobal =
            static_cast<uint64_t>(threads) * 100'000;
        NaiveSimpointResult analysis =
            analyzeNaiveSimpoint(prog, opts);
        std::vector<SimMetrics> regions;
        for (const auto &r : analysis.regions)
            regions.push_back(
                simulateNaiveRegion(prog, opts, r, sim_cfg));
        double predicted =
            extrapolateNaiveRuntime(analysis, regions);
        std::printf("%-18s %2u regions, err %5.2f%% (icount "
                    "boundaries are unstable under spinning)\n",
                    "naive SimPoint:", analysis.chosenK,
                    absRelErrorPct(predicted, full.runtimeSeconds));
    }

    // Time-based sampling.
    {
        TimeSamplingOptions opts;
        opts.numThreads = threads;
        opts.waitPolicy = WaitPolicy::Active;
        TimeSamplingResult ts = runTimeSampling(prog, opts, sim_cfg);
        std::printf("%-18s %llu windows, err %5.2f%%, but visits the "
                    "whole program (%.0f%% detailed)\n",
                    "time-based:",
                    static_cast<unsigned long long>(ts.detailedWindows),
                    absRelErrorPct(ts.predictedRuntimeSeconds,
                                   full.runtimeSeconds),
                    ts.detailFraction() * 100.0);
    }
    return 0;
}
