/**
 * @file
 * Example: sample one SPEC CPU2017 analog end to end and inspect every
 * intermediate artifact of the methodology — the pinball, the DCFG
 * loops, the slice profile, the clustering, the selected looppoints,
 * and the final prediction vs. the full-simulation ground truth.
 *
 * Usage: sample_spec_app [app-name [threads]]
 *   e.g. sample_spec_app 638.imagick_s.1 8
 */

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/looppoint.hh"
#include "dcfg/dcfg.hh"
#include "exec/driver.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "workload/descriptor.hh"

using namespace looppoint;

int
main(int argc, char **argv)
{
    // No flags but -h, so every argument is positional: take as many
    // as were given, and reject a third.
    const CommandLine cl{"sample_spec_app", "[app-name [threads]]", {},
                         "\ndefaults: 628.pop2_s.1 with 8 threads, e.g.\n"
                         "  sample_spec_app 638.imagick_s.1 8\n",
                         std::min<size_t>(argc - 1, 2)};
    const std::vector<std::string> args =
        parseCommandLine(cl, argc, argv);
    const std::string name = args.empty() ? "628.pop2_s.1" : args[0];
    const AppDescriptor *found = nullptr;
    uint32_t requested = 8;
    try {
        found = &findApp(name);
        if (args.size() > 1)
            requested = static_cast<uint32_t>(parseUnsigned(
                args[1], 1, std::numeric_limits<uint32_t>::max()));
    } catch (const std::exception &e) {
        logError("sample_spec_app: %s (see --help)", e.what());
        return 2;
    }

    const AppDescriptor &app = *found;
    const uint32_t threads = app.effectiveThreads(requested);
    Program prog = generateProgram(app, InputClass::Train);

    std::printf("== %s (train, %u threads) ==\n", name.c_str(),
                threads);
    std::printf("%s, %u KLOC, %s\n", app.language.c_str(), app.kloc,
                app.area.c_str());
    std::printf("kernels: %zu, run-list entries: %zu, est. work: "
                "%.1fM instructions\n\n",
                prog.kernels.size(), prog.runList.size(),
                static_cast<double>(prog.estimateWorkInstrs(threads)) /
                    1e6);

    // Step 1: the reproducible-analysis substrate.
    ExecConfig ecfg;
    ecfg.numThreads = threads;
    Pinball pinball = recordPinball(prog, ecfg);
    std::printf("[1] recorded pinball: %zu lock events, %zu dynamic "
                "chunk grants\n",
                pinball.log.lockOrder.empty()
                    ? 0
                    : pinball.log.lockOrder[0].size(),
                [&] {
                    size_t n = 0;
                    for (const auto &row : pinball.log.chunkOrder)
                        n += row.size();
                    return n;
                }());

    // Step 2: DCFG loops.
    DcfgBuilder dcfg_builder(prog, threads);
    replayPinball(prog, pinball, 1000, &dcfg_builder);
    Dcfg dcfg = dcfg_builder.build();
    auto markers = dcfg.mainImageLoopHeaders();
    std::printf("[2] DCFG: %zu loops, %zu legal main-image markers\n",
                dcfg.loops().size(), markers.size());

    // Step 3-4: full pipeline.
    LoopPointOptions opts;
    opts.numThreads = threads;
    LoopPointPipeline pipe(prog, opts);
    LoopPointResult lp = pipe.analyze();
    std::printf("[3] profile: %zu slices of ~%llu filtered "
                "instructions\n",
                lp.slices.size(),
                static_cast<unsigned long long>(
                    opts.sliceSizePerThread * threads));
    std::printf("[4] clustering: k = %u looppoints\n", lp.chosenK);

    // Step 5: simulate and extrapolate.
    SimConfig sim_cfg;
    auto ckpt = pipe.simulateRegionsCheckpointed(lp, sim_cfg);
    for (size_t i = 0; i < lp.regions.size(); ++i)
        std::printf("    region %2u: mult %7.2f  IPC %.2f\n",
                    lp.regions[i].cluster, lp.regions[i].multiplier,
                    ckpt.regionMetrics[i].ipc());
    MetricPrediction pred = extrapolateMetrics(
        lp, ckpt.regionMetrics, ckpt.okMask(), sim_cfg);
    SimMetrics full = pipe.simulateFull(sim_cfg);

    std::printf("\n[5] prediction vs full simulation:\n");
    std::printf("    runtime   : %.6f s vs %.6f s (%.2f%% error)\n",
                pred.runtimeSeconds, full.runtimeSeconds,
                (pred.runtimeSeconds - full.runtimeSeconds) /
                    full.runtimeSeconds * 100.0);
    std::printf("    branchMPKI: %.3f vs %.3f\n", pred.branchMpki(),
                full.branchMpki());
    std::printf("    L2 MPKI   : %.3f vs %.3f\n", pred.l2Mpki(),
                full.l2Mpki());
    std::printf("    speedup   : %.1fx serial / %.1fx parallel "
                "(theoretical)\n",
                lp.theoreticalSerialSpeedup(),
                lp.theoreticalParallelSpeedup());
    return 0;
}
