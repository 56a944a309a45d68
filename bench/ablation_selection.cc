/**
 * @file
 * Representative-selection ablation: is the SimPoint machinery
 * (clustering + closest-to-centroid selection) actually earning its
 * keep, or would any K slices do? Compares three policies at the same
 * region count K (the BIC-chosen k):
 *
 *   centroid — cluster and take the slice closest to each centroid,
 *              weighted by cluster work (LoopPoint / SimPoint);
 *   random   — K slices drawn uniformly, each weighted total/K
 *              (simple random sampling);
 *   stride   — every (n/K)-th slice, weighted total/K (systematic
 *              sampling).
 *
 * On strongly periodic workloads all three do fine; the clustering
 * advantage shows on phase-heterogeneous apps (657.xz_s.2, wrf),
 * where random/stride picks mis-weight the phases.
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

/**
 * Replace the analysis's regions with K hand-picked slices weighted
 * uniformly by work, preserving everything else.
 */
LoopPointResult
withPickedSlices(const LoopPointResult &lp,
                 const std::vector<uint32_t> &picks)
{
    LoopPointResult out = lp;
    out.regions.clear();
    uint64_t picked_work = 0;
    for (uint32_t idx : picks)
        picked_work += lp.slices[idx].filteredIcount;
    LP_ASSERT(picked_work > 0);
    double scale = static_cast<double>(lp.totalFilteredIcount) /
                   static_cast<double>(picked_work);
    for (uint32_t c = 0; c < picks.size(); ++c) {
        const SliceRecord &s = lp.slices[picks[c]];
        if (s.filteredIcount == 0)
            continue;
        LoopPointRegion r;
        r.cluster = c;
        r.sliceIndex = picks[c];
        r.start = s.start;
        r.end = s.end;
        r.filteredIcount = s.filteredIcount;
        // Uniform sampling estimator: every picked slice stands for
        // an equal share of the total work.
        r.multiplier = scale;
        out.regions.push_back(r);
    }
    return out;
}

double
errorOf(LoopPointPipeline &pipe, const LoopPointResult &lp,
        double full_runtime, const SimConfig &sim_cfg)
{
    auto ckpt = pipe.simulateRegionsCheckpointed(lp, sim_cfg);
    MetricPrediction pred =
        extrapolateMetrics(lp, ckpt.regionMetrics, sim_cfg);
    return absRelErrorPct(pred.runtimeSeconds, full_runtime);
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

    bench::printHeader("Representative-selection ablation: runtime "
                       "error% at equal region count K (train, 8 "
                       "threads, passive)");
    std::printf("%-22s | %4s | %10s | %10s | %10s\n", "application",
                "K", "centroid", "random", "stride");
    bench::printRule();

    std::vector<double> e_cen, e_rnd, e_str;
    // Phase-heterogeneous apps where selection quality matters most.
    const char *defaults[] = {"657.xz_s.2", "621.wrf_s.1",
                              "627.cam4_s.1"};
    std::vector<std::string> names;
    if (!only.empty()) {
        names.push_back(only);
    } else if (quick || !full) {
        names.assign(std::begin(defaults), std::end(defaults));
    } else {
        for (const auto &app : spec2017Apps())
            names.push_back(app.name);
    }

    for (const auto &name : names) {
        const AppDescriptor &app = findApp(name);
        const uint32_t threads = app.effectiveThreads(8);
        Program prog = generateProgram(app, InputClass::Train);
        LoopPointOptions opts;
        opts.numThreads = threads;
        LoopPointPipeline pipe(prog, opts);
        LoopPointResult lp = pipe.analyze();
        SimConfig sim_cfg;
        double full_runtime =
            pipe.simulateFull(sim_cfg).runtimeSeconds;

        const uint32_t k =
            static_cast<uint32_t>(lp.regions.size());
        const uint32_t n = static_cast<uint32_t>(lp.slices.size());

        double err_centroid = errorOf(pipe, lp, full_runtime, sim_cfg);

        // Random picks (deterministic RNG, non-empty slices only).
        Rng rng(hashString(name));
        std::vector<uint32_t> random_picks;
        int guard = 1000;
        while (random_picks.size() < k && guard-- > 0) {
            auto idx = static_cast<uint32_t>(rng.nextBounded(n));
            if (lp.slices[idx].filteredIcount == 0)
                continue;
            if (std::find(random_picks.begin(), random_picks.end(),
                          idx) == random_picks.end())
                random_picks.push_back(idx);
        }
        LoopPointResult lp_rnd = withPickedSlices(lp, random_picks);
        double err_random =
            errorOf(pipe, lp_rnd, full_runtime, sim_cfg);

        // Systematic (strided) picks.
        std::vector<uint32_t> stride_picks;
        for (uint32_t c = 0; c < k; ++c) {
            uint32_t idx = (c * n) / k + (n / (2 * k));
            idx = std::min(idx, n - 1);
            if (lp.slices[idx].filteredIcount > 0)
                stride_picks.push_back(idx);
        }
        if (stride_picks.empty())
            stride_picks.push_back(0);
        LoopPointResult lp_str = withPickedSlices(lp, stride_picks);
        double err_stride =
            errorOf(pipe, lp_str, full_runtime, sim_cfg);

        e_cen.push_back(err_centroid);
        e_rnd.push_back(err_random);
        e_str.push_back(err_stride);
        std::printf("%-22s | %4u | %10.2f | %10.2f | %10.2f\n",
                    name.c_str(), k, err_centroid, err_random,
                    err_stride);
    }
    bench::printRule();
    std::printf("%-22s | %4s | %10.2f | %10.2f | %10.2f\n", "mean", "",
                mean(e_cen), mean(e_rnd), mean(e_str));
    std::printf("\nexpected shape: the clustered, work-weighted "
                "selection is at least as accurate as uniform "
                "sampling everywhere and clearly better on "
                "phase-heterogeneous applications.\n");
    return 0;
}
