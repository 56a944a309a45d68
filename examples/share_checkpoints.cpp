/**
 * @file
 * Example: sharing region checkpoints. The paper argues that
 * "checkpoints are easier to share among multiple users than program
 * binaries" (Section II); here the artifact store is what is shared.
 *
 * Machine A (has the workload): analyze once and run checkpoint-driven
 * simulation over a store directory. The store then holds the
 * recording, the profile, the clustering (region markers and Eq. 2
 * multipliers) and one warm checkpoint per region (functional state
 * plus warmed caches and predictors at the region start), each keyed
 * on the workload identity and the options it depends on.
 *
 * Machine B (gets a copy of the directory): a fresh pipeline with the
 * same workload, input and options is served every analysis stage and
 * every region checkpoint from the copy, so no warming pass runs. The
 * baseline reproduces A's prediction bit for bit; small-rob differs
 * only in the core, so it reuses the same checkpoints.
 *
 * Both machines are this process; the stores live in a temporary
 * directory that is removed at exit. The exit status is nonzero unless
 * B's baseline matches A exactly and B ran from A's checkpoints alone.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/looppoint.hh"
#include "store/artifact_store.hh"
#include "store/stage_cache.hh"
#include "workload/descriptor.hh"

using namespace looppoint;
namespace fs = std::filesystem;

namespace {

const char *
hitOrMiss(bool hit)
{
    return hit ? "hit" : "miss";
}

bool
share(const fs::path &tmp)
{
    const char *app_name = "628.pop2_s.1";
    const AppDescriptor &app = findApp(app_name);
    LoopPointOptions opts;
    opts.numThreads = app.effectiveThreads(8);
    const SimConfig baseline;
    const fs::path a_dir = tmp / "store-a", b_dir = tmp / "store-b";

    // ---- Machine A: analyze, simulate, publish ------------------------
    Program a_prog = generateProgram(app, InputClass::Train);
    ArtifactStore a_store(a_dir.string());
    StageCache a_cache(a_store);
    LoopPointPipeline a_pipe(a_prog, opts);
    a_pipe.setStageCache(&a_cache);
    const LoopPointResult a_lp = a_pipe.analyze();
    const auto a_sim = a_pipe.simulateRegionsCheckpointed(a_lp, baseline);
    const double a_runtime =
        extrapolateMetrics(a_lp, a_sim.regionMetrics, baseline)
            .runtimeSeconds;
    std::printf("[A] analyzed %s: %zu slices -> %u looppoints\n",
                app_name, a_lp.slices.size(), a_lp.chosenK);
    std::printf("[A] published %u warm checkpoints; extrapolated "
                "runtime: %.6f s\n",
                a_sim.warmPublished, a_runtime);

    fs::copy(a_dir, b_dir, fs::copy_options::recursive);
    std::printf("[A -> B] copied the store directory\n");

    // ---- Machine B: same workload and options, the copied store -------
    Program b_prog = generateProgram(app, InputClass::Train);
    ArtifactStore b_store(b_dir.string());
    StageCache b_cache(b_store);
    LoopPointPipeline b_pipe(b_prog, opts);
    b_pipe.setStageCache(&b_cache);
    const LoopPointResult b_lp = b_pipe.analyze();
    const StageHashes &hits = b_lp.stageHashes;
    std::printf("[B] record %s, profile %s, cluster %s\n",
                hitOrMiss(hits.recordHit), hitOrMiss(hits.profileHit),
                hitOrMiss(hits.clusterHit));
    bool ok = hits.recordHit && hits.profileHit && hits.clusterHit;

    double b_runtime = 0.0;
    for (const char *uarch : {"baseline", "small-rob"}) {
        SimConfig target;
        applyUarchPreset(target, uarch);
        const auto sim = b_pipe.simulateRegionsCheckpointed(b_lp, target);
        const double runtime =
            extrapolateMetrics(b_lp, sim.regionMetrics, target)
                .runtimeSeconds;
        const bool all_warm = sim.warmStageHit &&
                              sim.warmHits == b_lp.regions.size();
        std::printf("[B] %-9s warm %u of %zu checkpoints (%s); "
                    "extrapolated runtime: %.6f s\n",
                    uarch, sim.warmHits, b_lp.regions.size(),
                    all_warm ? "no warming pass" : "warming pass ran",
                    runtime);
        ok = ok && all_warm;
        if (std::string(uarch) == "baseline") {
            b_runtime = runtime;
            ok = ok && sim.regionMetrics == a_sim.regionMetrics &&
                 runtime == a_runtime;
        }
    }

    // Cross-check against a direct full simulation (Machine A's view).
    const SimMetrics full = a_pipe.simulateFull(baseline);
    std::printf("\ncheck: direct full simulation %.6f s "
                "(extrapolation error %.2f%%)\n",
                full.runtimeSeconds,
                (b_runtime - full.runtimeSeconds) /
                    full.runtimeSeconds * 100.0);
    std::printf("check: B's baseline %s A's bit for bit, from A's "
                "checkpoints alone\n",
                ok ? "reproduces" : "does NOT reproduce");
    return ok;
}

} // namespace

int
main()
{
    std::string tmpl =
        (fs::temp_directory_path() / "lp_share_XXXXXX").string();
    if (!mkdtemp(tmpl.data())) {
        std::perror("mkdtemp");
        return 1;
    }
    const fs::path tmp = tmpl;
    bool ok = false;
    try {
        ok = share(tmp);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "share_checkpoints: %s\n", e.what());
    }
    fs::remove_all(tmp);
    return ok ? 0 : 1;
}
