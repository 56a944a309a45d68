/**
 * @file
 * Artifact-store memoization microbenchmark: end-to-end wall time of a
 * uarch sweep (the paper's central use case — one analysis, many
 * machine configs) with and without the content-addressed store.
 * Emits BENCH_store.json so successive PRs have a perf trajectory.
 *
 * Four scenarios over the same N-preset sweep:
 *   cold        no store at all — every point pays record + profile +
 *               cluster + region sim + full reference sim
 *   populate    empty store — same work plus publish overhead; points
 *               after the first already reuse the analysis prefix
 *   warm        identical sweep again — every stage of every point is
 *               served from the store (the "never recompute" claim;
 *               must be >= 3x faster than cold and bit-identical)
 *   extend      one new preset on the warm store — analysis reused,
 *               only the two simulation stages run (the incremental
 *               campaign case)
 *
 * plus one over the warm-sharing presets:
 *   sibling     fresh store: baseline, then small-rob, slow-mem, narrow
 *               and inorder, which differ from it only in latencies or
 *               the core — they load baseline's stored region warm
 *               checkpoints instead of re-running the warming pass.
 *               Reports warm hits and the store bytes per warm key.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/experiment.hh"
#include "sim/config.hh"
#include "store/artifact_store.hh"

using namespace looppoint;
using namespace looppoint::bench;

namespace {

const std::vector<std::string> kSweep = {"baseline", "big-l2",
                                         "small-rob", "slow-mem"};
const std::string kExtendPreset = "prefetch";
const std::vector<std::string> kSiblings = {"baseline", "small-rob",
                                            "slow-mem", "narrow",
                                            "inorder"};

struct StageHits
{
    uint32_t record = 0;
    uint32_t profile = 0;
    uint32_t cluster = 0;
    uint32_t sim = 0;
    uint32_t fullsim = 0;
};

struct Scenario
{
    std::string name;
    uint32_t points = 0;
    double wallSeconds = 0.0;
    /** Checkpointed-phase wall time, summed over points (0 for a
     * point whose region results came from the store). */
    double phaseSeconds = 0.0;
    StageHits hits;
    /** Regions simulated from stored warm checkpoints. */
    uint32_t warmHits = 0;
    /** Points whose checkpointed phase ran no warming pass. */
    uint32_t warmStageHits = 0;
    StoreStats store;
};

/** Everything result-bearing in one string: region metrics, the Eq.1
 * extrapolation, and the reference run. Warm must equal cold. */
std::string
resultFingerprint(const ExperimentResult &res)
{
    std::string fp;
    char buf[256];
    auto add = [&](const SimMetrics &m) {
        std::snprintf(buf, sizeof(buf), "%llu:%llu:%llu:%.17g;",
                      static_cast<unsigned long long>(m.cycles),
                      static_cast<unsigned long long>(m.instructions),
                      static_cast<unsigned long long>(
                          m.filteredInstructions),
                      m.runtimeSeconds);
        fp += buf;
    };
    for (const SimMetrics &m : res.regionMetrics)
        add(m);
    std::snprintf(buf, sizeof(buf), "pred=%.17g:%.17g:%.17g;",
                  res.predicted.runtimeSeconds, res.predicted.cycles,
                  res.predicted.instructions);
    fp += buf;
    add(res.fullSim);
    std::snprintf(buf, sizeof(buf), "err=%.17g;", res.runtimeErrorPct);
    fp += buf;
    return fp;
}

/** Run one sweep point; accumulate its stage-hit flags. */
ExperimentResult
runPoint(const std::string &app, InputClass input, uint32_t threads,
         const std::string &store_dir, const std::string &preset,
         Scenario &sc)
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.input = input;
    cfg.requestedThreads = threads;
    cfg.storeDir = store_dir;
    if (input == InputClass::Test)
        cfg.loopPoint.sliceSizePerThread = 25'000;
    applyUarchPreset(cfg.sim, preset);
    ExperimentResult res = runExperiment(cfg);
    if (res.coverage != 1.0)
        fatal("%s/%s lost coverage (%.4f)", sc.name.c_str(),
              preset.c_str(), res.coverage);
    sc.points++;
    sc.hits.record += res.analysis.stageHashes.recordHit;
    sc.hits.profile += res.analysis.stageHashes.profileHit;
    sc.hits.cluster += res.analysis.stageHashes.clusterHit;
    sc.hits.sim += res.simStageHit;
    sc.hits.fullsim += res.fullSimHit;
    sc.phaseSeconds += res.wallPhaseSeconds;
    sc.warmHits += res.warmHits;
    sc.warmStageHits += res.warmStageHit;
    sc.store.hits += res.storeStats.hits;
    sc.store.misses += res.storeStats.misses;
    sc.store.publishes += res.storeStats.publishes;
    sc.store.bytesStored += res.storeStats.bytesStored;
    sc.store.bytesDeduped += res.storeStats.bytesDeduped;
    sc.store.bytesRead += res.storeStats.bytesRead;
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app = "654.roms_s.1";
    std::string input_name = "train";
    uint32_t threads = 4;
    std::string store_dir = "/tmp/lp_bench_store";
    std::string out_path = "BENCH_store.json";
    parseBenchFlags(
        argc, argv,
        {{"app", 0, "NAME", "workload (default: 654.roms_s.1)",
          setString(app)},
         {"input", 0, "CLASS", "input class (default: train)",
          [&input_name](const std::string &v) {
              resolveInputClass(v);
              input_name = v;
          }},
         {"threads", 0, "N", "simulated thread count (default: 4)",
          setUnsigned(threads)},
         {"store", 0, "DIR",
          "scratch store, emptied first (default: /tmp/lp_bench_store)",
          setString(store_dir)},
         {"out", 0, "PATH", "JSON output path (default: BENCH_store.json)",
          setString(out_path)}});
    const InputClass input = resolveInputClass(input_name);

    if (std::system(("rm -rf '" + store_dir + "'").c_str()) != 0)
        fatal("cannot clear store dir '%s'", store_dir.c_str());

    printHeader("micro_store: uarch sweep with stage memoization");
    std::printf("app=%s input=%s threads=%u sweep=%zu presets "
                "store=%s\n",
                app.c_str(), input_name.c_str(), threads,
                kSweep.size(), store_dir.c_str());

    auto timeScenario = [&](Scenario &sc, const std::string &dir,
                            const std::vector<std::string> &presets,
                            std::vector<std::string> *fps) {
        auto t0 = std::chrono::steady_clock::now();
        for (const std::string &preset : presets) {
            ExperimentResult res =
                runPoint(app, input, threads, dir, preset, sc);
            if (fps)
                fps->push_back(resultFingerprint(res));
        }
        sc.wallSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
    };

    std::vector<std::string> cold_fps, warm_fps;
    Scenario cold, populate, warm, extend;
    cold.name = "cold";
    populate.name = "populate";
    warm.name = "warm";
    extend.name = "extend";
    timeScenario(cold, /*dir=*/"", kSweep, &cold_fps);
    timeScenario(populate, store_dir, kSweep, nullptr);
    timeScenario(warm, store_dir, kSweep, &warm_fps);
    timeScenario(extend, store_dir, {kExtendPreset}, nullptr);

    Scenario sibling;
    sibling.name = "sibling";
    const std::string sibling_dir = store_dir + "-sibling";
    if (std::system(("rm -rf '" + sibling_dir + "'").c_str()) != 0)
        fatal("cannot clear store dir '%s'", sibling_dir.c_str());
    timeScenario(sibling, sibling_dir, kSiblings, nullptr);
    if (sibling.warmStageHits != kSiblings.size() - 1)
        fatal("only %u of %zu sibling points skipped the warming pass",
              sibling.warmStageHits, kSiblings.size() - 1);
    // Store cost of the warm stage: every sibling shares one warm key.
    uint64_t warm_bytes = 0, warm_objects = 0;
    for (const auto &e : ArtifactStore(sibling_dir).entries()) {
        if (e.stage == "warm") {
            warm_bytes += e.bytes;
            ++warm_objects;
        }
    }

    if (warm_fps != cold_fps)
        fatal("warm sweep results diverged from cold — the store is "
              "not bit-faithful");
    if (warm.store.misses != 0)
        fatal("warm sweep recomputed %llu stage(s)",
              static_cast<unsigned long long>(warm.store.misses));
    if (extend.hits.cluster != 1)
        fatal("extend point did not reuse the cached analysis");

    const double speedup = warm.wallSeconds > 0.0
                               ? cold.wallSeconds / warm.wallSeconds
                               : 0.0;
    // The analysis prefix is shared sweep-wide, so an incremental
    // point only pays for the two simulation stages; this is the
    // fraction of a cold point that work represents.
    const double sim_fraction =
        cold.wallSeconds > 0.0
            ? extend.wallSeconds /
                  (cold.wallSeconds / kSweep.size())
            : 0.0;

    std::printf("%-10s %8s %10s %10s %28s\n", "scenario", "points",
                "wall s", "phase s", "stage hits r/p/c/s/f");
    auto row = [](const Scenario &s) {
        std::printf("%-10s %8u %10.3f %10.3f %20u/%u/%u/%u/%u\n",
                    s.name.c_str(), s.points, s.wallSeconds,
                    s.phaseSeconds,
                    s.hits.record, s.hits.profile, s.hits.cluster,
                    s.hits.sim, s.hits.fullsim);
    };
    row(cold);
    row(populate);
    row(warm);
    row(extend);
    row(sibling);
    std::printf("sibling warm    : %u region checkpoint(s) loaded, "
                "%u of %zu points skipped warming; %llu checkpoint(s), "
                "%.1f MB per warm key\n",
                sibling.warmHits, sibling.warmStageHits,
                kSiblings.size(),
                static_cast<unsigned long long>(warm_objects),
                static_cast<double>(warm_bytes) / 1e6);
    std::printf("warm speedup    : %.1fx (gate: >= 3x)\n", speedup);
    std::printf("extend cost     : %.0f%% of a cold point\n",
                sim_fraction * 100.0);
    if (speedup < 3.0)
        fatal("warm sweep only %.2fx faster than cold", speedup);

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f)
        fatal("cannot write '%s'", out_path.c_str());
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"micro_store\",\n");
    std::fprintf(f, "  \"git_sha\": \"%s\",\n", gitSha().c_str());
    std::fprintf(f, "  \"timestamp\": \"%s\",\n",
                 utcTimestamp().c_str());
    std::fprintf(f, "  \"app\": \"%s\",\n", app.c_str());
    std::fprintf(f, "  \"input\": \"%s\",\n", input_name.c_str());
    std::fprintf(f, "  \"threads\": %u,\n", threads);
    std::fprintf(f, "  \"sweep_points\": %zu,\n", kSweep.size());
    std::fprintf(f, "  \"bit_identical\": true,\n");
    std::fprintf(f, "  \"warm_speedup\": %.2f,\n", speedup);
    std::fprintf(f, "  \"extend_cost_of_cold_point\": %.4f,\n",
                 sim_fraction);
    std::fprintf(f,
                 "  \"sibling_warm\": {\"warm_hits\": %u, "
                 "\"points_without_warming\": %u, \"warm_keys\": 1, "
                 "\"checkpoints_per_key\": %llu, "
                 "\"bytes_per_warm_key\": %llu},\n",
                 sibling.warmHits, sibling.warmStageHits,
                 static_cast<unsigned long long>(warm_objects),
                 static_cast<unsigned long long>(warm_bytes));
    std::fprintf(f, "  \"scenarios\": {\n");
    const Scenario *scenarios[] = {&cold, &populate, &warm, &extend,
                                   &sibling};
    const size_t n_scenarios = std::size(scenarios);
    for (size_t i = 0; i < n_scenarios; ++i) {
        const Scenario &s = *scenarios[i];
        std::fprintf(
            f,
            "    \"%s\": {\"points\": %u, \"wall_seconds\": %.6f, "
            "\"phase_seconds\": %.6f, "
            "\"stage_hits\": {\"record\": %u, \"profile\": %u, "
            "\"cluster\": %u, \"sim\": %u, \"fullsim\": %u}, "
            "\"store\": {\"hits\": %llu, \"misses\": %llu, "
            "\"publishes\": %llu, \"bytes_stored\": %llu, "
            "\"bytes_deduped\": %llu, \"bytes_read\": %llu}, "
            "\"warm_hits\": %u}%s\n",
            s.name.c_str(), s.points, s.wallSeconds, s.phaseSeconds,
            s.hits.record,
            s.hits.profile, s.hits.cluster, s.hits.sim,
            s.hits.fullsim,
            static_cast<unsigned long long>(s.store.hits),
            static_cast<unsigned long long>(s.store.misses),
            static_cast<unsigned long long>(s.store.publishes),
            static_cast<unsigned long long>(s.store.bytesStored),
            static_cast<unsigned long long>(s.store.bytesDeduped),
            static_cast<unsigned long long>(s.store.bytesRead),
            s.warmHits, i + 1 < n_scenarios ? "," : "");
    }
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
