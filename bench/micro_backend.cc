/**
 * @file
 * Execution-backend throughput microbenchmark: regions/second of the
 * checkpointed region-simulation phase under the in-process thread
 * pool vs the multi-process region farm, at equal worker counts.
 * Emits a machine-readable JSON file (BENCH_backend.json) so
 * successive PRs have a perf trajectory to regress against.
 *
 * The interesting comparison is dispatch overhead: the pool restores
 * each region's checkpoint payload on the worker thread that runs it,
 * while the procs coordinator restores it, exports that state into a
 * persistent worker's shared-memory arena and ships the functional
 * remainder in a state frame, paying a framed-socket protocol tax on
 * top. Both backends must produce
 * bit-identical metrics (verified here on every repetition).
 *
 * Flags:
 *   --app=NAME      workload (default spec-roms-1 -> 654.roms_s.1)
 *   --input=CLASS   test|train|ref (default train)
 *   --threads=N     simulated thread count (default 4)
 *   --workers=N     host workers for both backends (default 2)
 *   --reps=N        repetitions per backend; best time wins (default 3)
 *   --out=PATH      JSON output path (default BENCH_backend.json)
 */

#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/looppoint.hh"
#include "sim/config.hh"
#include "workload/descriptor.hh"

using namespace looppoint;
using namespace looppoint::bench;

namespace {

struct BackendResult
{
    std::string name;
    size_t regions = 0;
    double phaseSeconds = 0.0;   ///< best rep, warming included
    double regionSeconds = 0.0;  ///< sum of region sim walls, best rep
    uint32_t workerDeaths = 0;
    uint32_t workerRespawns = 0;

    double
    regionsPerSec() const
    {
        return phaseSeconds > 0.0
                   ? static_cast<double>(regions) / phaseSeconds
                   : 0.0;
    }
};

InputClass
parseInput(const std::string &s)
{
    if (s == "train")
        return InputClass::Train;
    if (s == "ref")
        return InputClass::Ref;
    return InputClass::Test;
}

std::string
gitSha()
{
    std::FILE *p =
        ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
    if (!p)
        return "unknown";
    char buf[64] = {0};
    std::string sha;
    if (std::fgets(buf, sizeof(buf), p)) {
        sha = buf;
        while (!sha.empty() &&
               (sha.back() == '\n' || sha.back() == '\r'))
            sha.pop_back();
    }
    ::pclose(p);
    return sha.empty() ? "unknown" : sha;
}

std::string
utcTimestamp()
{
    std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    gmtime_r(&now, &tm_utc);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    return buf;
}

/** Fingerprint of a run's simulated results; must match across
 * backends or the numbers being compared are meaningless. */
std::string
metricsFingerprint(const LoopPointPipeline::CheckpointedSimResult &r)
{
    std::string fp;
    char buf[256];
    for (const SimMetrics &m : r.regionMetrics) {
        std::snprintf(buf, sizeof(buf),
                      "%llu:%llu:%llu:%.17g:%llu:%llu;",
                      static_cast<unsigned long long>(m.cycles),
                      static_cast<unsigned long long>(m.instructions),
                      static_cast<unsigned long long>(
                          m.filteredInstructions),
                      m.runtimeSeconds,
                      static_cast<unsigned long long>(m.l2Misses),
                      static_cast<unsigned long long>(
                          m.branchMispredicts));
        fp += buf;
    }
    return fp;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv);
    const std::string app_name = args.get("app", "654.roms_s.1");
    const std::string input_name = args.get("input", "train");
    const uint32_t threads =
        static_cast<uint32_t>(args.getU64("threads", 4));
    const uint32_t workers =
        static_cast<uint32_t>(args.getU64("workers", 2));
    const uint32_t reps =
        static_cast<uint32_t>(args.getU64("reps", 3));
    const std::string out_path =
        args.get("out", "BENCH_backend.json");

    const AppDescriptor &app = findApp(app_name);
    Program prog = generateProgram(app, parseInput(input_name));
    LoopPointOptions opts;
    opts.numThreads = app.effectiveThreads(threads);
    if (parseInput(input_name) == InputClass::Test)
        opts.sliceSizePerThread = 25'000;
    LoopPointPipeline pipeline(prog, opts);
    LoopPointResult lp = pipeline.analyze();

    printHeader("micro_backend: region-farm dispatch throughput");
    std::printf("app=%s input=%s threads=%u workers=%u reps=%u "
                "regions=%zu\n",
                app_name.c_str(), input_name.c_str(),
                opts.numThreads, workers, reps, lp.regions.size());

    std::string fingerprint;
    std::vector<BackendResult> results;
    for (ExecBackendKind kind :
         {ExecBackendKind::Pool, ExecBackendKind::Procs}) {
        BackendResult r;
        r.name = execBackendName(kind);
        for (uint32_t rep = 0; rep < reps; ++rep) {
            SimConfig sim;
            sim.backend = kind;
            sim.jobs = workers;
            auto ckpt = pipeline.simulateRegionsCheckpointed(
                lp, sim, /*constrained=*/false, nullptr);
            if (ckpt.coverage != 1.0)
                fatal("%s run lost coverage (%.4f)", r.name.c_str(),
                      ckpt.coverage);
            const std::string fp = metricsFingerprint(ckpt);
            if (fingerprint.empty())
                fingerprint = fp;
            else if (fp != fingerprint)
                fatal("%s rep %u diverged from the first run's "
                      "metrics — backends are not bit-identical",
                      r.name.c_str(), rep);
            double region_s = 0.0;
            for (double w : ckpt.regionWallSeconds)
                region_s += w;
            if (rep == 0 || ckpt.phaseWallSeconds < r.phaseSeconds) {
                r.regions = ckpt.regionMetrics.size();
                r.phaseSeconds = ckpt.phaseWallSeconds;
                r.regionSeconds = region_s;
                r.workerDeaths = ckpt.workerDeaths;
                r.workerRespawns = ckpt.workerRespawns;
            }
        }
        results.push_back(r);
    }

    std::printf("%-8s %8s %12s %12s %14s\n", "backend", "regions",
                "phase s", "region s", "regions/sec");
    for (const BackendResult &r : results)
        std::printf("%-8s %8zu %12.4f %12.4f %14.2f\n",
                    r.name.c_str(), r.regions, r.phaseSeconds,
                    r.regionSeconds, r.regionsPerSec());

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f)
        fatal("cannot write '%s'", out_path.c_str());
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"micro_backend\",\n");
    std::fprintf(f, "  \"git_sha\": \"%s\",\n", gitSha().c_str());
    std::fprintf(f, "  \"timestamp\": \"%s\",\n",
                 utcTimestamp().c_str());
    std::fprintf(f, "  \"app\": \"%s\",\n", app_name.c_str());
    std::fprintf(f, "  \"input\": \"%s\",\n", input_name.c_str());
    std::fprintf(f, "  \"threads\": %u,\n", opts.numThreads);
    std::fprintf(f, "  \"workers\": %u,\n", workers);
    std::fprintf(f, "  \"reps\": %u,\n", reps);
    std::fprintf(f, "  \"bit_identical\": true,\n");
    std::fprintf(f, "  \"modes\": {\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const BackendResult &r = results[i];
        std::fprintf(f,
                     "    \"%s\": {\"regions\": %zu, "
                     "\"phase_seconds\": %.6f, "
                     "\"region_seconds\": %.6f, "
                     "\"regions_per_sec\": %.2f, "
                     "\"worker_deaths\": %u, "
                     "\"worker_respawns\": %u}%s\n",
                     r.name.c_str(), r.regions, r.phaseSeconds,
                     r.regionSeconds, r.regionsPerSec(),
                     r.workerDeaths, r.workerRespawns,
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
