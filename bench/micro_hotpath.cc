/**
 * @file
 * Hot-path throughput microbenchmark: blocks/second of the per-block
 * simulation pipeline in its three modes — pure functional
 * fast-forward, fast-forward with cache/predictor warming, and
 * detailed timing simulation. Emits a machine-readable JSON file
 * (BENCH_hotpath.json) so successive PRs have a perf trajectory to
 * regress against.
 *
 * Only stable public APIs are used, so the identical source can be
 * built against an older commit (one that has src/util/flags.hh) to
 * obtain a comparison baseline. --obs=on arms the global
 * tracer/metrics during measurement so obs overhead itself can be
 * benchmarked; the setting is recorded in the JSON.
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/multicore.hh"
#include "workload/descriptor.hh"

using namespace looppoint;
using namespace looppoint::bench;

namespace {

struct ModeResult
{
    std::string name;
    uint64_t blocks = 0;
    uint64_t instructions = 0;
    double seconds = 0.0;

    double
    blocksPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(blocks) / seconds
                             : 0.0;
    }

    double
    instrsPerSec() const
    {
        return seconds > 0.0
                   ? static_cast<double>(instructions) / seconds
                   : 0.0;
    }
};

uint64_t
totalBlocksExecuted(const ExecutionEngine &eng, const Program &prog)
{
    uint64_t total = 0;
    for (BlockId b = 0; b < prog.numBlocks(); ++b)
        total += eng.blockExecCount(b);
    return total;
}

/** Run one mode `reps` times; keep the fastest repetition. */
template <typename RunFn>
ModeResult
measure(const std::string &name, uint32_t reps, const Program &prog,
        const ExecConfig &exec_cfg, const SimConfig &sim_cfg,
        RunFn &&run)
{
    ModeResult r;
    r.name = name;
    for (uint32_t rep = 0; rep < reps; ++rep) {
        MulticoreSim sim(prog, exec_cfg, sim_cfg);
        WallTimer timer;
        run(sim);
        double t = timer.seconds();
        uint64_t blocks = totalBlocksExecuted(sim.engine(), prog);
        uint64_t instrs = sim.engine().globalIcount();
        if (rep == 0 || t < r.seconds) {
            r.seconds = t;
            r.blocks = blocks;
            r.instructions = instrs;
        }
    }
    return r;
}

void
writeJson(std::FILE *f, const std::string &app,
          const std::string &input, uint32_t threads, uint32_t reps,
          bool obs, const std::vector<ModeResult> &modes)
{
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"micro_hotpath\",\n");
    std::fprintf(f, "  \"git_sha\": \"%s\",\n", gitSha().c_str());
    std::fprintf(f, "  \"timestamp\": \"%s\",\n",
                 utcTimestamp().c_str());
    std::fprintf(f, "  \"app\": \"%s\",\n", app.c_str());
    std::fprintf(f, "  \"input\": \"%s\",\n", input.c_str());
    std::fprintf(f, "  \"threads\": %u,\n", threads);
    std::fprintf(f, "  \"jobs\": 1,\n");
    std::fprintf(f, "  \"reps\": %u,\n", reps);
    std::fprintf(f, "  \"obs\": \"%s\",\n", obs ? "on" : "off");
    std::fprintf(f, "  \"modes\": {\n");
    for (size_t i = 0; i < modes.size(); ++i) {
        const ModeResult &m = modes[i];
        std::fprintf(f,
                     "    \"%s\": {\"blocks\": %llu, "
                     "\"instructions\": %llu, \"seconds\": %.6f, "
                     "\"blocks_per_sec\": %.1f, "
                     "\"instrs_per_sec\": %.1f}%s\n",
                     m.name.c_str(),
                     static_cast<unsigned long long>(m.blocks),
                     static_cast<unsigned long long>(m.instructions),
                     m.seconds, m.blocksPerSec(), m.instrsPerSec(),
                     i + 1 < modes.size() ? "," : "");
    }
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app_name = "628.pop2_s.1";
    std::string input_name = "test";
    uint32_t threads = 4;
    uint32_t reps = 3;
    std::string out_path = "BENCH_hotpath.json";
    bool obs = false;
    parseBenchFlags(
        argc, argv,
        {{"app", 0, "NAME", "workload (default: 628.pop2_s.1)",
          setString(app_name)},
         {"input", 0, "CLASS", "input class (default: test)",
          [&input_name](const std::string &v) {
              resolveInputClass(v);
              input_name = v;
          }},
         {"threads", 0, "N", "simulated thread count (default: 4)",
          setUnsigned(threads)},
         {"reps", 0, "N",
          "repetitions per mode; best time wins (default: 3)",
          setUnsigned(reps, 1)},
         {"out", 0, "PATH", "JSON output path (default: BENCH_hotpath.json)",
          setString(out_path)},
         {"obs", 0, "on|off",
          "arm the global tracer/metrics during measurement (default: off)",
          setChoice(obs, [](const std::string &v) {
              return v == "on" || v == "off" ? std::optional(v == "on")
                                             : std::nullopt;
          })}});
    if (obs) {
        Tracer::global().setEnabled(true);
        MetricsRegistry::global().setEnabled(true);
    }

    const AppDescriptor &app = findApp(app_name);
    Program prog = generateProgram(app, resolveInputClass(input_name));

    ExecConfig exec_cfg;
    exec_cfg.numThreads = app.effectiveThreads(threads);
    SimConfig sim_cfg;

    printHeader("micro_hotpath: per-block pipeline throughput");
    std::printf("app=%s input=%s threads=%u reps=%u obs=%s\n",
                app_name.c_str(), input_name.c_str(),
                exec_cfg.numThreads, reps, obs ? "on" : "off");

    std::vector<ModeResult> modes;
    modes.push_back(measure("fastforward", reps, prog, exec_cfg,
                            sim_cfg, [](MulticoreSim &sim) {
                                sim.fastForward({}, /*warm=*/false);
                            }));
    modes.push_back(measure("warmup", reps, prog, exec_cfg, sim_cfg,
                            [](MulticoreSim &sim) {
                                sim.fastForward({}, /*warm=*/true);
                            }));
    modes.push_back(measure("detailed", reps, prog, exec_cfg, sim_cfg,
                            [](MulticoreSim &sim) {
                                sim.runDetailed();
                            }));

    std::printf("%-12s %14s %16s %12s %16s\n", "mode", "blocks",
                "instructions", "seconds", "blocks/sec");
    printRule();
    for (const ModeResult &m : modes)
        std::printf("%-12s %14llu %16llu %12.4f %16.1f\n",
                    m.name.c_str(),
                    static_cast<unsigned long long>(m.blocks),
                    static_cast<unsigned long long>(m.instructions),
                    m.seconds, m.blocksPerSec());

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        logError("cannot write %s", out_path.c_str());
        return 1;
    }
    writeJson(f, app_name, input_name, exec_cfg.numThreads, reps, obs,
              modes);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
