/**
 * @file
 * Example: bring your own workload. Builds a custom multi-threaded
 * program directly with ProgramBuilder — a producer/consumer-style
 * pipeline with a dynamic-for stage, a critical section, and an
 * imbalanced static stage — then samples it with LoopPoint.
 *
 * This is the path a user takes to evaluate an application that is
 * not part of the bundled SPEC/NPB analogs (the paper's "one can
 * integrate any multi-threaded application in a similar fashion").
 */

#include <cstdio>

#include "core/looppoint.hh"
#include "isa/program_builder.hh"
#include "util/logging.hh"

using namespace looppoint;

namespace {

Program
buildPipelineApp()
{
    ProgramBuilder b("my-pipeline-app", /*seed=*/2026);

    // Stage 1: irregular decode stage, dynamically scheduled.
    uint32_t decode =
        b.beginKernel("decode", SchedPolicy::DynamicFor, 3000, 8);
    uint8_t s_in = b.addStream({.footprintBytes = 16u << 20,
                                .strideBytes = 64,
                                .jumpProb = 0.2,
                                .shared = true});
    uint8_t s_tmp = b.addStream({.footprintBytes = 128u << 10,
                                 .strideBytes = 8});
    b.addBlock({.numInstrs = 48,
                .fracMem = 0.4,
                .streams = {s_in, s_tmp}});
    b.addCond({.numInstrs = 8, .streams = {s_tmp}},
              {.numInstrs = 30, .fracMem = 0.3, .streams = {s_tmp}},
              {.numInstrs = 12, .fracMem = 0.2, .streams = {s_tmp}},
              {.numInstrs = 6, .streams = {}}, /*p=*/0.35);
    b.addCritical(0, {.numInstrs = 14, .fracMem = 0.5,
                      .streams = {s_in}});
    b.endKernel();

    // Stage 2: compute stage with an inner loop and fp work,
    // statically scheduled but imbalanced.
    uint32_t compute =
        b.beginKernel("compute", SchedPolicy::StaticFor, 2000);
    uint8_t s_grid = b.addStream({.footprintBytes = 32u << 20,
                                  .strideBytes = 16,
                                  .shared = true});
    b.setImbalance(0.5);
    b.beginInnerLoop(/*trips=*/8, /*jitter=*/2);
    b.addBlock({.numInstrs = 40,
                .fracMem = 0.35,
                .fracFp = 0.6,
                .streams = {s_grid}});
    b.endInnerLoop();
    b.endKernel();

    // 20 timesteps of decode -> compute.
    b.runKernels({decode, compute}, 20);
    return b.build();
}

} // namespace

int
main()
{
    Program prog = buildPipelineApp();
    prog.validate();
    std::printf("custom app '%s': %zu blocks, %zu kernels, ~%.1fM "
                "instructions of work\n",
                prog.name.c_str(), prog.numBlocks(),
                prog.kernels.size(),
                static_cast<double>(prog.estimateWorkInstrs(8)) / 1e6);

    LoopPointOptions opts;
    opts.numThreads = 8;
    opts.waitPolicy = WaitPolicy::Active; // spiky spin behavior
    opts.sliceSizePerThread = 50'000;

    LoopPointPipeline pipe(prog, opts);
    LoopPointResult lp = pipe.analyze();
    std::printf("analysis: %zu slices -> %u looppoints\n",
                lp.slices.size(), lp.chosenK);

    SimConfig sim_cfg;
    auto ckpt = pipe.simulateRegionsCheckpointed(lp, sim_cfg);
    MetricPrediction pred = extrapolateMetrics(lp, ckpt.regionMetrics,
                                               ckpt.okMask(), sim_cfg);
    SimMetrics full = pipe.simulateFull(sim_cfg);

    std::printf("predicted runtime %.6f s vs measured %.6f s "
                "(%.2f%% error), %.1fx parallel speedup\n",
                pred.runtimeSeconds, full.runtimeSeconds,
                (pred.runtimeSeconds - full.runtimeSeconds) /
                    full.runtimeSeconds * 100.0,
                lp.theoreticalParallelSpeedup());
    return 0;
}
