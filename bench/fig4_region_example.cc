/**
 * @file
 * Fig. 4: anatomy of one representative region identified by
 * LoopPoint on the 638.imagick analog (train, 8 threads): the loops
 * that make up the region with their per-region iteration counts
 * (Fig. 4a), and the IPC-over-time trace of the full run vs. the
 * chosen region with its (PC, count) boundaries (Fig. 4b).
 */

#include <cstdio>
#include <map>

#include "bench_util.hh"
#include "core/looppoint.hh"
#include "dcfg/dcfg.hh"
#include "exec/driver.hh"
#include "sim/multicore.hh"
#include "util/logging.hh"
#include "workload/descriptor.hh"

using namespace looppoint;

namespace {

/** Count loop-header executions within one profiled slice. */
void
printLoopIterations(const Program &prog, const Dcfg &dcfg,
                    const SliceRecord &slice)
{
    std::printf("\nFig. 4a: loops inside the chosen region "
                "(iterations per thread)\n");
    std::printf("%-14s %-10s", "loop header", "image");
    for (uint32_t t = 0; t < slice.perThread.size(); ++t)
        std::printf(" %8s%u", "t", t);
    std::printf("\n");
    bench::printRule(26 + 9 * slice.perThread.size());
    for (const auto &loop : dcfg.loops()) {
        if (loop.image != ImageId::Main)
            continue;
        // Iterations of this loop within the slice, per thread.
        bool any = false;
        for (const auto &bbv : slice.perThread)
            any |= bbv.counts.count(loop.header) > 0;
        if (!any)
            continue;
        std::printf("%#-14llx %-10s",
                    static_cast<unsigned long long>(
                        prog.blocks[loop.header].pc),
                    "main");
        for (const auto &bbv : slice.perThread) {
            auto it = bbv.counts.find(loop.header);
            std::printf(" %9llu",
                        static_cast<unsigned long long>(
                            it == bbv.counts.end() ? 0 : it->second));
        }
        std::printf("\n");
    }
}

/** IPC trace: run detailed simulation, sampling IPC per window. */
void
printIpcTrace(const Program &prog, uint32_t threads,
              const char *label, Addr start_pc, uint64_t start_count,
              Addr end_pc, uint64_t end_count)
{
    ExecConfig cfg;
    cfg.numThreads = threads;
    cfg.waitPolicy = WaitPolicy::Passive;
    SimConfig sim_cfg;
    MulticoreSim sim(prog, cfg, sim_cfg);

    std::printf("\nFig. 4b (%s): IPC over time\n", label);
    if (start_pc != 0) {
        sim.fastForward(
            [&] {
                BlockId b = kInvalidBlock;
                for (const auto &bb : prog.blocks)
                    if (bb.pc == start_pc)
                        b = bb.id;
                return sim.engine().blockExecCount(b) >= start_count;
            },
            true);
    }

    // Sample IPC in fixed instruction windows.
    const uint64_t window = 400'000;
    uint64_t printed = 0;
    while (!sim.engine().allFinished() && printed < 40) {
        uint64_t end_icount = sim.engine().globalIcount() + window;
        SimMetrics m = sim.runDetailed([&] {
            if (sim.engine().globalIcount() >= end_icount)
                return true;
            if (end_pc != 0) {
                BlockId b = kInvalidBlock;
                for (const auto &bb : prog.blocks)
                    if (bb.pc == end_pc)
                        b = bb.id;
                if (sim.engine().blockExecCount(b) >= end_count)
                    return true;
            }
            return false;
        });
        if (m.instructions == 0)
            break;
        int bars = static_cast<int>(m.ipc() * 8);
        std::printf("  %3llu | %5.2f ",
                    static_cast<unsigned long long>(printed), m.ipc());
        for (int i = 0; i < bars && i < 60; ++i)
            std::putchar('#');
        std::putchar('\n');
        ++printed;
        if (end_pc != 0) {
            BlockId b = kInvalidBlock;
            for (const auto &bb : prog.blocks)
                if (bb.pc == end_pc)
                    b = bb.id;
            if (sim.engine().blockExecCount(b) >= end_count)
                break;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = "638.imagick_s.1";
    bench::parseBenchFlags(argc, argv, {bench::appFlag(name)});
    setQuiet(true);
    bench::printHeader("Fig. 4: a representative LoopPoint region "
                       "(638.imagick analog, train, 8 threads)");

    const AppDescriptor &app = findApp(name);
    const uint32_t threads = app.effectiveThreads(8);
    Program prog = generateProgram(app, InputClass::Train);

    LoopPointOptions opts;
    opts.numThreads = threads;
    opts.waitPolicy = WaitPolicy::Passive;
    LoopPointPipeline pipe(prog, opts);
    LoopPointResult lp = pipe.analyze();

    // Pick the region with the largest multiplier (the "hottest").
    const LoopPointRegion *best = &lp.regions.front();
    for (const auto &r : lp.regions)
        if (r.multiplier > best->multiplier)
            best = &r;

    std::printf("chosen region: cluster %u, slice %u, "
                "start=(%#llx,%llu), end=(%#llx,%llu), mult=%.1f\n",
                best->cluster, best->sliceIndex,
                static_cast<unsigned long long>(best->start.pc),
                static_cast<unsigned long long>(best->start.count),
                static_cast<unsigned long long>(best->end.pc),
                static_cast<unsigned long long>(best->end.count),
                best->multiplier);

    // DCFG for loop structure.
    ExecConfig cfg;
    cfg.numThreads = threads;
    cfg.waitPolicy = WaitPolicy::Passive;
    ExecutionEngine engine(prog, cfg);
    DcfgBuilder builder(prog, threads);
    RoundRobinDriver driver(engine, 1000);
    driver.run(&builder);
    Dcfg dcfg = builder.build();

    printLoopIterations(prog, dcfg, lp.slices[best->sliceIndex]);
    printIpcTrace(prog, threads, "full application", 0, 0, 0, 0);
    printIpcTrace(prog, threads, "chosen region", best->start.pc,
                  best->start.count, best->end.pc, best->end.count);
    std::printf("\npaper reference: the region's IPC trace matches a "
                "recurring segment of the full-application trace, with "
                "(PC, count) boundaries marked.\n");
    return 0;
}
