/**
 * @file
 * Fig. 3: per-thread share of the filtered instruction count on a
 * per-slice basis, demonstrating homogeneous (e.g. 603.bwaves) vs.
 * non-homogeneous (657.xz_s.2) thread behavior. The per-thread
 * concatenated BBVs capture exactly this signal for clustering.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/looppoint.hh"
#include "util/logging.hh"
#include "workload/descriptor.hh"

using namespace looppoint;

namespace {

void
printApp(const std::string &name)
{
    const AppDescriptor &app = findApp(name);
    const uint32_t threads = app.effectiveThreads(8);
    Program prog = generateProgram(app, InputClass::Train);

    LoopPointOptions opts;
    opts.numThreads = threads;
    opts.waitPolicy = WaitPolicy::Passive;
    LoopPointPipeline pipe(prog, opts);
    LoopPointResult lp = pipe.analyze();

    std::printf("\n%s (%u threads): per-thread %% of slice filtered "
                "instructions\n", name.c_str(), threads);
    std::printf("%-6s", "slice");
    for (uint32_t t = 0; t < threads; ++t)
        std::printf(" %6s%u", "t", t);
    std::printf("\n");
    looppoint::bench::printRule(8 + 8 * threads);
    for (const auto &s : lp.slices) {
        if (s.filteredIcount == 0)
            continue;
        std::printf("%-6llu",
                    static_cast<unsigned long long>(s.index));
        for (uint32_t t = 0; t < threads; ++t) {
            double share = 100.0 *
                           static_cast<double>(
                               s.threadFilteredIcount[t]) /
                           static_cast<double>(s.filteredIcount);
            std::printf(" %6.1f%%", share);
        }
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string only;
    bench::parseBenchFlags(argc, argv, {bench::appFlag(only)});
    setQuiet(true);
    bench::printHeader("Fig. 3: per-slice per-thread instruction "
                       "share (train inputs)");
    if (!only.empty()) {
        printApp(only);
    } else {
        printApp("603.bwaves_s.1"); // homogeneous
        printApp("657.xz_s.2");     // non-homogeneous (paper example)
    }
    std::printf("\npaper reference: 657.xz_s.2 shows strongly "
                "non-homogeneous per-thread shares; regular OpenMP "
                "codes split work evenly.\n");
    return 0;
}
