/**
 * @file
 * Extension experiment: synchronization-agnosticism beyond OpenMP.
 *
 * The paper's first contribution claims LoopPoint applies to generic
 * multi-threaded programs "no matter the synchronization primitives
 * used". The evaluated suites are all OpenMP; this bench runs the full
 * methodology on pthread-style analogs — a lock-based software
 * pipeline, an atomics-heavy work queue with unit-size task claiming,
 * and a lock-chained table updater — under both wait policies, and
 * reports the same error/speedup columns as Fig. 5/8.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "core/experiment.hh"
#include "util/logging.hh"
#include "util/stats.hh"

using namespace looppoint;

int
main(int argc, char **argv)
{
    std::string only, csv_dir;
    bench::parseBenchFlags(argc, argv,
                           {bench::appFlag(only), bench::csvFlag(csv_dir)});
    setQuiet(true);

    bench::printHeader("Extension: LoopPoint on pthread-style "
                       "(lock/atomic-centric) applications, train-"
                       "equivalent inputs, 8 threads");
    std::printf("%-14s | %11s %11s | %9s %9s | %4s\n", "application",
                "err% (act)", "err% (pas)", "theo-par", "act-par",
                "k");
    bench::printRule();

    bench::CsvFile csv(csv_dir, "ext_generic_sync");
    csv.row({"application", "err_active_pct", "err_passive_pct",
             "theoretical_parallel", "actual_parallel", "k"});

    std::vector<double> errs;
    for (const auto &app : pthreadApps()) {
        if (!only.empty() && app.name != only)
            continue;

        double err[2];
        double theo_par = 0, act_par = 0;
        uint32_t k = 0;
        for (int pol = 0; pol < 2; ++pol) {
            ExperimentConfig cfg;
            cfg.app = app.name;
            cfg.input = InputClass::Train;
            cfg.requestedThreads = 8;
            cfg.waitPolicy =
                pol == 0 ? WaitPolicy::Active : WaitPolicy::Passive;
            ExperimentResult r = runExperiment(cfg);
            err[pol] = r.runtimeErrorPct;
            errs.push_back(r.runtimeErrorPct);
            if (pol == 1) {
                theo_par = r.theoreticalParallelSpeedup;
                act_par = r.actualParallelSpeedup;
                k = r.analysis.chosenK;
            }
        }
        std::printf("%-14s | %11.2f %11.2f | %9.1f %9.1f | %4u\n",
                    app.name.c_str(), err[0], err[1], theo_par,
                    act_par, k);
        csv.row({app.name, bench::fmt(err[0]), bench::fmt(err[1]),
                 bench::fmt(theo_par), bench::fmt(act_par),
                 std::to_string(k)});
    }
    bench::printRule();
    std::printf("%-14s | %11.2f\n", "mean abs err", mean(errs));
    std::printf("\nexpected shape: the atomics/lock workloads land in "
                "the same low-single-digit band as the OpenMP suites "
                "— the loop-based unit of work and the "
                "synchronization-library filter do not depend on "
                "OpenMP semantics. The lock-batching pipeline sits "
                "slightly higher (~5%%): lock hand-off timing is "
                "runtime-dependent state that BBVs cannot see "
                "(Sec. III-K).\n");
    return 0;
}
