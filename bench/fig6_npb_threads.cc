/**
 * @file
 * Fig. 6: LoopPoint runtime prediction error for the NPB analogs
 * (class C, passive wait policy) at 8 and 16 threads. Applications are
 * profiled separately per thread count, as in the paper.
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
    bool quick = false, full = false;
    std::string only, csv_dir;
    bench::parseBenchFlags(argc, argv,
                           {bench::quickFlag(quick), bench::fullFlag(full),
                            bench::appFlag(only), bench::csvFlag(csv_dir)});

    setQuiet(true);
    bench::printHeader("Fig. 6: NPB (class C, passive) runtime "
                       "prediction error, 8 vs 16 threads");
    std::printf("%-12s | %12s %12s | %6s %6s\n", "application",
                "err% (8t)", "err% (16t)", "k(8)", "k(16)");
    bench::printRule();

    bench::CsvFile csv(csv_dir, "fig6");
    csv.row({"application", "err_8t_pct", "err_16t_pct", "k_8t",
             "k_16t"});

    std::vector<double> errs8, errs16;
    size_t count = 0;
    for (const auto &app : npbApps()) {
        if (!only.empty() && app.name != only)
            continue;
        if (quick && count >= 3)
            break;
        if (!full && !quick && count >= 5)
            break; // default subset; --full runs all nine
        ++count;

        double err[2];
        uint32_t k[2];
        uint32_t idx = 0;
        for (uint32_t threads : {8u, 16u}) {
            ExperimentConfig cfg;
            cfg.app = app.name;
            cfg.input = InputClass::NpbC;
            cfg.requestedThreads = threads;
            cfg.waitPolicy = WaitPolicy::Passive;
            ExperimentResult r = runExperiment(cfg);
            err[idx] = r.runtimeErrorPct;
            k[idx] = r.analysis.chosenK;
            ++idx;
        }
        csv.row({app.name, bench::fmt(err[0]), bench::fmt(err[1]),
                 std::to_string(k[0]), std::to_string(k[1])});
        errs8.push_back(err[0]);
        errs16.push_back(err[1]);
        std::printf("%-12s | %12.2f %12.2f | %6u %6u\n",
                    app.name.c_str(), err[0], err[1], k[0], k[1]);
    }
    bench::printRule();
    std::printf("%-12s | %12.2f %12.2f |\n", "mean", mean(errs8),
                mean(errs16));
    std::printf("\npaper reference: 2.87%% mean abs error at 8 "
                "threads, 1.78%% at 16 threads.\n");
    return 0;
}
