/**
 * @file
 * Fig. 10: actual LoopPoint speedups for the NPB analogs (class C,
 * passive wait policy) at 8 and 16 threads/cores.
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
    bench::printHeader("Fig. 10: NPB (class C, passive) actual "
                       "LoopPoint speedups, 8 vs 16 cores");
    std::printf("%-12s | %10s %10s | %10s %10s\n", "application",
                "ser (8t)", "par (8t)", "ser (16t)", "par (16t)");
    bench::printRule();

    bench::CsvFile csv(csv_dir, "fig10");
    csv.row({"application", "serial_8t", "parallel_8t", "serial_16t",
             "parallel_16t"});

    std::vector<double> par8, par16;
    size_t count = 0;
    for (const auto &app : npbApps()) {
        if (!only.empty() && app.name != only)
            continue;
        if (quick && count >= 3)
            break;
        if (!full && !quick && count >= 5)
            break; // default subset; --full runs all nine
        ++count;

        double ser[2], par[2];
        uint32_t idx = 0;
        for (uint32_t threads : {8u, 16u}) {
            ExperimentConfig cfg;
            cfg.app = app.name;
            cfg.input = InputClass::NpbC;
            cfg.requestedThreads = threads;
            cfg.waitPolicy = WaitPolicy::Passive;
            ExperimentResult r = runExperiment(cfg);
            ser[idx] = r.actualSerialSpeedup;
            par[idx] = r.actualParallelSpeedup;
            ++idx;
        }
        csv.row({app.name, bench::fmt(ser[0]), bench::fmt(par[0]),
                 bench::fmt(ser[1]), bench::fmt(par[1])});
        par8.push_back(par[0]);
        par16.push_back(par[1]);
        std::printf("%-12s | %10.1f %10.1f | %10.1f %10.1f\n",
                    app.name.c_str(), ser[0], par[0], ser[1], par[1]);
    }
    bench::printRule();
    std::printf("%-12s | %10s %10.1f | %10s %10.1f\n", "geomean", "",
                geoMean(par8), "", geoMean(par16));
    std::printf("\npaper reference: parallel speedups avg 1,031x / max "
                "2,503x (8t), avg 606x / max 1,498x (16t); NPB codes "
                "are more repetitive than SPEC, so their speedups are "
                "larger and errors smaller.\n");
    return 0;
}
