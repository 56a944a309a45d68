/**
 * @file
 * Fig. 5 (and the Section V-A.1 constrained-replay study): runtime
 * prediction error of LoopPoint for the SPEC CPU2017 speed analogs
 * with train inputs and 8 threads, under the active and passive
 * OpenMP wait policies.
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
    bool inorder = false, constrained = false, quick = false;
    std::string only, csv_dir;
    bench::parseBenchFlags(
        argc, argv,
        {{"inorder", 0, "", "simulate an in-order core instead (Fig. 5b)",
          setBool(inorder)},
         {"constrained", 0, "",
          "constrained (PinPlay-ordered) region simulation",
          setBool(constrained)},
         bench::quickFlag(quick), bench::appFlag(only),
         bench::csvFlag(csv_dir)});

    setQuiet(true);

    const char *title =
        inorder ? "Fig. 5b: runtime prediction error, in-order core "
                  "(SPEC CPU2017 train, 8 threads)"
                : (constrained
                       ? "Sec. V-A.1: constrained-replay runtime error "
                         "(SPEC CPU2017 train, 8 threads)"
                       : "Fig. 5a: runtime prediction error "
                         "(SPEC CPU2017 train, 8 threads)");
    bench::printHeader(title);
    std::printf("%-22s %8s | %12s %12s | %12s %12s\n", "application",
                "threads", "err% (act)", "err% (pas)", "k (act)",
                "k (pas)");
    bench::printRule();

    bench::CsvFile csv(csv_dir, inorder ? "fig5b" : "fig5a");
    csv.row({"application", "threads", "err_active_pct",
             "err_passive_pct", "k_active", "k_passive"});

    std::vector<double> errs_active, errs_passive;
    size_t count = 0;
    for (const auto &app : spec2017Apps()) {
        if (!only.empty() && app.name != only)
            continue;
        if (quick && count >= 4)
            break;
        ++count;

        double err[2] = {0, 0};
        uint32_t k[2] = {0, 0};
        uint32_t threads = 0;
        for (int pol = 0; pol < 2; ++pol) {
            ExperimentConfig cfg;
            cfg.app = app.name;
            cfg.input = InputClass::Train;
            cfg.requestedThreads = 8;
            cfg.waitPolicy =
                pol == 0 ? WaitPolicy::Active : WaitPolicy::Passive;
            cfg.constrainedRegions = constrained;
            if (inorder)
                cfg.sim.coreType = CoreType::InOrder;
            ExperimentResult r = runExperiment(cfg);
            err[pol] = r.runtimeErrorPct;
            k[pol] = r.analysis.chosenK;
            threads = r.threads;
            (pol == 0 ? errs_active : errs_passive)
                .push_back(r.runtimeErrorPct);
        }
        std::printf("%-22s %8u | %12.2f %12.2f | %12u %12u\n",
                    app.name.c_str(), threads, err[0], err[1], k[0],
                    k[1]);
        csv.row({app.name, std::to_string(threads), bench::fmt(err[0]),
                 bench::fmt(err[1]), std::to_string(k[0]),
                 std::to_string(k[1])});
    }
    bench::printRule();
    std::printf("%-22s %8s | %12.2f %12.2f |\n", "mean abs error", "",
                mean(errs_active), mean(errs_passive));
    std::printf("%-22s %8s | %12.2f %12.2f |\n", "max abs error", "",
                maxOf(errs_active), maxOf(errs_passive));
    std::printf("\npaper reference: 2.33%% mean abs error (active), "
                "2.23%% (passive), unconstrained OoO.\n");
    return 0;
}
