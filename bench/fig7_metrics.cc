/**
 * @file
 * Fig. 7: prediction quality for microarchitectural metrics beyond
 * runtime — (a) absolute cycle-count error %, (b) branch-MPKI absolute
 * difference, (c) L2-MPKI absolute difference — for the SPEC CPU2017
 * train analogs at 8 threads, active and passive wait policies,
 * unconstrained simulation.
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
    std::string only;
    bench::parseBenchFlags(argc, argv,
                           {bench::quickFlag(quick), bench::fullFlag(full),
                            bench::appFlag(only)});

    setQuiet(true);
    bench::printHeader("Fig. 7: metric prediction (SPEC CPU2017 train, "
                       "8 threads; cycles err%, MPKI abs diffs)");
    std::printf("%-22s | %9s %9s | %9s %9s | %9s %9s\n", "application",
                "cyc(act)", "cyc(pas)", "bMPKI(a)", "bMPKI(p)",
                "l2MPKI(a)", "l2MPKI(p)");
    bench::printRule();

    std::vector<double> cyc_a, cyc_p, bm_a, bm_p, l2_a, l2_p;
    size_t count = 0;
    for (const auto &app : spec2017Apps()) {
        if (!only.empty() && app.name != only)
            continue;
        if (quick && count >= 4)
            break;
        if (!full && !quick && count >= 7)
            break; // default subset; --full runs all fourteen
        ++count;

        double cyc[2], bm[2], l2[2];
        for (int pol = 0; pol < 2; ++pol) {
            ExperimentConfig cfg;
            cfg.app = app.name;
            cfg.input = InputClass::Train;
            cfg.requestedThreads = 8;
            cfg.waitPolicy =
                pol == 0 ? WaitPolicy::Active : WaitPolicy::Passive;
            ExperimentResult r = runExperiment(cfg);
            cyc[pol] = r.cyclesErrorPct;
            bm[pol] = r.branchMpkiAbsDiff;
            l2[pol] = r.l2MpkiAbsDiff;
        }
        cyc_a.push_back(cyc[0]);
        cyc_p.push_back(cyc[1]);
        bm_a.push_back(bm[0]);
        bm_p.push_back(bm[1]);
        l2_a.push_back(l2[0]);
        l2_p.push_back(l2[1]);
        std::printf("%-22s | %9.2f %9.2f | %9.3f %9.3f | %9.3f "
                    "%9.3f\n",
                    app.name.c_str(), cyc[0], cyc[1], bm[0], bm[1],
                    l2[0], l2[1]);
    }
    bench::printRule();
    std::printf("%-22s | %9.2f %9.2f | %9.3f %9.3f | %9.3f %9.3f\n",
                "mean", mean(cyc_a), mean(cyc_p), mean(bm_a),
                mean(bm_p), mean(l2_a), mean(l2_p));
    std::printf("\npaper reference: cycle errors are a few percent; "
                "branch/L2 MPKI differences are small absolute values "
                "(reported as diffs, not %%, as in the paper).\n");
    return 0;
}
