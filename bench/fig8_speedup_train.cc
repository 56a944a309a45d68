/**
 * @file
 * Fig. 8: theoretical vs. actual, serial vs. parallel speedups of
 * LoopPoint on the SPEC CPU2017 speed analogs (active wait policy,
 * train inputs, 8 threads).
 *
 * Theoretical speedup is the reduction in detailed-simulation work
 * (filtered instructions); actual speedup is the measured reduction in
 * simulator wall-clock time, with parallel variants assuming every
 * region simulates concurrently (bounded by the slowest region).
 *
 * The host-par column is the *measured* host-parallel self-relative
 * speedup of the checkpointed phase, not the theoretical region-count
 * bound.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "core/experiment.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

using namespace looppoint;

int
main(int argc, char **argv)
{
    bool quick = false, passive = false;
    std::string only, csv_dir;
    uint32_t jobs = ThreadPool::defaultWorkers();
    bench::parseBenchFlags(
        argc, argv,
        {bench::quickFlag(quick), bench::appFlag(only),
         {"passive", 0, "", "passive wait policy instead of active",
          setBool(passive)},
         {"jobs", 0, "N",
          "host workers for the checkpointed phase (default: hardware "
          "concurrency)",
          setUnsigned(jobs, 0, ThreadPool::kMaxJobs)},
         bench::csvFlag(csv_dir)});

    setQuiet(true);
    bench::printHeader(
        "Fig. 8: theoretical and actual speedups, serial and parallel "
        "(SPEC CPU2017 train, active, 8 threads)");
    std::printf("%-22s | %10s %10s | %10s %10s | %8s | %4s\n",
                "application", "theo-ser", "act-ser", "theo-par",
                "act-par", "host-par", "k");
    bench::printRule();

    bench::CsvFile csv(csv_dir, "fig8");
    csv.row({"application", "theoretical_serial", "actual_serial",
             "theoretical_parallel", "actual_parallel",
             "host_parallel_measured", "jobs", "k"});

    std::vector<double> ts, as, tp, ap, hp;
    size_t count = 0;
    for (const auto &app : spec2017Apps()) {
        if (!only.empty() && app.name != only)
            continue;
        if (quick && count >= 4)
            break;
        ++count;

        ExperimentConfig cfg;
        cfg.app = app.name;
        cfg.input = InputClass::Train;
        cfg.requestedThreads = 8;
        cfg.waitPolicy =
            passive ? WaitPolicy::Passive : WaitPolicy::Active;
        cfg.jobs = jobs;
        ExperimentResult r = runExperiment(cfg);

        std::printf("%-22s | %10.1f %10.1f | %10.1f %10.1f | %7.2fx "
                    "| %4u\n",
                    app.name.c_str(), r.theoreticalSerialSpeedup,
                    r.actualSerialSpeedup, r.theoreticalParallelSpeedup,
                    r.actualParallelSpeedup, r.hostParallelSpeedup,
                    r.analysis.chosenK);
        csv.row({app.name, bench::fmt(r.theoreticalSerialSpeedup),
                 bench::fmt(r.actualSerialSpeedup),
                 bench::fmt(r.theoreticalParallelSpeedup),
                 bench::fmt(r.actualParallelSpeedup),
                 bench::fmt(r.hostParallelSpeedup),
                 std::to_string(r.jobs),
                 std::to_string(r.analysis.chosenK)});
        ts.push_back(r.theoreticalSerialSpeedup);
        as.push_back(r.actualSerialSpeedup);
        tp.push_back(r.theoreticalParallelSpeedup);
        ap.push_back(r.actualParallelSpeedup);
        if (r.hostParallelSpeedup > 0.0)
            hp.push_back(r.hostParallelSpeedup);
    }
    bench::printRule();
    std::printf("%-22s | %10.1f %10.1f | %10.1f %10.1f | %7.2fx |\n",
                "geomean", geoMean(ts), geoMean(as), geoMean(tp),
                geoMean(ap), geoMean(hp));
    std::printf("\npaper reference (train): avg 9x serial, 303x "
                "parallel, max 801x; instruction budgets here are "
                "~1000x smaller, so expect the same shape at smaller "
                "magnitudes. host-par is the measured checkpointed-"
                "phase speedup on %u host worker(s).\n",
                jobs);
    return 0;
}
