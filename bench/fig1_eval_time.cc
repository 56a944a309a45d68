/**
 * @file
 * Fig. 1: approximate time to evaluate each benchmark suite under
 * different methodologies, assuming 100 KIPS detailed simulation and
 * infinite parallel resources (the longest region bounds the result),
 * 8 threads, passive wait policy.
 *
 * Methodologies compared, as in the paper:
 *   - full detailed simulation of the whole application;
 *   - time-based sampling (whole app visited: a small detailed duty
 *     cycle plus functional fast-forward at ~10 MIPS);
 *   - BarrierPoint (longest inter-barrier region bounds the sample);
 *   - LoopPoint (longest loop-bounded slice bounds the sample).
 *
 * Sizes are computed analytically from the workload structure. Our
 * analog instruction budgets are ~1000x below the real suites, so a
 * scale factor (--scale, default 1000) converts to paper-equivalent
 * magnitudes for readability.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "workload/descriptor.hh"

using namespace looppoint;

namespace {

constexpr double kDetailedIps = 100e3; // 100 KIPS (paper assumption)
constexpr double kFunctionalIps = 1e6;
constexpr double kTbsDutyCycle = 0.10;

struct SuiteRow
{
    const char *label;
    const std::vector<AppDescriptor> *apps;
    InputClass input;
};

double
maxInterBarrierInstrs(const Program &p)
{
    uint64_t largest = 0;
    for (uint32_t kidx : p.runList) {
        const LoweredKernel &k = p.kernels[kidx];
        largest = std::max(largest,
                           p.bodyInstrCount(k) * k.parallelIters);
    }
    return static_cast<double>(largest);
}

std::string
humanTime(double seconds)
{
    if (seconds < 3600)
        return strFormat("%7.1f h ", seconds / 3600.0);
    if (seconds < 86400.0 * 365)
        return strFormat("%7.1f d ", seconds / 86400.0);
    return strFormat("%7.1f yr", seconds / (86400.0 * 365));
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = 1000.0;
    bench::parseBenchFlags(
        argc, argv,
        {{"scale", 0, "N",
          "paper-equivalent scale factor for the times (default: 1000)",
          setDouble(scale)}});
    const uint64_t slice_global = 8 * 100'000; // N x sliceSizePerThread

    setQuiet(true);
    bench::printHeader("Fig. 1: approximate evaluation time per "
                       "methodology (8 threads, passive, 100 KIPS "
                       "detailed; longest region bounds the time)");
    std::printf("(instruction budgets scaled x%.0f to "
                "paper-equivalent sizes)\n\n", scale);
    std::printf("%-16s | %11s | %11s | %11s | %11s\n", "suite/input",
                "detailed", "time-based", "BarrierPt", "LoopPoint");
    bench::printRule();

    const SuiteRow rows[] = {
        {"SPEC2017 train", &spec2017Apps(), InputClass::Train},
        {"SPEC2017 ref", &spec2017Apps(), InputClass::Ref},
        {"NPB C", &npbApps(), InputClass::NpbC},
        {"NPB D", &npbApps(), InputClass::NpbD},
    };

    for (const auto &row : rows) {
        double worst_full = 0, worst_tbs = 0, worst_bp = 0,
               worst_lp = 0;
        for (const auto &app : *row.apps) {
            Program p = generateProgram(app, row.input);
            double total =
                static_cast<double>(p.estimateWorkInstrs(8)) * scale;
            double full_t = total / kDetailedIps;
            double tbs_t = total * kTbsDutyCycle / kDetailedIps +
                           total * (1 - kTbsDutyCycle) / kFunctionalIps;
            double bp_region = maxInterBarrierInstrs(p) * scale;
            double bp_t = std::min(bp_region, total) / kDetailedIps;
            double lp_region = std::min(
                static_cast<double>(slice_global) * scale, total);
            double lp_t = lp_region / kDetailedIps;
            worst_full = std::max(worst_full, full_t);
            worst_tbs = std::max(worst_tbs, tbs_t);
            worst_bp = std::max(worst_bp, bp_t);
            worst_lp = std::max(worst_lp, lp_t);
        }
        std::printf("%-16s | %11s | %11s | %11s | %11s\n", row.label,
                    humanTime(worst_full).c_str(),
                    humanTime(worst_tbs).c_str(),
                    humanTime(worst_bp).c_str(),
                    humanTime(worst_lp).c_str());
    }
    bench::printRule();
    std::printf("\npaper reference: detailed/TBS/BarrierPoint all "
                "approach months-years on SPEC ref and NPB D (the "
                "longest inter-barrier region in 638.imagick is ~the "
                "whole program), while LoopPoint stays bounded by one "
                "slice (~N x 100M instructions).\n");
    return 0;
}
