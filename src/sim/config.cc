#include "sim/config.hh"

#include "util/fingerprint.hh"
#include "util/logging.hh"

namespace looppoint {

namespace {

std::string
cacheLine(const char *name, const CacheConfig &c)
{
    return strFormat("  %-16s %uK, %u-way, %uB lines, LRU, %u-cycle\n",
                     name, c.sizeBytes / 1024, c.assoc, c.lineBytes,
                     c.latency);
}

} // namespace

std::string
SimConfig::describe() const
{
    std::string s;
    s += strFormat("  %-16s %s\n", "Core",
                   coreType == CoreType::OutOfOrder
                       ? "out-of-order (Gainestown-like)"
                       : "in-order");
    s += strFormat("  %-16s %.2f GHz, %u-entry ROB, width %u\n",
                   "Pipeline", freqGHz, robSize, dispatchWidth);
    s += strFormat("  %-16s Pentium M-style hybrid, %u-cycle penalty\n",
                   "Branch pred.", branchMispredictPenalty);
    s += cacheLine("L1-I cache", l1i);
    s += cacheLine("L1-D cache", l1d);
    s += cacheLine("L2 cache", l2);
    s += cacheLine("L3 cache", l3);
    s += strFormat("  %-16s %u cycles\n", "DRAM", memLatency);
    return s;
}

std::string
SimConfig::uarchKeyText() const
{
    FingerprintBuilder fp("uarch-v1");
    fp.field("core",
             coreType == CoreType::OutOfOrder ? "ooo" : "inorder")
        .fieldDouble("freq_ghz", freqGHz)
        .field("rob", robSize)
        .field("width", dispatchWidth)
        .field("bp_penalty", branchMispredictPenalty)
        .field("prefetch", prefetchDegree);
    auto cache = [&](const char *name, const CacheConfig &c) {
        fp.field(std::string(name) + "_size", c.sizeBytes)
            .field(std::string(name) + "_assoc", c.assoc)
            .field(std::string(name) + "_line", c.lineBytes)
            .field(std::string(name) + "_lat", c.latency);
    };
    cache("l1i", l1i);
    cache("l1d", l1d);
    cache("l2", l2);
    cache("l3", l3);
    fp.field("mem_lat", memLatency)
        .field("lat_int_alu", latIntAlu)
        .field("lat_int_mul", latIntMul)
        .field("lat_int_div", latIntDiv)
        .field("lat_fp_add", latFpAdd)
        .field("lat_fp_mul", latFpMul)
        .field("lat_fp_div", latFpDiv)
        .field("lat_branch", latBranch)
        .field("lat_atomic_extra", latAtomicExtra);
    return fp.text();
}

std::string
SimConfig::warmKeyText() const
{
    FingerprintBuilder fp("warm-v1");
    auto cache = [&](const char *name, const CacheConfig &c) {
        fp.field(std::string(name) + "_size", c.sizeBytes)
            .field(std::string(name) + "_assoc", c.assoc)
            .field(std::string(name) + "_line", c.lineBytes);
    };
    cache("l1i", l1i);
    cache("l1d", l1d);
    cache("l2", l2);
    cache("l3", l3);
    // The predictor has no configuration fields: one fixed design
    // (PentiumMBranchPredictor), named so that a second one re-keys.
    fp.field("prefetch", prefetchDegree).field("predictor", "pentium-m");
    return fp.text();
}

void
applyUarchPreset(SimConfig &cfg, const std::string &name)
{
    if (name == "baseline") {
        // Table I as-is.
    } else if (name == "big-l2") {
        cfg.l2.sizeBytes = 1024 * 1024;
        cfg.l2.latency = 12;
    } else if (name == "small-rob") {
        cfg.robSize = 64;
    } else if (name == "slow-mem") {
        cfg.memLatency = 300;
    } else if (name == "prefetch") {
        cfg.prefetchDegree = 2;
    } else if (name == "narrow") {
        cfg.dispatchWidth = 2;
    } else if (name == "inorder") {
        cfg.coreType = CoreType::InOrder;
    } else {
        fatal("unknown uarch preset '%s' (expected one of: %s)",
              name.c_str(), uarchPresetNames().c_str());
    }
}

std::string
uarchPresetNames()
{
    return "baseline, big-l2, small-rob, slow-mem, prefetch, narrow, "
           "inorder";
}

} // namespace looppoint
