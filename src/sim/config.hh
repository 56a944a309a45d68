/**
 * @file
 * Timing-simulation configuration. Defaults reproduce paper Table I:
 * a Gainestown-like out-of-order multicore (2.66 GHz, 128-entry ROB,
 * Pentium M branch predictor, 32K L1s, 256K L2, 8M shared L3, LRU).
 */

#ifndef LOOPPOINT_SIM_CONFIG_HH
#define LOOPPOINT_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "util/fault.hh"

namespace looppoint {

/** Core timing model selector. */
enum class CoreType : uint8_t
{
    OutOfOrder, ///< Gainestown-like (paper default)
    InOrder     ///< Fig. 5b portability study
};

/** One cache level's geometry. */
struct CacheConfig
{
    uint32_t sizeBytes = 32 * 1024;
    uint32_t assoc = 8;
    uint32_t lineBytes = 64;
    uint32_t latency = 3; ///< access latency in cycles
};

/**
 * Observability switches (src/obs). Host-side only: they select what
 * telemetry is collected, never what is simulated, so results are
 * bit-identical on or off. Deliberately excluded from
 * SimConfig::describe() and from every store key — a rerun must not
 * miss valid stored records because tracing was toggled.
 */
struct ObsConfig
{
    bool trace = false; ///< span tracer -> Chrome/Perfetto JSON
};

/** Full simulated-system configuration (paper Table I). */
struct SimConfig
{
    CoreType coreType = CoreType::OutOfOrder;
    double freqGHz = 2.66;
    uint32_t robSize = 128;
    uint32_t dispatchWidth = 4;
    uint32_t branchMispredictPenalty = 14;

    /**
     * Next-line prefetch degree on L2 demand misses (0 = disabled,
     * the Table I baseline; used by the microarchitecture ablation).
     */
    uint32_t prefetchDegree = 0;

    CacheConfig l1i{32 * 1024, 4, 64, 1};
    CacheConfig l1d{32 * 1024, 8, 64, 3};
    CacheConfig l2{256 * 1024, 8, 64, 9};
    CacheConfig l3{8 * 1024 * 1024, 16, 64, 34};
    uint32_t memLatency = 175;

    // Op latencies (issue-to-result, cycles).
    uint32_t latIntAlu = 1;
    uint32_t latIntMul = 3;
    uint32_t latIntDiv = 18;
    uint32_t latFpAdd = 3;
    uint32_t latFpMul = 5;
    uint32_t latFpDiv = 20;
    uint32_t latBranch = 1;
    uint32_t latAtomicExtra = 12; ///< added to the cache latency

    /**
     * Host worker threads for checkpointed region simulation
     * (checkpoint fanout), and the number of cache-set partitions the
     * warming pass splits its cache work across (capped by the fewest
     * sets of any level; 1 with prefetchDegree > 0). 1 = serial,
     * 0 = hardware concurrency (see ThreadPool::resolveWorkers).
     * Purely a host-side knob: simulated results are bit-identical
     * for any value.
     */
    uint32_t jobs = 1;

    /** Telemetry switches (host-side; see ObsConfig). */
    ObsConfig obs;

    /**
     * Per-region retry budget for checkpointed simulation: a region
     * whose simulation fails is re-attempted from its checkpoint up to
     * this many additional times before it is dropped and the
     * extrapolation degrades. Purely host-side: fault-free runs are
     * bit-identical for any value.
     */
    uint32_t regionRetries = 0;

    /**
     * Divergence watchdog for region simulation: a region is aborted
     * once it retires `watchdogFactor * max(filteredIcount, 10'000)`
     * instructions without reaching its end marker. 0 disables the
     * watchdog. The default leaves a wide margin over spin inflation,
     * so it only fires on genuinely divergent replays; when it does
     * not fire the simulated trajectory is untouched.
     */
    uint64_t watchdogFactor = 64;

    /**
     * Deterministic fault-injection plan (testing / chaos harness).
     * Empty in production. See FaultPlan::parse for the grammar.
     */
    FaultPlan faults;

    /** Human-readable Table I-style description. */
    std::string describe() const;

    /**
     * Canonical one-line encoding of every *result-affecting*
     * (microarchitectural) field — the config partition that keys the
     * store's region-simulation stage. Host-side
     * knobs (jobs, obs, retries, watchdog, fault plan) are
     * deliberately absent: flipping them never changes
     * simulated metrics, so they must never invalidate cached results.
     * Unlike describe(), this covers prefetchDegree and the op
     * latencies.
     */
    std::string uarchKeyText() const;

    /**
     * Canonical encoding of the fields the *warm state* at a region
     * start depends on: size, ways and line size of every cache
     * level, the prefetch degree, and the branch predictor. Warming
     * (MulticoreSim::fastForwardUntil with warm = true) schedules
     * threads by a fixed instruction quantum and only drives the
     * cache hierarchy and the predictors, so no latency and no core
     * field can change it: presets that differ only there (small
     * ROB, slow memory, narrow dispatch, in-order) share one warm
     * trajectory and, through the store's warm stage, one set of
     * region checkpoints. A subset of uarchKeyText()'s fields by
     * construction.
     */
    std::string warmKeyText() const;
};

/**
 * Named microarchitecture presets for campaign sweeps (lp_campaign
 * --uarch, bench/micro_store). "baseline" is Table I; the others vary
 * exactly one uarch dimension. Unknown names call fatal().
 */
void applyUarchPreset(SimConfig &cfg, const std::string &name);

/** The preset names applyUarchPreset accepts, as "a, b, ...". */
std::string uarchPresetNames();

} // namespace looppoint

#endif // LOOPPOINT_SIM_CONFIG_HH
