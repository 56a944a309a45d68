/**
 * @file
 * MulticoreSim: the timing-driven execution mode ("unconstrained
 * simulation") plus functional fast-forward with warmup.
 *
 * In detailed mode the simulated microarchitecture decides thread
 * progress: the engine is stepped in core-local-time order, blocked
 * (passive) threads sleep until a wake event, and active waiters burn
 * cycles in spin loops — so spin iteration counts, lock hand-off and
 * dynamic chunk assignment all follow simulated time, exactly the
 * "how to simulate" behavior the paper argues for (Section II). Pass a
 * ReplayArbiter to get *constrained* simulation instead, including its
 * artificial-stall error (Section V-A.1).
 */

#ifndef LOOPPOINT_SIM_MULTICORE_HH
#define LOOPPOINT_SIM_MULTICORE_HH

#include <functional>
#include <memory>
#include <vector>

#include "exec/engine.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/core_model.hh"

namespace looppoint {

class PartitionedWarmer;

/** Metrics of one (full or region) detailed simulation. */
struct SimMetrics
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;  ///< retired, incl. spin/sync code
    uint64_t filteredInstructions = 0;
    double runtimeSeconds = 0.0;
    uint64_t branches = 0;
    uint64_t branchMispredicts = 0;
    uint64_t l1dAccesses = 0;
    uint64_t l1dMisses = 0;
    uint64_t l2Accesses = 0;
    uint64_t l2Misses = 0;
    uint64_t l3Accesses = 0;
    uint64_t l3Misses = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    double
    mpki(uint64_t events) const
    {
        return instructions ? 1000.0 * static_cast<double>(events) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }

    double branchMpki() const { return mpki(branchMispredicts); }
    double l1dMpki() const { return mpki(l1dMisses); }
    double l2Mpki() const { return mpki(l2Misses); }
    double l3Mpki() const { return mpki(l3Misses); }

    SimMetrics &operator+=(const SimMetrics &other);
    bool operator==(const SimMetrics &other) const = default;
};

/** See file comment. */
class MulticoreSim
{
  public:
    /**
     * @param prog program to simulate
     * @param exec_cfg threads / wait policy / seed (genAddresses is
     *        forced on — the timing model needs addresses)
     * @param sim_cfg microarchitecture (paper Table I defaults)
     * @param arbiter optional ReplayArbiter for constrained simulation
     * @param backing CacheBacking::Deferred allocates no cache arrays:
     *        the sim must adoptMicroarchState() before it runs (a
     *        checkpoint restore binding straight into its payload)
     */
    MulticoreSim(const Program &prog, ExecConfig exec_cfg,
                 const SimConfig &sim_cfg,
                 SyncArbiter *arbiter = nullptr,
                 CacheBacking backing = CacheBacking::Owned);

    /**
     * Deep snapshot: copies the functional execution state, caches,
     * predictors, and core clocks. This is the "region pinball with
     * warmup": one warming pass can be checkpointed at every region
     * start, and each checkpoint simulated independently (and in
     * parallel) afterwards.
     *
     * Note: the copy aliases the original's SyncArbiter (if any); for
     * constrained snapshots give each copy its own arbiter via
     * engine().setArbiter().
     */
    MulticoreSim(const MulticoreSim &other);
    MulticoreSim &operator=(const MulticoreSim &) = delete;

    /** Detailed simulation of the whole program from the start. */
    SimMetrics run();

    /**
     * Sampled-region simulation: functionally fast-forward (warming
     * caches and predictors when `warmup`) until just past the
     * (start_pc, start_count) boundary, then simulate in detail until
     * just past (end_pc, end_count). end_pc == 0 means program end.
     */
    SimMetrics runRegion(Addr start_pc, uint64_t start_count,
                         Addr end_pc, uint64_t end_count,
                         bool warmup = true);

    /**
     * Functional fast-forward until `stop` returns true (checked after
     * every executed block); warms structures when `warm`.
     */
    void fastForward(const std::function<bool()> &stop, bool warm);

    /**
     * Fast-forward until `block` has executed at least `count` times
     * globally. Equivalent to fastForward with a blockExecCount stop
     * condition, but the bound check is inlined into the stepping loop
     * instead of going through std::function.
     */
    void fastForwardUntil(BlockId block, uint64_t count, bool warm);

    /**
     * fastForwardUntil with warming whose cache accesses go to
     * `warmer`'s partition workers instead of this sim's hierarchy
     * (which may be CacheBacking::Deferred); the branch predictors
     * train in place.
     */
    void fastForwardUntil(BlockId block, uint64_t count,
                          PartitionedWarmer &warmer);

    /**
     * Detailed simulation until `stop` returns true or the program
     * finishes. Stats and core clocks reset on entry.
     */
    SimMetrics runDetailed(const std::function<bool()> &stop = {});

    /**
     * Detailed simulation until `block` has executed at least `count`
     * times globally — the region-endpoint condition, devirtualized
     * (bit-identical endpoints, no per-block std::function call).
     */
    SimMetrics runDetailedUntil(BlockId block, uint64_t count);

    /**
     * runDetailedUntil with an instruction-budget watchdog: also stops
     * once `max_instrs` instructions have retired since entry, bounding
     * the cost of a divergent region whose end marker is never reached.
     * `*reached` (if given) reports whether the marker condition — not
     * the budget — terminated the run. max_instrs == 0 disables the
     * budget. When the budget does not fire, the stop decision is
     * identical to runDetailedUntil (same block, same cut point).
     */
    SimMetrics runDetailedUntilBudget(BlockId block, uint64_t count,
                                      uint64_t max_instrs,
                                      bool *reached = nullptr);

    /** Largest core-local time (cycles) since the last runDetailed
     * clock reset; usable in live stop conditions. */
    uint64_t maxCoreTime() const;

    const ExecutionEngine &engine() const { return eng; }
    ExecutionEngine &engine() { return eng; }
    const SimConfig &config() const { return simCfg; }

    /**
     * Flat image of the warm microarchitectural state — cache tag
     * arrays, L3 sharer masks, prefetch counter, branch-predictor
     * tables.
     * Together with ExecutionEngine::save/load this is the complete
     * restart set of a region checkpoint: everything else (core
     * clocks, dependence rings, statistics) is reset when detailed
     * simulation enters. The layout is a pure function of the
     * configuration, so a sim built from the same Program/configs can
     * adopt an image another sim exported (a warm checkpoint taken by
     * the warming pass or loaded from the store).
     *
     * adoptMicroarchState() binds the cache arrays directly into
     * `mem` (zero-copy): the memory must stay valid while the sim
     * lives, and the sim's subsequent execution mutates it in place.
     */
    size_t microarchStateBytes() const;
    void exportMicroarchState(void *mem) const;
    void adoptMicroarchState(void *mem);

    /**
     * exportMicroarchState without the cache hierarchy: writes only
     * the predictor tables, at their offset in the image, for a sim
     * whose caches were warmed by partition workers.
     */
    void exportPredictorState(void *mem) const;

  private:
    /** Shared stepping loop; `stop` is any bool() callable, `warm`
     * any void(tid, block) callable run after each executed block. */
    template <typename Stop, typename Warm>
    void fastForwardImpl(Stop &&stop, Warm &&warm);
    /** fastForwardImpl warming this sim's own caches when `warm`. */
    template <typename Stop>
    void fastForwardInPlace(Stop &&stop, bool warm);

    /**
     * Event-driven detailed loop: a binary min-heap of packed
     * (coreTime, tid) keys replaces the per-step all-cores scan. Wakes
     * are driven by the engine's per-step woken-thread list, so a
     * sleeping core costs nothing until something releases it.
     */
    template <typename Stop>
    SimMetrics runDetailedImpl(Stop &&stop);

    /** Metric assembly at the end of a detailed run. */
    SimMetrics collectMetrics(uint64_t icount_base,
                              uint64_t filtered_base) const;

    SimConfig simCfg;
    const Program *prog;
    ExecutionEngine eng;
    CacheHierarchy hierarchy;
    std::vector<CoreModel> cores;
    uint32_t numThreads;

    /**
     * The scan-based reference scheduler in tests/test_hotpath.cc, the
     * oracle the event-driven one is checked against, drives the cores
     * directly.
     */
    friend struct MulticoreSimPeer;
};

} // namespace looppoint

#endif // LOOPPOINT_SIM_MULTICORE_HH
