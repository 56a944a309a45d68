/**
 * @file
 * Set-associative caches and the three-level hierarchy of paper
 * Table I: private L1-I/L1-D/L2 per core, one shared inclusive L3,
 * LRU replacement, write-invalidate coherence between the private
 * levels via the L3 sharer vector.
 *
 * Hot-path design: line and set derivation use precomputed shift/mask
 * (all geometries are powers of two, asserted at construction). Each
 * way is one packed 8-byte tag word (`lineAddr + 1`; 0 is invalid),
 * and each set keeps its ways in recency order — most recently used
 * first, invalid ways at the tail. The common temporal-locality hit is
 * a single compare against way 0, the victim of a full set is always
 * the last way, and invalid-way search never scans past the valid
 * prefix. The ordering is observationally identical to classic
 * timestamp LRU, so no per-line stamps are kept.
 *
 * Sharer masks live only in the L3, in an array parallel to its tags.
 * The hierarchy keeps one rule: a private copy of a line (L1-I, L1-D
 * or L2) implies that core's sharer bit on the L3 line. A bit may be
 * stale, never missing, so back-invalidation of an L3 victim visits
 * only the cores in the victim's mask.
 */

#ifndef LOOPPOINT_SIM_CACHE_HH
#define LOOPPOINT_SIM_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "isa/program.hh"
#include "sim/config.hh"

namespace looppoint {

/** Hit/miss counters for one cache. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * One set-associative LRU cache. Tags only — no data storage. Each way
 * is one packed tag word, `lineAddr + 1`, so 0 marks an invalid way.
 * A cache built with Sharers::Tracked (the L3, and the default) also
 * keeps a sharer bitmask per way, in an array parallel to the tags,
 * recording which cores may hold a private copy.
 */
/**
 * Where a cache's arrays live. Deferred allocates nothing: the cache
 * (or hierarchy) is unusable until an image is bound, which lets a
 * checkpoint restore bind straight into its payload without first
 * allocating and zeroing arrays it would discard.
 */
enum class CacheBacking { Owned, Deferred };

class Cache
{
  public:
    enum class Sharers { Tracked, Untracked };

    explicit Cache(const CacheConfig &cfg,
                   Sharers sharers = Sharers::Tracked,
                   CacheBacking backing = CacheBacking::Owned);

    /**
     * Look up and allocate on miss (LRU victim).
     * @param core requesting core (for sharer tracking)
     * @param evicted receives the victim line address when a valid
     *        line was displaced; left untouched otherwise. An
     *        engaged optional is unambiguous even for a line at
     *        address 0.
     * @param evicted_sharers receives the victim's sharer mask when a
     *        valid line was displaced from a tracked cache; left
     *        untouched otherwise.
     * @return true on hit
     */
    bool access(Addr addr, uint32_t core, bool is_write,
                std::optional<Addr> *evicted,
                uint64_t *evicted_sharers = nullptr);

    /**
     * Insert a line without touching demand statistics (prefetch
     * fill). Returns the evicted line address, or nullopt when no
     * valid line was displaced (including the already-resident case);
     * `evicted_sharers` as for access().
     */
    std::optional<Addr> fill(Addr addr, uint32_t core,
                             uint64_t *evicted_sharers = nullptr);

    /** Remove a line if present; returns true if it was. */
    bool invalidate(Addr addr);

    /** True if the line is resident (no LRU update, no stats). */
    bool contains(Addr addr) const;

    /** Sharer bitmask of a resident line; 0 if absent or untracked. */
    uint64_t sharers(Addr addr) const;

    /** Drop a core from a line's sharer set. */
    void removeSharer(Addr addr, uint32_t core);

    const CacheStats &stats() const { return cacheStats; }
    void resetStats() { cacheStats = CacheStats{}; }
    const CacheConfig &config() const { return cfg; }

    // Copying deep-copies the arrays into owned storage, whichever
    // backing the source used; see bindImage().
    Cache(const Cache &other);
    Cache &operator=(const Cache &other);

    /** Size of the state image — tag words, then sharer masks when
     * tracked — in bytes (fixed by the geometry). */
    size_t
    imageBytes() const
    {
        return lineCount * sizeof(uint64_t) * (tracked ? 2 : 1);
    }

    /** memcpy the state image into `dst` (imageBytes() bytes). */
    void exportImage(void *dst) const;

    /**
     * exportImage() restricted to the sets `partition` owns (see
     * warmPartitionOf): only their words of `dst` are written.
     */
    void exportOwnedSets(void *dst, uint32_t fewest_sets,
                         uint32_t partition, uint32_t partitions) const;

    /**
     * Back the tag and mask arrays with caller-owned memory
     * (imageBytes() bytes, 8-byte aligned) instead of the internal
     * vectors, releasing the latter. The memory must hold a valid
     * exported image and must outlive the cache (or the next bind).
     * This is how a restored region simulates directly in its warm
     * checkpoint payload without copying it again.
     */
    void bindImage(void *mem);

  private:
    uint64_t lineAddr(Addr addr) const { return addr >> lineShift; }
    /** Index of the first way of `line`'s set. */
    size_t
    setBase(uint64_t line) const
    {
        return static_cast<size_t>(static_cast<uint32_t>(line) &
                                   setMask) *
               cfg.assoc;
    }
    /** Way holding `tag` in the set at `base`, or assoc if absent. */
    uint32_t find(size_t base, uint64_t tag) const;
    /** Shift ways [0, w) of the set at `base` down by one and put
     * `tag` (with sharer mask `mask`) in way 0. */
    void promote(size_t base, uint32_t w, uint64_t tag, uint64_t mask);
    /** Insert an absent `tag` as MRU, reporting any displaced line
     * as access() does. */
    void insert(size_t base, uint64_t tag, uint64_t mask,
                std::optional<Addr> *evicted, uint64_t *evicted_sharers);

    /** Sets in the cache (a power of two). */
    uint32_t numSets() const { return setMask + 1; }

    CacheConfig cfg;
    uint32_t lineShift; ///< log2(lineBytes)
    uint32_t setMask;   ///< numSets - 1
    size_t lineCount;   ///< numSets x assoc
    bool tracked;       ///< keeps sharer masks (see Sharers)
    /** Backing store when the cache owns its arrays (the default);
     * empty after bindImage() and for a Deferred cache. ownedMasks is
     * empty when untracked. */
    std::vector<uint64_t> ownedTags;
    std::vector<uint64_t> ownedMasks;
    /** The live arrays, recency-ordered per set: the owned vectors or
     * externally bound memory. All access paths index through these
     * pointers, so binding costs nothing on the hot path. `masks` is
     * null for an untracked cache (and both are null while a Deferred
     * cache is unbound). */
    uint64_t *tags = nullptr;
    uint64_t *masks = nullptr;
    CacheStats cacheStats;
};

/**
 * Which of `partitions` warming partitions owns a cache set, given the
 * set index (or the line address) and the fewest sets of any level in
 * the hierarchy. Every geometry is a power of two, so a line's set at
 * any level determines its residue modulo `fewest_sets`: one owner
 * per set of every level. See CacheHierarchy::exportOwnedSets.
 */
inline uint32_t
warmPartitionOf(uint64_t set_or_line, uint32_t fewest_sets,
                uint32_t partitions)
{
    return static_cast<uint32_t>((set_or_line & (fewest_sets - 1)) %
                                 partitions);
}

/** Result of one hierarchy access. */
struct MemAccessResult
{
    uint32_t latency = 0;
    /** Deepest level that hit: 1=L1, 2=L2, 3=L3, 4=memory. */
    uint32_t hitLevel = 1;
};

/**
 * The full cache hierarchy. Coherence model: on a write, other cores'
 * private data copies (L1-D, L2) are invalidated (write-invalidate);
 * the L3 is inclusive of all private caches, so an L3 eviction
 * back-invalidates the private levels of the victim's sharers. All
 * levels share one line size (asserted at construction), which the
 * sharer rule in the file comment relies on.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(const SimConfig &cfg, uint32_t num_cores,
                   CacheBacking backing = CacheBacking::Owned);

    /** Data access from `core`. */
    MemAccessResult access(uint32_t core, Addr addr, bool is_write);

    /** Instruction fetch for one block. */
    MemAccessResult fetch(uint32_t core, Addr pc);

    /** Prefetches issued into the L2s (demand-miss triggered). */
    uint64_t prefetchesIssued() const { return prefetchCount; }

    const Cache &l1dCache(uint32_t core) const { return l1d[core]; }
    const Cache &l1iCache(uint32_t core) const { return l1i[core]; }
    const Cache &l2Cache(uint32_t core) const { return l2[core]; }
    const Cache &l3Cache() const { return l3; }

    const CacheStats &l1dStats(uint32_t c) const { return l1d[c].stats(); }
    const CacheStats &l1iStats(uint32_t c) const { return l1i[c].stats(); }
    const CacheStats &l2Stats(uint32_t c) const { return l2[c].stats(); }
    const CacheStats &l3Stats() const { return l3.stats(); }
    uint64_t memAccesses() const { return memCount; }

    void resetStats();

    /**
     * Flat checkpoint image of the warm hierarchy: the cumulative
     * prefetch counter, then every cache's image (tag words, plus the
     * L3's sharer masks). Stats are excluded: detailed simulation
     * resets them on entry. The layout is a pure function of the
     * geometry, so two hierarchies built from the same SimConfig and
     * core count agree on it. adoptState() binds the arrays directly
     * into `mem` (zero-copy; see Cache::bindImage) — the memory must
     * outlive the hierarchy or the next adopt.
     */
    size_t stateBytes() const;
    void exportState(void *mem) const;
    void adoptState(void *mem);

    /** The fewest sets of any level of a `cfg` hierarchy. */
    static uint32_t fewestSets(const SimConfig &cfg);

    /**
     * Set-partitioned warming. With prefetchDegree == 0, an access to
     * line x touches only x's set in each level: its L3 victim shares
     * that L3 set, so back-invalidation and write-invalidation stay in
     * sets of the same residue modulo fewestSets(). Hierarchies fed
     * disjoint partitions of one access stream (warmPartitionOf on the
     * line), each in stream order, therefore hold exactly the single
     * hierarchy's state in the sets they own. This writes those sets'
     * words of the exportState() image into `mem` (partition 0 also
     * writes the prefetch counter); the partitions together write the
     * whole image.
     */
    void exportOwnedSets(void *mem, uint32_t partition,
                         uint32_t partitions) const;

  private:
    void invalidateOthers(uint32_t core, Addr addr);
    /** Remove an L3 victim from the private caches of its sharers. */
    void backInvalidate(Addr addr, uint64_t sharers);

    SimConfig cfg;
    uint32_t numCores;
    std::vector<Cache> l1d;
    std::vector<Cache> l1i;
    std::vector<Cache> l2;
    Cache l3;
    /** Cumulative latency per hit level (index hitLevel - 1). */
    uint32_t dataLat[4];
    uint32_t fetchLat[4];
    uint64_t memCount = 0;
    uint64_t prefetchCount = 0;
};

} // namespace looppoint

#endif // LOOPPOINT_SIM_CACHE_HH
