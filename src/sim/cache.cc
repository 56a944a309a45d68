#include "sim/cache.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"

namespace looppoint {

namespace {

bool
isPowerOfTwo(uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

uint32_t
log2u32(uint32_t v)
{
    return static_cast<uint32_t>(__builtin_ctz(v));
}

} // namespace

Cache::Cache(const CacheConfig &cfg_, Sharers sharers,
             CacheBacking backing)
    : cfg(cfg_), tracked(sharers == Sharers::Tracked)
{
    // lineBytes >= 2 keeps the packed tag `lineAddr + 1` from wrapping
    // to the invalid word 0.
    LP_ASSERT(cfg.lineBytes >= 2 && cfg.assoc > 0);
    LP_ASSERT(cfg.sizeBytes % (cfg.lineBytes * cfg.assoc) == 0);
    const uint32_t num_sets = cfg.sizeBytes / (cfg.lineBytes * cfg.assoc);
    LP_ASSERT(num_sets > 0);
    // Shift/mask indexing requires power-of-two geometry (true for
    // every Table I level and any sensible cache).
    LP_ASSERT(isPowerOfTwo(cfg.lineBytes));
    LP_ASSERT(isPowerOfTwo(num_sets));
    lineShift = log2u32(cfg.lineBytes);
    setMask = num_sets - 1;
    lineCount = static_cast<size_t>(num_sets) * cfg.assoc;
    if (backing == CacheBacking::Deferred)
        return;
    ownedTags.assign(lineCount, 0);
    tags = ownedTags.data();
    if (tracked) {
        ownedMasks.assign(lineCount, 0);
        masks = ownedMasks.data();
    }
}

Cache::Cache(const Cache &other)
    : cfg(other.cfg), lineShift(other.lineShift),
      setMask(other.setMask), lineCount(other.lineCount),
      tracked(other.tracked), cacheStats(other.cacheStats)
{
    if (!other.tags)
        return; // an unbound Deferred cache copies as unbound
    ownedTags.assign(other.tags, other.tags + lineCount);
    tags = ownedTags.data();
    if (other.masks) {
        ownedMasks.assign(other.masks, other.masks + other.lineCount);
        masks = ownedMasks.data();
    }
}

Cache &
Cache::operator=(const Cache &other)
{
    if (this == &other)
        return *this;
    cfg = other.cfg;
    lineShift = other.lineShift;
    setMask = other.setMask;
    lineCount = other.lineCount;
    tracked = other.tracked;
    cacheStats = other.cacheStats;
    if (!other.tags) {
        ownedTags.clear();
        ownedMasks.clear();
        tags = masks = nullptr;
        return *this;
    }
    ownedTags.assign(other.tags, other.tags + other.lineCount);
    tags = ownedTags.data();
    if (other.masks) {
        ownedMasks.assign(other.masks, other.masks + other.lineCount);
        masks = ownedMasks.data();
    } else {
        ownedMasks.clear();
        masks = nullptr;
    }
    return *this;
}

void
Cache::exportImage(void *dst) const
{
    const size_t bytes = lineCount * sizeof(uint64_t);
    std::memcpy(dst, tags, bytes);
    if (masks)
        std::memcpy(static_cast<unsigned char *>(dst) + bytes, masks,
                    bytes);
}

void
Cache::exportOwnedSets(void *dst, uint32_t fewest_sets,
                       uint32_t partition, uint32_t partitions) const
{
    auto *out = static_cast<unsigned char *>(dst);
    const size_t set_bytes = cfg.assoc * sizeof(uint64_t);
    const size_t mask_offset = lineCount * sizeof(uint64_t);
    for (uint32_t set = 0; set < numSets(); ++set) {
        if (warmPartitionOf(set, fewest_sets, partitions) != partition)
            continue;
        const size_t base = static_cast<size_t>(set) * cfg.assoc;
        std::memcpy(out + base * sizeof(uint64_t), tags + base,
                    set_bytes);
        if (masks)
            std::memcpy(out + mask_offset + base * sizeof(uint64_t),
                        masks + base, set_bytes);
    }
}

void
Cache::bindImage(void *mem)
{
    LP_ASSERT(reinterpret_cast<uintptr_t>(mem) % alignof(uint64_t) == 0);
    tags = static_cast<uint64_t *>(mem);
    ownedTags.clear();
    ownedTags.shrink_to_fit();
    if (tracked) {
        masks = tags + lineCount;
        ownedMasks.clear();
        ownedMasks.shrink_to_fit();
    }
}

CacheHierarchy::CacheHierarchy(const SimConfig &cfg_, uint32_t num_cores,
                               CacheBacking backing)
    : cfg(cfg_), numCores(num_cores),
      l3(cfg_.l3, Cache::Sharers::Tracked, backing)
{
    LP_ASSERT(num_cores >= 1 && num_cores <= 64);
    // One line size throughout: a private line then always maps to
    // exactly one L3 line, which the sharer rule needs.
    LP_ASSERT(cfg.l1i.lineBytes == cfg.l3.lineBytes &&
              cfg.l1d.lineBytes == cfg.l3.lineBytes &&
              cfg.l2.lineBytes == cfg.l3.lineBytes);
    l1d.reserve(num_cores);
    l1i.reserve(num_cores);
    l2.reserve(num_cores);
    for (uint32_t c = 0; c < num_cores; ++c) {
        l1d.emplace_back(cfg.l1d, Cache::Sharers::Untracked, backing);
        l1i.emplace_back(cfg.l1i, Cache::Sharers::Untracked, backing);
        l2.emplace_back(cfg.l2, Cache::Sharers::Untracked, backing);
    }
    dataLat[0] = cfg.l1d.latency;
    dataLat[1] = dataLat[0] + cfg.l2.latency;
    dataLat[2] = dataLat[1] + cfg.l3.latency;
    dataLat[3] = dataLat[2] + cfg.memLatency;
    fetchLat[0] = cfg.l1i.latency;
    fetchLat[1] = fetchLat[0] + cfg.l2.latency;
    fetchLat[2] = fetchLat[1] + cfg.l3.latency;
    fetchLat[3] = fetchLat[2] + cfg.memLatency;
}

void
CacheHierarchy::invalidateOthers(uint32_t core, Addr addr,
                                 uint64_t &sharers)
{
    uint64_t others = sharers & ~(1ull << core);
    while (others) {
        uint32_t other = static_cast<uint32_t>(__builtin_ctzll(others));
        others &= others - 1;
        l1d[other].invalidate(addr);
        l2[other].invalidate(addr);
        // A write leaves the other core's L1-I copy in place, so its
        // sharer bit stays while that copy lives.
        if (!l1i[other].contains(addr))
            sharers &= ~(1ull << other);
    }
}

void
CacheHierarchy::backInvalidate(Addr addr, uint64_t sharers)
{
    // Inclusive L3: evicting a line removes it from private caches.
    // Only the victim's sharers can hold a private copy.
    while (sharers) {
        uint32_t c = static_cast<uint32_t>(__builtin_ctzll(sharers));
        sharers &= sharers - 1;
        l1d[c].invalidate(addr);
        l1i[c].invalidate(addr);
        l2[c].invalidate(addr);
    }
}

MemAccessResult
CacheHierarchy::access(uint32_t core, Addr addr, bool is_write)
{
    // No per-access bounds assert: core ids come from CoreModel
    // instances constructed against this hierarchy's core count.
    MemAccessResult r;
    std::optional<Addr> evicted;
    uint64_t evicted_sharers = 0;

    if (l1d[core].access(addr, core, nullptr)) {
        r.hitLevel = 1;
    } else if (l2[core].access(addr, core, nullptr)) {
        r.hitLevel = 2;
    } else if (l3.access(addr, core, &evicted, &evicted_sharers)) {
        r.hitLevel = 3;
    } else {
        r.hitLevel = 4;
        ++memCount;
        if (evicted)
            backInvalidate(*evicted, evicted_sharers);
    }
    r.latency = dataLat[r.hitLevel - 1];
    if (is_write) {
        // A private hit has not touched the L3, so look the line up
        // (inclusion keeps it resident); an L3 hit left it in the MRU
        // way; an L3 miss inserted it with only this core's bit.
        if (r.hitLevel <= 2) {
            if (uint64_t *sharers = l3.sharerWord(addr))
                invalidateOthers(core, addr, *sharers);
        } else if (r.hitLevel == 3) {
            invalidateOthers(core, addr, l3.mruSharers(addr));
        }
    }

    // Next-line prefetcher: an L2 demand miss pulls the following
    // lines into the L2 and L3 without charging demand latency.
    if (cfg.prefetchDegree > 0 && r.hitLevel >= 3 && !is_write) {
        for (uint32_t d = 1; d <= cfg.prefetchDegree; ++d) {
            Addr pf = addr + static_cast<Addr>(d) * cfg.l2.lineBytes;
            uint64_t pf_sharers = 0;
            if (auto evicted_l3 = l3.fill(pf, core, &pf_sharers))
                backInvalidate(*evicted_l3, pf_sharers);
            l2[core].fill(pf, core);
            ++prefetchCount;
        }
    }
    return r;
}

MemAccessResult
CacheHierarchy::fetch(uint32_t core, Addr pc)
{
    MemAccessResult r;
    std::optional<Addr> evicted;
    uint64_t evicted_sharers = 0;
    if (l1i[core].access(pc, core, nullptr)) {
        r.hitLevel = 1;
    } else if (l2[core].access(pc, core, nullptr)) {
        r.hitLevel = 2;
    } else if (l3.access(pc, core, &evicted, &evicted_sharers)) {
        r.hitLevel = 3;
    } else {
        r.hitLevel = 4;
        ++memCount;
        if (evicted)
            backInvalidate(*evicted, evicted_sharers);
    }
    r.latency = fetchLat[r.hitLevel - 1];
    return r;
}

void
CacheHierarchy::resetStats()
{
    for (uint32_t c = 0; c < numCores; ++c) {
        l1d[c].resetStats();
        l1i[c].resetStats();
        l2[c].resetStats();
    }
    l3.resetStats();
    memCount = 0;
}

// The state image is [u64 prefetch counter][cache images], the images
// in the fixed cache order below. Every piece is a whole number of
// u64 words, so the arrays can be bound in place.
template <typename Fn>
static void
forEachCache(std::vector<Cache> &l1d, std::vector<Cache> &l1i,
             std::vector<Cache> &l2, Cache &l3, Fn &&fn)
{
    for (Cache &c : l1d)
        fn(c);
    for (Cache &c : l1i)
        fn(c);
    for (Cache &c : l2)
        fn(c);
    fn(l3);
}

size_t
CacheHierarchy::stateBytes() const
{
    auto &self = const_cast<CacheHierarchy &>(*this);
    size_t bytes = sizeof(uint64_t);
    forEachCache(self.l1d, self.l1i, self.l2, self.l3,
                 [&](Cache &c) { bytes += c.imageBytes(); });
    return bytes;
}

void
CacheHierarchy::exportState(void *mem) const
{
    auto &self = const_cast<CacheHierarchy &>(*this);
    std::memcpy(mem, &prefetchCount, sizeof(uint64_t));
    auto *blob = static_cast<unsigned char *>(mem) + sizeof(uint64_t);
    forEachCache(self.l1d, self.l1i, self.l2, self.l3, [&](Cache &c) {
        c.exportImage(blob);
        blob += c.imageBytes();
    });
}

uint32_t
CacheHierarchy::fewestSets(const SimConfig &cfg)
{
    uint32_t fewest = UINT32_MAX;
    for (const CacheConfig *c : {&cfg.l1i, &cfg.l1d, &cfg.l2, &cfg.l3})
        fewest = std::min(fewest, c->sizeBytes / (c->lineBytes * c->assoc));
    return fewest;
}

void
CacheHierarchy::exportOwnedSets(void *mem, uint32_t partition,
                                uint32_t partitions) const
{
    auto &self = const_cast<CacheHierarchy &>(*this);
    if (partition == 0)
        std::memcpy(mem, &prefetchCount, sizeof(uint64_t));
    const uint32_t fewest = fewestSets(cfg);
    auto *blob = static_cast<unsigned char *>(mem) + sizeof(uint64_t);
    forEachCache(self.l1d, self.l1i, self.l2, self.l3, [&](Cache &c) {
        c.exportOwnedSets(blob, fewest, partition, partitions);
        blob += c.imageBytes();
    });
}

void
CacheHierarchy::adoptState(void *mem)
{
    std::memcpy(&prefetchCount, mem, sizeof(uint64_t));
    auto *blob = static_cast<unsigned char *>(mem) + sizeof(uint64_t);
    forEachCache(l1d, l1i, l2, l3, [&](Cache &c) {
        c.bindImage(blob);
        blob += c.imageBytes();
    });
}

} // namespace looppoint
