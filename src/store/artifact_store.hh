/**
 * @file
 * Content-addressed artifact store: the on-disk substrate of pipeline
 * stage memoization (paper Section II economics — record, profile and
 * cluster once, share the artifacts, re-run only detailed simulation).
 *
 * Layout under the store directory:
 *
 *   .lock                 flock target serializing mutations
 *   manifest              stage key -> content hash binding (text)
 *   objects/<sha1>        one artifact per content hash, framed with
 *                         the pinball_io magic/version/length/CRC32
 *                         envelope so every load is integrity-checked
 *
 * The manifest is line-oriented and human-readable, with the
 * journal's ` crc=XXXXXXXX` trailer per line:
 *
 *   looppoint-store-v1 crc=...
 *   entry stage=<stage> key=<key-text> hash=<sha1> bytes=<n> crc=...
 *
 * The manifest is a CrcLog (util/crc_log.hh): a publish appends one
 * line, and a key bound twice resolves to its last line. An eviction
 * or gc() rewrites it atomically, one line per key.
 *
 * Concurrency contract: every mutation (publish, gc) and every lookup
 * holds an exclusive flock on `.lock` and reloads the manifest first,
 * so pool workers, parallel campaigns, and concurrent processes
 * share one store without torn state. A lookup holds it only to
 * resolve the binding and open the object; reading and both integrity
 * checks run unlocked on the open descriptor, and an eviction re-takes
 * the lock. Objects are published atomically (tmp + rename); a crash
 * mid-publish leaves at worst an orphaned object that the next gc
 * collects, or a torn manifest line that the next publish cuts off.
 *
 * A corrupt object (truncated, bit-flipped, wrong length) is treated
 * as data, not a fatal error: the lookup counts it, unlinks it, drops
 * its manifest entries, and reports a miss — the caller transparently
 * recomputes and republishes.
 */

#ifndef LOOPPOINT_STORE_ARTIFACT_STORE_HH
#define LOOPPOINT_STORE_ARTIFACT_STORE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/crc_log.hh"

namespace looppoint {

/** Monotonic per-instance operation counters (always on, unlike the
 * obs registry, so smoke tests can assert on them without --metrics;
 * the registry mirrors these under `store.*` when metrics are armed). */
struct StoreStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t publishes = 0;
    /** Objects that failed their integrity check and were evicted. */
    uint64_t corruptEntries = 0;
    /** Publishes abandoned because the object could not be written
     * (ENOSPC, short write, failed rename). The tmp file is removed,
     * no manifest binding is made, and the run continues — the next
     * run recomputes and retries. */
    uint64_t failedPublishes = 0;
    /** Bytes written for new objects (framed size). */
    uint64_t bytesStored = 0;
    /** Payload bytes a publish did NOT write because the content hash
     * already existed — the measure of cross-key deduplication. */
    uint64_t bytesDeduped = 0;
    /** Payload bytes served by hits. */
    uint64_t bytesRead = 0;
};

/** See file comment. */
class ArtifactStore
{
  public:
    /** Opens (creating if needed) the store at `dir`. */
    explicit ArtifactStore(std::string dir);
    ~ArtifactStore();

    ArtifactStore(const ArtifactStore &) = delete;
    ArtifactStore &operator=(const ArtifactStore &) = delete;

    /** A successful lookup: the artifact payload and its content
     * hash (the hash downstream stage keys chain on). */
    struct Hit
    {
        std::string payload;
        std::string hash;
    };

    /**
     * Fetch the artifact bound to (stage, key), verifying the framing
     * CRC32 and the content hash on the way in. Returns nullopt on a
     * miss; corrupt entries are evicted and reported as misses (see
     * file comment). A hit touches the object's mtime — the LRU clock
     * gc() evicts by.
     */
    std::optional<Hit> lookup(const std::string &stage,
                              const std::string &key);

    /**
     * Store `payload` under its content hash and bind (stage, key) to
     * it in the manifest. Re-publishing identical content is free
     * (counted as deduplication). Returns the content hash.
     *
     * A write failure (ENOSPC, short write, failed rename) does not
     * abort: it is logged, counted in failedPublishes, the tmp file
     * is removed, and the hash is returned without a manifest binding
     * — so downstream keys still chain correctly while the next run
     * recomputes and retries the publish.
     */
    std::string publish(const std::string &stage, const std::string &key,
                        const std::string &payload);

    /** The manifest hash for (stage, key) without loading the object. */
    std::optional<std::string> hashFor(const std::string &stage,
                                       const std::string &key);

    /** One manifest binding, for `lp_store ls` and reports. */
    struct Entry
    {
        std::string stage;
        std::string key;
        std::string hash;
        uint64_t bytes = 0;
    };

    /** Snapshot of the manifest (reloaded from disk). */
    std::vector<Entry> entries();

    struct GcResult
    {
        uint64_t removedObjects = 0;
        uint64_t removedBytes = 0;
        uint64_t keptObjects = 0;
        uint64_t keptBytes = 0;
        /** Manifest bindings dropped because their object was
         * evicted (or already missing). */
        uint64_t droppedEntries = 0;
    };

    /**
     * Shrink the store to at most `max_bytes` of objects by evicting
     * least-recently-used (oldest mtime) objects first, dropping their
     * manifest bindings. Orphaned objects (no binding) are preferred
     * eviction victims at equal age. Compacts the manifest to one
     * line per binding. With `dry_run`, only reports.
     */
    GcResult gc(uint64_t max_bytes, bool dry_run = false);

    /**
     * Integrity-check every object against its framing and manifest
     * hash. Returns the number of corrupt or missing objects (their
     * bindings are left in place; a later lookup evicts them).
     * `visit` sees each entry whose object passed, with its payload.
     */
    size_t verify(const std::function<void(const Entry &,
                                           const std::string &)>
                      &visit = {});

    StoreStats stats() const;
    const std::string &dir() const { return rootDir; }

  private:
    struct LockGuard;

    std::string objectPath(const std::string &hash) const;

    /** Re-read the manifest from disk. Caller holds the flock. */
    void reloadManifestLocked();
    /** Atomically rewrite the manifest. Caller holds the flock. */
    bool rewriteManifestLocked();

    void countHit(const std::string &stage, uint64_t payload_bytes);
    void countMiss(const std::string &stage);

    std::string rootDir;
    int lockFd = -1;
    /** In-process serialization; the flock serializes processes. */
    std::mutex mu;
    CrcLog manifestLog;
    /** (stage, key) -> entry, rebuilt from disk under the lock. */
    std::map<std::pair<std::string, std::string>, Entry> manifest;

    std::atomic<uint64_t> nHits{0}, nMisses{0}, nPublishes{0},
        nCorrupt{0}, nFailedPublishes{0}, nBytesStored{0},
        nBytesDeduped{0}, nBytesRead{0};
};

} // namespace looppoint

#endif // LOOPPOINT_STORE_ARTIFACT_STORE_HH
