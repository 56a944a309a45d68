/**
 * @file
 * Stage memoization over the content-addressed artifact store: one
 * canonical key per pipeline stage plus the typed codecs that move
 * each stage's artifact in and out of the store.
 *
 * Key discipline (mirrors the run journal's): a stage key is built
 * from (stage code version, workload descriptor, upstream artifact
 * *content hashes*, and only the config fields that stage actually
 * consumes). Chaining on upstream hashes makes invalidation
 * transitive — a new recording re-keys profiling, clustering, and
 * simulation automatically — while the field partition keeps it
 * minimal: changing a cache size re-keys only the simulation stages,
 * and host-side knobs (jobs, obs, retries, ...) appear in no
 * key at all.
 *
 *   record   f(program, threads, wait policy, seed, flow quantum)
 *   profile  f(record hash, slice size, spin filter, flow quantum)
 *   cluster  f(profile hash, maxK, projection dims, BIC threshold,
 *              seed)
 *   sim      f(cluster hash, uarch partition, constrained)
 *   warm     f(cluster hash, warm partition, constrained, region)
 *   fullsim  f(program, threads, wait policy, seed, uarch partition)
 *
 * The warm partition (SimConfig::warmKeyText: cache geometry, prefetch
 * degree, predictor) is a strict subset of the uarch partition: one
 * region's warm checkpoint serves every uarch that differs only in
 * latencies or the core, so those points skip the serial warming pass.
 */

#ifndef LOOPPOINT_STORE_STAGE_CACHE_HH
#define LOOPPOINT_STORE_STAGE_CACHE_HH

#include <optional>
#include <string>
#include <vector>

#include "core/looppoint.hh"
#include "core/run_journal.hh"
#include "pinball/pinball.hh"
#include "profile/bbv.hh"
#include "sim/config.hh"
#include "store/artifact_store.hh"

namespace looppoint {

/** See file comment. */
class StageCache
{
  public:
    explicit StageCache(ArtifactStore &store_) : backing(&store_) {}

    // ---- canonical stage keys (pure functions of config) ----
    static std::string recordKey(const std::string &program_name,
                                 const LoopPointOptions &opts);
    static std::string profileKey(const std::string &record_hash,
                                  const LoopPointOptions &opts);
    static std::string clusterKey(const std::string &profile_hash,
                                  const LoopPointOptions &opts);
    static std::string simKey(const std::string &cluster_hash,
                              const SimConfig &sim_cfg,
                              bool constrained);
    static std::string warmKey(const std::string &cluster_hash,
                               const SimConfig &sim_cfg,
                               bool constrained, uint32_t region);
    static std::string fullSimKey(const std::string &program_name,
                                  uint32_t threads,
                                  WaitPolicy wait_policy, uint64_t seed,
                                  const SimConfig &sim_cfg);

    // ---- recording ----
    struct PinballHit
    {
        Pinball pinball;
        std::string hash;
    };
    std::optional<PinballHit> loadPinball(const std::string &key);
    std::string publishPinball(const std::string &key,
                               const Pinball &pinball);

    // ---- profiling (slices) ----
    struct SlicesHit
    {
        std::vector<SliceRecord> slices;
        std::string hash;
    };
    std::optional<SlicesHit> loadSlices(const std::string &key);
    std::string publishSlices(const std::string &key,
                              const std::vector<SliceRecord> &slices);

    // ---- clustering / representative selection ----
    struct ClusterArtifact
    {
        std::vector<uint32_t> assignment;
        uint32_t chosenK = 0;
        std::vector<double> bicByK;
        std::vector<LoopPointRegion> regions;
    };
    struct ClusterHit
    {
        ClusterArtifact art;
        std::string hash;
    };
    std::optional<ClusterHit> loadCluster(const std::string &key);
    std::string publishCluster(const std::string &key,
                               const ClusterArtifact &art);

    // ---- per-region simulation results ----
    /**
     * Load the cached region metrics for `key` and validate them
     * against the regions the current analysis selected (index,
     * markers, multiplier — the journal's identity check). A mismatch
     * is a miss, never an error: the caller recomputes and the new
     * publish rebinds the key.
     */
    std::optional<std::vector<RunJournal::Record>> loadSimResults(
        const std::string &key,
        const std::vector<LoopPointRegion> &regions);
    void publishSimResults(const std::string &key,
                           const std::vector<RunJournal::Record> &recs);

    // ---- per-region warm checkpoints ----
    /** The key is bound (manifest only: nothing is read or counted). */
    bool hasWarm(const std::string &key);
    /** The integrity-checked checkpoint payload (format: WarmSnapshot
     * in core/region_run.hh; decoding is the caller's). */
    std::optional<std::string> loadWarm(const std::string &key);
    void publishWarm(const std::string &key, const std::string &payload);

    // ---- whole-program ground-truth simulation ----
    std::optional<SimMetrics> loadFullSim(const std::string &key);
    void publishFullSim(const std::string &key, const SimMetrics &m);

    ArtifactStore &store() { return *backing; }

  private:
    ArtifactStore *backing;
};

} // namespace looppoint

#endif // LOOPPOINT_STORE_STAGE_CACHE_HH
