/**
 * @file
 * K-means clustering with BIC-based model selection, reproducing the
 * SimPoint 3.x procedure LoopPoint relies on (Section III-E): project
 * BBVs to a low dimension with a random linear projection, run k-means
 * for k = 1..maxK, score each clustering with the Bayesian Information
 * Criterion, and pick the smallest k whose (normalized) BIC reaches a
 * threshold of the best score.
 */

#ifndef LOOPPOINT_CLUSTER_KMEANS_HH
#define LOOPPOINT_CLUSTER_KMEANS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hh"

namespace looppoint {

class ThreadPool;

/** Dense feature matrix: one row per slice. */
using FeatureMatrix = std::vector<std::vector<double>>;

/** Result of one k-means run. */
struct KmeansResult
{
    uint32_t k = 0;
    std::vector<uint32_t> assignment; ///< per-row cluster id
    FeatureMatrix centroids;
    /** Sum of squared distances to assigned centroids. */
    double distortion = 0.0;
    /** Number of Lloyd iterations executed. */
    uint32_t iterations = 0;
    /** Squared-difference terms evaluated (the work the pruning left). */
    uint64_t distanceTerms = 0;
};

/**
 * Lloyd's algorithm with k-means++ seeding. Deterministic for a given
 * rng state. Requires 1 <= k <= rows. Distance sums whose outcome is
 * already decided stop early; assignment, centroids, distortion and
 * iteration count are bit-identical to the unpruned algorithm.
 */
KmeansResult kmeans(const FeatureMatrix &points, uint32_t k, Rng &rng,
                    uint32_t max_iters = 100);

/**
 * Bayesian Information Criterion of a clustering (Pelleg-Moore
 * X-means formulation with a spherical Gaussian model). Higher is
 * better.
 */
double bicScore(const FeatureMatrix &points, const KmeansResult &result);

/** Outcome of the full SimPoint-style model selection. */
struct ClusteringResult
{
    KmeansResult best;
    /** (k, BIC) for each scanned k, ascending in k. */
    std::vector<std::pair<uint32_t, double>> bicByK;
    uint32_t chosenK = 0;
    /** Sum of per-candidate k-means wall times (serial-equivalent). */
    double candidateWallSeconds = 0.0;
    /** Measured wall time of the whole sweep. */
    double sweepWallSeconds = 0.0;
};

/**
 * The k values simpointCluster scans for `rows` points: every value up
 * to 16, then coarser steps, clamped to at most rows / 2.
 */
std::vector<uint32_t> simpointCandidateKs(size_t rows, uint32_t max_k);

/**
 * Scan k over 1..maxK (every value up to 16, then coarser steps, all
 * clamped to the number of rows), score with BIC, and choose the
 * smallest scanned k whose normalized BIC is >= bic_threshold — the
 * SimPoint 3.x selection rule.
 *
 * With `pool`, the K candidates run as one pool task each; every
 * candidate's RNG is seeded from (seed, k), so the result is
 * bit-identical to the serial sweep for any worker count.
 */
ClusteringResult simpointCluster(const FeatureMatrix &points,
                                 uint32_t max_k, uint64_t seed,
                                 double bic_threshold = 0.9,
                                 ThreadPool *pool = nullptr);

/**
 * Index of the row closest to each centroid (the cluster
 * representatives), one per cluster.
 */
std::vector<uint32_t> pickRepresentatives(const FeatureMatrix &points,
                                          const KmeansResult &result);

/**
 * Index of the cluster member nearest to the cluster's centroid,
 * skipping row `exclude` (pass points.size() or larger to exclude
 * nothing). Ties break to the lowest index. Returns points.size()
 * when the cluster has no eligible member. Shared by representative
 * selection and the startup-transient guard so the two distance
 * computations cannot drift.
 */
size_t nearestMemberToCentroid(const FeatureMatrix &points,
                               const KmeansResult &result,
                               uint32_t cluster,
                               size_t exclude = ~size_t{0});

/**
 * Deterministic random linear projection of sparse vectors.
 *
 * Callers provide each row as (dimension, value) pairs over an
 * arbitrarily large sparse space; entries of the projection matrix are
 * derived from a hash of (seed, dimension, output dim), uniform in
 * [-1, 1], so no matrix is ever materialized.
 */
class RandomProjector
{
  public:
    RandomProjector(uint32_t out_dims, uint64_t seed);

    uint32_t outDims() const { return dims; }

    /** Project one sparse row. */
    std::vector<double>
    project(const std::vector<std::pair<uint64_t, double>> &row) const;

  private:
    uint32_t dims;
    uint64_t seed;
};

} // namespace looppoint

#endif // LOOPPOINT_CLUSTER_KMEANS_HH
