/**
 * @file
 * Tests for k-means, BIC model selection, representatives, and the
 * random projection. The pruned production k-means is checked bit for
 * bit against the textbook loop kept here as its oracle.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>

#include "cluster/kmeans.hh"
#include "core/looppoint.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/descriptor.hh"

namespace looppoint {
namespace {

/**
 * Reference k-means: Lloyd's algorithm with k-means++ seeding, every
 * distance summed in full (`distanceTerms` counts them). `reseeds`
 * counts empty-cluster reseeds.
 */
KmeansResult
referenceKmeans(const FeatureMatrix &points, uint32_t k, Rng &rng,
                uint32_t *reseeds = nullptr, uint32_t max_iters = 100)
{
    const size_t n = points.size();
    const size_t d = points[0].size();

    KmeansResult res;
    res.k = k;
    auto refSqDist = [&](const std::vector<double> &a,
                         const std::vector<double> &b) {
        double sum = 0.0;
        for (size_t i = 0; i < a.size(); ++i) {
            double diff = a[i] - b[i];
            sum += diff * diff;
        }
        res.distanceTerms += a.size();
        return sum;
    };

    // k-means++ seeding.
    std::vector<size_t> seeds;
    seeds.push_back(rng.nextBounded(n));
    std::vector<double> min_d2(n, std::numeric_limits<double>::max());
    while (seeds.size() < k) {
        for (size_t i = 0; i < n; ++i) {
            double d2 = refSqDist(points[i], points[seeds.back()]);
            min_d2[i] = std::min(min_d2[i], d2);
        }
        double total = 0.0;
        for (double v : min_d2)
            total += v;
        size_t chosen;
        if (total <= 0.0) {
            chosen = rng.nextBounded(n); // all points identical
        } else {
            double target = rng.nextDouble() * total;
            double acc = 0.0;
            chosen = n - 1;
            for (size_t i = 0; i < n; ++i) {
                acc += min_d2[i];
                if (acc >= target) {
                    chosen = i;
                    break;
                }
            }
        }
        seeds.push_back(chosen);
    }
    res.centroids.clear();
    for (size_t s : seeds)
        res.centroids.push_back(points[s]);

    res.assignment.assign(n, 0);
    for (uint32_t iter = 0; iter < max_iters; ++iter) {
        res.iterations = iter + 1;
        // Assignment step.
        bool changed = false;
        for (size_t i = 0; i < n; ++i) {
            double best = std::numeric_limits<double>::max();
            uint32_t best_c = 0;
            for (uint32_t c = 0; c < k; ++c) {
                double d2 = refSqDist(points[i], res.centroids[c]);
                if (d2 < best) {
                    best = d2;
                    best_c = c;
                }
            }
            if (res.assignment[i] != best_c) {
                res.assignment[i] = best_c;
                changed = true;
            }
        }
        // Update step.
        FeatureMatrix sums(k, std::vector<double>(d, 0.0));
        std::vector<size_t> counts(k, 0);
        for (size_t i = 0; i < n; ++i) {
            uint32_t c = res.assignment[i];
            ++counts[c];
            for (size_t j = 0; j < d; ++j)
                sums[c][j] += points[i][j];
        }
        for (uint32_t c = 0; c < k; ++c) {
            if (counts[c] == 0) {
                // Re-seed an empty cluster at the point farthest from
                // its centroid (centroids below c already moved).
                size_t far_i = 0;
                double far_d = -1.0;
                for (size_t i = 0; i < n; ++i) {
                    double d2 = refSqDist(points[i],
                                          res.centroids[res.assignment[i]]);
                    if (d2 > far_d) {
                        far_d = d2;
                        far_i = i;
                    }
                }
                res.centroids[c] = points[far_i];
                if (reseeds)
                    ++*reseeds;
                changed = true;
                continue;
            }
            for (size_t j = 0; j < d; ++j)
                res.centroids[c][j] =
                    sums[c][j] / static_cast<double>(counts[c]);
        }
        if (!changed)
            break;
    }

    res.distortion = 0.0;
    for (size_t i = 0; i < n; ++i)
        res.distortion += refSqDist(points[i],
                                    res.centroids[res.assignment[i]]);
    return res;
}

void
expectKmeansIdentical(const KmeansResult &ref, const KmeansResult &opt,
                      const FeatureMatrix &points)
{
    EXPECT_EQ(ref.k, opt.k);
    EXPECT_EQ(ref.assignment, opt.assignment);
    EXPECT_EQ(ref.centroids, opt.centroids);
    EXPECT_EQ(ref.distortion, opt.distortion);
    EXPECT_EQ(ref.iterations, opt.iterations);
    EXPECT_EQ(bicScore(points, ref), bicScore(points, opt));
}

/**
 * Every k of simpointCluster's scan, seeded as the sweep seeds it:
 * the production kernel must equal the reference bit for bit.
 * Returns the reference's total empty-cluster reseeds.
 */
uint32_t
expectSweepMatchesReference(const FeatureMatrix &points, uint64_t seed,
                            uint32_t max_k = 50)
{
    uint32_t reseeds = 0;
    for (uint32_t k : simpointCandidateKs(points.size(), max_k)) {
        SCOPED_TRACE("k=" + std::to_string(k));
        Rng r1(hashCombine(seed, k)), r2(hashCombine(seed, k));
        KmeansResult ref = referenceKmeans(points, k, r1, &reseeds);
        KmeansResult opt = kmeans(points, k, r2);
        expectKmeansIdentical(ref, opt, points);
        // Pruning never adds work.
        EXPECT_GT(opt.distanceTerms, 0u);
        EXPECT_LE(opt.distanceTerms, ref.distanceTerms);
    }
    return reseeds;
}

/**
 * Small-integer features: many duplicate rows and exactly tied
 * distances, the cases where tie-breaking and bound checks decide.
 */
FeatureMatrix
makeTiedGrid(size_t rows, size_t dims, uint64_t levels, uint64_t seed)
{
    Rng rng(seed);
    FeatureMatrix points(rows, std::vector<double>(dims));
    for (auto &row : points)
        for (double &v : row)
            v = static_cast<double>(rng.nextBounded(levels));
    return points;
}

/** Three well-separated Gaussian blobs in 2-D. */
FeatureMatrix
makeBlobs(size_t per_blob, uint64_t seed)
{
    Rng rng(seed);
    FeatureMatrix points;
    const double centers[3][2] = {{0, 0}, {10, 10}, {-10, 12}};
    for (int b = 0; b < 3; ++b)
        for (size_t i = 0; i < per_blob; ++i)
            points.push_back({centers[b][0] + rng.nextGaussian() * 0.5,
                              centers[b][1] + rng.nextGaussian() * 0.5});
    return points;
}

TEST(Kmeans, RecoversBlobs)
{
    FeatureMatrix points = makeBlobs(30, 5);
    Rng rng(9);
    KmeansResult r = kmeans(points, 3, rng);
    EXPECT_EQ(r.k, 3u);
    // All points of one blob share a cluster.
    for (int b = 0; b < 3; ++b) {
        uint32_t c = r.assignment[b * 30];
        for (size_t i = 0; i < 30; ++i)
            EXPECT_EQ(r.assignment[b * 30 + i], c);
    }
    // Distinct blobs get distinct clusters.
    EXPECT_NE(r.assignment[0], r.assignment[30]);
    EXPECT_NE(r.assignment[30], r.assignment[60]);
    EXPECT_LT(r.distortion, 90 * 1.0);
}

TEST(Kmeans, DeterministicForSameRngSeed)
{
    FeatureMatrix points = makeBlobs(20, 7);
    Rng r1(3), r2(3);
    KmeansResult a = kmeans(points, 4, r1);
    KmeansResult b = kmeans(points, 4, r2);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_DOUBLE_EQ(a.distortion, b.distortion);
}

TEST(Kmeans, KEqualsNGivesZeroDistortion)
{
    FeatureMatrix points{{0, 0}, {5, 5}, {9, 1}};
    Rng rng(1);
    KmeansResult r = kmeans(points, 3, rng);
    EXPECT_NEAR(r.distortion, 0.0, 1e-12);
}

TEST(Kmeans, RejectsBadK)
{
    FeatureMatrix points{{0, 0}, {1, 1}};
    Rng rng(1);
    EXPECT_THROW(kmeans(points, 0, rng), FatalError);
    EXPECT_THROW(kmeans(points, 3, rng), FatalError);
    EXPECT_THROW(kmeans({}, 1, rng), FatalError);
}

TEST(Kmeans, HandlesIdenticalPoints)
{
    FeatureMatrix points(10, std::vector<double>{1.0, 2.0});
    Rng rng(2);
    KmeansResult r = kmeans(points, 2, rng);
    EXPECT_NEAR(r.distortion, 0.0, 1e-12);
}

TEST(Bic, PrefersTrueK)
{
    FeatureMatrix points = makeBlobs(40, 11);
    double bic1, bic3, bic7;
    {
        Rng rng(4);
        bic1 = bicScore(points, kmeans(points, 1, rng));
    }
    {
        Rng rng(4);
        bic3 = bicScore(points, kmeans(points, 3, rng));
    }
    {
        Rng rng(4);
        bic7 = bicScore(points, kmeans(points, 7, rng));
    }
    EXPECT_GT(bic3, bic1);
    // BIC's parameter penalty keeps k=7 from dominating k=3.
    EXPECT_GT(bic3, bic7 - std::fabs(bic7) * 0.05);
}

TEST(SimpointCluster, ChoosesNearTrueK)
{
    FeatureMatrix points = makeBlobs(40, 13);
    ClusteringResult r = simpointCluster(points, 20, 99);
    EXPECT_GE(r.chosenK, 3u);
    EXPECT_LE(r.chosenK, 6u);
    EXPECT_EQ(r.best.assignment.size(), points.size());
}

TEST(SimpointCluster, ClampsKToPointCount)
{
    FeatureMatrix points{{0, 0}, {10, 10}};
    ClusteringResult r = simpointCluster(points, 50, 1);
    EXPECT_LE(r.chosenK, 2u);
}

TEST(SimpointCluster, ScansCoarselyAboveSixteen)
{
    FeatureMatrix points = makeBlobs(30, 17); // 90 points
    ClusteringResult r = simpointCluster(points, 50, 21);
    // k=1..16 all scanned, then steps; far fewer than 50 runs. The
    // scan is capped at n/2 = 45 to avoid degenerate clusterings.
    EXPECT_LT(r.bicByK.size(), 35u);
    EXPECT_EQ(r.bicByK.front().first, 1u);
    EXPECT_EQ(r.bicByK.back().first, 45u);
}

TEST(Representatives, ClosestToCentroid)
{
    FeatureMatrix points = makeBlobs(25, 19);
    Rng rng(6);
    KmeansResult km = kmeans(points, 3, rng);
    auto reps = pickRepresentatives(points, km);
    ASSERT_EQ(reps.size(), 3u);
    for (uint32_t c = 0; c < 3; ++c) {
        // The representative belongs to its own cluster.
        EXPECT_EQ(km.assignment[reps[c]], c);
    }
}

TEST(KmeansOracle, TiedGridsMatchReference)
{
    // Few distinct rows: duplicates everywhere, exact distance ties.
    expectSweepMatchesReference(makeTiedGrid(120, 3, 3, 1), 11);
    expectSweepMatchesReference(makeTiedGrid(200, 16, 2, 2), 12);
    // Long rows exercise the blocked bound checks.
    expectSweepMatchesReference(makeTiedGrid(150, 37, 4, 3), 13);
}

TEST(KmeansOracle, RandomMatricesMatchReference)
{
    for (uint64_t seed : {21u, 22u}) {
        Rng rng(seed);
        FeatureMatrix points(180, std::vector<double>(24));
        for (auto &row : points)
            for (double &v : row)
                v = rng.nextGaussian();
        // Exact duplicates of some rows.
        for (size_t i = 0; i < 30; ++i)
            points[150 + i] = points[i * 3];
        expectSweepMatchesReference(points, seed);
    }
}

TEST(KmeansOracle, EmptyClusterReseedingMatchesReference)
{
    // Three distinct rows: once k exceeds three, k-means++ seeds land
    // on duplicates, their clusters empty out, and the reseed scan
    // reads centroids the same pass already moved.
    FeatureMatrix points;
    for (size_t i = 0; i < 40; ++i)
        points.push_back(i % 3 == 0   ? std::vector<double>{0.0, 0.0}
                         : i % 3 == 1 ? std::vector<double>{4.0, 0.0}
                                      : std::vector<double>{0.0, 3.0});
    points.push_back({1.0, 1.0});
    const uint32_t reseeds = expectSweepMatchesReference(points, 5, 20);
    EXPECT_GT(reseeds, 0u) << "the case must force empty clusters";
}

/** Projected features of a real app's slices, as analyze() builds them. */
FeatureMatrix
appFeatures(const char *app_name)
{
    const AppDescriptor &app = findApp(app_name);
    LoopPointOptions opts;
    opts.numThreads = app.effectiveThreads(4);
    opts.sliceSizePerThread = 20'000;
    Program prog = generateProgram(app, InputClass::Train);
    LoopPointResult lp = LoopPointPipeline(prog, opts).analyze();
    return buildFeatureMatrix(prog, lp.slices, opts.projectionDims,
                              opts.seed);
}

TEST(KmeansOracle, RealAppFeaturesMatchReference)
{
    for (const char *app : {"654.roms_s.1", "628.pop2_s.1"}) {
        SCOPED_TRACE(app);
        FeatureMatrix points = appFeatures(app);
        ASSERT_GT(points.size(), 100u);
        expectSweepMatchesReference(points, hashCombine(42, 0xc1u));
    }
}

TEST(KmeansOracle, SimpointClusterMatchesReferenceAtAnyJobs)
{
    FeatureMatrix points = appFeatures("654.roms_s.1");
    const uint64_t seed = hashCombine(42, 0xc1u);
    std::vector<KmeansResult> ref_runs;
    for (uint32_t k : simpointCandidateKs(points.size(), 50)) {
        Rng rng(hashCombine(seed, k));
        ref_runs.push_back(referenceKmeans(points, k, rng));
    }
    for (uint32_t jobs : {1u, 2u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        std::optional<ThreadPool> pool;
        if (jobs > 1)
            pool.emplace(jobs);
        ClusteringResult r = simpointCluster(
            points, 50, seed, 0.9, pool ? &*pool : nullptr);
        ASSERT_EQ(r.bicByK.size(), ref_runs.size());
        size_t chosen = ref_runs.size();
        for (size_t i = 0; i < ref_runs.size(); ++i) {
            EXPECT_EQ(r.bicByK[i].first, ref_runs[i].k);
            EXPECT_EQ(r.bicByK[i].second,
                      bicScore(points, ref_runs[i]));
            if (ref_runs[i].k == r.chosenK)
                chosen = i;
        }
        ASSERT_LT(chosen, ref_runs.size());
        expectKmeansIdentical(ref_runs[chosen], r.best, points);
    }
}

TEST(RandomProjector, DeterministicAndLinear)
{
    RandomProjector proj(16, 77);
    std::vector<std::pair<uint64_t, double>> row{{5, 1.0}, {900, 2.0}};
    auto a = proj.project(row);
    auto b = proj.project(row);
    EXPECT_EQ(a, b);

    // Linearity: project(2x) == 2 * project(x).
    std::vector<std::pair<uint64_t, double>> row2{{5, 2.0}, {900, 4.0}};
    auto c = proj.project(row2);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(c[i], 2.0 * a[i], 1e-12);
}

TEST(RandomProjector, SeparatesDistinctRows)
{
    RandomProjector proj(32, 88);
    auto a = proj.project({{1, 1.0}});
    auto b = proj.project({{2, 1.0}});
    double dist = 0;
    for (size_t i = 0; i < a.size(); ++i)
        dist += (a[i] - b[i]) * (a[i] - b[i]);
    EXPECT_GT(dist, 1.0);
}

TEST(RandomProjector, DifferentSeedsDiffer)
{
    RandomProjector p1(8, 1), p2(8, 2);
    auto a = p1.project({{42, 1.0}});
    auto b = p2.project({{42, 1.0}});
    EXPECT_NE(a, b);
}

} // namespace
} // namespace looppoint
