#include "cluster/kmeans.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace looppoint {

namespace {

double
sqDist(const std::vector<double> &a, const std::vector<double> &b)
{
    LP_ASSERT(a.size() == b.size());
    double d = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        double diff = a[i] - b[i];
        d += diff * diff;
    }
    return d;
}

/** Row-major copy of a feature matrix: one allocation, no row chasing. */
struct FlatRows
{
    size_t rows = 0;
    size_t dims = 0;
    std::vector<double> data;

    explicit FlatRows(const FeatureMatrix &points)
        : rows(points.size()), dims(points.empty() ? 0 : points[0].size())
    {
        data.reserve(rows * dims);
        for (const auto &row : points) {
            LP_ASSERT(row.size() == dims);
            data.insert(data.end(), row.begin(), row.end());
        }
    }

    const double *row(size_t i) const { return data.data() + i * dims; }
};

/**
 * Squared distance summed term by term in index order — the exact
 * sequence of roundings sqDist() makes — but abandoned once the
 * partial sum reaches `cutoff` (when `or_equal`) or exceeds it.
 * Every term is non-negative, and under round-to-nearest adding a
 * non-negative term never makes a sum smaller, so an abandoned sum
 * would have finished at least as large as the cutoff. Returns the
 * full distance, or a value at or past the cutoff; `terms` counts
 * the squared differences evaluated.
 */
double
boundedSqDist(const double *a, const double *b, size_t d, double cutoff,
              bool or_equal, uint64_t &terms)
{
    double sum = 0.0;
    size_t j = 0;
    // Check the bound once per block of terms: a late exit only
    // costs work, never exactness.
    constexpr size_t kBlock = 8;
    while (j < d) {
        const size_t stop = std::min(d, j + kBlock);
        for (; j < stop; ++j) {
            const double diff = a[j] - b[j];
            sum += diff * diff;
        }
        if (sum > cutoff || (or_equal && sum == cutoff))
            break;
    }
    terms += j;
    return sum;
}

double
flatSqDist(const double *a, const double *b, size_t d, uint64_t &terms)
{
    double sum = 0.0;
    for (size_t j = 0; j < d; ++j) {
        const double diff = a[j] - b[j];
        sum += diff * diff;
    }
    terms += d;
    return sum;
}

/**
 * Lloyd's algorithm with k-means++ seeding over flat rows. Makes the
 * same random draws, floating-point operations and tie breaks as the
 * textbook loop (tests/test_cluster.cc keeps it as the oracle), and
 * skips only distance sums whose outcome is already decided:
 *
 *  - seeding keeps min(min_d2, d2) per point, so a point's sum stops
 *    as soon as it reaches the point's current min_d2;
 *  - assignment takes the lowest-index nearest centroid; the point's
 *    previous centroid gives an exact first bound, and any other
 *    centroid's sum stops once it exceeds the best so far, or equals
 *    it at a higher index.
 */
KmeansResult
kmeansFlat(const FlatRows &pts, uint32_t k, Rng &rng,
           uint32_t max_iters = 100)
{
    const size_t n = pts.rows;
    if (n == 0)
        fatal("kmeans: empty input");
    if (k == 0 || k > n)
        fatal("kmeans: k=%u out of range for %zu points", k, n);
    const size_t d = pts.dims;
    uint64_t terms = 0;

    KmeansResult res;
    res.k = k;

    // k-means++ seeding.
    std::vector<size_t> seeds;
    seeds.push_back(rng.nextBounded(n));
    std::vector<double> min_d2(n, std::numeric_limits<double>::max());
    while (seeds.size() < k) {
        const double *seed_row = pts.row(seeds.back());
        for (size_t i = 0; i < n; ++i) {
            const double d2 = boundedSqDist(pts.row(i), seed_row, d,
                                            min_d2[i], true, terms);
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
    std::vector<double> cent(static_cast<size_t>(k) * d);
    for (uint32_t c = 0; c < k; ++c)
        std::copy_n(pts.row(seeds[c]), d, cent.data() + c * d);
    auto centroid = [&](uint32_t c) { return cent.data() + c * d; };

    res.assignment.assign(n, 0);
    std::vector<double> sums(static_cast<size_t>(k) * d);
    std::vector<size_t> counts(k);
    for (uint32_t iter = 0; iter < max_iters; ++iter) {
        res.iterations = iter + 1;
        // Assignment step.
        bool changed = false;
        for (size_t i = 0; i < n; ++i) {
            const double *row = pts.row(i);
            const uint32_t prev = res.assignment[i];
            double best = flatSqDist(row, centroid(prev), d, terms);
            uint32_t best_c = prev;
            for (uint32_t c = 0; c < k; ++c) {
                if (c == prev)
                    continue;
                const double d2 = boundedSqDist(row, centroid(c), d, best,
                                                c > best_c, terms);
                if (d2 < best || (d2 == best && c < best_c)) {
                    best = d2;
                    best_c = c;
                }
            }
            if (prev != best_c) {
                res.assignment[i] = best_c;
                changed = true;
            }
        }
        // Update step.
        std::fill(sums.begin(), sums.end(), 0.0);
        std::fill(counts.begin(), counts.end(), 0);
        for (size_t i = 0; i < n; ++i) {
            const uint32_t c = res.assignment[i];
            ++counts[c];
            const double *row = pts.row(i);
            double *sum = sums.data() + c * d;
            for (size_t j = 0; j < d; ++j)
                sum[j] += row[j];
        }
        for (uint32_t c = 0; c < k; ++c) {
            if (counts[c] == 0) {
                // Re-seed an empty cluster at the point farthest from
                // its centroid. Centroids below c already moved in
                // this pass, and the scan sees their new values.
                size_t far_i = 0;
                double far_d = -1.0;
                for (size_t i = 0; i < n; ++i) {
                    const double d2 = flatSqDist(
                        pts.row(i), centroid(res.assignment[i]), d, terms);
                    if (d2 > far_d) {
                        far_d = d2;
                        far_i = i;
                    }
                }
                std::copy_n(pts.row(far_i), d, centroid(c));
                changed = true;
                continue;
            }
            const double *sum = sums.data() + c * d;
            double *cen = centroid(c);
            for (size_t j = 0; j < d; ++j)
                cen[j] = sum[j] / static_cast<double>(counts[c]);
        }
        if (!changed)
            break;
    }

    res.distortion = 0.0;
    for (size_t i = 0; i < n; ++i)
        res.distortion += flatSqDist(pts.row(i),
                                     centroid(res.assignment[i]), d, terms);
    res.centroids.resize(k);
    for (uint32_t c = 0; c < k; ++c)
        res.centroids[c].assign(centroid(c), centroid(c) + d);
    res.distanceTerms = terms;
    return res;
}

} // namespace

KmeansResult
kmeans(const FeatureMatrix &points, uint32_t k, Rng &rng,
       uint32_t max_iters)
{
    return kmeansFlat(FlatRows(points), k, rng, max_iters);
}

double
bicScore(const FeatureMatrix &points, const KmeansResult &result)
{
    const double n = static_cast<double>(points.size());
    const double d = static_cast<double>(points[0].size());
    const double k = static_cast<double>(result.k);

    std::vector<double> cluster_sizes(result.k, 0.0);
    for (uint32_t c : result.assignment)
        cluster_sizes[c] += 1.0;

    double sigma2 = n > k ? result.distortion / (d * (n - k)) : 0.0;
    sigma2 = std::max(sigma2, 1e-12);

    double log_likelihood = 0.0;
    for (double rn : cluster_sizes) {
        if (rn <= 0.0)
            continue;
        log_likelihood += rn * std::log(rn / n);
    }
    log_likelihood -= n * d / 2.0 * std::log(2.0 * M_PI * sigma2);
    log_likelihood -= (n - k) * d / 2.0;

    const double num_params = k * (d + 1.0);
    return log_likelihood - num_params / 2.0 * std::log(n);
}

std::vector<uint32_t>
simpointCandidateKs(size_t rows, uint32_t max_k)
{
    // k == n is degenerate (zero distortion makes the BIC spike and
    // poisons the normalized threshold), so keep at least two points
    // per potential cluster on average.
    uint32_t limit = std::min<uint32_t>(
        max_k,
        rows > 1 ? static_cast<uint32_t>(rows - 1) : 1);
    limit = std::min<uint32_t>(
        limit, std::max<uint32_t>(1, static_cast<uint32_t>(rows / 2)));
    LP_ASSERT(limit >= 1);

    // Scan every k up to 16, then coarser steps up to the limit, so
    // model selection stays cheap for runs with many slices.
    std::vector<uint32_t> ks;
    for (uint32_t k = 1; k <= limit && k <= 16; ++k)
        ks.push_back(k);
    if (limit > 16) {
        uint32_t step = std::max<uint32_t>(2, (limit - 16) / 12);
        for (uint32_t k = 16 + step; k <= limit; k += step)
            ks.push_back(k);
        if (ks.back() != limit)
            ks.push_back(limit);
    }

    return ks;
}

ClusteringResult
simpointCluster(const FeatureMatrix &points, uint32_t max_k,
                uint64_t seed, double bic_threshold, ThreadPool *pool)
{
    if (points.empty())
        fatal("simpointCluster: no slices to cluster");
    const std::vector<uint32_t> ks =
        simpointCandidateKs(points.size(), max_k);
    const FlatRows flat(points);

    // One pool task per K candidate, largest K (the costliest) first so
    // the small ones fill in behind it; results land in index-addressed
    // slots and each candidate's RNG is seeded from (seed, k), so the
    // sweep is bit-identical for any jobs count and schedule.
    using clock = std::chrono::steady_clock;
    auto t_sweep = clock::now();
    ClusteringResult out;
    std::vector<KmeansResult> runs(ks.size());
    out.bicByK.resize(ks.size());
    std::vector<double> candidate_wall(ks.size(), 0.0);
    ThreadPool::forEach(pool, 0, ks.size(), [&](size_t t) {
        auto t0 = clock::now();
        const size_t i = ks.size() - 1 - t;
        const uint32_t k = ks[i];
        ScopedSpan span(Tracer::global(), "cluster.kmeans");
        Rng rng(hashCombine(seed, k));
        runs[i] = kmeansFlat(flat, k, rng);
        out.bicByK[i] = {k, bicScore(points, runs[i])};
        span.arg("k", k)
            .arg("iterations", runs[i].iterations)
            .arg("distance_terms", runs[i].distanceTerms)
            .arg("bic", out.bicByK[i].second);
        candidate_wall[i] =
            std::chrono::duration<double>(clock::now() - t0).count();
    });
    for (double w : candidate_wall)
        out.candidateWallSeconds += w;
    out.sweepWallSeconds =
        std::chrono::duration<double>(clock::now() - t_sweep).count();

    double best = out.bicByK[0].second;
    double worst = out.bicByK[0].second;
    for (const auto &[k, bic] : out.bicByK) {
        best = std::max(best, bic);
        worst = std::min(worst, bic);
    }
    double span = best - worst;
    size_t chosen_idx = out.bicByK.size() - 1;
    for (size_t i = 0; i < out.bicByK.size(); ++i) {
        double norm = span > 0.0
                          ? (out.bicByK[i].second - worst) / span
                          : 1.0;
        if (norm >= bic_threshold) {
            chosen_idx = i;
            break;
        }
    }
    out.chosenK = out.bicByK[chosen_idx].first;
    out.best = std::move(runs[chosen_idx]);
    return out;
}

size_t
nearestMemberToCentroid(const FeatureMatrix &points,
                        const KmeansResult &result, uint32_t cluster,
                        size_t exclude)
{
    size_t best_i = points.size();
    double best_d = std::numeric_limits<double>::max();
    for (size_t i = 0; i < points.size(); ++i) {
        if (i == exclude || result.assignment[i] != cluster)
            continue;
        double d2 = sqDist(points[i], result.centroids[cluster]);
        if (d2 < best_d) {
            best_d = d2;
            best_i = i;
        }
    }
    return best_i;
}

std::vector<uint32_t>
pickRepresentatives(const FeatureMatrix &points,
                    const KmeansResult &result)
{
    std::vector<uint32_t> reps(result.k, 0);
    for (uint32_t c = 0; c < result.k; ++c) {
        size_t i = nearestMemberToCentroid(points, result, c);
        if (i != points.size())
            reps[c] = static_cast<uint32_t>(i);
    }
    return reps;
}

RandomProjector::RandomProjector(uint32_t out_dims, uint64_t seed_)
    : dims(out_dims), seed(seed_)
{
    if (dims == 0)
        fatal("RandomProjector: need at least one output dimension");
}

std::vector<double>
RandomProjector::project(
    const std::vector<std::pair<uint64_t, double>> &row) const
{
    std::vector<double> out(dims, 0.0);
    for (const auto &[dim, value] : row) {
        for (uint32_t d = 0; d < dims; ++d) {
            uint64_t h = hashCombine(seed, dim * 0x9e3779b1ull + d);
            // Map the hash to a deterministic value in [-1, 1].
            double r = static_cast<double>(h >> 11) * 0x1.0p-53;
            out[d] += value * (2.0 * r - 1.0);
        }
    }
    return out;
}

} // namespace looppoint
