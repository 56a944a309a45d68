#include "store/stage_cache.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/fingerprint.hh"

namespace looppoint {

namespace {

/** %.17g: exact double round trip (same rule as the run journal). */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

// ---------------------------------------------------------------- keys

std::string
StageCache::recordKey(const std::string &program_name,
                      const LoopPointOptions &opts)
{
    return FingerprintBuilder("record-v1")
        .field("prog", program_name)
        .field("threads", opts.numThreads)
        .field("wait", waitPolicyName(opts.waitPolicy))
        .field("seed", opts.seed)
        .field("quantum", opts.flowQuantum)
        .text();
}

std::string
StageCache::profileKey(const std::string &record_hash,
                       const LoopPointOptions &opts)
{
    return FingerprintBuilder("profile-v1")
        .field("record", record_hash)
        .field("slice_size", opts.sliceSizePerThread)
        .field("filter_spin", opts.filterSpin)
        .field("quantum", opts.flowQuantum)
        .text();
}

std::string
StageCache::clusterKey(const std::string &profile_hash,
                       const LoopPointOptions &opts)
{
    return FingerprintBuilder("cluster-v1")
        .field("profile", profile_hash)
        .field("max_k", opts.maxK)
        .field("dims", opts.projectionDims)
        .fieldDouble("bic_threshold", opts.bicThreshold)
        .field("seed", opts.seed)
        .text();
}

std::string
StageCache::simKey(const std::string &cluster_hash,
                   const SimConfig &sim_cfg, bool constrained)
{
    return FingerprintBuilder("sim-v1")
        .field("cluster", cluster_hash)
        .field("uarch", sim_cfg.uarchKeyText())
        .field("constrained", constrained)
        .text();
}

std::string
StageCache::warmKey(const std::string &cluster_hash,
                    const SimConfig &sim_cfg, bool constrained,
                    uint32_t region)
{
    return FingerprintBuilder("warm-v1")
        .field("cluster", cluster_hash)
        .field("warm", sim_cfg.warmKeyText())
        .field("constrained", constrained)
        .field("region", region)
        .text();
}

std::string
StageCache::fullSimKey(const std::string &program_name, uint32_t threads,
                       WaitPolicy wait_policy, uint64_t seed,
                       const SimConfig &sim_cfg)
{
    return FingerprintBuilder("fullsim-v1")
        .field("prog", program_name)
        .field("threads", threads)
        .field("wait", waitPolicyName(wait_policy))
        .field("seed", seed)
        .field("uarch", sim_cfg.uarchKeyText())
        .text();
}

// ----------------------------------------------------------- recording

std::optional<StageCache::PinballHit>
StageCache::loadPinball(const std::string &key)
{
    auto hit = backing->lookup("record", key);
    if (!hit)
        return std::nullopt;
    std::istringstream is(hit->payload);
    auto pinball = Pinball::tryLoad(is);
    if (!pinball.ok())
        return std::nullopt;
    return PinballHit{std::move(pinball).value(),
                      std::move(hit->hash)};
}

std::string
StageCache::publishPinball(const std::string &key, const Pinball &pinball)
{
    std::ostringstream os;
    pinball.save(os);
    return backing->publish("record", key, os.str());
}

// ----------------------------------------------------------- profiling

std::string
StageCache::publishSlices(const std::string &key,
                          const std::vector<SliceRecord> &slices)
{
    std::ostringstream os;
    const size_t threads =
        slices.empty() ? 0 : slices.front().perThread.size();
    os << "slices " << slices.size() << " threads " << threads << '\n';
    for (const SliceRecord &s : slices) {
        os << "slice " << s.index << " start " << s.start.pc << ':'
           << s.start.count << " end " << s.end.pc << ':' << s.end.count
           << " filtered " << s.filteredIcount << " total "
           << s.totalIcount << '\n';
        os << "tf";
        for (uint64_t v : s.threadFilteredIcount)
            os << ' ' << v;
        os << '\n';
        for (size_t tid = 0; tid < s.perThread.size(); ++tid) {
            // Sorted by block id: the artifact is canonical whatever
            // the in-memory map iteration order was.
            std::vector<std::pair<uint64_t, uint64_t>> sorted;
            sorted.reserve(s.perThread[tid].counts.size());
            for (const auto &[block, count] : s.perThread[tid].counts)
                sorted.emplace_back(static_cast<uint64_t>(block), count);
            std::sort(sorted.begin(), sorted.end());
            os << "bbv " << tid << ' ' << sorted.size();
            for (const auto &[block, count] : sorted)
                os << ' ' << block << ':' << count;
            os << '\n';
        }
    }
    return backing->publish("profile", key, os.str());
}

std::optional<StageCache::SlicesHit>
StageCache::loadSlices(const std::string &key)
{
    auto hit = backing->lookup("profile", key);
    if (!hit)
        return std::nullopt;
    std::istringstream is(hit->payload);
    std::string tag;
    size_t n = 0, threads = 0;
    std::string tag2;
    if (!(is >> tag >> n >> tag2 >> threads) || tag != "slices" ||
        tag2 != "threads")
        return std::nullopt;
    // As in loadCluster: no count may exceed the payload it sizes.
    if (n > hit->payload.size() || threads > hit->payload.size())
        return std::nullopt;
    std::vector<SliceRecord> slices;
    slices.reserve(n);
    char colon = 0;
    for (size_t i = 0; i < n; ++i) {
        SliceRecord s;
        std::string t_start, t_end, t_filtered, t_total;
        if (!(is >> tag >> s.index >> t_start >> s.start.pc >> colon >>
              s.start.count >> t_end >> s.end.pc >> colon >>
              s.end.count >> t_filtered >> s.filteredIcount >>
              t_total >> s.totalIcount) ||
            tag != "slice" || t_start != "start" || t_end != "end" ||
            t_filtered != "filtered" || t_total != "total")
            return std::nullopt;
        if (!(is >> tag) || tag != "tf")
            return std::nullopt;
        s.threadFilteredIcount.resize(threads);
        for (size_t t = 0; t < threads; ++t)
            if (!(is >> s.threadFilteredIcount[t]))
                return std::nullopt;
        s.perThread.resize(threads);
        for (size_t t = 0; t < threads; ++t) {
            size_t tid = 0, m = 0;
            if (!(is >> tag >> tid >> m) || tag != "bbv" || tid != t)
                return std::nullopt;
            for (size_t j = 0; j < m; ++j) {
                uint64_t block = 0, count = 0;
                if (!(is >> block >> colon >> count) || colon != ':')
                    return std::nullopt;
                s.perThread[t].counts[static_cast<BlockId>(block)] =
                    count;
            }
        }
        slices.push_back(std::move(s));
    }
    return SlicesHit{std::move(slices), std::move(hit->hash)};
}

// ---------------------------------------------------------- clustering

std::string
StageCache::publishCluster(const std::string &key,
                           const ClusterArtifact &art)
{
    std::ostringstream os;
    os << "cluster chosenK " << art.chosenK << " slices "
       << art.assignment.size() << " bic " << art.bicByK.size()
       << " regions " << art.regions.size() << '\n';
    os << "assignment";
    for (uint32_t v : art.assignment)
        os << ' ' << v;
    os << '\n';
    os << "bic";
    for (double v : art.bicByK)
        os << ' ' << fmtDouble(v);
    os << '\n';
    for (const LoopPointRegion &r : art.regions) {
        os << "region cluster=" << r.cluster << " slice="
           << r.sliceIndex << " start=" << r.start.pc << ':'
           << r.start.count << " end=" << r.end.pc << ':' << r.end.count
           << " ficount=" << r.filteredIcount << " mult="
           << fmtDouble(r.multiplier) << '\n';
    }
    return backing->publish("cluster", key, os.str());
}

std::optional<StageCache::ClusterHit>
StageCache::loadCluster(const std::string &key)
{
    auto hit = backing->lookup("cluster", key);
    if (!hit)
        return std::nullopt;
    std::istringstream is(hit->payload);
    std::string tag, t1, t2, t3;
    size_t n_slices = 0, n_bic = 0, n_regions = 0;
    ClusterArtifact art;
    if (!(is >> tag >> t1 >> art.chosenK >> t2 >> n_slices >> t3 >>
          n_bic) ||
        tag != "cluster" || t1 != "chosenK" || t2 != "slices" ||
        t3 != "bic")
        return std::nullopt;
    if (!(is >> t1 >> n_regions) || t1 != "regions")
        return std::nullopt;
    // The store is shared (a copied directory is another user's
    // input): every counted element takes at least one payload byte,
    // so no count may exceed the payload before it sizes a vector.
    const size_t bytes = hit->payload.size();
    if (n_slices > bytes || n_bic > bytes || n_regions > bytes)
        return std::nullopt;
    if (!(is >> tag) || tag != "assignment")
        return std::nullopt;
    art.assignment.resize(n_slices);
    for (auto &v : art.assignment)
        if (!(is >> v))
            return std::nullopt;
    if (!(is >> tag) || tag != "bic")
        return std::nullopt;
    art.bicByK.resize(n_bic);
    for (auto &v : art.bicByK)
        if (!(is >> v))
            return std::nullopt;
    std::string line;
    std::getline(is, line); // consume the bic line's newline
    for (size_t i = 0; i < n_regions; ++i) {
        if (!std::getline(is, line))
            return std::nullopt;
        LoopPointRegion r;
        uint64_t start_pc = 0, end_pc = 0;
        if (std::sscanf(line.c_str(),
                        "region cluster=%" SCNu32 " slice=%" SCNu32
                        " start=%" SCNu64 ":%" SCNu64 " end=%" SCNu64
                        ":%" SCNu64 " ficount=%" SCNu64 " mult=%lg",
                        &r.cluster, &r.sliceIndex, &start_pc,
                        &r.start.count, &end_pc, &r.end.count,
                        &r.filteredIcount, &r.multiplier) != 8)
            return std::nullopt;
        r.start.pc = start_pc;
        r.end.pc = end_pc;
        // A NaN or negative multiplier poisons every Eq. 1
        // extrapolation, and a marker with a pc but no count is
        // unreachable by construction.
        if (!std::isfinite(r.multiplier) || r.multiplier < 0.0 ||
            (start_pc != 0 && r.start.count == 0) ||
            (end_pc != 0 && r.end.count == 0))
            return std::nullopt;
        art.regions.push_back(r);
    }
    return ClusterHit{std::move(art), std::move(hit->hash)};
}

// -------------------------------------------------- simulation results

void
StageCache::publishSimResults(const std::string &key,
                              const std::vector<RunJournal::Record> &recs)
{
    std::ostringstream os;
    os << "simresults " << recs.size() << '\n';
    for (const auto &r : recs)
        os << encodeJournalRecord(r) << '\n';
    backing->publish("sim", key, os.str());
}

std::optional<std::vector<RunJournal::Record>>
StageCache::loadSimResults(const std::string &key,
                           const std::vector<LoopPointRegion> &regions)
{
    auto hit = backing->lookup("sim", key);
    if (!hit)
        return std::nullopt;
    std::istringstream is(hit->payload);
    std::string line;
    if (!std::getline(is, line))
        return std::nullopt;
    size_t n = 0;
    if (std::sscanf(line.c_str(), "simresults %zu", &n) != 1 ||
        n != regions.size())
        return std::nullopt;
    std::vector<RunJournal::Record> recs;
    recs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        if (!std::getline(is, line))
            return std::nullopt;
        auto rec = parseJournalRecord(line);
        if (!rec)
            return std::nullopt;
        // Identity check against the regions this analysis selected —
        // the same exact-match rule the resume journal applies.
        const LoopPointRegion &r = regions[i];
        if (rec->regionIndex != i || !(rec->start == r.start) ||
            !(rec->end == r.end) || rec->multiplier != r.multiplier)
            return std::nullopt;
        recs.push_back(std::move(*rec));
    }
    return recs;
}

// ---------------------------------------------------- warm checkpoints

bool
StageCache::hasWarm(const std::string &key)
{
    return backing->hashFor("warm", key).has_value();
}

std::optional<std::string>
StageCache::loadWarm(const std::string &key)
{
    auto hit = backing->lookup("warm", key);
    if (!hit)
        return std::nullopt;
    return std::move(hit->payload);
}

void
StageCache::publishWarm(const std::string &key, const std::string &payload)
{
    backing->publish("warm", key, payload);
}

// ------------------------------------------------------------- fullsim

void
StageCache::publishFullSim(const std::string &key, const SimMetrics &m)
{
    RunJournal::Record rec;
    rec.metrics = m;
    std::ostringstream os;
    os << "fullsim\n" << encodeJournalRecord(rec) << '\n';
    backing->publish("fullsim", key, os.str());
}

std::optional<SimMetrics>
StageCache::loadFullSim(const std::string &key)
{
    auto hit = backing->lookup("fullsim", key);
    if (!hit)
        return std::nullopt;
    std::istringstream is(hit->payload);
    std::string line;
    if (!std::getline(is, line) || line != "fullsim")
        return std::nullopt;
    if (!std::getline(is, line))
        return std::nullopt;
    auto rec = parseJournalRecord(line);
    if (!rec)
        return std::nullopt;
    return rec->metrics;
}

} // namespace looppoint
