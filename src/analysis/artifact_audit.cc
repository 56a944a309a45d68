#include "analysis/artifact_audit.hh"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "analysis/program_lint.hh"
#include "core/region_run.hh"
#include "store/artifact_store.hh"
#include "util/logging.hh"

namespace looppoint {

namespace {

constexpr char kPass[] = "audit";
/** Relative tolerance for Eq. 2 weight-closure checks. */
constexpr double kWeightTolerance = 1e-6;

bool
closeRel(double a, double b, double tol)
{
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <= tol * std::max(scale, 1.0);
}

// ------------------------------------------------------------- markers

void
auditMarker(const Marker &m, const char *role, const std::string &loc,
            const std::unordered_map<Addr, BlockId> &header_by_pc,
            const Dcfg &dcfg, DiagnosticSink &sink)
{
    if (m.isProgramBoundary())
        return; // program start/end sentinel
    auto it = header_by_pc.find(m.pc);
    if (it == header_by_pc.end()) {
        sink.error(kPass, loc,
                   strFormat("%s marker pc %#llx is not a main-image "
                             "loop header in the DCFG profile",
                             role,
                             static_cast<unsigned long long>(m.pc)));
        return;
    }
    const uint64_t execs = dcfg.blockExecs(it->second);
    if (m.count == 0 || m.count > execs)
        sink.error(kPass, loc,
                   strFormat("%s marker count %llu outside the "
                             "profiled execution count (%llu) of pc "
                             "%#llx",
                             role,
                             static_cast<unsigned long long>(m.count),
                             static_cast<unsigned long long>(execs),
                             static_cast<unsigned long long>(m.pc)));
}

void
auditMarkers(const AuditContext &ctx, DiagnosticSink &sink)
{
    const Program &p = *ctx.prog;
    const Dcfg &dcfg = *ctx.dcfg;
    std::unordered_map<Addr, BlockId> header_by_pc;
    for (BlockId b : dcfg.mainImageLoopHeaders())
        header_by_pc.emplace(p.blocks[b].pc, b);

    const LoopPointResult &r = *ctx.result;
    for (size_t i = 0; i < r.slices.size(); ++i) {
        const std::string loc = strFormat("slice %zu", i);
        auditMarker(r.slices[i].start, "start", loc, header_by_pc,
                    dcfg, sink);
        auditMarker(r.slices[i].end, "end", loc, header_by_pc, dcfg,
                    sink);
    }
    for (size_t i = 0; i < r.regions.size(); ++i) {
        const std::string loc = strFormat("region %zu", i);
        auditMarker(r.regions[i].start, "start", loc, header_by_pc,
                    dcfg, sink);
        auditMarker(r.regions[i].end, "end", loc, header_by_pc, dcfg,
                    sink);
    }
}

// ------------------------------------------------------------- weights

void
auditWeights(const AuditContext &ctx, DiagnosticSink &sink)
{
    const LoopPointResult &r = *ctx.result;

    if (r.assignment.size() != r.slices.size())
        sink.error(kPass, "clustering",
                   strFormat("assignment covers %zu slices but the "
                             "profile has %zu",
                             r.assignment.size(), r.slices.size()));
    for (size_t i = 0; i < r.assignment.size(); ++i)
        if (r.assignment[i] >= r.chosenK)
            sink.error(kPass, strFormat("slice %zu", i),
                       strFormat("assigned to cluster %u but only %u "
                                 "clusters were chosen",
                                 r.assignment[i], r.chosenK));

    // Per-cluster slice population, for the Eq. 2 reproduction check.
    std::map<uint32_t, uint64_t> cluster_work;
    for (size_t i = 0;
         i < std::min(r.assignment.size(), r.slices.size()); ++i)
        cluster_work[r.assignment[i]] +=
            r.slices[i].filteredIcount;

    std::set<uint32_t> seen_clusters;
    double weight_sum = 0.0;
    double region_work = 0.0;
    for (size_t i = 0; i < r.regions.size(); ++i) {
        const LoopPointRegion &reg = r.regions[i];
        const std::string loc = strFormat("region %zu", i);
        if (reg.cluster >= r.chosenK)
            sink.error(kPass, loc,
                       strFormat("references cluster %u but only %u "
                                 "clusters were chosen",
                                 reg.cluster, r.chosenK));
        if (!seen_clusters.insert(reg.cluster).second)
            sink.error(kPass, loc,
                       strFormat("cluster %u has more than one "
                                 "representative region",
                                 reg.cluster));
        if (reg.sliceIndex >= r.slices.size()) {
            sink.error(kPass, loc,
                       strFormat("representative slice %u out of "
                                 "range (%zu slices)",
                                 reg.sliceIndex, r.slices.size()));
            continue;
        }
        const SliceRecord &rep = r.slices[reg.sliceIndex];
        if (reg.sliceIndex < r.assignment.size() &&
            r.assignment[reg.sliceIndex] != reg.cluster)
            sink.error(kPass, loc,
                       strFormat("representative slice %u belongs to "
                                 "cluster %u, not %u",
                                 reg.sliceIndex,
                                 r.assignment[reg.sliceIndex],
                                 reg.cluster));
        if (!(reg.start == rep.start) || !(reg.end == rep.end))
            sink.error(kPass, loc,
                       "region markers differ from its "
                       "representative slice's markers");
        if (reg.filteredIcount != rep.filteredIcount)
            sink.error(kPass, loc,
                       strFormat("region filtered icount %llu differs "
                                 "from its slice's %llu",
                                 static_cast<unsigned long long>(
                                     reg.filteredIcount),
                                 static_cast<unsigned long long>(
                                     rep.filteredIcount)));
        if (!(reg.multiplier > 0.0) ||
            !std::isfinite(reg.multiplier)) {
            sink.error(kPass, loc,
                       strFormat("non-positive or non-finite Eq. 2 "
                                 "multiplier %g",
                                 reg.multiplier));
            continue;
        }
        // Eq. 2: multiplier * rep work must reproduce the cluster's
        // slice population.
        const double scaled = reg.multiplier *
                              static_cast<double>(reg.filteredIcount);
        const auto work = cluster_work.find(reg.cluster);
        if (work != cluster_work.end() &&
            !closeRel(scaled,
                      static_cast<double>(work->second),
                      kWeightTolerance))
            sink.error(kPass, loc,
                       strFormat("Eq. 2 multiplier %g scales the "
                                 "representative to %.0f filtered "
                                 "instructions, but cluster %u holds "
                                 "%llu",
                                 reg.multiplier, scaled, reg.cluster,
                                 static_cast<unsigned long long>(
                                     work->second)));
        region_work += scaled;
        if (r.totalFilteredIcount > 0)
            weight_sum += scaled /
                          static_cast<double>(r.totalFilteredIcount);
    }

    if (!r.regions.empty() && r.totalFilteredIcount > 0 &&
        !closeRel(weight_sum, 1.0, kWeightTolerance))
        sink.error(kPass, "clustering",
                   strFormat("cluster weights sum to %.9f, not 1 "
                             "(scaled region work %.0f vs. total "
                             "filtered icount %llu)",
                             weight_sum, region_work,
                             static_cast<unsigned long long>(
                                 r.totalFilteredIcount)));
}

// ------------------------------------------------------------ pinballs

void
auditPinball(const Pinball &pb, uint32_t expected_threads,
             const std::string &loc, DiagnosticSink &sink)
{
    std::ostringstream os;
    pb.save(os);
    std::istringstream is(os.str());
    auto reloaded = Pinball::tryLoad(is);
    if (!reloaded.ok()) {
        sink.error(kPass, loc,
                   strFormat("recording does not round-trip through "
                             "its serialization: %s",
                             reloaded.error().describe().c_str()));
        return;
    }
    const uint32_t threads = pb.config.numThreads;
    if (pb.threadIcounts.size() != threads ||
        pb.threadFilteredIcounts.size() != threads)
        sink.error(kPass, loc,
                   strFormat("thread roster mismatch: %u configured "
                             "threads, %zu icount rows, %zu filtered "
                             "rows",
                             threads, pb.threadIcounts.size(),
                             pb.threadFilteredIcounts.size()));
    if (expected_threads != 0 && threads != expected_threads)
        sink.error(kPass, loc,
                   strFormat("recording captured %u threads but the "
                             "run is configured for %u",
                             threads, expected_threads));
}

void
auditPinballFile(const std::string &path, DiagnosticSink &sink)
{
    std::ifstream is(path, std::ios::binary);
    const std::string loc = strFormat("pinball %s", path.c_str());
    if (!is) {
        sink.error(kPass, loc, "artifact cannot be opened");
        return;
    }
    auto pb = Pinball::tryLoad(is);
    if (!pb.ok())
        sink.error(kPass, loc,
                   strFormat("artifact does not parse: %s",
                             pb.error().describe().c_str()));
}

// ------------------------------------------------------------- journal

void
auditJournal(const AuditContext &ctx, DiagnosticSink &sink)
{
    const std::string loc =
        strFormat("journal %s", ctx.journalPath.c_str());
    RunJournal journal(ctx.journalPath, *ctx.journalKey);
    if (auto err = journal.load(true)) {
        sink.error(kPass, loc,
                   strFormat("journal does not load: %s",
                             err->describe().c_str()));
        return;
    }
    if (journal.droppedRecords() > 0)
        sink.warning(kPass, loc,
                     strFormat("%zu torn or corrupt trailing "
                               "record(s) dropped",
                               journal.droppedRecords()));
    if (!ctx.result)
        return;
    const auto &regions = ctx.result->regions;
    for (const RunJournal::Record &rec : journal.snapshot()) {
        if (rec.regionIndex >= regions.size()) {
            sink.error(kPass, loc,
                       strFormat("record references region %u but "
                                 "the analysis selected %zu regions",
                                 rec.regionIndex, regions.size()));
            continue;
        }
        const LoopPointRegion &reg = regions[rec.regionIndex];
        if (!(rec.start == reg.start) || !(rec.end == reg.end) ||
            rec.multiplier != reg.multiplier)
            sink.error(kPass, loc,
                       strFormat("record for region %u does not "
                                 "match the region's identity "
                                 "(markers, multiplier)",
                                 rec.regionIndex));
    }
}

// --------------------------------------------------------------- store

/** record < profile < cluster < warm/sim/fullsim in the stage DAG. */
int
stageRank(const std::string &stage)
{
    if (stage == "record")
        return 0;
    if (stage == "profile")
        return 1;
    if (stage == "cluster")
        return 2;
    if (stage == "warm" || stage == "sim" || stage == "fullsim")
        return 3;
    return -1;
}

/**
 * A warm checkpoint's `looppoint-warm-v1` header (core/region_run.hh)
 * must name the constrained flag and the region its key ends with
 * (StageCache::warmKey), and its image must fit between kImageOffset
 * and the payload's end.
 */
void
auditWarmHeader(const ArtifactStore::Entry &e, const std::string &payload,
                const std::string &loc, DiagnosticSink &sink)
{
    const auto h = parseWarmHeader(payload);
    if (h && e.key.ends_with(strFormat(";constrained=%u;region=%u;",
                                       h->constrained ? 1u : 0u,
                                       h->region)))
        return;
    std::string header =
        payload.substr(0, WarmSnapshot::kImageOffset - 1);
    header.erase(header.find_last_not_of(' ') + 1);
    sink.error(kPass, loc,
               strFormat("warm checkpoint %s: header '%s' does not "
                         "match its key (...%s) or its %zu-byte payload",
                         e.hash.c_str(), header.c_str(),
                         e.key.substr(e.key.rfind(";constrained=") + 1)
                             .c_str(),
                         payload.size()));
}

bool
isHexHash(const std::string &s)
{
    if (s.size() != 40)
        return false;
    return s.find_first_not_of("0123456789abcdef") ==
           std::string::npos;
}

void
auditStore(const AuditContext &ctx, DiagnosticSink &sink)
{
    const std::string loc = strFormat("store %s", ctx.storeDir.c_str());
    ArtifactStore store(ctx.storeDir);
    const size_t corrupt =
        store.verify([&](const ArtifactStore::Entry &e,
                         const std::string &payload) {
            if (e.stage == "warm")
                auditWarmHeader(e, payload, loc, sink);
        });
    if (corrupt > 0)
        sink.error(kPass, loc,
                   strFormat("%zu object(s) failed hash "
                             "verification or are missing",
                             corrupt));

    const auto entries = store.entries();
    std::unordered_map<std::string, int> rank_by_hash;
    for (const auto &e : entries) {
        auto [it, inserted] =
            rank_by_hash.try_emplace(e.hash, stageRank(e.stage));
        if (!inserted)
            it->second = std::min(it->second, stageRank(e.stage));
    }

    for (const auto &e : entries) {
        const int rank = stageRank(e.stage);
        if (rank < 0) {
            sink.warning(kPass, loc,
                         strFormat("manifest entry with unknown "
                                   "stage '%s'",
                                   e.stage.c_str()));
            continue;
        }
        // Stage keys are FingerprintBuilder texts: ';'-separated
        // name=value segments, where record=/profile=/cluster= carry
        // the upstream content hash the entry chains on.
        std::istringstream key(e.key);
        std::string seg;
        while (std::getline(key, seg, ';')) {
            const size_t eq = seg.find('=');
            if (eq == std::string::npos)
                continue;
            const std::string name = seg.substr(0, eq);
            const std::string value = seg.substr(eq + 1);
            const int up_rank = stageRank(name);
            if (up_rank < 0 || up_rank > 2 || !isHexHash(value))
                continue;
            auto it = rank_by_hash.find(value);
            if (it == rank_by_hash.end()) {
                sink.error(kPass, loc,
                           strFormat("%s entry references upstream "
                                     "%s hash %s with no manifest "
                                     "binding (incomplete stage-key "
                                     "chain)",
                                     e.stage.c_str(), name.c_str(),
                                     value.c_str()));
                continue;
            }
            if (it->second >= rank)
                sink.error(kPass, loc,
                           strFormat("%s entry references %s-stage "
                                     "hash %s: stage-key chain is "
                                     "not acyclic",
                                     e.stage.c_str(), name.c_str(),
                                     value.c_str()));
        }
    }
}

} // namespace

size_t
runArtifactAudit(const AuditContext &ctx, DiagnosticSink &sink)
{
    // The marker checks index the block table, so they need a
    // structurally sound program; the structure pass is the gate.
    DiagnosticSink structure;
    if (ctx.prog &&
        ProgramLint().run({.prog = ctx.prog}, structure, {"structure"})) {
        sink.info(kPass, "", "structural errors found; audit skipped");
        return 0;
    }

    const size_t before =
        sink.errors() + sink.count(Severity::Warning);
    size_t checks = 0;

    if (ctx.prog && ctx.dcfg && ctx.result) {
        auditMarkers(ctx, sink);
        ++checks;
    }
    if (ctx.result) {
        auditWeights(ctx, sink);
        ++checks;
    }
    if (ctx.pinball) {
        auditPinball(*ctx.pinball, ctx.expectedThreads, "recording",
                     sink);
        ++checks;
    }
    if (!ctx.pinballPath.empty()) {
        auditPinballFile(ctx.pinballPath, sink);
        ++checks;
    }
    if (!ctx.journalPath.empty() && ctx.journalKey) {
        auditJournal(ctx, sink);
        ++checks;
    }
    if (!ctx.storeDir.empty()) {
        auditStore(ctx, sink);
        ++checks;
    }

    const size_t findings =
        sink.errors() + sink.count(Severity::Warning) - before;
    sink.info(kPass, "",
              strFormat("%zu artifact sub-check(s) run: %zu "
                        "finding(s)",
                        checks, findings));
    return findings;
}

} // namespace looppoint
