/**
 * @file
 * lp_report: offline analyzer for the span trace of run_looppoint
 * --trace, the one telemetry channel of a run.
 *
 *   lp_report --trace=t.json [--check]
 *
 * Reads a Chrome trace-event document produced by the span tracer and
 * prints a per-phase wall-time breakdown, a per-region table (wall
 * time, multiplier, IPC, L2 MPKI, attempts), the slowest region, the
 * k-means sweep's exact work (candidates, iterations, distance terms),
 * the measured host-parallel efficiency, and the checkpoint-fanout
 * critical path (the best wall time any worker count could achieve,
 * paper Fig. 9's limit): max over regions of (checkpoint-ready time +
 * region sim time). A region's checkpoint is ready when its warm.fastforward stop
 * ends, or, in a phase served from stored warm checkpoints, when its
 * warm.load ends. It also counts the whole-program executions the
 * analysis made (the recording plus any DCFG or profile replay), and
 * says which side of each serial pass stalled: the recording or its
 * listeners, the warming producer or its partition workers.
 *
 * --check turns lp_report into a validator: the document must parse,
 * every event must carry the Chrome trace-event required fields, 'X'
 * spans on one track must nest properly, and the phase.checkpointed
 * span duration must agree with its own phase_wall_seconds argument
 * within 1%. Exit 0 when valid, 1 when any check fails, 2 on usage
 * errors.
 *
 * Events mirrored onto virtual region tracks carry a `mirror: 1`
 * argument and are excluded from aggregation (they are the same span
 * twice).
 */

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "util/flags.hh"
#include "util/logging.hh"

using namespace looppoint;

namespace {

struct Options
{
    std::string tracePath;
    std::string campaignDir;
    bool check = false;
};

/** One parsed trace event, with numeric args flattened for lookup. */
struct Event
{
    std::string name;
    std::string phase;
    int64_t tid = 0;
    double tsUs = 0.0;
    double durUs = 0.0;
    bool mirror = false;
    std::map<std::string, double> numArgs;

    /** The numeric arg `key`, or `absent` when the event has none. */
    double
    num(const char *key, double absent = 0.0) const
    {
        auto it = numArgs.find(key);
        return it == numArgs.end() ? absent : it->second;
    }
};

bool
loadFile(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    out = ss.str();
    return true;
}

/** Collects violations; in non-check mode they still print. */
struct CheckLog
{
    size_t violations = 0;

    void
    failf(const char *fmt, ...) __attribute__((format(printf, 2, 3)))
    {
        ++violations;
        va_list ap;
        va_start(ap, fmt);
        char buf[512];
        std::vsnprintf(buf, sizeof(buf), fmt, ap);
        va_end(ap);
        std::printf("CHECK FAIL: %s\n", buf);
    }
};

/**
 * Validate one raw event object and flatten it into `ev`. Metadata
 * ('M') events are validated but not returned for aggregation.
 */
bool
parseEvent(const JsonValue &raw, size_t index, Event &ev,
           CheckLog &log)
{
    if (!raw.isObject()) {
        log.failf("event %zu is not an object", index);
        return false;
    }
    const JsonValue *ph = raw.find("ph");
    const JsonValue *name = raw.find("name");
    const JsonValue *pid = raw.find("pid");
    const JsonValue *tid = raw.find("tid");
    if (!ph || !ph->isString() || ph->str.size() != 1) {
        log.failf("event %zu has no one-character 'ph'", index);
        return false;
    }
    if (!name || !name->isString() || name->str.empty()) {
        log.failf("event %zu has no 'name'", index);
        return false;
    }
    if (!pid || !pid->isNumber() || !tid || !tid->isNumber()) {
        log.failf("event %zu ('%s') lacks numeric pid/tid", index,
                  name->str.c_str());
        return false;
    }
    ev.name = name->str;
    ev.phase = ph->str;
    ev.tid = static_cast<int64_t>(tid->number);
    if (ev.phase == "M")
        return true; // metadata: no ts required
    const JsonValue *ts = raw.find("ts");
    if (!ts || !ts->isNumber()) {
        log.failf("event %zu ('%s') lacks numeric 'ts'", index,
                  name->str.c_str());
        return false;
    }
    ev.tsUs = ts->number;
    if (ev.phase == "X") {
        const JsonValue *dur = raw.find("dur");
        if (!dur || !dur->isNumber() || dur->number < 0) {
            log.failf("complete event %zu ('%s') lacks non-negative "
                      "'dur'",
                      index, name->str.c_str());
            return false;
        }
        ev.durUs = dur->number;
    }
    if (const JsonValue *args = raw.find("args")) {
        if (!args->isObject()) {
            log.failf("event %zu ('%s') has non-object 'args'", index,
                      name->str.c_str());
            return false;
        }
        for (const auto &[k, v] : args->object)
            if (v.isNumber())
                ev.numArgs[k] = v.number;
        ev.mirror = ev.numArgs.count("mirror") != 0;
    }
    return true;
}

/**
 * Chrome's nesting rule: on one track, complete events sorted by
 * (ts asc, dur desc) must form a proper stack — a span either encloses
 * the next one or ends before it starts.
 */
void
checkNesting(std::vector<Event> spans, CheckLog &log)
{
    constexpr double eps = 1e-6; // sub-ns; timestamps are ns-exact
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Event &a, const Event &b) {
                         if (a.tsUs != b.tsUs)
                             return a.tsUs < b.tsUs;
                         return a.durUs > b.durUs;
                     });
    std::vector<const Event *> stack;
    for (const Event &ev : spans) {
        while (!stack.empty() &&
               stack.back()->tsUs + stack.back()->durUs <=
                   ev.tsUs + eps)
            stack.pop_back();
        if (!stack.empty()) {
            const Event &top = *stack.back();
            if (ev.tsUs + ev.durUs > top.tsUs + top.durUs + eps)
                log.failf("track %lld: span '%s' [%f, %f] overlaps "
                          "'%s' [%f, %f] without nesting",
                          static_cast<long long>(ev.tid),
                          ev.name.c_str(), ev.tsUs,
                          ev.tsUs + ev.durUs, top.name.c_str(),
                          top.tsUs, top.tsUs + top.durUs);
        }
        stack.push_back(&ev);
    }
}

int
reportTrace(const Options &opt)
{
    std::string text;
    if (!loadFile(opt.tracePath, text)) {
        logError("cannot read trace '%s'", opt.tracePath.c_str());
        return 2;
    }
    CheckLog log;
    std::string err;
    auto doc = parseJson(text, &err);
    if (!doc) {
        log.failf("trace is not valid JSON: %s", err.c_str());
        return 1;
    }
    const JsonValue *events = doc->find("traceEvents");
    if (!events || !events->isArray()) {
        log.failf("trace has no 'traceEvents' array");
        return 1;
    }

    std::vector<Event> spans;      // 'X', mirrors included
    std::vector<Event> instants;   // 'i'
    for (size_t i = 0; i < events->array.size(); ++i) {
        Event ev;
        if (!parseEvent(events->array[i], i, ev, log))
            continue;
        if (ev.phase == "X")
            spans.push_back(std::move(ev));
        else if (ev.phase == "i")
            instants.push_back(std::move(ev));
        else if (ev.phase != "M")
            log.failf("event %zu has unsupported phase '%s'", i,
                      ev.phase.c_str());
    }

    // Nesting is a per-track property; mirrors live on their own
    // region tracks and are checked there like any other span.
    std::map<int64_t, std::vector<Event>> byTrack;
    for (const Event &ev : spans)
        byTrack[ev.tid].push_back(ev);
    for (auto &[tid, track_spans] : byTrack)
        checkNesting(std::move(track_spans), log);

    // ---- Aggregation (mirrors excluded: same span, second track) ----
    struct PhaseAgg
    {
        size_t count = 0;
        double totalUs = 0.0;
        double maxUs = 0.0;
    };
    std::map<std::string, PhaseAgg> phases;
    const Event *checkpointed = nullptr;
    std::map<int64_t, const Event *> regionSims;  // region id -> span
    std::map<int64_t, const Event *> regionWarms; // region id -> span
    for (const Event &ev : spans) {
        if (ev.mirror)
            continue;
        PhaseAgg &agg = phases[ev.name];
        ++agg.count;
        agg.totalUs += ev.durUs;
        agg.maxUs = std::max(agg.maxUs, ev.durUs);
        if (ev.name == "phase.checkpointed")
            checkpointed = &ev;
        const auto region = static_cast<int64_t>(ev.num("region", -1));
        if (ev.name == "region.sim")
            regionSims[region] = &ev;
        else if (ev.name == "warm.fastforward" || ev.name == "warm.load")
            regionWarms[region] = &ev;
    }

    std::printf("== phases (mirrored spans excluded) ==\n");
    std::printf("%-24s %6s %12s %12s\n", "span", "count", "total ms",
                "max ms");
    for (const auto &[name, agg] : phases)
        std::printf("%-24s %6zu %12.3f %12.3f\n", name.c_str(),
                    agg.count, agg.totalUs / 1e3, agg.maxUs / 1e3);

    if (!regionSims.empty()) {
        std::printf("\n== regions ==\n");
        std::printf("%6s %10s %12s %8s %8s %8s %3s\n", "region", "mult",
                    "wall ms", "ipc", "l2mpki", "attempts", "ok");
        int64_t slowest = -1;
        double slowest_us = -1.0;
        for (const auto &[region, ev] : regionSims) {
            std::printf("%6lld %10.3f %12.3f %8.3f %8.3f %8.0f %3s\n",
                        static_cast<long long>(region),
                        ev->num("multiplier"), ev->durUs / 1e3,
                        ev->num("ipc"), ev->num("l2_mpki"),
                        ev->num("attempts"),
                        ev->num("ok") != 0.0 ? "yes" : "NO");
            if (ev->durUs > slowest_us) {
                slowest_us = ev->durUs;
                slowest = region;
            }
        }
        std::printf("slowest region : %lld (%.3f ms)\n",
                    static_cast<long long>(slowest), slowest_us / 1e3);
    }

    if (checkpointed) {
        const Event &cp = *checkpointed;
        auto arg = [&](const char *key) { return cp.num(key); };
        const double jobs = arg("jobs");
        const double phase_ms = cp.durUs / 1e3;

        // Busy time inside the phase: every region body plus the
        // (serial) warming stops, measured on the threads that ran
        // them.
        double busy_ms = 0.0;
        for (const auto &[region, ev] : regionSims)
            busy_ms += ev->durUs / 1e3;
        for (const auto &[region, ev] : regionWarms)
            busy_ms += ev->durUs / 1e3;
        if (jobs > 0.0 && phase_ms > 0.0)
            std::printf("\nhost-parallel  : %g jobs, busy %.3f ms "
                        "over phase %.3f ms -> efficiency %.0f%%\n",
                        jobs, busy_ms, phase_ms,
                        100.0 * busy_ms / (phase_ms * jobs));

        // Critical path: a region cannot start before its checkpoint
        // exists; the fanout's floor is the slowest
        // (checkpoint-ready + region-sim) chain.
        double critical_ms = 0.0;
        int64_t critical_region = -1;
        for (const auto &[region, warm] : regionWarms) {
            const double ready_ms =
                (warm->tsUs + warm->durUs - cp.tsUs) / 1e3;
            auto it = regionSims.find(region);
            const double chain_ms =
                ready_ms +
                (it == regionSims.end() ? 0.0 : it->second->durUs / 1e3);
            if (chain_ms > critical_ms) {
                critical_ms = chain_ms;
                critical_region = region;
            }
        }
        if (critical_region >= 0)
            std::printf("critical path  : %.3f ms (region %lld); "
                        "measured phase %.3f ms\n",
                        critical_ms,
                        static_cast<long long>(critical_region),
                        phase_ms);

        // Which side of the warming pass stalled: the producer (the
        // engine stepping thread) waiting on full partition queues, or
        // the partition workers waiting for accesses.
        const double partitions = arg("warm_partitions");
        if (partitions == 1.0) {
            std::printf("warm pass      : inline on the warming thread\n");
        } else if (partitions > 1.0) {
            const double wait_s = arg("warm_producer_wait_s");
            const double idle_s = arg("warm_partition_idle_s");
            // Accesses the producer shipped to the partitions, and
            // exact repeats it dropped instead.
            const double shipped = arg("warm_shipped");
            const double dropped = arg("warm_dropped");
            const double pushed = shipped + dropped;
            std::printf("warm pass      : %s (producer waited %.2f s, "
                        "partitions idle %.2f s; shipped %.0f, dropped "
                        "%.0f = %.1f%%)\n",
                        wait_s > idle_s / partitions ? "partition-bound"
                                                     : "producer-bound",
                        wait_s, idle_s, shipped, dropped,
                        pushed > 0.0 ? 100.0 * dropped / pushed : 0.0);
            // How fast the cache layer applies records: the shipped
            // records over the partitions' busy time, their spans
            // less the time they waited for records.
            auto part = phases.find("warm.partition");
            const double busy_s =
                (part == phases.end() ? 0.0 : part->second.totalUs / 1e6) -
                idle_s;
            if (busy_s > 0.0)
                std::printf("warm apply     : %.2f M records/s (%.0f "
                            "records over %.3f busy s)\n",
                            shipped / busy_s / 1e6, shipped, busy_s);
        }
        if (partitions >= 1.0) {
            // The producer waits while `jobs` captured checkpoints
            // still wait for a region task to start.
            std::printf("checkpoints    : producer waited %.2f s for "
                        "queued regions to start\n",
                        arg("checkpoint_wait_s"));
        }

        // The phase span must agree with the wall time the pipeline
        // itself measured and attached as an argument.
        const double wall_arg_ms = arg("phase_wall_seconds") * 1e3;
        if (wall_arg_ms > 0.0) {
            const double rel =
                std::fabs(phase_ms - wall_arg_ms) /
                std::max(wall_arg_ms, 1e-9);
            if (rel > 0.01)
                log.failf("phase.checkpointed span is %.3f ms but its "
                          "phase_wall_seconds arg says %.3f ms "
                          "(%.2f%% apart, tolerance 1%%)",
                          phase_ms, wall_arg_ms, 100.0 * rel);
        }
    } else if (opt.check) {
        log.failf("trace has no phase.checkpointed span");
    }

    // Whole-program executions the analysis made to record and profile:
    // the recording (unless the store served the pinball) plus each
    // constrained replay; and the BIC sweep's exact work, one
    // cluster.kmeans span per K candidate.
    size_t executions = 0, candidates = 0;
    double iterations = 0.0, distance_terms = 0.0;
    bool analyzed = false;
    const Event *recording = nullptr;
    for (const Event &ev : spans) {
        if (ev.mirror)
            continue;
        if (ev.name == "analyze.record") {
            analyzed = true;
            recording = &ev;
            if (ev.num("cached") == 0.0)
                ++executions;
        } else if (ev.name == "analyze.dcfg" ||
                   ev.name == "analyze.profile") {
            ++executions;
        } else if (ev.name == "cluster.kmeans") {
            ++candidates;
            iterations += ev.num("iterations");
            distance_terms += ev.num("distance_terms");
        }
    }
    if (analyzed)
        std::printf("\nanalysis       : %zu program execution(s)\n",
                    executions);
    if (candidates)
        std::printf("k-means sweep  : %zu candidate(s), %.0f "
                    "iteration(s), %.0f distance term(s)\n",
                    candidates, iterations, distance_terms);
    // Which side of a pipelined recording stalled: the recording
    // waiting for its slowest listener, or the listeners (the DCFG
    // builder and the slice profiler) waiting for block events.
    if (recording) {
        auto arg = [&](const char *key) { return recording->num(key, -1); };
        const double wait_s = arg("record_wait_s");
        const double dcfg_s = arg("dcfg_idle_s");
        const double profile_s = arg("profile_idle_s");
        if (arg("listener_threads") == 0.0)
            std::printf("record pass    : inline (listeners on the "
                        "recording thread)\n");
        else if (wait_s >= 0.0)
            std::printf("record pass    : %s (recording waited %.2f s, "
                        "dcfg idle %.2f s, profile idle %.2f s)\n",
                        wait_s > std::min(dcfg_s, profile_s)
                            ? "listener-bound"
                            : "recording-bound",
                        wait_s, dcfg_s, profile_s);
    }

    size_t sim_hits = 0;
    for (const Event &ev : instants)
        if (ev.name == "store.sim_hit")
            ++sim_hits;
    if (sim_hits)
        std::printf("store regions  : %zu region record(s) served, "
                    "not simulated\n",
                    sim_hits);

    if (opt.check)
        std::printf("check          : %zu violation(s)\n",
                    log.violations);
    return log.violations ? 1 : 0;
}

/**
 * Render the supervisor's live surface (status.json) when present:
 * supervisor state, retry/timeout accounting, and the per-job
 * attempt/backoff table. Best-effort — a missing or torn file (the
 * supervisor rewrites it atomically, so torn means "not a campaign
 * with a supervisor") just skips the section.
 */
void
reportCampaignStatus(const Options &opt)
{
    std::string text;
    if (!loadFile(opt.campaignDir + "/status.json", text))
        return;
    auto doc = parseJson(text);
    if (!doc || doc->stringOr("kind", "") != "lp_campaign_status")
        return;

    std::printf("== supervisor (%s) ==\n",
                doc->stringOr("state", "?").c_str());
    std::printf("pid %.0f: %.0f/%.0f job(s) done, %.0f failed, %.0f "
                "pending\n",
                doc->numberOr("pid", 0), doc->numberOr("jobsDone", 0),
                doc->numberOr("jobsTotal", 0),
                doc->numberOr("jobsFailed", 0),
                doc->numberOr("jobsPending", 0));
    std::printf("supervision    : %.0f launch(es), %.0f retry(ies), "
                "%.0f timeout(s), %.0f adopted from journal, %.0f stale "
                "result(s)\n",
                doc->numberOr("launches", 0),
                doc->numberOr("retries", 0),
                doc->numberOr("timeouts", 0),
                doc->numberOr("adopted", 0),
                doc->numberOr("staleResults", 0));
    const JsonValue *jobs = doc->find("jobs");
    if (jobs && jobs->isArray() && !jobs->array.empty()) {
        std::printf("%-44s %-9s %8s %10s %8s\n", "job", "status",
                    "attempts", "backoff s", "wall s");
        for (const auto &j : jobs->array)
            std::printf("%-44s %-9s %8.0f %10.3f %8.3f\n",
                        j.stringOr("job", "?").c_str(),
                        j.stringOr("status", "?").c_str(),
                        j.numberOr("attempts", 0),
                        j.numberOr("backoffSeconds", 0),
                        j.numberOr("wallSeconds", 0));
    }
    std::printf("\n");
}

/**
 * Aggregate an lp_campaign directory: one row per job result, then
 * campaign-wide store economics (hit rate, bytes deduplicated — the
 * "never recompute twice" dividend).
 */
int
reportCampaign(const Options &opt)
{
    reportCampaignStatus(opt);
    DIR *dir = opendir(opt.campaignDir.c_str());
    if (!dir) {
        logError("cannot open campaign directory '%s'",
                 opt.campaignDir.c_str());
        return 2;
    }
    std::vector<std::string> job_dirs;
    while (struct dirent *de = readdir(dir)) {
        if (de->d_name[0] == '.')
            continue;
        job_dirs.push_back(de->d_name);
    }
    closedir(dir);
    std::sort(job_dirs.begin(), job_dirs.end());

    struct Row
    {
        std::string job, uarch, input;
        double threads = 0, chosenK = 0, regions = 0, coverage = 0;
        double errPct = 0, wall = 0;
        double findings = 0, errors = 0, warnings = 0;
        double auditFindings = 0;
        bool haveAnalysis = false;
        bool simHit = false, fullsimHit = false, analysisHit = false;
        double hits = 0, misses = 0, bytesDeduped = 0, bytesRead = 0;
        double bytesStored = 0;
    };
    std::vector<Row> rows;
    size_t bad = 0;
    for (const auto &jd : job_dirs) {
        const std::string path =
            opt.campaignDir + "/" + jd + "/result.json";
        std::string text;
        if (!loadFile(path, text))
            continue; // not a job directory (e.g. the store)
        std::string err;
        auto doc = parseJson(text, &err);
        if (!doc || doc->stringOr("kind", "") != "lp_campaign_job") {
            logError("skipping '%s': %s", path.c_str(),
                     doc ? "not an lp_campaign_job document"
                         : err.c_str());
            ++bad;
            continue;
        }
        Row r;
        r.job = doc->stringOr("job", jd);
        r.uarch = doc->stringOr("uarch", "?");
        r.input = doc->stringOr("input", "?");
        r.threads = doc->numberOr("threads", 0);
        r.chosenK = doc->numberOr("chosenK", 0);
        r.regions = doc->numberOr("regions", 0);
        r.coverage = doc->numberOr("coverage", 0);
        r.errPct = doc->numberOr("runtimeErrorPct", 0);
        r.wall = doc->numberOr("wallSeconds", 0);
        if (const JsonValue *sh = doc->find("stageHits")) {
            auto flag = [&](const char *k) {
                const JsonValue *v = sh->find(k);
                return v && v->isBool() && v->boolean;
            };
            r.analysisHit = flag("record") && flag("profile") &&
                            flag("cluster");
            r.simHit = flag("sim");
            r.fullsimHit = flag("fullsim");
        }
        if (const JsonValue *an = doc->find("analysis")) {
            r.haveAnalysis = true;
            r.findings = an->numberOr("findings", 0);
            r.errors = an->numberOr("errors", 0);
            r.warnings = an->numberOr("warnings", 0);
            r.auditFindings = an->numberOr("auditFindings", 0);
        }
        if (const JsonValue *st = doc->find("store")) {
            r.hits = st->numberOr("hits", 0);
            r.misses = st->numberOr("misses", 0);
            r.bytesStored = st->numberOr("bytesStored", 0);
            r.bytesDeduped = st->numberOr("bytesDeduped", 0);
            r.bytesRead = st->numberOr("bytesRead", 0);
        }
        rows.push_back(std::move(r));
    }

    if (rows.empty()) {
        logError("no lp_campaign_job results under '%s'",
                 opt.campaignDir.c_str());
        return bad ? 1 : 2;
    }

    std::printf("== campaign %s (%zu job(s)) ==\n",
                opt.campaignDir.c_str(), rows.size());
    std::printf("%-40s %-9s %3s %4s %8s %7s %9s %8s %8s\n", "job",
                "uarch", "thr", "K", "cov", "err%", "hit-rate",
                "dedup-B", "wall s");
    double hits = 0, misses = 0, deduped = 0, stored = 0, read = 0;
    size_t sim_hits = 0, analysis_hits = 0;
    for (const auto &r : rows) {
        const double lookups = r.hits + r.misses;
        std::printf("%-40s %-9s %3.0f %4.0f %8.4f %7.2f %8.0f%% "
                    "%8.0f %8.3f\n",
                    r.job.c_str(), r.uarch.c_str(), r.threads,
                    r.chosenK, r.coverage, r.errPct,
                    lookups > 0 ? 100.0 * r.hits / lookups : 0.0,
                    r.bytesDeduped, r.wall);
        hits += r.hits;
        misses += r.misses;
        deduped += r.bytesDeduped;
        stored += r.bytesStored;
        read += r.bytesRead;
        sim_hits += r.simHit ? 1 : 0;
        analysis_hits += r.analysisHit ? 1 : 0;
    }
    const double lookups = hits + misses;
    std::printf("\nstore          : %.0f lookup(s), %.0f%% hit rate, "
                "%.0f byte(s) stored, %.0f read back, %.0f "
                "deduplicated\n",
                lookups,
                lookups > 0 ? 100.0 * hits / lookups : 0.0, stored,
                read, deduped);
    std::printf("stage reuse    : analysis served from store in "
                "%zu/%zu job(s), region sims in %zu/%zu\n",
                analysis_hits, rows.size(), sim_hits, rows.size());
    double findings = 0, errors = 0, warnings = 0, audit = 0;
    size_t have_analysis = 0;
    for (const auto &r : rows) {
        if (!r.haveAnalysis)
            continue;
        ++have_analysis;
        findings += r.findings;
        errors += r.errors;
        warnings += r.warnings;
        audit += r.auditFindings;
    }
    if (have_analysis)
        std::printf("analysis       : %.0f finding(s) across %zu "
                    "job(s) (%.0f error(s), %.0f warning(s), %.0f "
                    "audit finding(s))\n",
                    findings, have_analysis, errors, warnings, audit);
    return bad ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    parseCommandLine(
        {.name = "lp_report",
         .synopsis = "--trace=PATH [--check]\n"
                     "       lp_report --campaign=DIR",
         .flags =
             {{"trace", 0, "PATH",
               "Chrome trace JSON from run_looppoint --trace",
               setString(opt.tracePath)},
              {"campaign", 0, "DIR",
               "aggregate the per-job result.json files of an lp_campaign "
               "directory: per-job table plus store hit-rate and "
               "deduplication",
               setString(opt.campaignDir)},
              {"check", 0, "",
               "validate the inputs instead of summarizing only (exit 1 "
               "on any violation)",
               setBool(opt.check)}},
         .check =
             [&opt] {
                 if (opt.tracePath.empty() && opt.campaignDir.empty())
                     throw UsageError("nothing to do: give --trace or "
                                      "--campaign");
             }},
        argc, argv);
    int rc = 0;
    if (!opt.tracePath.empty())
        rc = std::max(rc, reportTrace(opt));
    if (!opt.campaignDir.empty())
        rc = std::max(rc, reportCampaign(opt));
    return rc;
}
