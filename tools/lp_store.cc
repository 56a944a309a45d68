/**
 * @file
 * lp_store: inspect and manage a content-addressed artifact store
 * (the directory run_looppoint --store=DIR and lp_campaign write):
 * `lp_store stats|ls|verify|gc DIR` (see --help).
 *
 * Exit codes follow run_looppoint's contract: 0 success, 1 findings
 * (verify found corrupt objects), 2 usage, 3 runtime failure.
 */

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>

#include "store/artifact_store.hh"
#include "util/flags.hh"
#include "util/logging.hh"

using namespace looppoint;

namespace {

int
cmdStats(ArtifactStore &store)
{
    auto entries = store.entries();
    uint64_t total_bytes = 0;
    std::map<std::string, std::pair<uint64_t, uint64_t>> by_stage;
    for (const auto &e : entries) {
        total_bytes += e.bytes;
        auto &s = by_stage[e.stage];
        s.first += 1;
        s.second += e.bytes;
    }
    std::printf("store   : %s\n", store.dir().c_str());
    std::printf("entries : %zu (%llu payload bytes)\n", entries.size(),
                static_cast<unsigned long long>(total_bytes));
    for (const auto &[stage, s] : by_stage)
        std::printf("  %-8s: %llu entr%s, %llu bytes\n", stage.c_str(),
                    static_cast<unsigned long long>(s.first),
                    s.first == 1 ? "y" : "ies",
                    static_cast<unsigned long long>(s.second));
    return 0;
}

int
cmdLs(ArtifactStore &store)
{
    for (const auto &e : store.entries())
        std::printf("%-8s %10llu  %s  %s\n", e.stage.c_str(),
                    static_cast<unsigned long long>(e.bytes),
                    e.hash.c_str(), e.key.c_str());
    return 0;
}

int
cmdVerify(ArtifactStore &store)
{
    size_t bad = store.verify();
    std::printf("verify  : %zu entr%s checked, %zu corrupt\n",
                store.entries().size(),
                store.entries().size() == 1 ? "y" : "ies", bad);
    return bad ? 1 : 0;
}

int
cmdGc(ArtifactStore &store, uint64_t max_bytes, bool dry_run)
{
    auto r = store.gc(max_bytes, dry_run);
    std::printf("%s : removed %llu object(s) (%llu bytes), kept %llu "
                "(%llu bytes), dropped %llu binding(s)\n",
                dry_run ? "gc(dry)" : "gc     ",
                static_cast<unsigned long long>(r.removedObjects),
                static_cast<unsigned long long>(r.removedBytes),
                static_cast<unsigned long long>(r.keptObjects),
                static_cast<unsigned long long>(r.keptBytes),
                static_cast<unsigned long long>(r.droppedEntries));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool dry_run = false;
    std::optional<uint64_t> max_bytes;
    const auto args = parseCommandLine(
        {.name = "lp_store",
         .synopsis = "<command> <dir> [options]",
         .flags = {{"max-bytes", 0, "N",
                    "gc: evict least-recently-used objects until at most N "
                    "bytes remain (orphans always go); required by gc",
                    [&](const std::string &v) {
                        max_bytes = parseUnsigned(v);
                    }},
                   {"dry-run", 0, "", "gc: only report what would be removed",
                    setBool(dry_run)}},
         .epilog =
             "\ncommands:\n"
             "  stats  DIR   totals: entries, objects, bytes, per-stage\n"
             "               breakdown\n"
             "  ls     DIR   every manifest binding (stage, key, hash, "
             "bytes)\n"
             "  verify DIR   integrity-check every object (exit 1 if any is\n"
             "               corrupt)\n"
             "  gc     DIR   shrink to --max-bytes, LRU first\n",
         .positionals = 2},
        argc, argv);
    const std::string &cmd = args[0];
    if (cmd != "stats" && cmd != "ls" && cmd != "verify" && cmd != "gc") {
        logError("lp_store: unknown command '%s' (see --help)", cmd.c_str());
        return 2;
    }
    if (cmd == "gc" && !max_bytes) {
        logError("lp_store: gc requires --max-bytes=N");
        return 2;
    }

    try {
        ArtifactStore store(args[1]);
        if (cmd == "stats")
            return cmdStats(store);
        if (cmd == "ls")
            return cmdLs(store);
        if (cmd == "verify")
            return cmdVerify(store);
        return cmdGc(store, *max_bytes, dry_run);
    } catch (const FatalError &e) {
        logError("lp_store: %s", e.what());
        return 3;
    }
}
