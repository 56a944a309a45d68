#include "pinball/pinball.hh"

#include <istream>
#include <ostream>
#include <sstream>

#include "exec/driver.hh"
#include "pinball/pinball_io.hh"
#include "util/logging.hh"

namespace looppoint {

RecordingArbiter::RecordingArbiter(uint32_t num_locks,
                                   uint32_t run_list_size)
{
    log.lockOrder.resize(num_locks);
    log.chunkOrder.resize(run_list_size);
}

void
RecordingArbiter::onLockAcquired(uint32_t lock_id, uint32_t tid)
{
    LP_ASSERT(lock_id < log.lockOrder.size());
    log.lockOrder[lock_id].push_back(tid);
}

void
RecordingArbiter::onChunkFetched(uint32_t run_pos, uint32_t tid)
{
    LP_ASSERT(run_pos < log.chunkOrder.size());
    log.chunkOrder[run_pos].push_back(tid);
}

ReplayArbiter::ReplayArbiter(const SyncLog &log_)
    : log(&log_)
{
    lockCursor.assign(log->lockOrder.size(), 0);
    chunkCursor.assign(log->chunkOrder.size(), 0);
}

bool
ReplayArbiter::mayAcquireLock(uint32_t lock_id, uint32_t tid)
{
    LP_ASSERT(lock_id < lockCursor.size());
    const auto &order = log->lockOrder[lock_id];
    size_t cur = lockCursor[lock_id];
    if (cur >= order.size())
        fatal("replay: lock %u acquired more times than recorded",
              lock_id);
    return order[cur] == tid;
}

void
ReplayArbiter::onLockAcquired(uint32_t lock_id, uint32_t tid)
{
    const auto &order = log->lockOrder[lock_id];
    size_t &cur = lockCursor[lock_id];
    LP_ASSERT(cur < order.size() && order[cur] == tid);
    ++cur;
}

bool
ReplayArbiter::mayFetchChunk(uint32_t run_pos, uint32_t tid)
{
    LP_ASSERT(run_pos < chunkCursor.size());
    const auto &order = log->chunkOrder[run_pos];
    size_t cur = chunkCursor[run_pos];
    if (cur >= order.size())
        fatal("replay: kernel instance %u fetched more chunks than "
              "recorded", run_pos);
    return order[cur] == tid;
}

void
ReplayArbiter::onChunkFetched(uint32_t run_pos, uint32_t tid)
{
    const auto &order = log->chunkOrder[run_pos];
    size_t &cur = chunkCursor[run_pos];
    LP_ASSERT(cur < order.size() && order[cur] == tid);
    ++cur;
}

bool
ReplayArbiter::exhausted() const
{
    for (size_t i = 0; i < lockCursor.size(); ++i)
        if (lockCursor[i] != log->lockOrder[i].size())
            return false;
    for (size_t i = 0; i < chunkCursor.size(); ++i)
        if (chunkCursor[i] != log->chunkOrder[i].size())
            return false;
    return true;
}

void
ReplayArbiter::saveCursors(std::ostream &os) const
{
    os << "arbiter " << lockCursor.size();
    for (size_t v : lockCursor)
        os << ' ' << v;
    os << ' ' << chunkCursor.size();
    for (size_t v : chunkCursor)
        os << ' ' << v;
    os << '\n';
}

void
ReplayArbiter::loadCursors(std::istream &is)
{
    std::string key;
    size_t n = 0;
    if (!(is >> key >> n) || key != "arbiter" ||
        n != lockCursor.size())
        fatal("replay-arbiter cursor parse error: lock cursors");
    for (auto &v : lockCursor)
        if (!(is >> v))
            fatal("replay-arbiter cursor parse error: lock entry");
    if (!(is >> n) || n != chunkCursor.size())
        fatal("replay-arbiter cursor parse error: chunk cursors");
    for (auto &v : chunkCursor)
        if (!(is >> v))
            fatal("replay-arbiter cursor parse error: chunk entry");
}

Pinball
recordPinball(const Program &prog, const ExecConfig &cfg,
              uint64_t quantum_instrs, ExecListener *listener)
{
    RecordingArbiter rec(std::max<uint32_t>(1, prog.numLocks),
                         static_cast<uint32_t>(prog.runList.size()));
    ExecutionEngine engine(prog, cfg, &rec);
    RoundRobinDriver driver(engine, quantum_instrs);
    driver.run(listener);

    Pinball pb;
    pb.programName = prog.name;
    pb.config = cfg;
    pb.log = rec.take();
    for (uint32_t t = 0; t < cfg.numThreads; ++t) {
        pb.threadIcounts.push_back(engine.icount(t));
        pb.threadFilteredIcounts.push_back(engine.filteredIcount(t));
    }
    return pb;
}

void
replayPinball(const Program &prog, const Pinball &pinball,
              uint64_t quantum_instrs, ExecListener *listener)
{
    if (prog.name != pinball.programName)
        fatal("replay: pinball was recorded for program '%s', not '%s'",
              pinball.programName.c_str(), prog.name.c_str());
    ReplayArbiter rep(pinball.log);
    ExecutionEngine engine(prog, pinball.config, &rep);
    RoundRobinDriver driver(engine, quantum_instrs);
    driver.run(listener);

    if (!rep.exhausted())
        fatal("replay: recorded synchronization events were not fully "
              "consumed");
    for (uint32_t t = 0; t < pinball.config.numThreads; ++t) {
        if (engine.filteredIcount(t) != pinball.threadFilteredIcounts[t])
            fatal("replay divergence: thread %u executed %llu filtered "
                  "instructions, recorded %llu", t,
                  static_cast<unsigned long long>(
                      engine.filteredIcount(t)),
                  static_cast<unsigned long long>(
                      pinball.threadFilteredIcounts[t]));
    }
}

namespace {

constexpr const char *kPinballMagicBase = "looppoint-pinball-v";
constexpr int kPinballVersion = 2;

/** Guard against a hostile table-size field forcing a huge resize. */
constexpr uint64_t kMaxIcountEntries = kMaxArtifactThreads;

std::optional<LoadError>
parsePinballPayload(std::istream &is, int version, Pinball &pb)
{
    std::string key, value;
    if (!(is >> key >> pb.programName) || key != "program")
        return streamError(is, "'program' field");
    if (!(is >> key >> pb.config.numThreads) || key != "threads")
        return streamError(is, "'threads' field");
    if (!(is >> key >> value) || key != "waitpolicy")
        return streamError(is, "'waitpolicy' field");
    if (auto policy = parseWaitPolicy(value))
        pb.config.waitPolicy = *policy;
    else
        return LoadError{LoadErrorKind::Parse,
                         "unknown wait policy '" + value + "'"};
    if (!(is >> key >> pb.config.seed) || key != "seed")
        return streamError(is, "'seed' field");
    if (version >= 2) {
        if (auto err = loadSyncTids(is, pb.config.numThreads))
            return err;
    }
    if (auto err = loadOrderTable(is, "locks", pb.log.lockOrder))
        return err;
    if (auto err = loadOrderTable(is, "chunks", pb.log.chunkOrder))
        return err;

    auto load_icounts = [&](const char *tag,
                            std::vector<uint64_t> &out)
        -> std::optional<LoadError> {
        uint64_t n = 0;
        if (!(is >> key >> n) || key != tag)
            return streamError(is, std::string("'") + tag +
                                       "' table header");
        if (n > kMaxIcountEntries)
            return LoadError{LoadErrorKind::Validation,
                             std::string("'") + tag + "' table claims " +
                                 std::to_string(n) + " entries"};
        out.resize(n);
        for (auto &v : out)
            if (!(is >> v))
                return streamError(is, std::string("'") + tag +
                                           "' table entry");
        return std::nullopt;
    };
    if (auto err = load_icounts("icounts", pb.threadIcounts))
        return err;
    if (auto err = load_icounts("filtered", pb.threadFilteredIcounts))
        return err;

    return validateExecutionRecord("pinball", pb.config.numThreads,
                                   pb.log.lockOrder, pb.log.chunkOrder,
                                   pb.threadIcounts,
                                   pb.threadFilteredIcounts);
}

} // namespace

void
Pinball::save(std::ostream &os) const
{
    std::ostringstream payload;
    payload << "program " << programName << '\n';
    payload << "threads " << config.numThreads << '\n';
    payload << "waitpolicy " << waitPolicyName(config.waitPolicy) << '\n';
    payload << "seed " << config.seed << '\n';
    saveSyncTids(payload, config.numThreads);
    saveOrderTable(payload, "locks", log.lockOrder);
    saveOrderTable(payload, "chunks", log.chunkOrder);
    payload << "icounts " << threadIcounts.size();
    for (uint64_t v : threadIcounts)
        payload << ' ' << v;
    payload << '\n';
    payload << "filtered " << threadFilteredIcounts.size();
    for (uint64_t v : threadFilteredIcounts)
        payload << ' ' << v;
    payload << '\n';
    writeFramedArtifact(os, kPinballMagicBase, kPinballVersion,
                        payload.str());
}

LoadResult<Pinball>
Pinball::tryLoad(std::istream &is)
{
    auto framed = readFramedArtifact(is, kPinballMagicBase,
                                     kPinballVersion);
    if (!framed)
        return LoadResult<Pinball>::failure(framed.error());
    const int version = framed.value().version;
    std::istringstream payload(std::move(framed.value().payload));
    Pinball pb;
    if (auto err = parsePinballPayload(payload, version, pb))
        return LoadResult<Pinball>::failure(std::move(*err));
    return LoadResult<Pinball>::success(std::move(pb));
}

Pinball
Pinball::load(std::istream &is)
{
    auto result = tryLoad(is);
    if (!result)
        fatal("pinball load failed (%s)",
              result.error().describe().c_str());
    return std::move(result).value();
}

} // namespace looppoint
