#include "dist/region_farm.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

#include "dist/frame.hh"
#include "dist/protocol.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace looppoint {

namespace {

/** Format a double exactly like ScopedSpan::arg(double) does, so the
 * coordinator-emitted region.sim events parse identically in
 * lp_report. */
std::string
argDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
argU64(uint64_t v)
{
    return std::to_string(v);
}

std::string
describeExit(int status)
{
    if (WIFSIGNALED(status))
        return std::string("killed by signal ") +
               std::to_string(WTERMSIG(status));
    if (WIFEXITED(status))
        return "exited with status " + std::to_string(WEXITSTATUS(status));
    return "exited abnormally";
}

} // namespace

ProcsBackend::ProcsBackend(ProcsBackendOptions opts_,
                           CompletionSink sink_, RewarmFn rewarm_)
    : opts(std::move(opts_)), sink(std::move(sink_)),
      rewarm(std::move(rewarm_))
{
    LP_ASSERT(opts.workers >= 1);
    LP_ASSERT(opts.prog != nullptr && opts.syncLog != nullptr &&
              opts.arenaBytes > 0);
    slots.resize(opts.workers);
    workerTracks.assign(opts.workers, UINT32_MAX);

    for (Slot &slot : slots) {
        slot.arena = ::mmap(nullptr, opts.arenaBytes,
                            PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_ANONYMOUS, -1, 0);
        if (slot.arena == MAP_FAILED)
            fatal("procs backend: mmap(%zu) failed: %s",
                  opts.arenaBytes, std::strerror(errno));
    }

    // Build the worker simulator once, pre-fork: every worker (and
    // every respawn) inherits it copy-on-write instead of paying its
    // own multi-millisecond construction. Workers never write the
    // cache arrays (those rebind into the shared arena), so the big
    // allocations stay physically shared across the fleet.
    workerSim = std::make_unique<MulticoreSim>(*opts.prog, opts.execCfg,
                                               opts.simCfg, nullptr);
    if (workerSim->microarchStateBytes() != opts.arenaBytes)
        fatal("procs backend: arena size %zu does not match the "
              "worker simulator's microarch state (%zu bytes)",
              opts.arenaBytes, workerSim->microarchStateBytes());

    // Fork the whole fleet now, while the coordinator image is still
    // small and clean: one copy-on-write epoch for the entire run
    // instead of one per region (see the file comment).
    for (uint32_t i = 0; i < opts.workers; ++i)
        spawnWorker(i);
}

ProcsBackend::~ProcsBackend()
{
    // Unwind safety: never leave orphan workers simulating.
    for (Slot &slot : slots) {
        if (slot.live) {
            ::kill(slot.pid, SIGKILL);
            int status = 0;
            while (::waitpid(slot.pid, &status, 0) < 0 &&
                   errno == EINTR) {
            }
            if (slot.fd >= 0)
                ::close(slot.fd);
            slot.live = false;
            slot.busy = false;
        }
        if (slot.arena != nullptr) {
            ::munmap(slot.arena, opts.arenaBytes);
            slot.arena = nullptr;
        }
    }
}

uint32_t
ProcsBackend::busyCount() const
{
    uint32_t n = 0;
    for (const Slot &slot : slots)
        n += slot.busy ? 1 : 0;
    return n;
}

bool
ProcsBackend::sendCounted(int fd, const std::string &payload)
{
    using clock = std::chrono::steady_clock;
    MetricsRegistry &reg = MetricsRegistry::global();
    const auto t0 = clock::now();
    const std::string frame = encodeDistFrame(payload);
    size_t off = 0;
    bool ok = true;
    while (off < frame.size()) {
        const ssize_t n = ::send(fd, frame.data() + off,
                                 frame.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // State frames outgrow the socket buffer. The worker
                // is guaranteed to be draining (it reads every frame
                // before it simulates), so waiting for space cannot
                // deadlock; a dead peer surfaces as POLLERR and then
                // a send failure.
                pollfd pfd{fd, POLLOUT, 0};
                while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
                }
                continue;
            }
            ok = false;
            break;
        }
        off += static_cast<size_t>(n);
    }
    reg.counter("backend.procs.frames_tx").add();
    reg.counter("backend.procs.bytes_tx").add(off);
    reg.counter("backend.procs.protocol_us")
        .add(static_cast<uint64_t>(
            std::chrono::duration<double, std::micro>(clock::now() - t0)
                .count()));
    return ok;
}

void
ProcsBackend::spawnWorker(uint32_t slot_idx)
{
    Slot &slot = slots[slot_idx];
    LP_ASSERT(!slot.live && slot.fd < 0);

    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        fatal("procs backend: socketpair failed: %s",
              std::strerror(errno));

    // Flush stdio so the child does not replay buffered output, and
    // note the coordinator must be single-threaded here (the caller
    // tears down its thread pool before selecting this backend).
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("procs backend: fork failed: %s", std::strerror(errno));

    if (pid == 0) {
        // Worker: keep only this worker's channel. Closing every other
        // worker's descriptor is what makes EOF on a channel mean
        // "that worker is gone" — an inherited duplicate would hold
        // the channel open past its owner's death.
        ::close(fds[0]);
        for (const Slot &other : slots) {
            if (other.fd >= 0)
                ::close(other.fd);
        }
        workerMain(fds[1], slot.arena);
        // workerMain never returns.
    }

    ::close(fds[1]);
    const int flags = ::fcntl(fds[0], F_GETFL, 0);
    ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);

    slot.live = true;
    slot.pid = pid;
    slot.fd = fds[0];
    slot.rxBuf.clear();

    MetricsRegistry::global().counter("backend.procs.spawns").add();
}

void
ProcsBackend::dispatch(uint32_t slot_idx, const RegionWorkItem &item,
                       uint32_t attempt_base, MulticoreSim &warm_base,
                       const ReplayArbiter &warm_arbiter)
{
    Slot &slot = slots[slot_idx];
    LP_ASSERT(!slot.busy);
    if (!slot.live)
        spawnWorker(slot_idx);

    slot.busy = true;
    slot.item = item;
    slot.attemptBase = attempt_base;
    slot.lastProgress = -1;
    slot.resultSeen = false;
    slot.timedOut = false;
    slot.protoError.clear();
    slot.dispatchNs = Tracer::global().nowNs();

    // Ship the checkpoint: microarchitectural state into the shared
    // arena (one memcpy, adopted zero-copy on the other side), the
    // functional state and replay cursors over the socket.
    warm_base.exportMicroarchState(slot.arena);

    DistStateHeader header;
    header.region = item.index;
    header.arenaBytes = opts.arenaBytes;
    header.constrained = item.constrained;
    std::ostringstream state;
    state << encodeStateHeader(header) << '\n';
    if (item.constrained)
        warm_arbiter.saveCursors(state);
    warm_base.engine().save(state);
    const std::string state_payload = state.str();

    MetricsRegistry &reg = MetricsRegistry::global();
    reg.counter("backend.procs.dispatches").add();
    reg.counter("backend.procs.ship_bytes")
        .add(opts.arenaBytes + state_payload.size());

    DistTaskMsg task;
    task.item = item;
    task.attemptBase = attempt_base;
    if (!sendCounted(slot.fd, encodeTaskMsg(task)) ||
        !sendCounted(slot.fd, state_payload)) {
        // The worker died before reading its task; the reap path will
        // classify the death when the channel reports EOF.
        warn("procs backend: worker %u rejected its task frames",
             slot_idx);
    }
}

void
ProcsBackend::workerMain(int fd, void *arena)
{
    using clock = std::chrono::steady_clock;

    // One simulator per worker process, inherited copy-on-write from
    // the coordinator's pre-fork template (the ctor validated its
    // arena size) and re-aimed at each task by loading the shipped
    // functional state and binding its caches into the shared arena.
    MulticoreSim &sim = *workerSim;
    ReplayArbiter arbiter(*opts.syncLog);

    // One receive buffer for the whole channel lifetime: each read
    // that completes a frame usually slurps the head of the next one
    // (task and state frames arrive back to back).
    std::string rx;

    for (;;) {
        bool clean_eof = false;
        auto task_frame = readFrameFd(fd, rx, &clean_eof);
        if (!task_frame.ok())
            ::_exit(clean_eof ? 0 : 2); // clean EOF = shutdown signal
        auto task = parseTaskMsg(task_frame.value());
        if (!task.ok())
            ::_exit(2);
        const RegionWorkItem item = task.value().item;
        const uint32_t attempt_base = task.value().attemptBase;

        auto state_frame = readFrameFd(fd, rx, &clean_eof);
        if (!state_frame.ok()) {
            ::_exit(2);
        }
        const std::string &state = state_frame.value();
        const size_t nl = state.find('\n');
        if (nl == std::string::npos)
            ::_exit(2);
        auto header = parseStateHeader(state.substr(0, nl));
        if (!header.ok() || header.value().region != item.index ||
            header.value().arenaBytes != opts.arenaBytes ||
            header.value().constrained != item.constrained)
            ::_exit(2);

        try {
            std::istringstream iss(state.substr(nl + 1));
            arbiter = ReplayArbiter(*opts.syncLog);
            if (item.constrained) {
                arbiter.loadCursors(iss);
                iss.ignore(
                    std::numeric_limits<std::streamsize>::max(), '\n');
            }
            sim.engine() = ExecutionEngine::load(
                iss, *opts.prog,
                item.constrained ? &arbiter : nullptr);
            sim.adoptMicroarchState(arena);
        } catch (...) {
            ::_exit(2);
        }

        const auto t0 = clock::now();
        RegionRunResult res;
        try {
            runRegionAttempts(
                item, sim, arbiter, opts.faults, res, attempt_base,
                [&](uint32_t attempt) {
                    DistProgressMsg progress;
                    progress.region = item.index;
                    progress.attempt = attempt;
                    writeFrameFd(fd, encodeProgressMsg(progress));
                },
                /*hang_on_wedge=*/true);
        } catch (const InjectedKill &) {
            // Simulated host death: under this backend it takes down
            // one worker process, exactly like a real crash would.
            ::raise(SIGKILL);
            ::_exit(3); // unreachable
        } catch (...) {
            ::_exit(2);
        }

        DistResultMsg out;
        out.region = item.index;
        out.ok = res.ok;
        out.wallSeconds =
            std::chrono::duration<double>(clock::now() - t0).count();
        if (res.ok) {
            out.record.regionIndex = item.index;
            out.record.start = item.start;
            out.record.end = item.end;
            out.record.multiplier = item.multiplier;
            out.record.attempts = res.attempts;
            out.record.metrics = res.metrics;
            out.attempts = res.attempts;
        } else {
            out.attempts = res.attempts;
            out.error = res.error;
        }
        writeFrameFd(fd, encodeResultMsg(out));
    }
}

void
ProcsBackend::submitSnapshots(std::vector<RegionWorkItem> items,
                              SnapshotSource source)
{
    for (const RegionWorkItem &item : items) {
        const std::shared_ptr<WarmSnapshot> snap = source(item);
        dispatchToFreeSlot(item, snap->sim, snap->arbiter);
    }
}

void
ProcsBackend::dispatchToFreeSlot(const RegionWorkItem &item,
                                 MulticoreSim &warm_base,
                                 const ReplayArbiter &warm_arbiter)
{
    // Find a free slot, draining completions (blocking if saturated).
    // Prefer a live idle worker over reviving a dead slot: the latter
    // costs a fork against the now-dirty coordinator image.
    for (;;) {
        int dead_idle = -1;
        for (uint32_t i = 0; i < slots.size(); ++i) {
            if (slots[i].busy)
                continue;
            if (slots[i].live) {
                dispatch(i, item, 0, warm_base, warm_arbiter);
                return;
            }
            if (dead_idle < 0)
                dead_idle = static_cast<int>(i);
        }
        if (dead_idle >= 0) {
            dispatch(static_cast<uint32_t>(dead_idle), item, 0,
                     warm_base, warm_arbiter);
            return;
        }
        pump(/*need_slot=*/true);
    }
}

void
ProcsBackend::handleFrames(Slot &slot)
{
    using clock = std::chrono::steady_clock;
    MetricsRegistry &reg = MetricsRegistry::global();
    for (;;) {
        const auto t0 = clock::now();
        auto extracted = tryExtractFrame(slot.rxBuf);
        reg.counter("backend.procs.protocol_us")
            .add(static_cast<uint64_t>(
                std::chrono::duration<double, std::micro>(clock::now() -
                                                          t0)
                    .count()));
        if (!extracted)
            return;
        reg.counter("backend.procs.frames_rx").add();
        if (!extracted->ok() || !slot.busy) {
            // A frame from an idle worker is as much a protocol
            // violation as a garbled one.
            slot.protoError = "protocol error from worker: " +
                              (extracted->ok()
                                   ? std::string("unsolicited frame")
                                   : extracted->error().describe());
            ::kill(slot.pid, SIGKILL);
            return;
        }
        const std::string &payload = extracted->value();
        const std::string tag = distMsgTag(payload);
        if (tag == "progress") {
            auto msg = parseProgressMsg(payload);
            if (!msg.ok() || msg.value().region != slot.item.index) {
                slot.protoError = "protocol error from worker: bad "
                                  "progress frame";
                ::kill(slot.pid, SIGKILL);
                return;
            }
            slot.lastProgress = msg.value().attempt;
        } else if (tag == "result") {
            auto msg = parseResultMsg(payload);
            const bool identity_ok =
                msg.ok() && !slot.resultSeen &&
                msg.value().region == slot.item.index &&
                (!msg.value().ok ||
                 (msg.value().record.start == slot.item.start &&
                  msg.value().record.end == slot.item.end &&
                  msg.value().record.multiplier ==
                      slot.item.multiplier));
            if (!identity_ok) {
                slot.protoError = "protocol error from worker: bad "
                                  "result frame";
                ::kill(slot.pid, SIGKILL);
                return;
            }
            const DistResultMsg &result = msg.value();
            slot.resultSeen = true;
            // The slot frees immediately; the worker stays live,
            // blocked in readFrame waiting for its next region.
            slot.busy = false;

            RegionCompletion completion;
            completion.item = slot.item;
            completion.result.ok = result.ok;
            completion.result.attempts = result.attempts;
            completion.result.error = result.error;
            if (result.ok)
                completion.result.metrics = result.record.metrics;
            completion.wallSeconds = result.wallSeconds;
            completion.worker =
                static_cast<uint32_t>(&slot - slots.data());
            recordTaskTrace(slot, completion);
            sink(completion);
        } else {
            slot.protoError = "protocol error from worker: unknown "
                              "message tag '" + tag + "'";
            ::kill(slot.pid, SIGKILL);
            return;
        }
    }
}

void
ProcsBackend::recordTaskTrace(const Slot &slot,
                              const RegionCompletion &completion)
{
    Tracer &tracer = Tracer::global();
    if (!tracer.enabled())
        return;
    const uint32_t worker =
        static_cast<uint32_t>(&slot - slots.data());
    if (workerTracks[worker] == UINT32_MAX)
        workerTracks[worker] = tracer.virtualTrack(
            "worker " + std::to_string(worker));
    const uint64_t now = tracer.nowNs();
    const uint64_t dur =
        now > slot.dispatchNs ? now - slot.dispatchNs : 0;

    // Per-worker utilization: one backend.task span per dispatch on
    // the worker's own track (spans on a worker track are sequential,
    // so they trivially nest).
    TraceEvent task_ev;
    task_ev.name = "backend.task";
    task_ev.phase = 'X';
    task_ev.tsNs = slot.dispatchNs;
    task_ev.durNs = dur;
    task_ev.track = workerTracks[worker];
    task_ev.args = {
        {"region", argU64(slot.item.index), false},
        {"worker", argU64(worker), false},
        {"attempt_base", argU64(slot.attemptBase), false},
        {"ok", argU64(completion.result.ok ? 1 : 0), false},
    };
    tracer.record(std::move(task_ev));

    // The region.sim span the pool backend would have emitted, placed
    // on the region's virtual track with the same args, so lp_report's
    // per-region table is backend-agnostic.
    TraceEvent sim_ev;
    sim_ev.name = "region.sim";
    sim_ev.phase = 'X';
    sim_ev.tsNs = slot.dispatchNs;
    sim_ev.durNs = dur;
    sim_ev.track = tracer.virtualTrack(
        "region " + std::to_string(slot.item.index));
    sim_ev.args = {
        {"region", argU64(slot.item.index), false},
        {"multiplier", argDouble(slot.item.multiplier), false},
        {"icount", argU64(slot.item.filteredIcount), false},
    };
    if (completion.result.ok) {
        const SimMetrics &m = completion.result.metrics;
        sim_ev.args.push_back({"cycles", argU64(m.cycles), false});
        sim_ev.args.push_back(
            {"instructions", argU64(m.instructions), false});
        sim_ev.args.push_back({"ipc", argDouble(m.ipc()), false});
        sim_ev.args.push_back(
            {"l2_mpki", argDouble(m.l2Mpki()), false});
    }
    sim_ev.args.push_back(
        {"ok", argU64(completion.result.ok ? 1 : 0), false});
    sim_ev.args.push_back(
        {"attempts", argU64(completion.result.attempts), false});
    sim_ev.args.push_back({"worker", argU64(worker), false});
    tracer.record(std::move(sim_ev));
}

void
ProcsBackend::reap(Slot &slot)
{
    // The EOF that lands here usually means the worker already exited,
    // but one caller reaches reap on a read *error*, where the worker
    // may still be alive — and a blocking waitpid on a live worker
    // would deadlock the coordinator. SIGKILL first: a no-op on a
    // zombie, and it makes the waitpid below total either way.
    ::kill(slot.pid, SIGKILL);
    int status = 0;
    while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
    }
    finishReap(slot, status);
}

void
ProcsBackend::finishReap(Slot &slot, int status)
{
    ::close(slot.fd);
    slot.fd = -1;
    slot.live = false;

    if (!slot.busy)
        return; // idle worker exit (shutdown, or killed after result)
    slot.busy = false;

    // Worker death mid-region: charge the attempts it consumed (it was
    // inside `lastProgress` when it died; with no progress frame seen,
    // charge the attempt it was dispatched with) and either retry with
    // the remaining budget or finally fail the region.
    ++deaths;
    MetricsRegistry::global().counter("backend.procs.deaths").add();
    const uint32_t consumed = static_cast<uint32_t>(
        slot.lastProgress >= 0 ? slot.lastProgress + 1
                               : slot.attemptBase + 1);

    std::string why;
    if (slot.timedOut)
        why = "worker timed out (wedged) and was killed";
    else if (!slot.protoError.empty())
        why = slot.protoError;
    else
        why = "worker process died mid-region (" +
              describeExit(status) + ")";

    if (consumed < slot.item.maxAttempts) {
        retries.push_back(Retry{slot.item, consumed});
        warn("procs backend: region %u: %s; retrying (attempt %u of "
             "%u)",
             slot.item.index, why.c_str(), consumed + 1,
             slot.item.maxAttempts);
        // The trace still shows the doomed dispatch on the worker
        // track.
        RegionCompletion dead;
        dead.item = slot.item;
        dead.result.ok = false;
        dead.result.attempts = consumed;
        dead.result.error = why;
        recordTaskTrace(slot, dead);
        return;
    }

    RegionCompletion completion;
    completion.item = slot.item;
    completion.result.ok = false;
    completion.result.attempts = consumed;
    completion.result.error = why;
    completion.wallSeconds =
        static_cast<double>(Tracer::global().nowNs() -
                            slot.dispatchNs) /
        1e9;
    completion.worker = static_cast<uint32_t>(&slot - slots.data());
    recordTaskTrace(slot, completion);
    sink(completion);
}

void
ProcsBackend::pump(bool need_slot)
{
    for (;;) {
        if (busyCount() == 0)
            return;

        std::vector<pollfd> fds;
        std::vector<uint32_t> fd_slot;
        for (uint32_t i = 0; i < slots.size(); ++i) {
            if (!slots[i].busy)
                continue;
            fds.push_back(pollfd{slots[i].fd, POLLIN, 0});
            fd_slot.push_back(i);
        }

        // Poll timeout: a bounded heartbeat even when waiting for a
        // slot — never block indefinitely on the channels alone. Each
        // heartbeat runs the liveness sweep below, so a worker death
        // whose EOF is somehow lost (or a kernel-side lost wakeup)
        // degrades to a short delay instead of a coordinator hang.
        // The wedge timeout needs finer resolution when armed.
        int timeout_ms = need_slot ? 250 : 0;
        if (opts.workerTimeoutSeconds > 0.0)
            timeout_ms = need_slot ? 50 : 0;

        int rc = ::poll(fds.data(),
                        static_cast<nfds_t>(fds.size()), timeout_ms);
        if (rc < 0 && errno != EINTR)
            fatal("procs backend: poll failed: %s",
                  std::strerror(errno));
        for (size_t f = 0; f < fds.size(); ++f) {
            if (!(fds[f].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Slot &slot = slots[fd_slot[f]];
            bool eof = false;
            char chunk[4096];
            for (;;) {
                const ssize_t n =
                    ::read(slot.fd, chunk, sizeof(chunk));
                if (n > 0) {
                    slot.rxBuf.append(chunk,
                                      static_cast<size_t>(n));
                    MetricsRegistry::global()
                        .counter("backend.procs.bytes_rx")
                        .add(static_cast<uint64_t>(n));
                    continue;
                }
                if (n == 0) {
                    eof = true;
                    break;
                }
                if (errno == EINTR)
                    continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    break;
                eof = true; // treat read errors as a dead channel
                break;
            }
            handleFrames(slot);
            if (eof)
                reap(slot);
        }

        // Liveness sweep: notice any worker that exited without its
        // EOF having surfaced yet. Normally the closed channel reports
        // first and reap() does the waiting; this sweep is the backstop
        // that keeps a missed EOF — and an *idle* worker dying, whose
        // channel is not even polled — from lingering. Draining the
        // channel before classifying preserves any result frames the
        // worker flushed before it died.
        for (uint32_t i = 0; i < slots.size(); ++i) {
            Slot &slot = slots[i];
            if (!slot.live)
                continue;
            int status = 0;
            const pid_t rcw = ::waitpid(slot.pid, &status, WNOHANG);
            if (rcw != slot.pid)
                continue;
            char chunk[4096];
            for (;;) {
                const ssize_t n = ::read(slot.fd, chunk, sizeof(chunk));
                if (n > 0) {
                    slot.rxBuf.append(chunk, static_cast<size_t>(n));
                    continue;
                }
                if (n < 0 && errno == EINTR)
                    continue;
                break;
            }
            handleFrames(slot);
            finishReap(slot, status);
        }

        // Wedge timeout: SIGKILL overdue workers; the EOF that
        // follows takes the normal death path.
        if (opts.workerTimeoutSeconds > 0.0) {
            const uint64_t now = Tracer::global().nowNs();
            for (Slot &slot : slots) {
                if (!slot.busy || slot.timedOut)
                    continue;
                const double in_flight_s =
                    static_cast<double>(now - slot.dispatchNs) / 1e9;
                if (in_flight_s > opts.workerTimeoutSeconds) {
                    slot.timedOut = true;
                    ::kill(slot.pid, SIGKILL);
                }
            }
        }

        if (!need_slot)
            return;
        for (const Slot &slot : slots)
            if (!slot.busy)
                return;
    }
}

void
ProcsBackend::shutdownWorkers()
{
    // Closing the channel is the shutdown signal: each worker's next
    // readFrame sees a clean EOF and _exits(0).
    for (Slot &slot : slots) {
        LP_ASSERT(!slot.busy);
        if (!slot.live)
            continue;
        ::close(slot.fd);
        slot.fd = -1;
    }
    // Bounded wait: a worker stuck mid-syscall (or wedged by an
    // injected fault after its result) must not hang the coordinator's
    // exit path. Give the fleet a grace window to see the EOF, then
    // SIGKILL stragglers — at this point every region result is
    // already in hand, so the kill loses nothing.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (Slot &slot : slots) {
        if (!slot.live)
            continue;
        int status = 0;
        for (;;) {
            const pid_t rc = ::waitpid(slot.pid, &status, WNOHANG);
            if (rc == slot.pid)
                break;
            if (rc < 0 && errno != EINTR)
                break;
            if (std::chrono::steady_clock::now() >= deadline) {
                ::kill(slot.pid, SIGKILL);
                while (::waitpid(slot.pid, &status, 0) < 0 &&
                       errno == EINTR) {
                }
                break;
            }
            // Fine-grained: a clean exit lands within a scheduler
            // quantum, and this wait sits on the phase's tail.
            ::usleep(500);
        }
        slot.live = false;
    }
}

void
ProcsBackend::finish()
{
    // Drain every in-flight worker.
    while (busyCount() > 0)
        pump(/*need_slot=*/true);

    // Retries: regions whose worker died with attempt budget left.
    // Each needs warm state the dead worker took with it, so the
    // producer re-warms (replaying the exact original stop schedule —
    // the retried region's warm state is bit-identical to the first
    // dispatch) and we run the retry to completion before the next.
    while (!retries.empty()) {
        Retry retry = retries.front();
        retries.pop_front();
        ++respawns;
        MetricsRegistry::global()
            .counter("backend.procs.respawns")
            .add();
        // Prefer a surviving worker for the retry; a dead slot would
        // cost a fresh fork against the dirty coordinator image.
        uint32_t slot_idx = 0;
        for (uint32_t i = 0; i < slots.size(); ++i) {
            if (slots[i].live && !slots[i].busy) {
                slot_idx = i;
                break;
            }
        }
        rewarm(retry.item.index,
               [&](MulticoreSim &sim, const ReplayArbiter &arbiter) {
                   dispatch(slot_idx, retry.item, retry.attemptBase,
                            sim, arbiter);
               });
        while (busyCount() > 0)
            pump(/*need_slot=*/true);
    }

    shutdownWorkers();
}

} // namespace looppoint
