#include "analysis/program_lint.hh"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "isa/addr_space.hh"
#include "isa/instr.hh"
#include "pinball/pinball.hh"
#include "util/logging.hh"

namespace looppoint {

namespace {

std::string
blockLoc(const Program &p, BlockId id)
{
    if (id == kInvalidBlock)
        return "block <invalid>";
    if (id >= p.blocks.size())
        return strFormat("block %u <out of range>", id);
    return strFormat("block %u (pc %#llx)", id,
                     static_cast<unsigned long long>(p.blocks[id].pc));
}

std::string
kernelLoc(const Program &p, size_t kidx)
{
    if (kidx >= p.kernels.size())
        return strFormat("kernel %zu", kidx);
    return strFormat("kernel '%s'", p.kernels[kidx].name.c_str());
}

bool
validBlock(const Program &p, BlockId id)
{
    return id != kInvalidBlock && id < p.blocks.size();
}

/** Walk a body tree with a depth guard, calling fn on every item. */
template <typename Fn>
void
walkItems(const std::vector<BodyItem> &items, Fn &&fn, int depth = 0)
{
    if (depth > 64)
        return;
    for (const BodyItem &item : items) {
        fn(item);
        if (item.kind == BodyItem::Kind::Loop ||
            item.kind == BodyItem::Kind::Critical)
            walkItems(item.children, fn, depth + 1);
    }
}

// ---------------------------------------------------------------------
// structure: the diagnostic mirror of Program::validate(). Everything
// here is bounds-checked by hand so a corrupt Program produces errors,
// not UB.
// ---------------------------------------------------------------------
class StructurePass : public LintPass
{
  public:
    std::string_view name() const override { return "structure"; }

    void
    run(const LintContext &ctx, DiagnosticSink &sink) const override
    {
        const Program &p = *ctx.prog;
        const std::string pass(name());

        if (p.images.size() != kNumImages)
            sink.error(pass, "images",
                       strFormat("expected %zu images, found %zu",
                                 kNumImages, p.images.size()));
        if (!p.derivedReady())
            sink.error(pass, "program",
                       "finalizeDerived() has not run on the current "
                       "contents");
        if (p.instrCounts.size() != p.blocks.size() ||
            p.mainImageFlags.size() != p.blocks.size())
            sink.error(pass, "program",
                       "derived per-block arrays are stale (size "
                       "mismatch with the block table)");

        for (size_t i = 0; i < p.blocks.size(); ++i) {
            const BasicBlock &bb = p.blocks[i];
            if (bb.id != i)
                sink.error(pass, strFormat("block table slot %zu", i),
                           strFormat("non-dense BlockId %u (engines "
                                     "index flat arrays by id)",
                                     bb.id));
            if (bb.instrs.empty())
                sink.error(pass, blockLoc(p, static_cast<BlockId>(i)),
                           "block has no instructions");
            if (bb.routine >= p.routines.size())
                sink.error(pass, blockLoc(p, static_cast<BlockId>(i)),
                           strFormat("routine index %u out of range "
                                     "(%zu routines)",
                                     bb.routine, p.routines.size()));
        }

        for (size_t r = 0; r < p.routines.size(); ++r) {
            const Routine &routine = p.routines[r];
            if (!validBlock(p, routine.entry))
                sink.error(pass,
                           strFormat("routine '%s'",
                                     routine.name.c_str()),
                           "entry block is invalid or out of range");
            for (BlockId b : routine.blocks)
                if (b >= p.blocks.size())
                    sink.error(pass,
                               strFormat("routine '%s'",
                                         routine.name.c_str()),
                               strFormat("member block %u out of "
                                         "range", b));
        }

        if (p.kernels.empty())
            sink.error(pass, "program", "no kernels defined");
        for (size_t k = 0; k < p.kernels.size(); ++k)
            checkKernel(p, k, sink);

        if (p.runList.empty())
            sink.error(pass, "run list", "empty run list");
        for (size_t i = 0; i < p.runList.size(); ++i)
            if (p.runList[i] >= p.kernels.size())
                sink.error(pass, strFormat("run list entry %zu", i),
                           strFormat("kernel index %u out of range "
                                     "(%zu kernels)",
                                     p.runList[i], p.kernels.size()));

        if (!validBlock(p, p.runtime.spinWait) ||
            p.blocks[p.runtime.spinWait].image != ImageId::LibIomp)
            sink.error(pass, "runtime table",
                       "spin-wait block missing or not in libiomp "
                       "(the spin filter depends on it)");
        if (!validBlock(p, p.runtime.futexWait) ||
            p.blocks[p.runtime.futexWait].image != ImageId::LibC)
            sink.error(pass, "runtime table",
                       "futex block missing or not in libc");
    }

  private:
    void
    checkKernel(const Program &p, size_t kidx,
                DiagnosticSink &sink) const
    {
        const LoweredKernel &k = p.kernels[kidx];
        const std::string pass(name());
        const std::string loc = kernelLoc(p, kidx);

        auto require = [&](BlockId id, const char *role) {
            if (!validBlock(p, id))
                sink.error(pass, loc,
                           strFormat("%s references %s", role,
                                     id == kInvalidBlock
                                         ? "an invalid block"
                                         : "an out-of-range block"));
        };
        require(k.entryBlock, "entry block");
        require(k.exitBlock, "exit block");
        require(k.workerHeader, "worker header");
        require(k.workerLatch, "worker latch");
        if (k.masterPrologue != kInvalidBlock)
            require(k.masterPrologue, "master prologue");
        if (k.reductionTail != kInvalidBlock)
            require(k.reductionTail, "reduction tail");
        if (validBlock(p, k.workerHeader) &&
            p.blocks[k.workerHeader].image != ImageId::Main)
            sink.error(pass, loc,
                       "worker header is outside the main image (it "
                       "cannot serve as a region marker)");

        if (k.parallelIters == 0)
            sink.error(pass, loc, "parallelIters is zero");
        if (k.chunkSize == 0)
            sink.error(pass, loc, "chunkSize is zero");
        if (p.derivedReady() && k.plans.size() != k.streams.size())
            sink.error(pass, loc,
                       strFormat("derived stream plans (%zu) do not "
                                 "match the stream table (%zu)",
                                 k.plans.size(), k.streams.size()));

        walkItems(k.body, [&](const BodyItem &item) {
            checkItem(p, k, item, sink);
        });
    }

    void
    checkItem(const Program &p, const LoweredKernel &k,
              const BodyItem &item, DiagnosticSink &sink) const
    {
        const std::string pass(name());
        auto check = [&](BlockId id, const char *role) {
            if (!validBlock(p, id))
                sink.error(pass,
                           strFormat("kernel '%s' body",
                                     k.name.c_str()),
                           strFormat("%s item references %s", role,
                                     id == kInvalidBlock
                                         ? "an invalid block"
                                         : "an out-of-range block"));
        };
        switch (item.kind) {
          case BodyItem::Kind::Block:
            check(item.blocks[0], "block");
            break;
          case BodyItem::Kind::Atomic:
            check(item.blocks[0], "atomic");
            break;
          case BodyItem::Kind::Cond:
            for (int i = 0; i < 4; ++i)
                check(item.blocks[i], "cond");
            if (!(item.prob >= 0.0 && item.prob <= 1.0))
                sink.error(pass,
                           strFormat("kernel '%s' body",
                                     k.name.c_str()),
                           strFormat("cond probability %g outside "
                                     "[0, 1]", item.prob));
            break;
          case BodyItem::Kind::Loop:
            check(item.blocks[0], "loop header");
            check(item.blocks[1], "loop latch");
            if (item.trips == 0)
                sink.error(pass,
                           strFormat("kernel '%s' body",
                                     k.name.c_str()),
                           "inner loop with zero trips");
            break;
          case BodyItem::Kind::Critical:
            for (int i = 0; i < 3; ++i)
                check(item.blocks[i], "critical");
            if (item.lockId >= p.numLocks)
                sink.error(pass,
                           strFormat("kernel '%s' body",
                                     k.name.c_str()),
                           strFormat("lock id %u out of range (%u "
                                     "locks declared)",
                                     item.lockId, p.numLocks));
            break;
          default:
            sink.error(pass,
                       strFormat("kernel '%s' body", k.name.c_str()),
                       "unknown body item kind");
        }
    }
};

// ---------------------------------------------------------------------
// reachability: every block must be reachable through a kernel table,
// a body item, or the runtime table, and routine membership must agree
// with the blocks' routine fields.
// ---------------------------------------------------------------------
class ReachabilityPass : public LintPass
{
  public:
    std::string_view name() const override { return "reachability"; }

    void
    run(const LintContext &ctx, DiagnosticSink &sink) const override
    {
        const Program &p = *ctx.prog;
        const std::string pass(name());
        std::vector<char> referenced(p.blocks.size(), 0);
        auto mark = [&](BlockId id) {
            if (validBlock(p, id))
                referenced[id] = 1;
        };

        mark(p.runtime.barrierEnter);
        mark(p.runtime.barrierExit);
        mark(p.runtime.spinWait);
        mark(p.runtime.futexWait);
        mark(p.runtime.chunkFetch);
        mark(p.runtime.lockAcquire);
        mark(p.runtime.lockSpin);
        mark(p.runtime.lockRelease);
        mark(p.runtime.atomicStub);

        for (const LoweredKernel &k : p.kernels) {
            mark(k.entryBlock);
            mark(k.exitBlock);
            mark(k.workerHeader);
            mark(k.workerLatch);
            mark(k.masterPrologue);
            mark(k.reductionTail);
            walkItems(k.body, [&](const BodyItem &item) {
                for (BlockId b : item.blocks)
                    mark(b);
            });
        }

        for (size_t i = 0; i < p.blocks.size(); ++i)
            if (!referenced[i])
                sink.warning(pass,
                             blockLoc(p, static_cast<BlockId>(i)),
                             "unreachable: not referenced by any "
                             "kernel or the runtime table");

        // Routine membership must be consistent both ways: profilers
        // partition the DCFG by the blocks' routine fields.
        for (size_t r = 0; r < p.routines.size(); ++r) {
            std::set<BlockId> members(p.routines[r].blocks.begin(),
                                      p.routines[r].blocks.end());
            for (BlockId b : members)
                if (b < p.blocks.size() &&
                    p.blocks[b].routine != r)
                    sink.warning(
                        pass, blockLoc(p, b),
                        strFormat("listed in routine '%s' but its "
                                  "routine field says %u",
                                  p.routines[r].name.c_str(),
                                  p.blocks[b].routine));
        }
        for (size_t i = 0; i < p.blocks.size(); ++i) {
            const BasicBlock &bb = p.blocks[i];
            if (bb.routine >= p.routines.size())
                continue; // structure pass reports this
            const auto &members = p.routines[bb.routine].blocks;
            if (std::find(members.begin(), members.end(),
                          static_cast<BlockId>(i)) == members.end())
                sink.warning(pass,
                             blockLoc(p, static_cast<BlockId>(i)),
                             strFormat("missing from its routine "
                                       "'%s' member list",
                                       p.routines[bb.routine]
                                           .name.c_str()));
        }
    }
};

// ---------------------------------------------------------------------
// streams: every StreamPlan must sit in its canonical addr_space.hh
// slot, stay inside the slot's bounds, and no two plans (or a plan and
// the stack/sync regions) may overlap.
// ---------------------------------------------------------------------
class StreamsPass : public LintPass
{
  public:
    std::string_view name() const override { return "streams"; }

    void
    run(const LintContext &ctx, DiagnosticSink &sink) const override
    {
        const Program &p = *ctx.prog;
        const std::string pass(name());

        struct Range
        {
            Addr lo = 0;
            Addr hi = 0; ///< exclusive
            std::string what;
        };
        std::vector<Range> ranges;
        ranges.push_back({kStackRegion, kStackRegion + (1ull << 40),
                          "stack region"});
        ranges.push_back({kSyncRegion, kSyncRegion + (1ull << 40),
                          "sync region"});

        for (size_t kidx = 0; kidx < p.kernels.size(); ++kidx) {
            const LoweredKernel &k = p.kernels[kidx];
            const std::string loc = kernelLoc(p, kidx);

            if (k.streams.size() > kStreamsPerKernel)
                sink.error(pass, loc,
                           strFormat("%zu streams exceed the %u-slot "
                                     "window; later streams alias the "
                                     "next kernel's address slots",
                                     k.streams.size(),
                                     kStreamsPerKernel));

            for (size_t si = 0; si < k.plans.size(); ++si) {
                const StreamPlan &plan = k.plans[si];
                const uint32_t gsi = static_cast<uint32_t>(
                    kidx * kStreamsPerKernel + si);
                const std::string sloc =
                    strFormat("%s stream %zu", loc.c_str(), si);

                if (plan.stride == 0 || plan.footprint == 0) {
                    sink.error(pass, sloc,
                               "zero stride or footprint");
                    continue;
                }
                const Addr canonical =
                    plan.shared ? sharedStreamBase(gsi)
                                : privStreamBase(gsi, 0);
                if (plan.base != canonical)
                    sink.error(pass, sloc,
                               strFormat("base %#llx escapes its "
                                         "address-space slot "
                                         "(expected %#llx)",
                                         static_cast<unsigned long long>(
                                             plan.base),
                                         static_cast<unsigned long long>(
                                             canonical)));
                if (!plan.shared &&
                    gsi + 0x100 >= 0x800)
                    sink.error(pass, sloc,
                               "private slot index reaches into the "
                               "shared-stream region");
                const uint64_t limit = plan.shared
                                           ? kStreamSlotBytes
                                           : kPrivPerThreadBytes;
                if (plan.footprint > limit)
                    sink.error(
                        pass, sloc,
                        strFormat("footprint %llu exceeds the %s "
                                  "bound %llu",
                                  static_cast<unsigned long long>(
                                      plan.footprint),
                                  plan.shared
                                      ? "shared-slot"
                                      : "per-thread private",
                                  static_cast<unsigned long long>(
                                      limit)));
                if (plan.jumpBound !=
                    plan.footprint / plan.stride + 1)
                    sink.warning(pass, sloc,
                                 "jump bound is stale (does not "
                                 "match footprint / stride + 1)");
                if (!(plan.jumpProb >= 0.0 && plan.jumpProb <= 1.0))
                    sink.error(pass, sloc,
                               strFormat("jump probability %g "
                                         "outside [0, 1]",
                                         plan.jumpProb));

                const uint64_t span =
                    plan.shared
                        ? std::min<uint64_t>(plan.footprint,
                                             kStreamSlotBytes)
                        : kStreamSlotBytes; // all threads' subregions
                ranges.push_back({plan.base, plan.base + span, sloc});
            }
        }

        std::sort(ranges.begin(), ranges.end(),
                  [](const Range &a, const Range &b) {
                      return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
                  });
        for (size_t i = 1; i < ranges.size(); ++i) {
            const Range &prev = ranges[i - 1];
            const Range &cur = ranges[i];
            if (cur.lo < prev.hi)
                sink.error(pass, cur.what,
                           strFormat("address range [%#llx, %#llx) "
                                     "overlaps %s",
                                     static_cast<unsigned long long>(
                                         cur.lo),
                                     static_cast<unsigned long long>(
                                         cur.hi),
                                     prev.what.c_str()));
        }
    }
};

// ---------------------------------------------------------------------
// sync: lock stubs must come in pairs and critical sections must use
// them; runtime stubs must live outside the main image (the spin/sync
// filter keys on the image); declared SyncUse must match actual use.
// ---------------------------------------------------------------------
class SyncPass : public LintPass
{
  public:
    std::string_view name() const override { return "sync"; }

    void
    run(const LintContext &ctx, DiagnosticSink &sink) const override
    {
        const Program &p = *ctx.prog;
        const RuntimeBlocks &rt = p.runtime;
        const std::string pass(name());

        const bool have_acquire = validBlock(p, rt.lockAcquire);
        const bool have_release = validBlock(p, rt.lockRelease);
        if (have_acquire != have_release)
            sink.error(pass, "runtime table",
                       strFormat("unpaired lock stubs: %s present "
                                 "without its counterpart",
                                 have_acquire ? "acquire"
                                              : "release"));
        const bool have_enter = validBlock(p, rt.barrierEnter);
        const bool have_exit = validBlock(p, rt.barrierExit);
        if (have_enter != have_exit)
            sink.error(pass, "runtime table",
                       strFormat("unpaired barrier stubs: %s present "
                                 "without its counterpart",
                                 have_enter ? "enter" : "exit"));
        else if (!have_enter)
            sink.error(pass, "runtime table",
                       "no barrier stubs: every kernel instance ends "
                       "with a barrier");

        auto check_image = [&](BlockId id, const char *what) {
            if (validBlock(p, id) &&
                p.blocks[id].image == ImageId::Main)
                sink.error(pass, blockLoc(p, id),
                           strFormat("%s stub is in the main image; "
                                     "the synchronization filter "
                                     "would count it as work", what));
        };
        check_image(rt.barrierEnter, "barrier-enter");
        check_image(rt.barrierExit, "barrier-exit");
        check_image(rt.chunkFetch, "chunk-fetch");
        check_image(rt.lockAcquire, "lock-acquire");
        check_image(rt.lockSpin, "lock-spin");
        check_image(rt.lockRelease, "lock-release");
        check_image(rt.atomicStub, "atomic");

        for (size_t kidx = 0; kidx < p.kernels.size(); ++kidx) {
            const LoweredKernel &k = p.kernels[kidx];
            const std::string loc = kernelLoc(p, kidx);
            bool uses_lock = false, uses_atomic = false;

            walkItems(k.body, [&](const BodyItem &item) {
                if (item.kind == BodyItem::Kind::Atomic)
                    uses_atomic = true;
                if (item.kind != BodyItem::Kind::Critical)
                    return;
                uses_lock = true;
                if (item.blocks[0] != rt.lockAcquire)
                    sink.error(pass, loc,
                               "critical section's acquire is not "
                               "the runtime lock-acquire stub "
                               "(unpaired lock acquire)");
                if (item.blocks[2] != rt.lockRelease)
                    sink.error(pass, loc,
                               "critical section's release is not "
                               "the runtime lock-release stub "
                               "(unpaired lock release)");
            });

            auto declared = [&](bool decl, bool used,
                                const char *what) {
                if (used && !decl)
                    sink.warning(pass, loc,
                                 strFormat("uses %s but does not "
                                           "declare it in SyncUse",
                                           what));
                else if (decl && !used)
                    sink.warning(pass, loc,
                                 strFormat("declares %s in SyncUse "
                                           "but never uses it",
                                           what));
            };
            declared(k.sync.lock, uses_lock, "critical sections");
            declared(k.sync.atomic, uses_atomic, "atomic updates");
            declared(k.sync.reduction,
                     k.reductionTail != kInvalidBlock, "a reduction");
            declared(k.sync.master || k.sync.single,
                     k.masterPrologue != kInvalidBlock,
                     "a master/single prologue");
            declared(k.sync.dynamicFor,
                     k.sched == SchedPolicy::DynamicFor,
                     "dynamic-for scheduling");
            declared(k.sync.staticFor,
                     k.sched == SchedPolicy::StaticFor,
                     "static-for scheduling");
        }
    }
};

// ---------------------------------------------------------------------
// loops: see lintLoopList.
// ---------------------------------------------------------------------
class LoopsPass : public LintPass
{
  public:
    std::string_view name() const override { return "loops"; }

    void
    run(const LintContext &ctx, DiagnosticSink &sink) const override
    {
        if (!ctx.dcfg) {
            sink.info(std::string(name()), "",
                      "skipped: no DCFG provided");
            return;
        }
        lintLoopList(*ctx.prog, ctx.dcfg->loops(), sink);
    }
};

// ---------------------------------------------------------------------
// markers: (PC, count) identity requires globally unique PCs, and the
// program must expose at least one main-image loop header.
// ---------------------------------------------------------------------
class MarkersPass : public LintPass
{
  public:
    std::string_view name() const override { return "markers"; }

    void
    run(const LintContext &ctx, DiagnosticSink &sink) const override
    {
        const Program &p = *ctx.prog;
        const std::string pass(name());

        std::map<Addr, BlockId> by_pc;
        for (size_t i = 0; i < p.blocks.size(); ++i) {
            auto [it, inserted] =
                by_pc.emplace(p.blocks[i].pc,
                              static_cast<BlockId>(i));
            if (!inserted)
                sink.error(pass,
                           blockLoc(p, static_cast<BlockId>(i)),
                           strFormat("shares pc %#llx with block %u; "
                                     "(PC, count) markers cannot "
                                     "distinguish them",
                                     static_cast<unsigned long long>(
                                         p.blocks[i].pc),
                                     it->second));
        }

        if (!ctx.dcfg) {
            sink.info(pass, "", "dynamic checks skipped: no DCFG "
                                "provided");
            return;
        }
        std::vector<BlockId> headers =
            ctx.dcfg->mainImageLoopHeaders();
        if (headers.empty()) {
            sink.error(pass, "dcfg",
                       "no main-image loop headers: the program "
                       "exposes no legal region markers");
            return;
        }
        for (BlockId h : headers)
            if (ctx.dcfg->blockExecs(h) == 0)
                sink.warning(pass, blockLoc(p, h),
                             "marker header has zero recorded "
                             "executions");
    }
};

/** Counts per-block executions during a replay. */
class BlockCountListener : public ExecListener
{
  public:
    explicit BlockCountListener(size_t num_blocks)
        : counts(num_blocks, 0)
    {}

    void
    onBlock(uint32_t tid, BlockId block,
            const ExecutionEngine &engine) override
    {
        (void)tid;
        (void)engine;
        ++counts[block];
    }

    std::vector<uint64_t> counts;
};

// ---------------------------------------------------------------------
// marker-stability: replay the pinball twice under different flow
// quanta and require every candidate marker block to be executed the
// same number of times in both replays and in the DCFG profile — the
// paper's "(PC, count) pairs are stable under constrained replay"
// invariant (Section III).
// ---------------------------------------------------------------------
class MarkerStabilityPass : public LintPass
{
  public:
    std::string_view name() const override
    {
        return "marker-stability";
    }

    void
    run(const LintContext &ctx, DiagnosticSink &sink) const override
    {
        const std::string pass(name());
        if (!ctx.dcfg || !ctx.pinball) {
            sink.info(pass, "",
                      "skipped: needs both a DCFG and a pinball");
            return;
        }
        const Program &p = *ctx.prog;
        std::vector<BlockId> headers =
            ctx.dcfg->mainImageLoopHeaders();
        if (headers.empty())
            return; // the markers pass reports this

        const uint64_t q1 = std::max<uint64_t>(1, ctx.flowQuantum);
        const uint64_t q2 = q1 * 3 + 17;
        BlockCountListener run1(p.numBlocks());
        BlockCountListener run2(p.numBlocks());
        if (!replay(p, *ctx.pinball, q1, run1, sink) ||
            !replay(p, *ctx.pinball, q2, run2, sink))
            return;

        size_t bad = 0;
        for (BlockId h : headers) {
            const uint64_t c1 = run1.counts[h];
            const uint64_t c2 = run2.counts[h];
            const uint64_t cd = ctx.dcfg->blockExecs(h);
            if (c1 != c2) {
                sink.error(
                    pass, blockLoc(p, h),
                    strFormat("marker count differs across "
                              "constrained replays: %llu (quantum "
                              "%llu) vs %llu (quantum %llu)",
                              static_cast<unsigned long long>(c1),
                              static_cast<unsigned long long>(q1),
                              static_cast<unsigned long long>(c2),
                              static_cast<unsigned long long>(q2)));
                ++bad;
            } else if (c1 != cd) {
                sink.error(
                    pass, blockLoc(p, h),
                    strFormat("replayed marker count %llu disagrees "
                              "with the DCFG profile count %llu",
                              static_cast<unsigned long long>(c1),
                              static_cast<unsigned long long>(cd)));
                ++bad;
            }
        }
        if (bad == 0)
            sink.info(pass, "",
                      strFormat("%zu markers stable across two "
                                "constrained replays",
                                headers.size()));
    }

  private:
    bool
    replay(const Program &p, const Pinball &pb, uint64_t quantum,
           BlockCountListener &listener, DiagnosticSink &sink) const
    {
        try {
            replayPinball(p, pb, quantum, &listener);
            return true;
        } catch (const FatalError &e) {
            sink.error(std::string(name()),
                       strFormat("replay (quantum %llu)",
                                 static_cast<unsigned long long>(
                                     quantum)),
                       strFormat("constrained replay diverged: %s",
                                 e.what()));
            return false;
        }
    }
};

} // namespace

void
lintLoopList(const Program &prog, const std::vector<DcfgLoop> &loops,
             DiagnosticSink &sink)
{
    const std::string pass = "loops";
    std::set<BlockId> headers_seen;
    std::vector<std::set<BlockId>> bodies;
    bodies.reserve(loops.size());

    for (const DcfgLoop &loop : loops) {
        std::set<BlockId> body(loop.body.begin(), loop.body.end());
        bodies.push_back(body);

        if (!validBlock(prog, loop.header)) {
            sink.error(pass, blockLoc(prog, loop.header),
                       "loop header is invalid or out of range");
            continue;
        }
        const std::string loc = blockLoc(prog, loop.header);
        if (!headers_seen.insert(loop.header).second)
            sink.error(pass, loc,
                       "two loops share this header (loop list is "
                       "malformed)");
        if (body.empty()) {
            sink.error(pass, loc, "loop has an empty body");
            continue;
        }
        if (!body.count(loop.header))
            sink.error(pass, loc,
                       "loop body does not contain its header "
                       "(non-natural loop)");
        for (BlockId b : body) {
            if (b >= prog.blocks.size()) {
                sink.error(pass, loc,
                           strFormat("body block %u out of range",
                                     b));
            } else if (prog.blocks[b].routine != loop.routine) {
                sink.error(pass, loc,
                           strFormat("body block %u belongs to "
                                     "routine %u, not the loop's "
                                     "routine %u",
                                     b, prog.blocks[b].routine,
                                     loop.routine));
            }
        }
        if (prog.blocks[loop.header].image != loop.image)
            sink.error(pass, loc,
                       "loop image tag disagrees with its header's "
                       "image");
        if (loop.backEdgeCount == 0)
            sink.warning(pass, loc,
                         "loop has no recorded back-edge traversals");
        if (loop.headerExecs < loop.backEdgeCount)
            sink.error(
                pass, loc,
                strFormat("back-edge count %llu exceeds header "
                          "executions %llu (loop accounting is "
                          "malformed)",
                          static_cast<unsigned long long>(
                              loop.backEdgeCount),
                          static_cast<unsigned long long>(
                              loop.headerExecs)));
        else if (loop.entries !=
                 loop.headerExecs - loop.backEdgeCount)
            sink.error(
                pass, loc,
                strFormat("entry count %llu inconsistent with "
                          "header executions %llu - back edges %llu",
                          static_cast<unsigned long long>(
                              loop.entries),
                          static_cast<unsigned long long>(
                              loop.headerExecs),
                          static_cast<unsigned long long>(
                              loop.backEdgeCount)));
    }

    // Natural loops either nest or are disjoint; a partial overlap
    // means the loop structure is not reducible.
    for (size_t i = 0; i < bodies.size(); ++i) {
        for (size_t j = i + 1; j < bodies.size(); ++j) {
            const auto &a = bodies[i];
            const auto &b = bodies[j];
            bool intersects = false;
            for (BlockId x : a)
                if (b.count(x)) {
                    intersects = true;
                    break;
                }
            if (!intersects)
                continue;
            auto subset = [](const std::set<BlockId> &inner,
                             const std::set<BlockId> &outer) {
                return std::includes(outer.begin(), outer.end(),
                                     inner.begin(), inner.end());
            };
            if (!subset(a, b) && !subset(b, a))
                sink.error(
                    pass,
                    blockLoc(prog, loops[i].header),
                    strFormat("overlaps loop at %s without nesting "
                              "(non-natural loop structure)",
                              blockLoc(prog, loops[j].header)
                                  .c_str()));
        }
    }
}

ProgramLint::ProgramLint()
{
    passList.push_back(std::make_unique<StructurePass>());
    passList.push_back(std::make_unique<ReachabilityPass>());
    passList.push_back(std::make_unique<StreamsPass>());
    passList.push_back(std::make_unique<SyncPass>());
    passList.push_back(std::make_unique<LoopsPass>());
    passList.push_back(std::make_unique<MarkersPass>());
    passList.push_back(std::make_unique<MarkerStabilityPass>());
}

size_t
ProgramLint::run(const LintContext &ctx, DiagnosticSink &sink,
                 const std::vector<std::string> &only) const
{
    LP_ASSERT(ctx.prog != nullptr);
    const size_t errs_before = sink.errors();
    auto enabled = [&](std::string_view name) {
        if (only.empty())
            return true;
        return std::find(only.begin(), only.end(),
                         std::string(name)) != only.end();
    };
    for (const auto &pass : passList) {
        if (!enabled(pass->name()))
            continue;
        pass->run(ctx, sink);
        if (pass->name() == "structure" &&
            sink.errors() > errs_before) {
            sink.info("lint", "",
                      "structural errors found; remaining passes "
                      "skipped (they assume a sound block table)");
            break;
        }
    }
    return sink.errors() - errs_before;
}

} // namespace looppoint
