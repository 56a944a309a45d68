/**
 * @file
 * ExecutionEngine state serialization (see engine.hh::save/load): the
 * functional state of a warm region checkpoint. Frames of
 * the body-walk stack reference BodyItems by pointer at runtime; on
 * disk they are encoded as child-index paths from the kernel body and
 * re-resolved against the (identical) program on load.
 */

#include <istream>
#include <ostream>

#include "exec/engine.hh"
#include "util/logging.hh"

namespace looppoint {

namespace {

constexpr const char *kMagic = "looppoint-engine-state-v1";

/** Structural fingerprint to catch program mismatches on load. */
uint64_t
programFingerprint(const Program &prog)
{
    uint64_t h = hashString(prog.name);
    h = hashCombine(h, prog.numBlocks());
    h = hashCombine(h, prog.kernels.size());
    h = hashCombine(h, prog.runList.size());
    for (const auto &bb : prog.blocks)
        h = hashCombine(h, (bb.pc << 8) ^ bb.numInstrs());
    return h;
}

} // namespace

void
ExecutionEngine::save(std::ostream &os) const
{
    os << kMagic << '\n';
    os << "fingerprint " << programFingerprint(*prog) << '\n';
    os << "threads " << cfg.numThreads << '\n';
    os << "waitpolicy " << static_cast<int>(cfg.waitPolicy) << '\n';
    os << "genaddr " << (cfg.genAddresses ? 1 : 0) << '\n';
    os << "seed " << cfg.seed << '\n';
    os << "finished " << finishedCount << '\n';

    os << "barriers " << barriers.size() << '\n';
    for (const auto &b : barriers)
        os << b.arrivals << ' ' << (b.released ? 1 : 0) << '\n';
    os << "chunks " << chunks.size() << '\n';
    for (const auto &c : chunks)
        os << c.next << '\n';
    os << "locks " << locks.size() << '\n';
    for (const auto &l : locks)
        os << (l.held ? 1 : 0) << ' ' << l.owner << '\n';
    os << "blockcounts " << blockCounts.size() << '\n';
    for (uint64_t c : blockCounts)
        os << c << '\n';

    os << "cursors " << cursors.size() << '\n';
    for (const Cursor &c : cursors) {
        os << "cursor " << static_cast<int>(c.st) << ' ' << c.runPos
           << ' ' << c.iterCur << ' ' << c.iterEnd << ' '
           << (c.participated ? 1 : 0) << ' ' << c.icount << ' '
           << c.filteredIcount << ' ' << c.iterAccessCursor << ' '
           << c.drawCursor << ' ' << c.stackCursor << ' '
           << (c.runnable ? 1 : 0) << ' '
           << static_cast<int>(c.waitKind) << ' ' << c.waitObj << ' '
           << c.curLock << ' ' << (c.branchTaken ? 1 : 0) << ' '
           << (c.emittedFutex ? 1 : 0) << '\n';
        c.rng.save(os);
        c.addrRng.save(os);
        os << "streampos " << c.streamPos.size() << '\n';
        for (const auto &row : c.streamPos) {
            os << row.size();
            for (uint64_t v : row)
                os << ' ' << v;
            os << '\n';
        }
        // Frames: the top frame walks the kernel body; each deeper
        // frame walks the children of a Loop or Critical item,
        // identified by its index in the parent frame's item list.
        os << "frames " << c.stack.size() << '\n';
        for (size_t i = 0; i < c.stack.size(); ++i) {
            const Frame &f = c.stack[i];
            int64_t parent_item = -1;
            if (i > 0) {
                const Frame &parent = c.stack[i - 1];
                const BodyItem *owner = f.loop ? f.loop : f.crit;
                LP_ASSERT(owner != nullptr);
                parent_item = owner - parent.items->data();
                LP_ASSERT(parent_item >= 0 &&
                          static_cast<size_t>(parent_item) <
                              parent.items->size());
            }
            os << parent_item << ' ' << f.idx << ' '
               << static_cast<int>(f.stage) << ' '
               << static_cast<int>(f.sub) << ' '
               << (f.condTaken ? 1 : 0) << ' ' << f.tripsLeft << '\n';
        }
    }
}

ExecutionEngine
ExecutionEngine::load(std::istream &is, const Program &prog,
                      SyncArbiter *arbiter)
{
    std::string line, key;
    if (!std::getline(is, line) || line != kMagic)
        fatal("not a looppoint engine state (bad magic)");

    uint64_t fingerprint = 0;
    if (!(is >> key >> fingerprint) || key != "fingerprint")
        fatal("engine state parse error: fingerprint");
    if (fingerprint != programFingerprint(prog))
        fatal("engine state was saved for a different program than "
              "'%s'", prog.name.c_str());

    ExecConfig cfg;
    int wait_policy = 0, genaddr = 0;
    if (!(is >> key >> cfg.numThreads) || key != "threads")
        fatal("engine state parse error: threads");
    if (!(is >> key >> wait_policy) || key != "waitpolicy")
        fatal("engine state parse error: waitpolicy");
    cfg.waitPolicy = static_cast<WaitPolicy>(wait_policy);
    if (!(is >> key >> genaddr) || key != "genaddr")
        fatal("engine state parse error: genaddr");
    cfg.genAddresses = genaddr != 0;
    if (!(is >> key >> cfg.seed) || key != "seed")
        fatal("engine state parse error: seed");

    ExecutionEngine eng(prog, cfg, arbiter);
    if (!(is >> key >> eng.finishedCount) || key != "finished")
        fatal("engine state parse error: finished");

    size_t n = 0;
    if (!(is >> key >> n) || key != "barriers" ||
        n != eng.barriers.size())
        fatal("engine state parse error: barriers");
    for (auto &b : eng.barriers) {
        int released = 0;
        if (!(is >> b.arrivals >> released))
            fatal("engine state parse error: barrier entry");
        b.released = released != 0;
    }
    if (!(is >> key >> n) || key != "chunks" || n != eng.chunks.size())
        fatal("engine state parse error: chunks");
    for (auto &c : eng.chunks)
        if (!(is >> c.next))
            fatal("engine state parse error: chunk entry");
    if (!(is >> key >> n) || key != "locks" || n != eng.locks.size())
        fatal("engine state parse error: locks");
    for (auto &l : eng.locks) {
        int held = 0;
        if (!(is >> held >> l.owner))
            fatal("engine state parse error: lock entry");
        l.held = held != 0;
    }
    if (!(is >> key >> n) || key != "blockcounts" ||
        n != eng.blockCounts.size())
        fatal("engine state parse error: blockcounts");
    for (auto &c : eng.blockCounts)
        if (!(is >> c))
            fatal("engine state parse error: blockcount entry");

    if (!(is >> key >> n) || key != "cursors" ||
        n != eng.cursors.size())
        fatal("engine state parse error: cursors");
    for (Cursor &c : eng.cursors) {
        int st = 0, participated = 0, runnable = 0, wait_kind = 0;
        int branch_taken = 0, emitted_futex = 0;
        if (!(is >> key >> st >> c.runPos >> c.iterCur >> c.iterEnd >>
              participated >> c.icount >> c.filteredIcount >>
              c.iterAccessCursor >> c.drawCursor >> c.stackCursor >>
              runnable >> wait_kind >> c.waitObj >> c.curLock >>
              branch_taken >> emitted_futex) ||
            key != "cursor")
            fatal("engine state parse error: cursor");
        c.st = static_cast<St>(st);
        c.participated = participated != 0;
        c.runnable = runnable != 0;
        c.waitKind = static_cast<WaitKind>(wait_kind);
        c.branchTaken = branch_taken != 0;
        c.emittedFutex = emitted_futex != 0;
        // The cached kernel pointer derives from runPos, which was
        // just overwritten.
        eng.refreshKernelCache(c);
        c.rng.load(is);
        c.addrRng.load(is);

        size_t rows = 0;
        if (!(is >> key >> rows) || key != "streampos" ||
            rows != c.streamPos.size())
            fatal("engine state parse error: streampos");
        for (auto &row : c.streamPos) {
            size_t cols = 0;
            if (!(is >> cols) || cols != row.size())
                fatal("engine state parse error: streampos row");
            for (auto &v : row)
                if (!(is >> v))
                    fatal("engine state parse error: streampos value");
        }

        size_t frames = 0;
        if (!(is >> key >> frames) || key != "frames")
            fatal("engine state parse error: frames");
        c.stack.clear();
        for (size_t i = 0; i < frames; ++i) {
            int64_t parent_item = -1;
            int stage = 0, sub = 0, cond_taken = 0;
            Frame f;
            if (!(is >> parent_item >> f.idx >> stage >> sub >>
                  cond_taken >> f.tripsLeft))
                fatal("engine state parse error: frame");
            f.stage = static_cast<uint8_t>(stage);
            f.sub = static_cast<uint8_t>(sub);
            f.condTaken = cond_taken != 0;
            if (i == 0) {
                if (parent_item != -1)
                    fatal("engine state parse error: top frame");
                if (c.runPos >= prog.runList.size())
                    fatal("engine state parse error: frame without "
                          "active kernel");
                f.loop = nullptr;
                f.items =
                    &prog.kernels[prog.runList[c.runPos]].body;
            } else {
                const Frame &parent = c.stack.back();
                if (parent_item < 0 ||
                    static_cast<size_t>(parent_item) >=
                        parent.items->size())
                    fatal("engine state parse error: frame path");
                const BodyItem &item =
                    (*parent.items)[static_cast<size_t>(parent_item)];
                if (item.kind == BodyItem::Kind::Loop)
                    f.loop = &item;
                else if (item.kind == BodyItem::Kind::Critical)
                    f.crit = &item;
                else
                    fatal("engine state parse error: frame path does "
                          "not name a loop or critical item");
                f.items = &item.children;
            }
            c.stack.push_back(f);
        }
    }
    return eng;
}

} // namespace looppoint
