#include "isa/program.hh"

#include <algorithm>

#include "isa/addr_space.hh"
#include "util/logging.hh"

namespace looppoint {

std::string_view
opClassName(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu: return "IntAlu";
      case OpClass::IntMul: return "IntMul";
      case OpClass::IntDiv: return "IntDiv";
      case OpClass::FpAdd: return "FpAdd";
      case OpClass::FpMul: return "FpMul";
      case OpClass::FpDiv: return "FpDiv";
      case OpClass::Load: return "Load";
      case OpClass::Store: return "Store";
      case OpClass::Branch: return "Branch";
      case OpClass::AtomicRmw: return "AtomicRmw";
      default: return "???";
    }
}

uint64_t
Program::bodyItemInstrCount(const BodyItem &item) const
{
    switch (item.kind) {
      case BodyItem::Kind::Block:
      case BodyItem::Kind::Atomic:
        return blocks[item.blocks[0]].numInstrs();
      case BodyItem::Kind::Cond: {
        double expect =
            static_cast<double>(blocks[item.blocks[0]].numInstrs()) +
            item.prob *
                static_cast<double>(blocks[item.blocks[1]].numInstrs()) +
            (1.0 - item.prob) *
                static_cast<double>(blocks[item.blocks[2]].numInstrs()) +
            static_cast<double>(blocks[item.blocks[3]].numInstrs());
        return static_cast<uint64_t>(expect);
      }
      case BodyItem::Kind::Loop: {
        uint64_t inner = blocks[item.blocks[0]].numInstrs() +
                         blocks[item.blocks[1]].numInstrs();
        for (const auto &child : item.children)
            inner += bodyItemInstrCount(child);
        return inner * item.trips;
      }
      case BodyItem::Kind::Critical: {
        // Only the critical-section block and any nested body items
        // are main-image work; the acquire/release stubs live in
        // libiomp and are filtered.
        uint64_t inner = blocks[item.blocks[1]].numInstrs();
        for (const auto &child : item.children)
            inner += bodyItemInstrCount(child);
        return inner;
      }
      default:
        panic("unknown body item kind");
    }
}

uint64_t
Program::bodyInstrCount(const LoweredKernel &k) const
{
    uint64_t per_iter = blocks[k.workerHeader].numInstrs() +
                        blocks[k.workerLatch].numInstrs();
    for (const auto &item : k.body)
        per_iter += bodyItemInstrCount(item);
    return per_iter;
}

uint64_t
Program::estimateWorkInstrs(uint32_t num_threads) const
{
    (void)num_threads; // main-image work is independent of thread count
    uint64_t total = 0;
    for (uint32_t kidx : runList) {
        const LoweredKernel &k = kernels[kidx];
        uint64_t per_iter = bodyInstrCount(k);
        total += per_iter * k.parallelIters;
        total += blocks[k.entryBlock].numInstrs();
        total += blocks[k.exitBlock].numInstrs();
        if (k.masterPrologue != kInvalidBlock)
            total += blocks[k.masterPrologue].numInstrs();
        // reductionTail lives in the main image (the merge value compute);
        // executed once per participating thread; count one per thread is
        // thread-dependent but negligible — count once.
        if (k.reductionTail != kInvalidBlock)
            total += blocks[k.reductionTail].numInstrs();
    }
    return total;
}

void
Program::finalizeDerived()
{
    // Per-block flat arrays, memory-op and branch tables.
    instrCounts.resize(blocks.size());
    mainImageFlags.resize(blocks.size());
    for (size_t b = 0; b < blocks.size(); ++b) {
        BasicBlock &bb = blocks[b];
        instrCounts[b] = static_cast<uint32_t>(bb.instrs.size());
        mainImageFlags[b] = bb.image == ImageId::Main ? 1 : 0;
        bb.memOps.clear();
        bb.branches.clear();
        for (size_t i = 0; i < bb.instrs.size(); ++i) {
            const InstrDesc &ins = bb.instrs[i];
            if (ins.op == OpClass::Branch)
                bb.branches.push_back(static_cast<uint16_t>(i));
            if (!isMemOp(ins.op))
                continue;
            BlockMemOp op;
            op.index = static_cast<uint16_t>(i);
            op.stream = ins.memStream;
            op.isWrite = isMemWrite(ins.op);
            bb.memOps.push_back(op);
        }
    }

    // Per-kernel stream plans: pre-clamp stride/footprint, precompute
    // the jump-draw bound and the region base so the engine's address
    // formula is pure arithmetic at run time.
    for (size_t kidx = 0; kidx < kernels.size(); ++kidx) {
        LoweredKernel &k = kernels[kidx];
        k.plans.resize(k.streams.size());
        for (size_t si = 0; si < k.streams.size(); ++si) {
            const MemStream &s = k.streams[si];
            StreamPlan &p = k.plans[si];
            uint32_t gsi =
                static_cast<uint32_t>(kidx) * kStreamsPerKernel +
                static_cast<uint32_t>(si);
            p.stride = std::max<uint64_t>(1, s.strideBytes);
            p.footprint = std::max<uint64_t>(64, s.footprintBytes);
            p.jumpBound = p.footprint / p.stride + 1;
            p.jumpProb = s.jumpProb;
            p.shared = s.shared;
            p.base = s.shared ? sharedStreamBase(gsi)
                              : privStreamBase(gsi, 0);
        }
    }

    derived = true;
}

namespace {

void
validateItem(const Program &p, const BodyItem &item)
{
    auto check_block = [&](BlockId id) {
        LP_ASSERT(id != kInvalidBlock && id < p.blocks.size());
    };
    switch (item.kind) {
      case BodyItem::Kind::Block:
      case BodyItem::Kind::Atomic:
        check_block(item.blocks[0]);
        break;
      case BodyItem::Kind::Cond:
        for (int i = 0; i < 4; ++i)
            check_block(item.blocks[i]);
        LP_ASSERT(item.prob >= 0.0 && item.prob <= 1.0);
        break;
      case BodyItem::Kind::Loop:
        check_block(item.blocks[0]);
        check_block(item.blocks[1]);
        LP_ASSERT(item.trips >= 1);
        for (const auto &child : item.children)
            validateItem(p, child);
        break;
      case BodyItem::Kind::Critical:
        for (int i = 0; i < 3; ++i)
            check_block(item.blocks[i]);
        LP_ASSERT(item.lockId < p.numLocks);
        for (const auto &child : item.children)
            validateItem(p, child);
        break;
      default:
        panic("unknown body item kind");
    }
}

} // namespace

void
Program::validate() const
{
    LP_ASSERT(images.size() == kNumImages);
    // The engine and profilers index flat derived arrays by BlockId:
    // ids must be dense (checked below) and finalizeDerived() must
    // have run on the current block/kernel contents.
    LP_ASSERT(derivedReady());
    LP_ASSERT(instrCounts.size() == blocks.size());
    LP_ASSERT(mainImageFlags.size() == blocks.size());
    for (size_t i = 0; i < blocks.size(); ++i) {
        LP_ASSERT(blocks[i].id == i);
        LP_ASSERT(!blocks[i].instrs.empty());
        LP_ASSERT(blocks[i].routine < routines.size());
    }
    for (const auto &r : routines) {
        LP_ASSERT(r.entry != kInvalidBlock && r.entry < blocks.size());
        for (BlockId b : r.blocks)
            LP_ASSERT(b < blocks.size());
    }
    LP_ASSERT(!kernels.empty());
    for (const auto &k : kernels) {
        LP_ASSERT(k.entryBlock < blocks.size());
        LP_ASSERT(k.exitBlock < blocks.size());
        LP_ASSERT(k.workerHeader < blocks.size());
        LP_ASSERT(k.workerLatch < blocks.size());
        LP_ASSERT(inMainImage(k.workerHeader));
        LP_ASSERT(k.parallelIters >= 1);
        LP_ASSERT(k.chunkSize >= 1);
        for (const auto &item : k.body)
            validateItem(*this, item);
    }
    for (uint32_t kidx : runList)
        LP_ASSERT(kidx < kernels.size());
    LP_ASSERT(!runList.empty());
    LP_ASSERT(runtime.spinWait != kInvalidBlock);
    LP_ASSERT(blocks[runtime.spinWait].image == ImageId::LibIomp);
    LP_ASSERT(blocks[runtime.futexWait].image == ImageId::LibC);
}

} // namespace looppoint
