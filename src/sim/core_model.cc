#include "sim/core_model.hh"

#include <algorithm>

#include "util/logging.hh"

namespace looppoint {

CoreModel::CoreModel(const SimConfig &cfg_, uint32_t core_id,
                     CacheHierarchy &hierarchy_)
    : cfg(cfg_), coreId(core_id), hierarchy(&hierarchy_),
      inOrder(cfg_.coreType == CoreType::InOrder),
      ring(kRing, 0)
{
    for (size_t op = 0; op < kNumOpClasses; ++op)
        latTable[op] = opLatency(static_cast<OpClass>(op));
}

uint32_t
CoreModel::opLatency(OpClass op) const
{
    switch (op) {
      case OpClass::IntAlu: return cfg.latIntAlu;
      case OpClass::IntMul: return cfg.latIntMul;
      case OpClass::IntDiv: return cfg.latIntDiv;
      case OpClass::FpAdd: return cfg.latFpAdd;
      case OpClass::FpMul: return cfg.latFpMul;
      case OpClass::FpDiv: return cfg.latFpDiv;
      case OpClass::Branch: return cfg.latBranch;
      default: return 1;
    }
}

void
CoreModel::executeBlock(const BasicBlock &bb,
                        const std::vector<MemRef> &refs,
                        bool branch_taken)
{
    ++coreStats.blocks;

    // Instruction fetch: an I-cache miss stalls the front end.
    MemAccessResult fetch = hierarchy->fetch(coreId, bb.pc);
    if (fetch.latency > cfg.l1i.latency)
        dispatchCycle += static_cast<double>(fetch.latency -
                                             cfg.l1i.latency);

    // Loop-invariant configuration and simulation state live in locals
    // for the duration of the block: the hierarchy and predictor calls
    // inside the loop are opaque to the compiler, which would otherwise
    // reload the members around every call.
    const double width_step = 1.0 / cfg.dispatchWidth;
    const bool in_order = inOrder;
    const uint64_t rob_size = cfg.robSize;
    const uint32_t atomic_extra = cfg.latAtomicExtra;
    const double mispredict_penalty =
        static_cast<double>(cfg.branchMispredictPenalty);
    const InstrDesc *instrs = bb.instrs.data();
    const size_t num_instrs = bb.instrs.size();
    const MemRef *ref_data = refs.data();
    const size_t num_refs = refs.size();
    uint64_t *ring_data = ring.data();
    size_t ref_cursor = 0;
    double dispatch_cycle = dispatchCycle;
    uint64_t max_completion = maxCompletion;
    uint64_t sequence = seq;

    for (size_t i = 0; i < num_instrs; ++i) {
        const InstrDesc &d = instrs[i];
        double dispatch = dispatch_cycle;

        // The ROB bounds how far dispatch runs ahead of the oldest
        // incomplete instruction.
        if (!in_order && sequence >= rob_size) {
            uint64_t oldest = ring_data[(sequence - rob_size) % kRing];
            dispatch = std::max(dispatch, static_cast<double>(oldest));
        }

        // Register dependences through the completion ring.
        double ready = dispatch;
        if (d.srcDist1 && d.srcDist1 <= sequence) {
            uint64_t t = ring_data[(sequence - d.srcDist1) % kRing];
            ready = std::max(ready, static_cast<double>(t));
        }
        if (d.srcDist2 && d.srcDist2 <= sequence) {
            uint64_t t = ring_data[(sequence - d.srcDist2) % kRing];
            ready = std::max(ready, static_cast<double>(t));
        }

        uint64_t latency;
        if (isMemOp(d.op)) {
            MemRef ref{};
            if (ref_cursor < num_refs &&
                ref_data[ref_cursor].instrIndex == i) {
                ref = ref_data[ref_cursor];
                ++ref_cursor;
            }
            MemAccessResult mr =
                hierarchy->access(coreId, ref.addr, isMemWrite(d.op));
            if (d.op == OpClass::Store) {
                // Stores retire through the store buffer: one cycle to
                // issue; the cache access happens in the background.
                latency = 1;
            } else if (d.op == OpClass::AtomicRmw) {
                latency = mr.latency + atomic_extra;
            } else {
                latency = mr.latency;
            }
        } else {
            latency = latTable[static_cast<size_t>(d.op)];
        }

        double completion = ready + static_cast<double>(latency);
        ring_data[sequence % kRing] = static_cast<uint64_t>(completion);
        ++sequence;
        max_completion = std::max(max_completion,
                                  static_cast<uint64_t>(completion));

        if (in_order) {
            // Issue in order: a stalled instruction stalls dispatch.
            dispatch_cycle = std::max(dispatch_cycle + width_step, ready);
        } else {
            dispatch_cycle = dispatch + width_step;
        }

        if (d.op == OpClass::Branch) {
            Addr pc = bb.pc + 4 * static_cast<Addr>(i);
            bool correct = bp.predictAndTrain(pc, branch_taken);
            if (!correct) {
                // Redirect: the front end resumes after resolution.
                dispatch_cycle = std::max(
                    dispatch_cycle, completion + mispredict_penalty);
            }
        }
    }

    dispatchCycle = dispatch_cycle;
    maxCompletion = max_completion;
    seq = sequence;
    coreStats.instructions += num_instrs;
}

void
CoreModel::advanceTo(uint64_t cycle)
{
    dispatchCycle = std::max(dispatchCycle, static_cast<double>(cycle));
}

void
CoreModel::resetTime()
{
    dispatchCycle = 0.0;
    maxCompletion = 0;
    seq = 0;
    std::fill(ring.begin(), ring.end(), 0);
}

} // namespace looppoint
