/**
 * @file
 * Observation interface for dynamic execution events, analogous to a
 * Pin instrumentation callback. Listeners receive every executed basic
 * block in schedule order and may query the engine for details
 * (instruction counts, memory references, global block counts).
 */

#ifndef LOOPPOINT_EXEC_LISTENER_HH
#define LOOPPOINT_EXEC_LISTENER_HH

#include <cstdint>

#include "isa/program.hh"

namespace looppoint {

class ExecutionEngine;

/** Receives dynamic block events from a driver. */
class ExecListener
{
  public:
    virtual ~ExecListener() = default;

    /** Called after thread `tid` executed `block`. */
    virtual void onBlock(uint32_t tid, BlockId block,
                         const ExecutionEngine &engine) = 0;
};

/**
 * Lets two listeners observe one execution: every event goes to
 * `first`, then to `second`.
 */
class ListenerPair : public ExecListener
{
  public:
    ListenerPair(ExecListener &first, ExecListener &second)
        : a(&first), b(&second)
    {}

    void
    onBlock(uint32_t tid, BlockId block,
            const ExecutionEngine &engine) override
    {
        a->onBlock(tid, block, engine);
        b->onBlock(tid, block, engine);
    }

  private:
    ExecListener *a;
    ExecListener *b;
};

} // namespace looppoint

#endif // LOOPPOINT_EXEC_LISTENER_HH
