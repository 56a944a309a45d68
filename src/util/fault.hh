/**
 * @file
 * Deterministic fault injection for the fault-tolerance layer. A
 * FaultPlan is parsed from a compact spec string (CLI `--inject-fault`)
 * and threaded through SimConfig, so every failure path — a region
 * simulation that throws, a divergent region whose end marker never
 * arrives, a host death mid-phase, a corrupted artifact byte — can be
 * exercised reproducibly in tests and CI.
 *
 * Spec grammar (';'-separated clauses, each `site:key=val,...`):
 *
 *   sim:region=3,kind=throw           every attempt of region 3 throws
 *   sim:region=3,kind=throw,times=1   only the first attempt throws
 *                                     (the retry succeeds)
 *   sim:region=3,kind=diverge         region 3's end marker is made
 *                                     unreachable (watchdog territory)
 *   sim:region=3,kind=kill            host death: aborts the phase,
 *                                     not retried (journal-resume path)
 *   sim:region=3,kind=interrupt       a shutdown request fires before
 *                                     region 3 warms: the run parks at
 *                                     the boundary and exits 4 (the
 *                                     supervisor-SIGTERM path, minus
 *                                     the signal)
 *   corrupt:byte=17                   flip byte 17 of an artifact
 *   corrupt:byte=rand,seed=7          flip a seeded-random byte
 *   job:index=2,kind=crash            campaign job 2 SIGKILLs itself
 *   job:index=2,kind=wedge,times=1    job 2's first attempt hangs
 *                                     until the watchdog escalates
 *   job:index=2,kind=corrupt-result   job 2 writes garbage result.json
 *                                     and still exits 0
 *
 * The plan is pure data: nothing fires unless the hosting code asks
 * (simFault() in the checkpointed-simulation loop, corrupt() in the
 * artifact-corruption harness).
 */

#ifndef LOOPPOINT_UTIL_FAULT_HH
#define LOOPPOINT_UTIL_FAULT_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace looppoint {

/** One fault clause. See file comment for the grammar. */
struct FaultSpec
{
    enum class Site : uint8_t
    {
        Sim,     ///< fires inside a region's detailed simulation
        Corrupt, ///< flips a byte of a serialized artifact
        Job      ///< fires in a supervised campaign job child
    };
    enum class Kind : uint8_t
    {
        Throw,    ///< the attempt throws InjectedFault (retryable)
        Diverge,  ///< the end marker becomes unreachable
        Kill,     ///< InjectedKill aborts the whole phase (not retried)
        Wedge,    ///< job site: the child hangs and ignores SIGTERM,
                  ///< so the watchdog must escalate
        FlipByte, ///< corrupt-site: XOR 0xFF one payload byte
        Interrupt, ///< sim site: request shutdown at this boundary
        Crash,     ///< job site: the child SIGKILLs itself
        CorruptResult ///< job site: garbage result.json, then exit 0
    };

    Site site = Site::Sim;
    Kind kind = Kind::Throw;
    /** Sim site: target region index (LoopPointResult::regions).
     * Job site: target job index in matrix order. */
    uint32_t region = 0;
    /** Sim/job site: fail only the first `times` attempts; 0 = all. */
    uint32_t times = 0;
    /** Corrupt site: byte offset to flip (when not randomized). */
    uint64_t byte = 0;
    /** Corrupt site: pick the offset from this seed instead. */
    std::optional<uint64_t> seed;

    bool operator==(const FaultSpec &other) const = default;
};

/** Thrown by an injected `kind=throw` fault; caught by the retry
 * loop like any real region failure. */
class InjectedFault : public std::runtime_error
{
  public:
    explicit InjectedFault(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Thrown by `kind=kill`: simulated host death. Escapes the phase so
 * tests (and `run_all.sh --faults`) can exercise journal resume. */
class InjectedKill : public std::runtime_error
{
  public:
    explicit InjectedKill(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** A parsed, deterministic set of fault clauses. */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /**
     * Parse a spec string (see file comment). Throws FatalError on a
     * malformed spec — a bad plan is a usage error, not a run fault.
     * An empty string yields an empty plan.
     */
    static FaultPlan parse(const std::string &spec);

    bool empty() const { return clauses.empty(); }
    const std::vector<FaultSpec> &specs() const { return clauses; }
    void add(FaultSpec spec) { clauses.push_back(spec); }

    /**
     * The sim-site fault to apply to `attempt` (0-based) of region
     * `region`, or nullopt. `times`-limited clauses stop matching once
     * the attempt index reaches their budget.
     */
    std::optional<FaultSpec::Kind> simFault(uint32_t region,
                                            uint32_t attempt) const;

    /**
     * The job-site fault to apply to `attempt` (0-based) of campaign
     * job `index`, or nullopt. Same `times` semantics as simFault().
     */
    std::optional<FaultSpec::Kind> jobFault(uint32_t index,
                                            uint32_t attempt) const;

    /** Apply every corrupt-site clause to `bytes` in order. Offsets
     * are taken modulo the payload size; empty payloads are left
     * alone. */
    void corrupt(std::string &bytes) const;

    bool operator==(const FaultPlan &other) const = default;

  private:
    std::vector<FaultSpec> clauses;
};

} // namespace looppoint

#endif // LOOPPOINT_UTIL_FAULT_HH
