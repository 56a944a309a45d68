/**
 * @file
 * Workload descriptors: the structural stand-ins for the paper's
 * benchmark binaries.
 *
 * Each AppDescriptor encodes the properties LoopPoint's methodology is
 * sensitive to — phase structure (kernels per timestep), loop shapes,
 * scheduling policy, synchronization primitive use (paper Table III),
 * thread-imbalance, instruction mix, and memory locality — without
 * reproducing the benchmark's semantics. The generator lowers a
 * descriptor to a concrete Program for a given input class.
 *
 * Input classes mirror the paper: SPEC train is the validation size,
 * SPEC ref is profiled but never fully simulated (Fig. 9), and the NPB
 * classes A/C/D scale the NAS analogs (Fig. 1, 6, 10).
 */

#ifndef LOOPPOINT_WORKLOAD_DESCRIPTOR_HH
#define LOOPPOINT_WORKLOAD_DESCRIPTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace looppoint {

/** Benchmark suite an app belongs to. */
enum class Suite : uint8_t
{
    Spec2017Speed,
    NpbOmp,
    /** Pthread-style workloads (lock/atomic-heavy, barrier-poor). */
    PthreadLike,
    Demo
};

/** Input size class (SPEC: Test/Train/Ref; NPB: A/C/D). */
enum class InputClass : uint8_t
{
    Test,
    Train,
    Ref,
    NpbA,
    NpbC,
    NpbD
};

std::string_view inputClassName(InputClass c);

/** Iteration/timestep multipliers for an input class. */
struct ClassScale
{
    double itersMul = 1.0;
    double stepsMul = 1.0;
};

ClassScale classScale(InputClass c);

/** Structural recipe for one parallel region (kernel). */
struct KernelDesc
{
    std::string name;
    SchedPolicy sched = SchedPolicy::StaticFor;
    /** Parallel-loop iterations per kernel instance (pre-scaling). */
    uint64_t itersPerInstance = 1024;
    uint64_t chunkSize = 8;
    uint32_t numBodyBlocks = 2;
    uint32_t instrsPerBlock = 48;
    double fracMem = 0.30;
    double fracFp = 0.0;
    double ilp = 4.0;
    /** >0 adds an inner counted loop around the last body block. */
    uint64_t innerTrips = 0;
    uint32_t innerJitter = 0;
    /** >0 adds an if/else diamond taken with this probability. */
    double condProb = 0.0;
    /** Static-for share skew (0 = balanced). */
    double imbalance = 0.0;
    bool useAtomic = false;
    bool useCritical = false;
    bool useReduction = false;
    bool useMaster = false;
    bool useSingle = false;
    /** Private (per-thread) stream footprint. */
    uint64_t privateKB = 256;
    /** Shared stream footprint. */
    uint64_t sharedMB = 8;
    uint32_t strideBytes = 8;
    double jumpProb = 0.0;
    /** Fraction of memory ops hitting the shared stream. */
    double sharedFrac = 0.5;
};

/** Static metadata + structure of one benchmark app/input combo. */
struct AppDescriptor
{
    std::string name;
    Suite suite = Suite::Spec2017Speed;
    /** Paper Table II metadata. */
    std::string language;
    uint32_t kloc = 0;
    std::string area;
    /**
     * 0 = run with the requested thread count; nonzero pins the count
     * (657.xz_s.2 is 4-threaded, 657.xz_s.1 single-threaded).
     */
    uint32_t threadsOverride = 0;
    std::vector<KernelDesc> kernels;
    /** Kernel indices run once before the timestep loop. */
    std::vector<uint32_t> prologueKernels;
    /**
     * Kernel indices executed each timestep; empty = all kernels not
     * in the prologue, in declaration order.
     */
    std::vector<uint32_t> mainLoopKernels;
    /** Timestep count (pre-scaling). */
    uint64_t timesteps = 30;

    /** Thread count actually used for a requested count. */
    uint32_t
    effectiveThreads(uint32_t requested) const
    {
        return threadsOverride ? threadsOverride : requested;
    }

    /** Union of synchronization features over all kernels. */
    SyncUse declaredSync() const;
};

/** SPEC CPU2017 speed analogs (14 app/input combos, paper Table II). */
const std::vector<AppDescriptor> &spec2017Apps();

/** NPB 3.3 OpenMP analogs (9 apps; npb-dc excluded as in the paper). */
const std::vector<AppDescriptor> &npbApps();

/**
 * Pthread-style analogs: lock/atomic-centric applications with no
 * OpenMP-style loop scheduling discipline, exercising the paper's
 * claim that the methodology is synchronization-agnostic (Section I
 * contribution 1, Section III-K). Not part of the paper's evaluation;
 * used by the ext_generic_sync extension bench.
 */
const std::vector<AppDescriptor> &pthreadApps();

/** The artifact's matrix-omp demo application. */
const AppDescriptor &demoMatrixApp();

/** Look up an app by name across all suites; throws FatalError. */
const AppDescriptor &findApp(const std::string &name);

/**
 * Translate an artifact-style program name
 * (<suite>-<application>-<input-num>, e.g. demo-matrix-1,
 * spec-roms-1, npb-bt-1) to a workload-table app name; throws
 * FatalError on an unknown suite or program. Shared by run_looppoint
 * and lp_campaign so both spell workloads the same way.
 */
std::string resolveArtifactProgram(const std::string &prog);

/** The inverse of inputClassName() (test, train, ref, A, C, D);
 * throws FatalError on an unknown name. */
InputClass resolveInputClass(const std::string &name);

/** Lower a descriptor to a concrete Program for an input class. */
Program generateProgram(const AppDescriptor &app, InputClass input);

} // namespace looppoint

#endif // LOOPPOINT_WORKLOAD_DESCRIPTOR_HH
