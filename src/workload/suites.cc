/**
 * @file
 * Benchmark-suite tables: the SPEC CPU2017 speed analogs (paper
 * Tables II/III) and the NPB 3.3 OpenMP analogs.
 *
 * Structural parameters (kernels per timestep, loop sizes, scheduling,
 * synchronization, locality) are chosen per app to reproduce the
 * *behavioral* properties the paper reports: barrier density
 * (imagick/xz are barrier-poor; pop2/lu barrier-rich), heterogeneity
 * (657.xz_s.2 is 4-threaded and skewed), irregular memory (cg/is/xz),
 * and strong phase regularity for the NPB codes.
 */

#include "workload/descriptor.hh"

#include "util/logging.hh"

namespace looppoint {

namespace {

KernelDesc
makeKernel(const std::string &name, SchedPolicy sched, uint64_t iters,
           uint32_t body_blocks, uint32_t instrs_per_block,
           double frac_mem, double frac_fp)
{
    KernelDesc k;
    k.name = name;
    k.sched = sched;
    k.itersPerInstance = iters;
    k.numBodyBlocks = body_blocks;
    k.instrsPerBlock = instrs_per_block;
    k.fracMem = frac_mem;
    k.fracFp = frac_fp;
    return k;
}

std::vector<AppDescriptor>
buildSpecApps()
{
    std::vector<AppDescriptor> apps;

    {
        // 603.bwaves: dense fp solver; static-for, reduction + lock.
        AppDescriptor a;
        a.name = "603.bwaves_s.1";
        a.language = "F";
        a.kloc = 1;
        a.area = "Explosion modeling";
        a.timesteps = 40;
        for (int i = 0; i < 3; ++i) {
            auto k = makeKernel(strFormat("bi_cgstab_%d", i),
                                SchedPolicy::StaticFor, 1500, 3, 56,
                                0.35, 0.55);
            k.sharedMB = 24;
            k.privateKB = 128;
            k.ilp = 5.0;
            if (i == 2) {
                k.useReduction = true;
                k.useCritical = true;
            }
            a.kernels.push_back(k);
        }
        apps.push_back(a);

        AppDescriptor a2 = a;
        a2.name = "603.bwaves_s.2";
        a2.timesteps = 25;
        for (auto &k : a2.kernels)
            k.itersPerInstance = 1800;
        apps.push_back(a2);
    }

    {
        // 607.cactuBSSN: relativity stencil; many kernels, mixed sched.
        AppDescriptor a;
        a.name = "607.cactuBSSN_s.1";
        a.language = "F, C++";
        a.kloc = 257;
        a.area = "Physics: relativity";
        a.timesteps = 20;
        for (int i = 0; i < 6; ++i) {
            auto k = makeKernel(strFormat("bssn_rhs_%d", i),
                                i % 3 == 2 ? SchedPolicy::DynamicFor
                                           : SchedPolicy::StaticFor,
                                800, 4, 44, 0.4, 0.5);
            k.sharedMB = 16;
            k.condProb = i % 2 ? 0.2 : 0.0;
            if (i == 5) {
                k.useReduction = true;
                k.useCritical = true;
            }
            a.kernels.push_back(k);
        }
        apps.push_back(a);
    }

    {
        // 619.lbm: lattice-Boltzmann streaming; single static kernel
        // style, very large shared footprint, unit-stride.
        AppDescriptor a;
        a.name = "619.lbm_s.1";
        a.language = "C";
        a.kloc = 1;
        a.area = "Fluid dynamics";
        a.timesteps = 25;
        for (int i = 0; i < 2; ++i) {
            auto k = makeKernel(strFormat("stream_collide_%d", i),
                                SchedPolicy::StaticFor, 4000, 2, 64,
                                0.45, 0.45);
            k.sharedMB = 64;
            k.strideBytes = 64;
            k.sharedFrac = 0.8;
            a.kernels.push_back(k);
        }
        apps.push_back(a);
    }

    {
        // 621.wrf: weather model; many small kernels, dynamic-for and
        // master sections.
        AppDescriptor a;
        a.name = "621.wrf_s.1";
        a.language = "F, C";
        a.kloc = 991;
        a.area = "Weather forecasting";
        a.timesteps = 12;
        for (int i = 0; i < 8; ++i) {
            auto k = makeKernel(strFormat("physics_%d", i),
                                i % 2 ? SchedPolicy::DynamicFor
                                      : SchedPolicy::StaticFor,
                                600, 3, 40, 0.35, 0.4);
            k.chunkSize = 4;
            k.sharedMB = 8;
            k.condProb = 0.3;
            if (i == 0)
                k.useMaster = true;
            a.kernels.push_back(k);
        }
        apps.push_back(a);
    }

    {
        // 627.cam4: atmosphere; static+dynamic, master sections.
        AppDescriptor a;
        a.name = "627.cam4_s.1";
        a.language = "F, C";
        a.kloc = 407;
        a.area = "Atmosphere modeling";
        a.timesteps = 15;
        for (int i = 0; i < 5; ++i) {
            auto k = makeKernel(strFormat("cam_tphys_%d", i),
                                i == 3 ? SchedPolicy::DynamicFor
                                       : SchedPolicy::StaticFor,
                                1000, 3, 48, 0.35, 0.45);
            k.sharedMB = 12;
            k.condProb = i == 1 ? 0.4 : 0.0;
            if (i == 0)
                k.useMaster = true;
            if (i == 4)
                k.useSingle = true;
            a.kernels.push_back(k);
        }
        apps.push_back(a);
    }

    {
        // 628.pop2: ocean model; barrier-rich (many timesteps, small
        // inter-barrier regions).
        AppDescriptor a;
        a.name = "628.pop2_s.1";
        a.language = "F, C";
        a.kloc = 338;
        a.area = "Wide-scale ocean modeling";
        a.timesteps = 80;
        for (int i = 0; i < 4; ++i) {
            auto k = makeKernel(strFormat("baroclinic_%d", i),
                                SchedPolicy::StaticFor, 200, 3, 40,
                                0.35, 0.5);
            k.sharedMB = 12;
            if (i == 0)
                k.useMaster = true;
            if (i == 3)
                k.useReduction = true;
            a.kernels.push_back(k);
        }
        apps.push_back(a);
    }

    {
        // 638.imagick: image pipeline; two huge parallel loops per run
        // and almost no barriers (93B-instruction inter-barrier region
        // in the paper).
        AppDescriptor a;
        a.name = "638.imagick_s.1";
        a.language = "C";
        a.kloc = 259;
        a.area = "Image manipulation";
        a.timesteps = 2;
        for (int i = 0; i < 2; ++i) {
            auto k = makeKernel(strFormat("morphology_apply_%d", i),
                                SchedPolicy::StaticFor, 60000, 2, 56,
                                0.3, 0.35);
            k.innerTrips = (i == 0) ? 1 : 0;
            k.sharedMB = 32;
            k.condProb = 0.15;
            k.useReduction = (i == 1);
            k.useAtomic = (i == 1);
            k.useCritical = (i == 1);
            k.useSingle = (i == 0);
            a.kernels.push_back(k);
        }
        apps.push_back(a);
    }

    {
        // 644.nab: molecular dynamics; dynamic-for with atomics/locks.
        AppDescriptor a;
        a.name = "644.nab_s.1";
        a.language = "C";
        a.kloc = 24;
        a.area = "Molecular dynamics";
        a.timesteps = 18;
        for (int i = 0; i < 3; ++i) {
            auto k = makeKernel(strFormat("egb_pair_%d", i),
                                SchedPolicy::DynamicFor, 1200, 3, 44,
                                0.4, 0.45);
            k.chunkSize = 16;
            k.sharedMB = 6;
            k.jumpProb = 0.05;
            k.useAtomic = (i != 1);
            if (i == 2)
                k.useCritical = true;
            a.kernels.push_back(k);
        }
        apps.push_back(a);

        AppDescriptor a2 = a;
        a2.name = "644.nab_s.2";
        a2.timesteps = 28;
        apps.push_back(a2);
    }

    {
        // 649.fotonik3d: FDTD electromagnetics; regular static loops.
        AppDescriptor a;
        a.name = "649.fotonik3d_s.1";
        a.language = "F";
        a.kloc = 14;
        a.area = "Comp. Electromagnetics";
        a.timesteps = 30;
        for (int i = 0; i < 3; ++i) {
            auto k = makeKernel(strFormat("update_field_%d", i),
                                SchedPolicy::StaticFor, 1200, 3, 48,
                                0.4, 0.55);
            k.sharedMB = 20;
            k.strideBytes = 16;
            a.kernels.push_back(k);
        }
        apps.push_back(a);
    }

    {
        // 654.roms: regional ocean model; regular static loops.
        AppDescriptor a;
        a.name = "654.roms_s.1";
        a.language = "F";
        a.kloc = 210;
        a.area = "Regional ocean modeling";
        a.timesteps = 25;
        for (int i = 0; i < 4; ++i) {
            auto k = makeKernel(strFormat("step3d_%d", i),
                                SchedPolicy::StaticFor, 1000, 3, 48,
                                0.35, 0.5);
            k.sharedMB = 16;
            k.condProb = i == 2 ? 0.25 : 0.0;
            a.kernels.push_back(k);
        }
        apps.push_back(a);
    }

    {
        // 657.xz_s.1: single-threaded compression; branchy, irregular.
        AppDescriptor a;
        a.name = "657.xz_s.1";
        a.language = "C";
        a.kloc = 33;
        a.area = "General data compression";
        a.threadsOverride = 1;
        a.timesteps = 6;
        for (int i = 0; i < 2; ++i) {
            auto k = makeKernel(strFormat("lzma_encode_%d", i),
                                SchedPolicy::Serial, 8000, 2, 56, 0.35,
                                0.0);
            k.condProb = 0.35;
            k.jumpProb = 0.15;
            k.privateKB = 4096;
            k.sharedFrac = 0.2;
            a.kernels.push_back(k);
        }
        apps.push_back(a);
    }

    {
        // 657.xz_s.2: 4-threaded, barrier-free (single kernel
        // instance), heavily imbalanced — the paper's example of
        // non-homogeneous thread behavior (Fig. 3) and of constrained
        // replay going wrong (19.6% error).
        AppDescriptor a;
        a.name = "657.xz_s.2";
        a.language = "C";
        a.kloc = 33;
        a.area = "General data compression";
        a.threadsOverride = 4;
        a.timesteps = 1;
        {
            auto k = makeKernel("xz_read_input", SchedPolicy::Serial,
                                9000, 2, 48, 0.35, 0.0);
            k.condProb = 0.3;
            k.privateKB = 2048;
            a.kernels.push_back(k);
        }
        for (int i = 0; i < 2; ++i) {
            auto k = makeKernel(strFormat("lzma_worker_%d", i),
                                SchedPolicy::DynamicFor, 40000, 2, 56,
                                0.35, 0.0);
            k.chunkSize = 64;
            k.condProb = 0.35;
            k.jumpProb = 0.15;
            k.privateKB = 4096;
            k.sharedFrac = 0.25;
            k.imbalance = 0.8;
            a.kernels.push_back(k);
        }
        apps.push_back(a);
    }

    return apps;
}

std::vector<AppDescriptor>
buildNpbApps()
{
    std::vector<AppDescriptor> apps;

    auto add = [&](AppDescriptor a) { apps.push_back(std::move(a)); };

    {
        AppDescriptor a;
        a.name = "npb-bt";
        a.suite = Suite::NpbOmp;
        a.language = "F";
        a.kloc = 9;
        a.area = "Block tri-diagonal solver";
        a.timesteps = 25;
        const char *names[5] = {"x_solve", "y_solve", "z_solve",
                                "compute_rhs", "add"};
        for (int i = 0; i < 5; ++i) {
            auto k = makeKernel(names[i], SchedPolicy::StaticFor, 800,
                                3, 52, 0.4, 0.55);
            k.sharedMB = 20;
            a.kernels.push_back(k);
        }
        add(a);
    }

    {
        AppDescriptor a;
        a.name = "npb-cg";
        a.suite = Suite::NpbOmp;
        a.language = "F";
        a.kloc = 2;
        a.area = "Conjugate gradient";
        a.timesteps = 40;
        auto spmv = makeKernel("spmv", SchedPolicy::StaticFor, 1500, 2,
                               46, 0.5, 0.4);
        spmv.jumpProb = 0.3; // indirect accesses
        spmv.sharedMB = 40;
        spmv.useReduction = true;
        a.kernels.push_back(spmv);
        auto axpy = makeKernel("axpy", SchedPolicy::StaticFor, 1200, 1,
                               40, 0.5, 0.5);
        axpy.sharedMB = 24;
        a.kernels.push_back(axpy);
        add(a);
    }

    {
        AppDescriptor a;
        a.name = "npb-ep";
        a.suite = Suite::NpbOmp;
        a.language = "F";
        a.kloc = 1;
        a.area = "Embarrassingly parallel";
        a.timesteps = 1;
        // One long parallel region; lots of compute per byte touched,
        // so the compulsory-miss transient is a tiny fraction of the
        // run (as in the real benchmark).
        auto k = makeKernel("gaussian_pairs", SchedPolicy::StaticFor,
                            100000, 2, 64, 0.15, 0.6);
        k.innerTrips = 2;
        k.privateKB = 64;
        k.sharedMB = 2;
        // Random-number-driven accesses: stationary, position-free
        // memory behavior (every slice looks alike, as in real EP).
        k.jumpProb = 1.0;
        k.sharedFrac = 0.05;
        // EP is embarrassingly parallel: threads only meet in the
        // final sum reduction (no per-iteration locking).
        k.useReduction = true;
        a.kernels.push_back(k);
        add(a);
    }

    {
        AppDescriptor a;
        a.name = "npb-ft";
        a.suite = Suite::NpbOmp;
        a.language = "F";
        a.kloc = 1;
        a.area = "3-D FFT";
        a.timesteps = 12;
        const char *names[3] = {"fftz_x", "fftz_y", "fftz_z"};
        for (int i = 0; i < 3; ++i) {
            auto k = makeKernel(names[i], SchedPolicy::StaticFor, 2000,
                                2, 56, 0.4, 0.55);
            k.sharedMB = 48;
            k.strideBytes = i == 0 ? 8 : 256; // transposed passes
            a.kernels.push_back(k);
        }
        add(a);
    }

    {
        AppDescriptor a;
        a.name = "npb-is";
        a.suite = Suite::NpbOmp;
        a.language = "C";
        a.kloc = 1;
        a.area = "Integer sort";
        a.timesteps = 15;
        auto rank = makeKernel("rank", SchedPolicy::StaticFor, 4000, 2,
                               40, 0.5, 0.0);
        rank.jumpProb = 0.4; // histogram scatter
        rank.sharedMB = 32;
        rank.useAtomic = true;
        a.kernels.push_back(rank);
        add(a);
    }

    {
        AppDescriptor a;
        a.name = "npb-lu";
        a.suite = Suite::NpbOmp;
        a.language = "F";
        a.kloc = 6;
        a.area = "LU decomposition";
        a.timesteps = 30;
        const char *names[6] = {"jacld", "blts", "jacu", "buts",
                                "rhs", "l2norm"};
        for (int i = 0; i < 6; ++i) {
            auto k = makeKernel(names[i], SchedPolicy::StaticFor, 500,
                                3, 44, 0.4, 0.5);
            k.sharedMB = 16;
            if (i == 5)
                k.useReduction = true;
            a.kernels.push_back(k);
        }
        add(a);
    }

    {
        AppDescriptor a;
        a.name = "npb-mg";
        a.suite = Suite::NpbOmp;
        a.language = "F";
        a.kloc = 3;
        a.area = "Multi-grid";
        a.timesteps = 20;
        const char *names[4] = {"resid", "psinv", "rprj3", "interp"};
        for (int i = 0; i < 4; ++i) {
            auto k = makeKernel(names[i], SchedPolicy::StaticFor, 1000,
                                2, 52, 0.45, 0.5);
            // Multigrid levels: footprints vary widely across kernels.
            k.sharedMB = 64 >> (i * 2 < 6 ? i * 2 : 6);
            a.kernels.push_back(k);
        }
        add(a);
    }

    {
        AppDescriptor a;
        a.name = "npb-sp";
        a.suite = Suite::NpbOmp;
        a.language = "F";
        a.kloc = 5;
        a.area = "Scalar penta-diagonal solver";
        a.timesteps = 30;
        const char *names[5] = {"x_solve", "y_solve", "z_solve",
                                "compute_rhs", "txinvr"};
        for (int i = 0; i < 5; ++i) {
            auto k = makeKernel(names[i], SchedPolicy::StaticFor, 600,
                                3, 46, 0.4, 0.55);
            k.sharedMB = 20;
            a.kernels.push_back(k);
        }
        add(a);
    }

    {
        AppDescriptor a;
        a.name = "npb-ua";
        a.suite = Suite::NpbOmp;
        a.language = "F";
        a.kloc = 10;
        a.area = "Unstructured adaptive mesh";
        a.timesteps = 18;
        for (int i = 0; i < 6; ++i) {
            auto k = makeKernel(strFormat("diffusion_%d", i),
                                i % 2 ? SchedPolicy::DynamicFor
                                      : SchedPolicy::StaticFor,
                                700, 2, 44, 0.4, 0.45);
            k.chunkSize = 8;
            k.jumpProb = 0.15;
            k.useAtomic = (i % 3 == 0);
            a.kernels.push_back(k);
        }
        add(a);
    }

    return apps;
}

std::vector<AppDescriptor>
buildPthreadApps()
{
    std::vector<AppDescriptor> apps;

    {
        // A software pipeline: irregular stage with a contended input
        // queue (lock), then an independent compute stage. No
        // OpenMP-style static partitioning discipline at all.
        AppDescriptor a;
        a.name = "pt-pipeline";
        a.suite = Suite::PthreadLike;
        a.language = "C";
        a.kloc = 4;
        a.area = "Lock-based software pipeline";
        // Batch-granularity locking: threads take the queue lock once
        // per batch refill, then decode a batch worth of items. A
        // per-item global lock saturates 8 threads and its convoy
        // dynamics are runtime-dependent behavior outside the
        // methodology's applicability (paper Section III-K).
        a.timesteps = 40;
        auto refill = makeKernel("refill_batches",
                                 SchedPolicy::DynamicFor, 48, 2, 40,
                                 0.35, 0.0);
        refill.chunkSize = 1;
        refill.sharedMB = 2;
        refill.useCritical = true;
        a.kernels.push_back(refill);
        auto decode = makeKernel("decode_transform",
                                 SchedPolicy::DynamicFor, 1400, 3, 64,
                                 0.35, 0.3);
        decode.chunkSize = 4;
        decode.condProb = 0.3;
        decode.sharedMB = 2;
        decode.jumpProb = 0.2;
        a.kernels.push_back(decode);
        apps.push_back(a);
    }

    {
        // A work-queue application: tasks claimed one at a time from a
        // shared queue (dynamic-for, chunk 1), results merged through
        // atomics. Heterogeneous task sizes via a conditional.
        AppDescriptor a;
        a.name = "pt-workqueue";
        a.suite = Suite::PthreadLike;
        a.language = "C++";
        a.kloc = 7;
        a.area = "Task queue with atomics";
        a.timesteps = 6;
        // Unit-size task claiming stays cheap relative to the task
        // body (inner loop), so the shared counter is contended but
        // not the bottleneck.
        auto k = makeKernel("worker_loop", SchedPolicy::DynamicFor,
                            800, 2, 90, 0.35, 0.2);
        k.chunkSize = 1;
        k.condProb = 0.4;
        k.innerTrips = 16;
        k.jumpProb = 0.1;
        k.useAtomic = true;
        a.kernels.push_back(k);
        apps.push_back(a);
    }

    {
        // A lock-chained update application (hash-table style):
        // short critical sections on two locks, imbalanced threads.
        AppDescriptor a;
        a.name = "pt-lockchain";
        a.suite = Suite::PthreadLike;
        a.language = "C";
        a.kloc = 3;
        a.area = "Concurrent table updates";
        a.timesteps = 20;
        for (int i = 0; i < 2; ++i) {
            auto k = makeKernel(strFormat("update_shard_%d", i),
                                SchedPolicy::StaticFor, 1200, 3, 56,
                                0.45, 0.0);
            k.jumpProb = 0.25;
            k.useCritical = true;
            k.imbalance = i == 1 ? 0.6 : 0.0;
            a.kernels.push_back(k);
        }
        apps.push_back(a);
    }

    return apps;
}

AppDescriptor
buildDemoApp()
{
    AppDescriptor a;
    a.name = "demo-matrix";
    a.suite = Suite::Demo;
    a.language = "C";
    a.kloc = 1;
    a.area = "Demo: blocked matrix multiply";
    a.timesteps = 10;
    auto k = makeKernel("matmul_tile", SchedPolicy::StaticFor, 600, 2,
                        48, 0.4, 0.5);
    k.innerTrips = 4;
    k.sharedMB = 4;
    a.kernels.push_back(k);
    return a;
}

} // namespace

const std::vector<AppDescriptor> &
spec2017Apps()
{
    static const std::vector<AppDescriptor> apps = buildSpecApps();
    return apps;
}

const std::vector<AppDescriptor> &
npbApps()
{
    static const std::vector<AppDescriptor> apps = buildNpbApps();
    return apps;
}

const std::vector<AppDescriptor> &
pthreadApps()
{
    static const std::vector<AppDescriptor> apps = buildPthreadApps();
    return apps;
}

const AppDescriptor &
demoMatrixApp()
{
    static const AppDescriptor app = buildDemoApp();
    return app;
}

const AppDescriptor &
findApp(const std::string &name)
{
    for (const auto &a : spec2017Apps())
        if (a.name == name)
            return a;
    for (const auto &a : npbApps())
        if (a.name == name)
            return a;
    for (const auto &a : pthreadApps())
        if (a.name == name)
            return a;
    if (demoMatrixApp().name == name)
        return demoMatrixApp();
    fatal("unknown application '%s'", name.c_str());
}

std::string
resolveArtifactProgram(const std::string &prog)
{
    auto dash1 = prog.find('-');
    auto dash2 = prog.rfind('-');
    if (dash1 == std::string::npos || dash2 == dash1)
        fatal("program '%s' is not of the form "
              "<suite>-<application>-<input-num>", prog.c_str());
    std::string suite = prog.substr(0, dash1);
    std::string app = prog.substr(dash1 + 1, dash2 - dash1 - 1);
    std::string input_num = prog.substr(dash2 + 1);

    if (suite == "demo")
        return "demo-matrix";
    if (suite == "npb")
        return "npb-" + app;
    if (suite == "pt")
        return "pt-" + app;
    if (suite == "spec") {
        // Accept either the numbered name (spec-638.imagick_s-1) or
        // the short name (spec-imagick-1).
        for (const auto &d : spec2017Apps()) {
            if (d.name == app + "." + input_num)
                return d.name;
            // short form: match ".<short>_s.<num>"
            std::string needle = "." + app + "_s." + input_num;
            if (d.name.size() > needle.size() &&
                d.name.compare(d.name.size() - needle.size(),
                               needle.size(), needle) == 0)
                return d.name;
        }
        fatal("unknown SPEC program '%s'", prog.c_str());
    }
    fatal("unknown suite '%s' (expected demo, spec, npb, or pt)",
          suite.c_str());
}

InputClass
resolveInputClass(const std::string &name)
{
    for (InputClass c : {InputClass::Test, InputClass::Train, InputClass::Ref,
                         InputClass::NpbA, InputClass::NpbC, InputClass::NpbD})
        if (inputClassName(c) == name)
            return c;
    fatal("unknown input class '%s'", name.c_str());
}

} // namespace looppoint
