#include "core/region_run.hh"

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>

#include "obs/trace.hh"

namespace looppoint {

namespace {

/** Header line length; also the image offset (8-byte aligned). */
constexpr size_t kWarmHeaderBytes = WarmSnapshot::kImageOffset;

std::string
warmHeader(const RegionWorkItem &item, size_t image_bytes)
{
    char buf[kWarmHeaderBytes];
    std::snprintf(buf, sizeof(buf),
                  "looppoint-warm-v1 region=%" PRIu32 " start=%" PRIu64
                  ":%" PRIu64 " image=%zu constrained=%u",
                  item.index, static_cast<uint64_t>(item.start.pc),
                  item.start.count, image_bytes,
                  item.constrained ? 1 : 0);
    std::string line(buf);
    line.resize(kWarmHeaderBytes - 1, ' ');
    line += '\n';
    return line;
}

} // namespace

std::optional<WarmHeader>
parseWarmHeader(const std::string &payload)
{
    if (payload.size() < kWarmHeaderBytes ||
        payload[kWarmHeaderBytes - 1] != '\n')
        return std::nullopt;
    const std::string line = payload.substr(0, kWarmHeaderBytes - 1);
    WarmHeader h;
    uint64_t pc = 0;
    unsigned constrained = 0;
    int used = 0;
    if (std::sscanf(line.c_str(),
                    "looppoint-warm-v1 region=%" SCNu32 " start=%" SCNu64
                    ":%" SCNu64 " image=%zu constrained=%u%n",
                    &h.region, &pc, &h.start.count, &h.imageBytes,
                    &constrained, &used) != 5 ||
        line.find_first_not_of(' ', used) != std::string::npos ||
        constrained > 1 ||
        h.imageBytes > payload.size() - kWarmHeaderBytes)
        return std::nullopt;
    h.start.pc = pc;
    h.constrained = constrained != 0;
    return h;
}

std::string
WarmSnapshot::encode(const MulticoreSim &sim, const ReplayArbiter &arbiter,
                     const RegionWorkItem &item, bool caches)
{
    std::ostringstream tail;
    if (item.constrained)
        arbiter.saveCursors(tail);
    sim.engine().save(tail);
    const std::string tail_text = tail.str();

    const size_t image_bytes = sim.microarchStateBytes();
    std::string payload;
    payload.reserve(kWarmHeaderBytes + image_bytes + tail_text.size());
    payload += warmHeader(item, image_bytes);
    payload.resize(kWarmHeaderBytes + image_bytes);
    if (caches)
        sim.exportMicroarchState(payload.data() + kWarmHeaderBytes);
    else
        sim.exportPredictorState(payload.data() + kWarmHeaderBytes);
    payload += tail_text;
    return payload;
}

std::shared_ptr<WarmSnapshot>
WarmSnapshot::restore(std::string payload, const RegionWorkItem &item,
                      const Program &prog, const ExecConfig &exec_cfg,
                      const SimConfig &sim_cfg, const SyncLog &log,
                      std::string &why)
{
    auto snap =
        std::make_shared<WarmSnapshot>(prog, exec_cfg, sim_cfg, log);
    const size_t image_bytes = snap->sim.microarchStateBytes();
    if (payload.size() < kWarmHeaderBytes + image_bytes) {
        why = "payload of " + std::to_string(payload.size()) +
              " bytes cannot hold a " + std::to_string(image_bytes) +
              "-byte image";
        return nullptr;
    }
    if (payload.compare(0, kWarmHeaderBytes,
                        warmHeader(item, image_bytes)) != 0) {
        std::string header = payload.substr(0, kWarmHeaderBytes - 1);
        header.erase(header.find_last_not_of(' ') + 1);
        why = "header '" + header + "' does not match region " +
              std::to_string(item.index) + " with a " +
              std::to_string(image_bytes) + "-byte image";
        return nullptr;
    }
    try {
        std::istringstream iss(
            payload.substr(kWarmHeaderBytes + image_bytes));
        if (item.constrained) {
            snap->arbiter.loadCursors(iss);
            iss.ignore(std::numeric_limits<std::streamsize>::max(),
                       '\n');
        }
        snap->sim.engine() = ExecutionEngine::load(
            iss, prog, item.constrained ? &snap->arbiter : nullptr);
    } catch (const std::exception &e) {
        why = std::string("functional state: ") + e.what();
        return nullptr;
    }
    // Moving a heap-allocated string keeps its buffer, so the bound
    // image address stays valid.
    snap->backing = std::move(payload);
    snap->sim.adoptMicroarchState(snap->backing.data() +
                                  kWarmHeaderBytes);
    return snap;
}

void
runRegionAttempts(const RegionWorkItem &item, WarmSnapshot &pristine,
                  const FaultPlan &faults, RegionRunResult &out)
{
    Tracer &tracer = Tracer::global();
    const uint32_t idx = item.index;
    const uint32_t max_attempts = item.maxAttempts;
    for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
        // Per-attempt spans only matter when retries are in play; the
        // common single-attempt case is already covered by region.sim.
        ScopedSpan attempt_span(max_attempts > 1 ? &tracer : nullptr,
                                "region.attempt");
        attempt_span.arg("region", static_cast<uint64_t>(idx))
            .arg("attempt", attempt);
        try {
            const auto fault = faults.simFault(idx, attempt);
            if (fault == FaultSpec::Kind::Kill)
                throw InjectedKill("injected host death in region " +
                                   std::to_string(idx));
            if (fault == FaultSpec::Kind::Throw)
                throw InjectedFault("injected failure in region " +
                                    std::to_string(idx) + ", attempt " +
                                    std::to_string(attempt));
            const bool diverge = fault == FaultSpec::Kind::Diverge;

            // With retries in play, every attempt gets its own copy of
            // the pristine snapshot so a failed attempt's partial
            // progress cannot leak into the next; the single-attempt
            // default runs in place (no extra deep copy on the
            // fault-free path).
            std::unique_ptr<WarmSnapshot> scratch;
            MulticoreSim *sim = &pristine.sim;
            if (max_attempts > 1) {
                scratch = std::make_unique<WarmSnapshot>(
                    pristine.sim, pristine.arbiter, item.constrained);
                sim = &scratch->sim;
            }

            SimMetrics m;
            bool reached = true;
            if (item.endBlock == kInvalidBlock && !diverge) {
                m = sim->runDetailed();
            } else {
                // A diverge fault retargets the stop at a count no
                // execution can reach.
                const BlockId stop_block =
                    item.endBlock == kInvalidBlock ? 0 : item.endBlock;
                const uint64_t stop_count =
                    diverge ? std::numeric_limits<uint64_t>::max()
                            : item.end.count;
                m = sim->runDetailedUntilBudget(stop_block, stop_count,
                                                item.budget, &reached);
            }
            if (!reached)
                throw std::runtime_error(
                    "end marker not reached (divergent region; "
                    "watchdog budget " + std::to_string(item.budget) +
                    " instructions)");

            out.metrics = m;
            out.ok = true;
            out.attempts = attempt + 1;
            out.error.clear();
            return;
        } catch (const InjectedKill &) {
            out.ok = false;
            out.attempts = attempt + 1;
            out.error = "injected host death";
            throw; // simulated host death: unwinds the phase
        } catch (const std::exception &e) {
            out.ok = false;
            out.attempts = attempt + 1;
            out.error = e.what();
        }
    }
}

} // namespace looppoint
