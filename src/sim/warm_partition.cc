#include "sim/warm_partition.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "util/logging.hh"

namespace looppoint {

WarmCheckpoint::WarmCheckpoint(std::string payload_)
    : payload(std::move(payload_)), pending(0), complete(true)
{
}

WarmCheckpoint::WarmCheckpoint(std::string payload_, size_t image_offset,
                               uint32_t contributors)
    : payload(std::move(payload_)), pending(contributors),
      complete(contributors == 0)
{
    LP_ASSERT(image_offset <= payload.size());
    imageStart =
        reinterpret_cast<unsigned char *>(payload.data()) + image_offset;
}

std::string
WarmCheckpoint::take()
{
    std::unique_lock<std::mutex> lock(mtx);
    cv.wait(lock, [this] { return complete; });
    return std::move(payload);
}

void
WarmCheckpoint::contributed()
{
    if (pending.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return;
    {
        std::lock_guard<std::mutex> lock(mtx);
        complete = true;
    }
    cv.notify_all();
}

uint32_t
PartitionedWarmer::partitionsFor(const SimConfig &cfg, uint32_t jobs)
{
    if (jobs <= 1 || cfg.prefetchDegree > 0)
        return 1;
    return std::min(jobs, CacheHierarchy::fewestSets(cfg));
}

PartitionedWarmer::PartitionedWarmer(const SimConfig &cfg,
                                     uint32_t num_cores,
                                     uint32_t partitions)
{
    LP_ASSERT(partitions >= 2 && cfg.prefetchDegree == 0);
    const uint32_t fewest = CacheHierarchy::fewestSets(cfg);
    LP_ASSERT(partitions <= fewest);
    lineShift = static_cast<uint32_t>(__builtin_ctz(cfg.l3.lineBytes));
    setMask = fewest - 1;
    owner.resize(fewest);
    for (uint32_t r = 0; r < fewest; ++r)
        owner[r] = warmPartitionOf(r, fewest, partitions);
    for (uint32_t p = 0; p < partitions; ++p)
        lanes.push_back(std::make_unique<Lane>(cfg, num_cores));
    for (uint32_t p = 0; p < partitions; ++p)
        lanes[p]->worker = std::thread([this, p] {
            // A lost worker would leave its checkpoints pending forever.
            try {
                run(p);
            } catch (const std::exception &e) {
                panic("warm partition %u: %s", p, e.what());
            }
        });
}

PartitionedWarmer::~PartitionedWarmer()
{
    finish();
}

void
PartitionedWarmer::ship(Lane &lane, std::shared_ptr<WarmCheckpoint> boundary)
{
    // About to wait for this partition: the others drain what they
    // hold meanwhile instead of sleeping until half a ring is queued.
    if (lane.ring.full())
        for (auto &other : lanes)
            if (other.get() != &lane)
                other->ring.flush();
    const bool waited_on = boundary != nullptr;
    lane.filling->boundary = std::move(boundary);
    lane.filling = lane.ring.publish();
    // Workers never abort their rings.
    LP_ASSERT(lane.filling);
    lane.filling->n = 0;
    // A region's task waits for this checkpoint.
    if (waited_on)
        lane.ring.flush();
}

std::shared_ptr<WarmCheckpoint>
PartitionedWarmer::checkpoint(std::string payload, size_t image_offset)
{
    LP_ASSERT(!finished);
    auto ckpt = std::make_shared<WarmCheckpoint>(
        std::move(payload), image_offset, partitions());
    for (auto &lane : lanes)
        ship(*lane, ckpt);
    return ckpt;
}

void
PartitionedWarmer::finish()
{
    if (finished)
        return;
    finished = true;
    for (auto &lane : lanes)
        lane->ring.close();
    for (auto &lane : lanes)
        lane->worker.join();
}

double
PartitionedWarmer::producerWaitSeconds() const
{
    double s = 0.0;
    for (const auto &lane : lanes)
        s += lane->ring.producerWaitSeconds();
    return s;
}

double
PartitionedWarmer::partitionIdleSeconds() const
{
    double s = 0.0;
    for (const auto &lane : lanes)
        s += lane->ring.idleSeconds(0);
    return s;
}

void
PartitionedWarmer::run(uint32_t p)
{
    Lane &lane = *lanes[p];
    CacheHierarchy &h = lane.hierarchy;
    Tracer &tracer = Tracer::global();
    if (tracer.enabled())
        tracer.nameCurrentThread("warm partition " + std::to_string(p));
    ScopedSpan span(tracer, "warm.partition");
    uint64_t accesses = 0;
    while (Chunk *c = lane.ring.acquire(0)) {
        for (uint32_t i = 0; i < c->n; ++i) {
            const Access &a = c->recs[i];
            if (a.kind == Kind::Fetch)
                h.fetch(a.core, a.addr);
            else
                h.access(a.core, a.addr, a.kind == Kind::Write);
        }
        accesses += c->n;
        if (c->boundary) {
            h.exportOwnedSets(c->boundary->image(), p, partitions());
            c->boundary->contributed();
            c->boundary.reset();
        }
        lane.ring.release(0);
    }
    span.arg("partition", p)
        .arg("accesses", accesses)
        .arg("idle_s", lane.ring.idleSeconds(0));
}

} // namespace looppoint
