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
    fills.reset(new Fill[partitions]);
    for (uint32_t p = 0; p < partitions; ++p) {
        lanes.push_back(std::make_unique<Lane>(cfg, num_cores));
        fills[p].chunk = &lanes[p]->ring.first();
        fills[p].recs = fills[p].chunk->recs.get();
    }
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
PartitionedWarmer::ship(uint32_t p, std::shared_ptr<WarmCheckpoint> boundary)
{
    Lane &lane = *lanes[p];
    Fill &f = fills[p];
    // About to wait for this partition: the others drain what they
    // hold meanwhile instead of sleeping until half a ring is queued.
    if (lane.ring.full())
        for (auto &other : lanes)
            if (other.get() != &lane)
                other->ring.flush();
    const bool waited_on = boundary != nullptr;
    f.chunk->n = f.n;
    f.chunk->boundary = std::move(boundary);
    f.shipped += f.n;
    f.chunk = lane.ring.publish();
    // Workers never abort their rings.
    LP_ASSERT(f.chunk);
    f.recs = f.chunk->recs.get();
    f.n = 0;
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
    for (uint32_t p = 0; p < partitions(); ++p)
        ship(p, ckpt);
    return ckpt;
}

void
PartitionedWarmer::finish()
{
    if (finished)
        return;
    finished = true;
    for (uint32_t p = 0; p < partitions(); ++p) {
        fills[p].chunk->n = fills[p].n;
        fills[p].shipped += fills[p].n;
        lanes[p]->ring.close();
    }
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

uint64_t
PartitionedWarmer::shippedRecords() const
{
    uint64_t n = 0;
    for (uint32_t p = 0; p < partitions(); ++p)
        n += fills[p].shipped;
    return n;
}

uint64_t
PartitionedWarmer::droppedRecords() const
{
    uint64_t n = 0;
    for (uint32_t p = 0; p < partitions(); ++p)
        n += fills[p].dropped;
    return n;
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
    uint64_t shipped = 0;
    while (Chunk *c = lane.ring.acquire(0)) {
        const uint32_t n = c->n;
        const uint64_t *recs = c->recs.get();
        for (uint32_t i = 0; i < n; ++i) {
            const uint64_t r = recs[i];
            const Addr addr = (r >> 8) << lineShift;
            const uint32_t core = static_cast<uint32_t>(r >> 2) & 63;
            if ((r & 3) == kFetch)
                h.fetch(core, addr);
            else
                h.access(core, addr, (r & 3) == kWrite);
        }
        shipped += n;
        if (c->boundary) {
            h.exportOwnedSets(c->boundary->image(), p, partitions());
            c->boundary->contributed();
            c->boundary.reset();
        }
        lane.ring.release(0);
    }
    // The ring is closed: the producer's counts for this partition are
    // final and ordered before this read by the ring's lock.
    span.arg("partition", p)
        .arg("shipped", shipped)
        .arg("dropped", fills[p].dropped)
        .arg("idle_s", lane.ring.idleSeconds(0));
}

} // namespace looppoint
