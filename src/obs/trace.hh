/**
 * @file
 * Structured span tracer emitting Chrome trace-event / Perfetto JSON.
 *
 * Every pipeline phase (record, DCFG build, slicing, projection, the
 * k-means BIC sweep, per-region warmup and detailed simulation, retry
 * attempts, journal activity) opens a ScopedSpan; on destruction the
 * span is pushed into the tracer's ring buffer. The ring is drained on
 * flush into one `{"traceEvents": [...]}` document that loads directly
 * in https://ui.perfetto.dev or chrome://tracing, with one named track
 * per host thread (numbered on first touch; pool workers register
 * their names) plus optional *virtual* tracks ("region 7") for
 * per-simulated-region timelines.
 *
 * Cost model: a disabled tracer costs one relaxed atomic load and a
 * branch per span site — no clock read, no allocation, no lock. An
 * enabled tracer takes two clock reads per span and one mutex on
 * record, shared by every thread; a run records a few hundred events,
 * so the lock is never contended enough to matter. Ring capacity
 * bounds memory; once it is full the oldest events are overwritten
 * and counted in droppedEvents().
 *
 * Timestamps come from a Clock (see clock.hh) so tests can inject a
 * FakeClock and compare traces byte-for-byte.
 */

#ifndef LOOPPOINT_OBS_TRACE_HH
#define LOOPPOINT_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "obs/clock.hh"

namespace looppoint {

/** One span/instant argument; `quoted` = emit as JSON string. */
struct TraceArg
{
    std::string key;
    std::string value;
    bool quoted = true;
};

/** One recorded event (a closed span or an instant marker). */
struct TraceEvent
{
    /** Track sentinel: "the recording thread's own track". */
    static constexpr uint32_t kCallerTrack = UINT32_MAX;

    std::string name;
    char phase = 'X'; ///< 'X' complete span, 'i' instant
    uint64_t tsNs = 0;
    uint64_t durNs = 0;
    uint32_t track = kCallerTrack;
    std::vector<TraceArg> args;
};

/** See file comment. */
class Tracer
{
  public:
    static constexpr size_t kDefaultRingCapacity = 1u << 15;

    /** @param clock nullptr = SteadyClock::instance(). */
    explicit Tracer(const Clock *clock = nullptr,
                    size_t ring_capacity = kDefaultRingCapacity);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    void setEnabled(bool enable);

    /** Swap the time source (nullptr = steady). Takes effect for
     * subsequently opened spans; not thread-safe against them. */
    void setClock(const Clock *clock);

    uint64_t nowNs() const { return clk->nowNs(); }

    /** Name the calling thread's track ("pool worker 3", "main"). */
    void nameCurrentThread(const std::string &name);

    /**
     * A named virtual track (e.g. "region 7") for events that belong
     * to a logical timeline rather than a host thread. Idempotent:
     * the same name always maps to the same track id.
     */
    uint32_t virtualTrack(const std::string &name);

    /** Push one event into the ring (enabled only). */
    void record(TraceEvent ev);

    /** Record an instant marker at now() on the caller's track. */
    void instant(std::string name, std::vector<TraceArg> args = {});

    /** Events currently buffered. */
    size_t pendingEvents() const;
    /** Events overwritten because the ring filled up. */
    size_t droppedEvents() const;

    /**
     * Drain the ring into one Chrome trace-event JSON document
     * (sorted by timestamp; thread_name metadata first). The ring is
     * left empty; track registrations survive.
     */
    void writeChromeTrace(std::ostream &os);

    /** Drain and discard all buffered events. */
    void clear();

    /** The process-wide tracer the pipeline instrumentation uses. */
    static Tracer &global();

  private:
    /** The calling thread's track, numbered on first touch. Caller
     * holds `mtx`. */
    uint32_t callerTrack();

    std::atomic<bool> on{false};
    const Clock *clk;
    const size_t ringCapacity;

    mutable std::mutex mtx; ///< guards everything below
    std::vector<TraceEvent> ring;
    size_t next = 0; ///< overwrite cursor once full
    uint64_t dropped = 0;
    /** Process-unique thread serial (see trace.cc) -> track. */
    std::unordered_map<uint64_t, uint32_t> threadTracks;
    std::vector<std::string> trackNames;
};

/**
 * RAII span: captures the start time on construction (when the tracer
 * is enabled; otherwise fully inert) and records a complete event on
 * destruction or finish(). Args attach between the two.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, std::string_view name)
        : ScopedSpan(&tracer, name)
    {}

    /** Nullable form for conditional spans: inert when null. */
    ScopedSpan(Tracer *tracer, std::string_view name)
    {
        if (!tracer || !tracer->enabled())
            return;
        t = tracer;
        ev.name = name;
        t0 = tracer->nowNs();
    }

    ~ScopedSpan() { finish(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Inactive spans (disabled tracer) ignore args and finish(). */
    bool active() const { return t != nullptr; }

    uint64_t startNs() const { return t0; }

    ScopedSpan &
    arg(std::string_view key, std::string_view value)
    {
        if (t)
            ev.args.push_back({std::string(key), std::string(value),
                               /*quoted=*/true});
        return *this;
    }

    ScopedSpan &
    arg(std::string_view key, const char *value)
    {
        return arg(key, std::string_view(value));
    }

    template <typename T,
              std::enable_if_t<std::is_integral_v<T>, int> = 0>
    ScopedSpan &
    arg(std::string_view key, T value)
    {
        if (t)
            ev.args.push_back({std::string(key),
                               std::to_string(value),
                               /*quoted=*/false});
        return *this;
    }

    ScopedSpan &arg(std::string_view key, double value);

    /** Also emit a copy of this span on virtual track `track`. */
    ScopedSpan &
    mirror(uint32_t track)
    {
        if (t)
            mirrorTrack = track;
        return *this;
    }

    /** Close and record the span now (destructor becomes a no-op). */
    void finish();

  private:
    Tracer *t = nullptr;
    uint64_t t0 = 0;
    uint32_t mirrorTrack = TraceEvent::kCallerTrack;
    TraceEvent ev;
};

} // namespace looppoint

#endif // LOOPPOINT_OBS_TRACE_HH
