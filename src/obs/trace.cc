#include "obs/trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "obs/json.hh"

namespace looppoint {

namespace {

/** A process-unique serial for the calling thread. Unlike a
 * std::thread::id, which the runtime reuses once a thread is joined,
 * a serial is never reissued, so a new thread never inherits a dead
 * one's track. */
uint64_t
callerSerial()
{
    static std::atomic<uint64_t> nextSerial{0};
    thread_local const uint64_t serial =
        nextSerial.fetch_add(1, std::memory_order_relaxed);
    return serial;
}

} // namespace

Tracer::Tracer(const Clock *clock, size_t ring_capacity)
    : clk(clock ? clock : &SteadyClock::instance()),
      ringCapacity(ring_capacity ? ring_capacity : 1)
{}

void
Tracer::setEnabled(bool enable)
{
    on.store(enable, std::memory_order_relaxed);
}

void
Tracer::setClock(const Clock *clock)
{
    clk = clock ? clock : &SteadyClock::instance();
}

uint32_t
Tracer::callerTrack()
{
    auto [it, fresh] = threadTracks.try_emplace(
        callerSerial(), static_cast<uint32_t>(trackNames.size()));
    if (fresh)
        trackNames.push_back("host thread " + std::to_string(it->second));
    return it->second;
}

void
Tracer::nameCurrentThread(const std::string &name)
{
    std::lock_guard<std::mutex> g(mtx);
    trackNames[callerTrack()] = name;
}

uint32_t
Tracer::virtualTrack(const std::string &name)
{
    std::lock_guard<std::mutex> g(mtx);
    for (uint32_t i = 0; i < trackNames.size(); ++i)
        if (trackNames[i] == name)
            return i;
    trackNames.push_back(name);
    return static_cast<uint32_t>(trackNames.size() - 1);
}

void
Tracer::record(TraceEvent ev)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> g(mtx);
    if (ev.track == TraceEvent::kCallerTrack)
        ev.track = callerTrack();
    if (ring.size() < ringCapacity) {
        ring.push_back(std::move(ev));
    } else {
        ring[next] = std::move(ev);
        next = (next + 1) % ringCapacity;
        ++dropped;
    }
}

void
Tracer::instant(std::string name, std::vector<TraceArg> args)
{
    if (!enabled())
        return;
    TraceEvent ev;
    ev.name = std::move(name);
    ev.phase = 'i';
    ev.tsNs = nowNs();
    ev.args = std::move(args);
    record(std::move(ev));
}

size_t
Tracer::pendingEvents() const
{
    std::lock_guard<std::mutex> g(mtx);
    return ring.size();
}

size_t
Tracer::droppedEvents() const
{
    std::lock_guard<std::mutex> g(mtx);
    return dropped;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> g(mtx);
    ring.clear();
    next = 0;
    dropped = 0;
}

void
Tracer::writeChromeTrace(std::ostream &os)
{
    // Drain the ring and snapshot the track names under the lock,
    // then format outside it.
    std::vector<TraceEvent> events;
    std::vector<std::string> tracks;
    uint64_t lost = 0;
    {
        std::lock_guard<std::mutex> g(mtx);
        tracks = trackNames;
        // Restore chronological order of a wrapped ring: the oldest
        // surviving event sits at `next`.
        std::rotate(ring.begin(), ring.begin() + next, ring.end());
        events.swap(ring);
        lost = dropped;
        next = 0;
        dropped = 0;
    }

    // Chrome/Perfetto sort by ts; for equal timestamps a longer span
    // must precede its children for nesting to render. The full key
    // makes the output deterministic under a FakeClock.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.tsNs != b.tsNs)
                             return a.tsNs < b.tsNs;
                         if (a.durNs != b.durNs)
                             return a.durNs > b.durNs;
                         if (a.track != b.track)
                             return a.track < b.track;
                         return a.name < b.name;
                     });

    auto us = [](uint64_t ns) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                      static_cast<unsigned long long>(ns / 1000),
                      static_cast<unsigned long long>(ns % 1000));
        return std::string(buf);
    };

    os << "{\n";
    os << "  \"displayTimeUnit\": \"ms\",\n";
    os << "  \"otherData\": {\"tool\": \"looppoint\", "
          "\"dropped_events\": "
       << lost << "},\n";
    os << "  \"traceEvents\": [\n";

    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };

    sep();
    os << "    {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, "
          "\"tid\": 0, \"args\": {\"name\": \"looppoint\"}}";
    for (uint32_t t = 0; t < tracks.size(); ++t) {
        sep();
        os << "    {\"ph\": \"M\", \"name\": \"thread_name\", "
              "\"pid\": 1, \"tid\": "
           << t << ", \"args\": {\"name\": " << jsonQuote(tracks[t])
           << "}}";
    }

    for (const TraceEvent &ev : events) {
        sep();
        os << "    {\"ph\": \"" << ev.phase << "\", \"name\": "
           << jsonQuote(ev.name) << ", \"cat\": \"looppoint\", "
              "\"pid\": 1, \"tid\": "
           << ev.track << ", \"ts\": " << us(ev.tsNs);
        if (ev.phase == 'X')
            os << ", \"dur\": " << us(ev.durNs);
        if (ev.phase == 'i')
            os << ", \"s\": \"t\"";
        if (!ev.args.empty()) {
            os << ", \"args\": {";
            for (size_t i = 0; i < ev.args.size(); ++i) {
                const TraceArg &a = ev.args[i];
                if (i)
                    os << ", ";
                os << jsonQuote(a.key) << ": ";
                if (a.quoted)
                    os << jsonQuote(a.value);
                else
                    os << a.value;
            }
            os << "}";
        }
        os << "}";
    }
    os << "\n  ]\n}\n";
}

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

ScopedSpan &
ScopedSpan::arg(std::string_view key, double value)
{
    if (t) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        // NaN/inf have no JSON number form; quote them instead of
        // emitting an unparseable document.
        ev.args.push_back({std::string(key), buf,
                           /*quoted=*/!std::isfinite(value)});
    }
    return *this;
}

void
ScopedSpan::finish()
{
    if (!t)
        return;
    ev.tsNs = t0;
    ev.durNs = t->nowNs() - t0;
    if (mirrorTrack != TraceEvent::kCallerTrack) {
        TraceEvent copy = ev;
        copy.track = mirrorTrack;
        copy.args.push_back({"mirror", "1", /*quoted=*/false});
        t->record(std::move(copy));
    }
    t->record(std::move(ev));
    t = nullptr;
}

} // namespace looppoint
