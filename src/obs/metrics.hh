/**
 * @file
 * Metrics registry: counters, gauges, and fixed-bucket histograms for
 * pipeline-level telemetry (region sim wall time, per-region MPKI,
 * thread-pool task counts and idle time, BIC sweep iterations,
 * artifact checksum verify/fail counts, ...).
 *
 * Hot-path contract: updates are mutex-free. A Counter is one relaxed
 * atomic; a Histogram is one relaxed atomic per bucket plus its sum
 * and count. add()/observe() is one relaxed check of the registry's
 * enabled flag plus those adds. Updates come at region or phase
 * granularity (tens to hundreds per run), so a shared atomic is never
 * contended enough to matter. When the registry is disabled, every
 * update is a relaxed load and a branch — nothing else.
 *
 * Registration (counter()/gauge()/histogram()) takes the registry
 * mutex and returns a stable reference; call sites obtain handles
 * once and update through them. Emitters follow the DiagnosticSink
 * conventions: a human-readable text form and a JSON form (sorted
 * keys, round-trip-parseable with obs/json.hh).
 */

#ifndef LOOPPOINT_OBS_METRICS_HH
#define LOOPPOINT_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace looppoint {

class MetricsRegistry;

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    add(uint64_t delta = 1)
    {
        if (!on->load(std::memory_order_relaxed))
            return;
        v.fetch_add(delta, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return v.load(std::memory_order_relaxed);
    }

    const std::string &name() const { return nm; }

  private:
    friend class MetricsRegistry;
    Counter(std::string name, const std::atomic<bool> *enabled)
        : nm(std::move(name)), on(enabled)
    {}

    std::string nm;
    const std::atomic<bool> *on;
    std::atomic<uint64_t> v{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void
    set(double value)
    {
        if (!on->load(std::memory_order_relaxed))
            return;
        val.store(value, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return val.load(std::memory_order_relaxed);
    }

    const std::string &name() const { return nm; }

  private:
    friend class MetricsRegistry;
    Gauge(std::string name, const std::atomic<bool> *enabled)
        : nm(std::move(name)), on(enabled)
    {}

    std::string nm;
    const std::atomic<bool> *on;
    std::atomic<double> val{0.0};
};

/**
 * Fixed-bucket histogram over uint64 samples (callers pick the unit:
 * nanoseconds, micro-MPKI, ...). `bounds` are inclusive upper bounds,
 * ascending; one implicit overflow bucket catches everything above
 * the last bound.
 */
class Histogram
{
  public:
    void observe(uint64_t sample);

    uint64_t
    count() const
    {
        return cnt.load(std::memory_order_relaxed);
    }

    uint64_t
    sum() const
    {
        return total.load(std::memory_order_relaxed);
    }

    /** Per-bucket counts, size bounds().size() + 1 (overflow last). */
    std::vector<uint64_t> bucketCounts() const;
    const std::vector<uint64_t> &bounds() const { return upper; }

    const std::string &name() const { return nm; }

  private:
    friend class MetricsRegistry;
    Histogram(std::string name, std::vector<uint64_t> bounds,
              const std::atomic<bool> *enabled);

    std::string nm;
    std::vector<uint64_t> upper;
    const std::atomic<bool> *on;
    /** bounds().size() + 1 buckets, overflow last. */
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<uint64_t> total{0};
    std::atomic<uint64_t> cnt{0};
};

/** See file comment. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    void
    setEnabled(bool enable)
    {
        on.store(enable, std::memory_order_relaxed);
    }

    /** Get-or-create; the reference stays valid for the registry's
     * lifetime. Names are unique per metric kind. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /** An existing histogram keeps its original bounds. */
    Histogram &histogram(const std::string &name,
                         std::vector<uint64_t> bounds);

    /** Zero every value (registrations survive). For tests. */
    void reset();

    /** `name value` lines, histograms as `name{le=B} count` rows. */
    void printText(std::ostream &os) const;
    /** One JSON object: {"counters":{...},"gauges":{...},
     * "histograms":{...}} with sorted keys. */
    void printJson(std::ostream &os) const;

    /** The process-wide registry the instrumentation updates. */
    static MetricsRegistry &global();

  private:
    std::atomic<bool> on{false};
    mutable std::mutex mtx;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

} // namespace looppoint

#endif // LOOPPOINT_OBS_METRICS_HH
