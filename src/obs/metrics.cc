#include "obs/metrics.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "obs/json.hh"

namespace looppoint {

namespace {

/** %.17g round-trips doubles; trim to a friendlier form when exact. */
std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double back = 0.0;
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%g", v);
    if (std::sscanf(shorter, "%lf", &back) == 1 && back == v)
        return shorter;
    return buf;
}

std::vector<uint64_t>
normalizedBounds(std::vector<uint64_t> bounds)
{
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    return bounds;
}

} // namespace

Histogram::Histogram(std::string name, std::vector<uint64_t> bounds,
                     const std::atomic<bool> *enabled)
    : nm(std::move(name)), upper(normalizedBounds(std::move(bounds))),
      on(enabled), buckets(upper.size() + 1)
{}

void
Histogram::observe(uint64_t sample)
{
    if (!on->load(std::memory_order_relaxed))
        return;
    // First bucket whose inclusive upper bound fits the sample; the
    // overflow bucket (index upper.size()) takes the rest.
    size_t idx = std::lower_bound(upper.begin(), upper.end(), sample) -
                 upper.begin();
    buckets[idx].fetch_add(1, std::memory_order_relaxed);
    total.fetch_add(sample, std::memory_order_relaxed);
    cnt.fetch_add(1, std::memory_order_relaxed);
}

std::vector<uint64_t>
Histogram::bucketCounts() const
{
    std::vector<uint64_t> out;
    out.reserve(buckets.size());
    for (const std::atomic<uint64_t> &b : buckets)
        out.push_back(b.load(std::memory_order_relaxed));
    return out;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> g(mtx);
    auto it = counters.find(name);
    if (it == counters.end())
        it = counters
                 .emplace(name, std::unique_ptr<Counter>(
                                    new Counter(name, &on)))
                 .first;
    return *it->second;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> g(mtx);
    auto it = gauges.find(name);
    if (it == gauges.end())
        it = gauges
                 .emplace(name,
                          std::unique_ptr<Gauge>(new Gauge(name, &on)))
                 .first;
    return *it->second;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<uint64_t> bounds)
{
    std::lock_guard<std::mutex> g(mtx);
    auto it = histograms.find(name);
    if (it == histograms.end())
        it = histograms
                 .emplace(name, std::unique_ptr<Histogram>(new Histogram(
                                    name, std::move(bounds), &on)))
                 .first;
    return *it->second;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> g(mtx);
    for (auto &[name, c] : counters)
        c->v.store(0, std::memory_order_relaxed);
    for (auto &[name, gv] : gauges)
        gv->val.store(0.0, std::memory_order_relaxed);
    for (auto &[name, h] : histograms) {
        for (std::atomic<uint64_t> &b : h->buckets)
            b.store(0, std::memory_order_relaxed);
        h->total.store(0, std::memory_order_relaxed);
        h->cnt.store(0, std::memory_order_relaxed);
    }
}

void
MetricsRegistry::printText(std::ostream &os) const
{
    std::lock_guard<std::mutex> g(mtx);
    for (const auto &[name, c] : counters)
        os << name << " " << c->value() << "\n";
    for (const auto &[name, gv] : gauges)
        os << name << " " << formatDouble(gv->value()) << "\n";
    for (const auto &[name, h] : histograms) {
        const auto buckets = h->bucketCounts();
        for (size_t i = 0; i < h->upper.size(); ++i)
            os << name << "{le=" << h->upper[i] << "} " << buckets[i]
               << "\n";
        os << name << "{le=+inf} " << buckets.back() << "\n";
        os << name << ".sum " << h->sum() << "\n";
        os << name << ".count " << h->count() << "\n";
    }
}

void
MetricsRegistry::printJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> g(mtx);
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : counters) {
        os << (first ? "\n" : ",\n") << "    " << jsonQuote(name)
           << ": " << c->value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto &[name, gv] : gauges) {
        os << (first ? "\n" : ",\n") << "    " << jsonQuote(name)
           << ": " << formatDouble(gv->value());
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms) {
        os << (first ? "\n" : ",\n") << "    " << jsonQuote(name)
           << ": {\"bounds\": [";
        for (size_t i = 0; i < h->upper.size(); ++i)
            os << (i ? ", " : "") << h->upper[i];
        os << "], \"buckets\": [";
        const auto buckets = h->bucketCounts();
        for (size_t i = 0; i < buckets.size(); ++i)
            os << (i ? ", " : "") << buckets[i];
        os << "], \"sum\": " << h->sum()
           << ", \"count\": " << h->count() << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace looppoint
