/**
 * @file
 * mithril::obs — unified metrics for every subsystem.
 *
 * The paper's evaluation is built on breakdowns (Figure 15's
 * effective-throughput histograms, Table 7's index/storage/compute
 * splits), so the reproduction carries a first-class metrics layer:
 * one process-wide namespace of named counters, gauges, and
 * histograms that the device models, the accelerator emulation, the
 * index, and the core query path all report into.
 *
 * Naming convention: `subsystem.noun_unit`, e.g. `ssd.pages_read`,
 * `accel.stall_cycles`, `lzah.bytes_in`. Optional labels render into
 * the name Prometheus-style: `ssd.pages_read{link=internal}`.
 *
 * Thread safety: metric handles returned by the registry are stable
 * for the registry's lifetime and internally atomic, so hot paths
 * resolve a metric once and then update it lock-free. Registry lookups
 * take a mutex.
 *
 * All values fed from the modeled (SimTime) domain are deterministic:
 * two runs over the same input produce bit-identical counter values.
 */
#ifndef MITHRIL_OBS_METRICS_H
#define MITHRIL_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/histogram.h"

namespace mithril::obs {

/** Monotonically increasing counter (relaxed atomics). */
class Counter
{
  public:
    void add(uint64_t delta = 1)
    {
        // relaxed: independent monotonic counter; snapshot readers
        // tolerate a torn view across counters.
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        // relaxed: see add() — a count, not a publication.
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins scalar (compression ratio, utilization, ...). */
class Gauge
{
  public:
    // relaxed: last-write-wins scalar; no other data rides on it.
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const
    {
        // relaxed: see set().
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** One metric label (key=value); labels sort into the metric name. */
using Label = std::pair<std::string_view, std::string_view>;

/** Point-in-time copy of a registry, for reporting and tests. */
struct MetricsSnapshot {
    /** Quantile histogram (obs::Histogram) with extracted tail. */
    struct QuantileHistogramData {
        uint64_t count = 0;
        uint64_t sum = 0;
        uint64_t min = 0;
        uint64_t max = 0;
        Quantiles quantiles;
        /** (bucket lower bound, count) for non-empty buckets only. */
        std::vector<std::pair<uint64_t, uint64_t>> buckets;
    };

    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, QuantileHistogramData> quantile_histograms;
};

/** The process-wide metric namespace. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Returns (creating on first use) the named counter. The
     *  reference stays valid for the registry's lifetime. */
    Counter &counter(std::string_view name,
                     std::initializer_list<Label> labels = {});

    Gauge &gauge(std::string_view name,
                 std::initializer_list<Label> labels = {});

    /** Returns (creating on first use) the named histogram
     *  (obs/histogram.h): latencies, sizes and depths alike. Snapshot
     *  under the `quantiles` section with p50/p90/p99/p999 extracted. */
    Histogram &quantileHistogram(std::string_view name,
                                 std::initializer_list<Label> labels = {});

    /** Current value of a counter; 0 if it was never touched. */
    uint64_t counterValue(std::string_view name) const;

    MetricsSnapshot snapshot() const;

    /** Renders `name{k=v,...}` (labels sorted by key). */
    static std::string fullName(std::string_view name,
                                std::initializer_list<Label> labels);

  private:
    /** Lookup-or-insert in one of the guarded maps. Callers (the
     *  public accessors) hold mu_; keeping the lock at the call site
     *  means the guarded maps are never passed around unlocked, which
     *  is exactly what -Wthread-safety-reference checks. */
    template <typename Map, typename Factory>
    auto &
    findOrCreateLocked(Map &map, std::string_view full, Factory make)
        MITHRIL_REQUIRES(mu_)
    {
        auto it = map.find(full);
        if (it == map.end()) {
            it = map.emplace(std::string(full), make()).first;
        }
        return *it->second;
    }

    /** Registry lookups are the cross-thread meeting point: every
     *  subsystem reports into obs, so the maps are guarded and the
     *  returned handles (stable for the registry's lifetime) are
     *  lock-free atomics. */
    mutable Mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>>
        counters_ MITHRIL_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>>
        gauges_ MITHRIL_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        quantile_histograms_ MITHRIL_GUARDED_BY(mu_);
};

/**
 * Read-only view of the counters under one name prefix: a component's
 * `stats()`, e.g. `ssd.` so that get("pages_read") reads
 * `ssd.pages_read`. Reads go to the registry, so the view and the
 * registry never disagree.
 */
class CounterView
{
  public:
    /** @p prefix must outlive the view (a string literal). */
    CounterView(const MetricsRegistry &registry, std::string_view prefix)
        : registry_(&registry), prefix_(prefix)
    {
    }

    /** Current value of `prefix + name`; 0 if never touched. */
    uint64_t
    get(std::string_view name) const
    {
        std::string full(prefix_);
        full += name;
        return registry_->counterValue(full);
    }

  private:
    const MetricsRegistry *registry_;
    std::string_view prefix_;
};

} // namespace mithril::obs

#endif // MITHRIL_OBS_METRICS_H
