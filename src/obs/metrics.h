/**
 * @file
 * mithril::obs — unified metrics for every subsystem.
 *
 * The paper's evaluation is built on breakdowns (Figure 15's
 * effective-throughput histograms, Table 7's index/storage/compute
 * splits), so the reproduction carries a first-class metrics layer:
 * one process-wide namespace of named counters, gauges, and log-scale
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

#include <array>
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
#include "common/stats.h"
#include "common/thread_annotations.h"
#include "obs/histogram.h"

namespace mithril::obs {

/** Monotonically increasing counter (relaxed atomics). Also the cell
 *  a legacy StatSet name forwards into (common/stats.h). */
class Counter final : public CounterCell
{
  public:
    void add(uint64_t delta = 1) override
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

/**
 * Log2-scale histogram over unsigned samples.
 *
 * Bucket 0 holds zeros; bucket i >= 1 holds values in
 * [2^(i-1), 2^i). 65 buckets cover the full uint64 range, so there is
 * never an overflow bucket to reason about. Recording is lock-free.
 */
class LogHistogram
{
  public:
    static constexpr size_t kBuckets = 65;

    void record(uint64_t value)
    {
        // relaxed: every cell is an independent monotonic counter;
        // readers tolerate bucket/count/sum tearing mid-record.
        counts_[bucketFor(value)].fetch_add(1,
                                            std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
    }

    /** Bucket index a value lands in: 0 for 0, else 1 + floor(log2). */
    static size_t bucketFor(uint64_t value)
    {
        size_t bits = 0;
        while (value != 0) {
            ++bits;
            value >>= 1;
        }
        return bits;
    }

    /** Inclusive lower bound of bucket @p i (0, 1, 2, 4, 8, ...). */
    static uint64_t bucketLo(size_t i)
    {
        return i == 0 ? 0 : 1ull << (i - 1);
    }

    uint64_t bucketCount(size_t i) const
    {
        // relaxed: reporting-side read of an independent counter.
        return counts_.at(i).load(std::memory_order_relaxed);
    }

    uint64_t count() const
    {
        // relaxed: reporting-side read of an independent counter.
        return count_.load(std::memory_order_relaxed);
    }

    // relaxed: reporting-side read of an independent counter.
    uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

    double mean() const
    {
        uint64_t n = count();
        return n ? static_cast<double>(sum()) / static_cast<double>(n)
                 : 0.0;
    }

  private:
    std::array<std::atomic<uint64_t>, kBuckets> counts_{};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
};

/** One metric label (key=value); labels sort into the metric name. */
using Label = std::pair<std::string_view, std::string_view>;

/** Point-in-time copy of a registry, for reporting and tests. */
struct MetricsSnapshot {
    struct HistogramData {
        uint64_t count = 0;
        uint64_t sum = 0;
        /** (bucket lower bound, count) for non-empty buckets only. */
        std::vector<std::pair<uint64_t, uint64_t>> buckets;
    };

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
    std::map<std::string, HistogramData> histograms;
    std::map<std::string, QuantileHistogramData> quantile_histograms;
};

/**
 * The process-wide metric namespace.
 *
 * Also implements common's CounterSink so legacy StatSet instances
 * (SsdModel, InvertedIndex) forward their counters here with a
 * subsystem prefix — one namespace, no double bookkeeping required by
 * callers.
 */
class MetricsRegistry : public CounterSink
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

    LogHistogram &histogram(std::string_view name,
                            std::initializer_list<Label> labels = {});

    /** Returns (creating on first use) the named quantile histogram —
     *  the tail-latency instrument (obs/histogram.h). Snapshot under
     *  the `quantiles` section with p50/p90/p99/p999 extracted. */
    Histogram &quantileHistogram(std::string_view name,
                                 std::initializer_list<Label> labels = {});

    /** Current value of a counter; 0 if it was never touched. */
    uint64_t counterValue(std::string_view name) const;

    /** CounterSink: legacy StatSet forwarding. */
    CounterCell &counterCell(std::string_view name) override
    {
        return counter(name);
    }

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
    std::map<std::string, std::unique_ptr<LogHistogram>, std::less<>>
        histograms_ MITHRIL_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        quantile_histograms_ MITHRIL_GUARDED_BY(mu_);
};

} // namespace mithril::obs

#endif // MITHRIL_OBS_METRICS_H
