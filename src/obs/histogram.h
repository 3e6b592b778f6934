/**
 * @file
 * mithril::obs — mergeable quantile histograms.
 *
 * Histogram is the one distribution instrument: stage latencies and
 * the size and depth distributions (`ssd.batch_pages`,
 * `svc.batch_lines`, `svc.queue_depth`) all record into it. A
 * power-of-two bucket would be fine for sizes but hides an 8x
 * regression at p99/p999 latency, so the buckets are log-linear
 * (HDR-style), with kSubCount linear sub-buckets per power of two,
 * bounding the relative quantile error at 1/kSubCount (3.125%) over
 * the full uint64 range while staying a fixed-size array of relaxed
 * atomics — recording is three wait-free adds plus two bounded CAS
 * loops (min/max), cheap enough for every stage of the datapath.
 *
 * Merge is bucket-wise addition: associative and commutative, so
 * per-shard / per-worker histograms roll up to the same totals in any
 * order — the property the sharded service layer needs for
 * deterministic reports.
 *
 * Quantiles are extracted by rank walk over the bucket array and
 * reported as the containing bucket's lower bound: deterministic
 * (pure function of the recorded multiset, never of timing), exact in
 * the linear region (values < kSubCount), and within the documented
 * 1/kSubCount relative bound elsewhere.
 *
 * Dual-domain use: latency stages record into *two* histograms, one
 * per time domain (`<stage>.wall_ns`, host-measured; `<stage>.sim_ps`,
 * modeled SimTime) — see StageLatency below. SLO gates assert on the
 * sim_ps side, which is deterministic run-to-run.
 */
#ifndef MITHRIL_OBS_HISTOGRAM_H
#define MITHRIL_OBS_HISTOGRAM_H

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/simtime.h"
#include "common/wall_timer.h"

namespace mithril::obs {

class MetricsRegistry;

/** The four quantiles every latency report carries. */
struct Quantiles {
    uint64_t p50 = 0;
    uint64_t p90 = 0;
    uint64_t p99 = 0;
    uint64_t p999 = 0;
};

/**
 * Log-linear quantile histogram over unsigned samples (latencies).
 * Thread-safe recording (relaxed atomics); merge and quantile reads
 * are designed for quiesced roll-up/reporting and see a consistent
 * multiset once writers are done.
 */
class Histogram
{
  public:
    /** Linear sub-buckets per power of two: 2^5 = 32 slots, so any
     *  value lands in a bucket no wider than value/32. */
    static constexpr uint32_t kSubBits = 5;
    static constexpr uint32_t kSubCount = 1u << kSubBits;
    /** Values 0..kSubCount-1 map one-to-one; every wider exponent
     *  contributes kSubCount linear buckets. */
    static constexpr size_t kBuckets =
        (64 - kSubBits + 1) * static_cast<size_t>(kSubCount);

    void
    record(uint64_t value)
    {
        // relaxed: each cell is an independent monotonic counter;
        // readers tolerate bucket/count/sum tearing (header note).
        counts_[indexFor(value)].fetch_add(1,
                                           std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
        relaxMin(min_, value);
        relaxMax(max_, value);
    }

    /** Bucket a value lands in. */
    static size_t
    indexFor(uint64_t value)
    {
        if (value < kSubCount) {
            return static_cast<size_t>(value);
        }
        const uint32_t exp =
            static_cast<uint32_t>(std::bit_width(value)) - 1;
        const uint64_t sub = (value >> (exp - kSubBits)) - kSubCount;
        return (static_cast<size_t>(exp) - kSubBits + 1) * kSubCount +
               static_cast<size_t>(sub);
    }

    /** Inclusive lower bound of bucket @p i (its reported value). */
    static uint64_t
    bucketLo(size_t i)
    {
        if (i < kSubCount) {
            return i;
        }
        const uint64_t block = i / kSubCount;  // >= 1
        const uint64_t sub = i % kSubCount;
        return (static_cast<uint64_t>(kSubCount) + sub)
               << (block - 1);
    }

    /** Folds @p other into this histogram (bucket-wise addition;
     *  associative and commutative, so shard roll-up order never
     *  changes the result). */
    void merge(const Histogram &other);

    /**
     * Value at quantile @p q in [0, 1]: the lower bound of the bucket
     * holding the ceil(q*count)-th smallest sample. 0 when empty.
     * Exact for samples < kSubCount; relative error < 1/kSubCount
     * otherwise.
     */
    uint64_t quantile(double q) const;

    /** p50/p90/p99/p999 in one bucket walk. */
    Quantiles quantiles() const;

    uint64_t
    bucketCount(size_t i) const
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

    /** Smallest / largest recorded sample; 0 when empty. */
    uint64_t min() const;
    uint64_t max() const
    {
        // relaxed: reporting-side read of an independent cell.
        return max_.load(std::memory_order_relaxed);
    }

    double
    mean() const
    {
        uint64_t n = count();
        return n ? static_cast<double>(sum()) / static_cast<double>(n)
                 : 0.0;
    }

  private:
    static void
    relaxMin(std::atomic<uint64_t> &slot, uint64_t value)
    {
        // relaxed: bounded CAS race on a standalone extremum cell —
        // the winning value is the same under any ordering.
        uint64_t cur = slot.load(std::memory_order_relaxed);
        while (value < cur &&
               !slot.compare_exchange_weak(cur, value,
                                           std::memory_order_relaxed)) {
        }
    }

    static void
    relaxMax(std::atomic<uint64_t> &slot, uint64_t value)
    {
        // relaxed: bounded CAS race on a standalone extremum cell —
        // the winning value is the same under any ordering.
        uint64_t cur = slot.load(std::memory_order_relaxed);
        while (value > cur &&
               !slot.compare_exchange_weak(cur, value,
                                           std::memory_order_relaxed)) {
        }
    }

    std::array<std::atomic<uint64_t>, kBuckets> counts_{};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> min_{~0ull};
    std::atomic<uint64_t> max_{0};
};

/**
 * One instrumented pipeline stage, in both time domains: a pair of
 * registry-owned Histograms named `<stage>.wall_ns` (host-measured)
 * and `<stage>.sim_ps` (modeled SimTime). The split keeps the repo's
 * measured-vs-modeled discipline inside the latency data itself — SLO
 * assertions read sim_ps (deterministic), humans read both.
 */
class StageLatency
{
  public:
    /** Inert: records are dropped (instrumented code without obs). */
    StageLatency() = default;

    StageLatency(MetricsRegistry *metrics, std::string_view stage);

    void
    recordWallNs(uint64_t ns)
    {
        if (wall_ns_ != nullptr) {
            wall_ns_->record(ns);
        }
    }

    void
    recordSim(SimTime dur)
    {
        if (sim_ps_ != nullptr) {
            sim_ps_->record(dur.ps());
        }
    }

    Histogram *wallNs() const { return wall_ns_; }
    Histogram *simPs() const { return sim_ps_; }

  private:
    Histogram *wall_ns_ = nullptr;
    Histogram *sim_ps_ = nullptr;
};

/**
 * RAII wall-clock sample into a StageLatency (the histogram analogue
 * of obs::Span): measures from construction to end()/destruction,
 * records into `<stage>.wall_ns`, and — when the stage has a modeled
 * cost attached via setSimDuration() — into `<stage>.sim_ps` too.
 * Movable; a default-constructed timer is inert.
 */
class StageTimer
{
  public:
    StageTimer() = default;
    explicit StageTimer(StageLatency *stage) : stage_(stage) {}
    StageTimer(StageTimer &&other) noexcept { *this = std::move(other); }
    StageTimer &
    operator=(StageTimer &&other) noexcept
    {
        if (this != &other) {
            end();
            stage_ = other.stage_;
            wall_ = other.wall_;
            sim_ = other.sim_;
            has_sim_ = other.has_sim_;
            other.stage_ = nullptr;
        }
        return *this;
    }
    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;
    ~StageTimer() { end(); }

    /** Attaches the stage's modeled cost (recorded at end()). */
    void
    setSimDuration(SimTime dur)
    {
        sim_ = dur;
        has_sim_ = true;
    }

    /** Records the sample now (idempotent). */
    void
    end()
    {
        if (stage_ == nullptr) {
            return;
        }
        stage_->recordWallNs(
            static_cast<uint64_t>(wall_.seconds() * 1e9));
        if (has_sim_) {
            stage_->recordSim(sim_);
        }
        stage_ = nullptr;
    }

  private:
    StageLatency *stage_ = nullptr;
    WallTimer wall_;
    SimTime sim_;
    bool has_sim_ = false;
};

} // namespace mithril::obs

#endif // MITHRIL_OBS_HISTOGRAM_H
