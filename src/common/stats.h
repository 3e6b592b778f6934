/**
 * @file
 * Statistics collection: named counters and simple distribution trackers
 * used by the device models and the benchmark harness (e.g. the Figure 15
 * effective-throughput histograms).
 */
#ifndef MITHRIL_COMMON_STATS_H
#define MITHRIL_COMMON_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mithril {

/**
 * Running summary of a scalar sample stream (count/min/max/mean).
 */
class Distribution
{
  public:
    void record(double value);

    uint64_t count() const { return count_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

  private:
    uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Fixed-bucket histogram over explicit bin edges.
 *
 * Mirrors the paper's Figure 15 presentation, whose x-axis is non-linear:
 * callers provide the bucket boundaries directly.
 */
class Histogram
{
  public:
    /** @param edges ascending bucket upper bounds; a final +inf bucket is
     *  implied. */
    explicit Histogram(std::vector<double> edges);

    void record(double value);

    size_t buckets() const { return counts_.size(); }
    uint64_t bucketCount(size_t i) const { return counts_.at(i); }
    uint64_t total() const { return total_; }

    /** Label like "[lo, hi)" for bucket @p i. */
    std::string bucketLabel(size_t i) const;

    /** Renders an ASCII bar chart, one line per bucket. */
    std::string render(size_t bar_width = 40) const;

  private:
    std::vector<double> edges_;
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
};

/**
 * One forwarded counter: the unified registry's cell behind a StatSet
 * name. Implemented by obs::Counter; declared here so common does not
 * depend on obs.
 */
class CounterCell
{
  public:
    virtual void add(uint64_t delta) = 0;

  protected:
    ~CounterCell() = default;
};

/**
 * Destination for forwarded counter updates.
 *
 * Implemented by obs::MetricsRegistry; declared here so the device
 * models' legacy StatSet can forward into the unified metric
 * namespace without common depending on obs.
 */
class CounterSink
{
  public:
    virtual ~CounterSink() = default;

    /** The sink's counter named @p name, created on first use; the
     *  reference stays valid for the sink's lifetime. */
    virtual CounterCell &counterCell(std::string_view name) = 0;
};

/**
 * Registry of named monotonically increasing counters.
 *
 * Device models expose one of these so tests can assert on modeled
 * behaviour (pages read, commands issued, stall cycles, ...).
 *
 * @deprecated New code should report into obs::MetricsRegistry
 * directly. StatSet remains as a thin shim: when bound via bind(),
 * every add() also forwards to the sink under `prefix + name`, so the
 * legacy per-component counters and the unified namespace stay in
 * lockstep with a single call site. Each name resolves its forwarded
 * counter once, when it is first counted or bound, so an add() is one
 * map lookup and two increments.
 */
class StatSet
{
  public:
    void
    add(std::string_view name, uint64_t delta = 1)
    {
        Slot &s = slot(name);
        s.value += delta;
        if (s.cell != nullptr) {
            s.cell->add(delta);
        }
    }

    /** Forwards all future (and already-accumulated) counters to
     *  @p sink under @p prefix, e.g. prefix "ssd." -> "ssd.pages_read".
     *  Pass nullptr to unbind. */
    void bind(CounterSink *sink, std::string prefix);

    uint64_t get(std::string_view name) const;

    /** Every counter by name. */
    std::map<std::string, uint64_t> all() const;

    void clear() { counters_.clear(); }

    /** Multi-line "name value" dump, sorted by name. */
    std::string toString() const;

  private:
    struct Slot {
        uint64_t value = 0;
        CounterCell *cell = nullptr;  ///< forwarding target when bound
    };

    /** The slot for @p name, created (and resolved against the sink)
     *  on first use. */
    Slot &slot(std::string_view name);

    std::map<std::string, Slot, std::less<>> counters_;
    CounterSink *sink_ = nullptr;
    std::string prefix_;
};

} // namespace mithril

#endif // MITHRIL_COMMON_STATS_H
