/**
 * @file
 * Fixed-edge histogram for the benchmark harness's presentation
 * binning (the Figure 15 effective-throughput histograms). Runtime
 * metrics live in mithril::obs.
 */
#ifndef MITHRIL_COMMON_STATS_H
#define MITHRIL_COMMON_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace mithril {

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

} // namespace mithril

#endif // MITHRIL_COMMON_STATS_H
