/**
 * @file
 * Shared vocabulary of the repository benchmark: command-line
 * arguments, the run report (operations attempted/failed, correctness,
 * named metrics), wall-clock helpers and sample statistics.
 *
 * One process runs one workload. The report's last line on stdout is a
 * single JSON object: {"correct", "attempted", "failed", "metrics"}.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** Parsed command line. */
struct Args {
    std::string workload;
    uint64_t seed = 1;
    /** Length of the measured phase; whole rounds run until it is
     *  exceeded (and the query sample floor is met). */
    double seconds = 10.0;
    /** Traced mode: record spans and print the per-layer metrics. */
    bool trace = false;
    /** Scratch directory for device images and span files. */
    std::string out_dir = ".";
    /** Self-test hook: corrupt one reference answer so the run must
     *  report a failed operation. */
    bool wrong_reference = false;
};

/** Monotonic wall clock, seconds. */
double nowSeconds();

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** Arithmetic mean of @p v (0 for an empty vector). */
double mean(const std::vector<double> &v);

/** Nearest-rank quantile @p q in [0,1] of @p v. */
double quantile(std::vector<double> v, double q);

/** Samples that lie strictly beyond the nearest-rank quantile @p q. */
size_t samplesBeyond(size_t n, double q);

/** Lowest sample count whose quantile @p q has ten samples beyond it. */
size_t minSamplesForTail(double q);

/** Outcome of one workload run. */
class Report
{
  public:
    /** Records an end-to-end metric (printed in insertion order). */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Records a per-layer metric (traced runs). */
    void layer(const std::string &name, double value,
               const std::string &unit);

    /** Counts one operation; a false @p ok counts it failed and logs
     *  the first few failures to stderr with @p what. */
    void op(bool ok, std::string_view what);

    /** A verification outside the counted operations (page decode,
     *  recovery prefix, ground truth). A false @p ok clears
     *  `correct`. */
    void check(bool ok, std::string_view what);

    /** Free-form progress line on stderr (never on stdout). */
    void note(const std::string &line) const;

    /** The final JSON line: the per-layer metrics when @p traced,
     *  else the end-to-end ones. */
    std::string json(bool traced) const;

    /** The end-to-end metrics as a JSON object (a traced run prints
     *  them to stderr so tracing overhead can be computed). */
    std::string endToEndJson() const;

  private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    static std::string metricsJson(const std::vector<Metric> &metrics);

    std::vector<Metric> metrics_;
    std::vector<Metric> layers_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    uint64_t logged_ = 0;
    bool correct_ = true;
};

class Spans;

/** Everything a workload needs besides its own inputs. */
struct Context {
    const Args &args;
    Report &report;
    Spans &spans;
};

int runIngest(Context &ctx);
int runSearch(Context &ctx);
int runIncident(Context &ctx);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
