/**
 * @file
 * Store-side helpers shared by the workloads: configuration, device
 * accounting, dump-and-recover, data-page verification, and the query
 * sample accumulator behind the end-to-end query metrics.
 */
#ifndef PERFBENCH_STORE_H
#define PERFBENCH_STORE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/mithrilog.h"
#include "corpus.h"

namespace perfbench {

using mithril::core::MithriLog;

/** The configuration every measured store uses: typed extraction on,
 *  kept lines returned, checkpoint policy as given (0 = none). */
mithril::core::MithriLogConfig storeConfig(uint64_t checkpoint_every_pages);

/** Device bytes held by live (non-free) physical slots. */
uint64_t liveDeviceBytes(MithriLog &s);

/** Device pages read so far (data, index and typed posting pages). */
uint64_t pagesRead(MithriLog &s);

/** Device bytes programmed so far. */
uint64_t bytesWritten(MithriLog &s);

/** p50 of a registry stage histogram `<stage>.wall_ns`, microseconds
 *  (0 when the stage never ran). */
double stageP50Us(const mithril::obs::MetricsRegistry &m,
                  const std::string &stage);

/**
 * Checks that every data page of @p s decodes to exactly its span of
 * @p c (lines numbered from @p first_line in the corpus). On mismatch
 * returns false and describes the first bad page in @p why.
 */
bool pagesMatchCorpus(MithriLog &s, const Corpus &c, size_t first_line,
                      std::string *why);

/** A store rebuilt by MithriLog::recover from a device dump. */
struct Recovered {
    std::unique_ptr<MithriLog> store;
    mithril::Status status = mithril::Status::ok();
    double wall_s = 0.0;          ///< recover() call only
    double sim_ms = 0.0;          ///< recovery.modeled_ps
    uint64_t replay_records = 0;  ///< journal records replayed
};

/** Dumps @p src to @p path (saveDeviceImage), recovers it into a fresh
 *  store with @p config, then deletes the file. */
Recovered dumpAndRecover(MithriLog &src, const std::string &path,
                         const mithril::core::MithriLogConfig &config,
                         Spans &spans, uint64_t id);

/** One timed query. */
struct QuerySample {
    double wall_s = 0.0;
    double sim_us = 0.0;      ///< modeled total_time
    double device_kb = 0.0;   ///< device pages read x 4 KiB
    double index_us = 0.0;    ///< modeled index_time
    double storage_us = 0.0;  ///< modeled storage_time
    uint64_t candidate_pages = 0;
    uint64_t false_positive_pages = 0;
    uint64_t pages_scanned = 0;
    uint64_t pages_total = 0;
    bool planned_full_scan = false;
    uint64_t round = 0;       ///< round (or pass) of the run
};

QuerySample sampleOf(const mithril::core::QueryBreakdown &b, double wall_s,
                     uint64_t pages_read_delta, uint64_t round);

/** Rounds whose samples feed the modeled query figures. Every run
 *  completes them (the 200-sample floor needs at least two rounds), and
 *  rotating query pools make later rounds depend on the run length, so
 *  these figures repeat exactly for a seed whatever the run length. */
constexpr uint64_t kModeledRounds = 2;

/** Timed query samples of one run. */
class QueryStats
{
  public:
    void add(const QuerySample &s) { samples_.push_back(s); }
    size_t count() const { return samples_.size(); }
    /** Samples of the first kModeledRounds rounds. */
    std::vector<QuerySample> modeledSamples() const;

    /** query_p50_ms, query_p95_ms, queries_per_s (all samples);
     *  query_sim_mean_us, query_device_KB (modeledSamples()). */
    void report(Report &r) const;

  private:
    std::vector<QuerySample> samples_;
};

/** The tail quantile every run reports. */
constexpr double kTailQuantile = 0.95;

/** write_amp / space_amp / ingest_sim_MBps of a flushed store. */
struct DeviceFigures {
    double write_amp = 0.0;
    double space_amp = 0.0;
    double ingest_sim_mbps = 0.0;
};
DeviceFigures deviceFigures(MithriLog &s);

} // namespace perfbench

#endif // PERFBENCH_STORE_H
