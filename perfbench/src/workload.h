/**
 * @file
 * Helpers shared by the workloads.
 */
#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <string>
#include <vector>

#include "accel/filter_pipeline.h"
#include "bench.h"
#include "reference.h"
#include "store.h"

namespace perfbench {

/** Set-up runs per process; setup_s reports their median. */
constexpr int kSetupRuns = 5;

/** Corpus prefix a warm-up set-up ingests (workloads whose measured
 *  phase builds its own stores). */
constexpr uint64_t kWarmupBytes = 1ull << 20;

/** True while the measured phase should start another whole round:
 *  until @p seconds have passed since @p start and the run holds
 *  enough query samples for its tail percentile. */
inline bool
moreRounds(double start, const Args &args, size_t samples)
{
    return nowSeconds() - start < args.seconds ||
           samples < minSamplesForTail(kTailQuantile);
}

/** Bytes and wall seconds summed over a run's ingest calls. Host speed
 *  on a shared machine drifts between states over seconds, so a rate
 *  over the whole run is steadier than a median of per-round rates. */
struct Throughput {
    double bytes = 0.0;
    double seconds = 0.0;

    void add(double b, double s)
    {
        bytes += b;
        seconds += s;
    }
    double mbps() const { return seconds > 0 ? bytes / 1e6 / seconds : 0.0; }
};

/** Prints the end-to-end metrics every workload reports, in the order
 *  BENCHMARK.json lists them (peak_rss_MB follows at exit). */
inline void
reportEndToEnd(Report &rep, const std::vector<double> &setup,
               const Throughput &ingest, const DeviceFigures &dev,
               const std::vector<double> &recover_s,
               const std::vector<double> &recover_ms, const QueryStats &queries)
{
    rep.metric("setup_s", median(setup), "s");
    rep.metric("ingest_MBps", ingest.mbps(), "MB/s");
    rep.metric("ingest_sim_MBps", dev.ingest_sim_mbps, "MB/s");
    rep.metric("write_amp", dev.write_amp, "ratio");
    rep.metric("space_amp", dev.space_amp, "ratio");
    rep.metric("recover_s", mean(recover_s), "s");
    rep.metric("recover_sim_ms", median(recover_ms), "ms");
    queries.report(rep);
}

/** Scratch path for a device image of this run. */
inline std::string
imagePath(const Args &args, const std::string &tag)
{
    return args.out_dir + "/" + args.workload + "-" +
           std::to_string(args.seed) + "-" + tag + ".img";
}

/** Digest of kept line texts. */
inline Digest
digestOfKept(const std::vector<mithril::accel::KeptLine> &lines)
{
    Digest d;
    for (const auto &l : lines) {
        d.add(l.text);
    }
    return d;
}

/** Applies the self-test's deliberately wrong reference once. */
inline Digest
maybeWrong(Context &ctx, Digest e, bool *pending)
{
    if (*pending) {
        *pending = false;
        e.count += 1;
        ctx.report.note("self-test: one reference answer made wrong");
    }
    return e;
}

/** True when a run's match count and kept lines match reference @p e. */
inline bool
matches(const Digest &e, uint64_t matched,
        const std::vector<mithril::accel::KeptLine> &lines)
{
    return matched == e.count && digestOfKept(lines) == e;
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
