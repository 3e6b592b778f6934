#include "store.h"

#include <algorithm>
#include <cstdio>

#include "compress/lzah.h"
#include "spans.h"

namespace perfbench {

using mithril::core::MithriLogConfig;

MithriLogConfig
storeConfig(uint64_t checkpoint_every_pages)
{
    MithriLogConfig config;
    config.use_typed_index = true;
    config.accel.keep_lines = true;
    config.checkpoint_every_pages = checkpoint_every_pages;
    return config;
}

uint64_t
liveDeviceBytes(MithriLog &s)
{
    const mithril::storage::PageStore &ps = s.ssd().store();
    return (ps.physicalSlotCount() - ps.freeSlotCount()) *
           mithril::storage::kPageSize;
}

uint64_t
pagesRead(MithriLog &s)
{
    return s.ssd().stats().get("pages_read");
}

uint64_t
bytesWritten(MithriLog &s)
{
    return s.ssd().stats().get("bytes_written");
}

double
stageP50Us(const mithril::obs::MetricsRegistry &m, const std::string &stage)
{
    mithril::obs::MetricsSnapshot snap = m.snapshot();
    auto it = snap.quantile_histograms.find(stage + ".wall_ns");
    if (it == snap.quantile_histograms.end() || it->second.count == 0) {
        return 0.0;
    }
    return static_cast<double>(it->second.quantiles.p50) / 1e3;
}

bool
pagesMatchCorpus(MithriLog &s, const Corpus &c, size_t first_line,
                 std::string *why)
{
    const auto &dir = s.typedIndex().pageDirectory();
    if (dir.size() != s.dataPageCount()) {
        *why = "page directory and data page list differ in size";
        return false;
    }
    for (const auto &span : dir) {
        std::span<const uint8_t> page;
        mithril::Status st = s.ssd().store().read(span.page, &page);
        mithril::compress::Bytes text;
        if (st.isOk()) {
            st = mithril::compress::lzahDecodePage(page, false, &text);
        }
        size_t first = first_line + span.first_line;
        size_t last = first + span.line_count;
        if (!st.isOk() || last > c.lines.size()) {
            *why = "page " + std::to_string(span.page) + " unreadable";
            return false;
        }
        std::string_view want = c.span(first, last);
        std::string_view got(reinterpret_cast<const char *>(text.data()),
                             text.size());
        if (got != want) {
            *why = "page " + std::to_string(span.page) +
                   " does not decode to lines " + std::to_string(first) +
                   ".." + std::to_string(last);
            return false;
        }
    }
    return true;
}

Recovered
dumpAndRecover(MithriLog &src, const std::string &path,
               const MithriLogConfig &config, Spans &spans, uint64_t id)
{
    Recovered out;
    {
        Spans::Scope span = spans.open("core.saveDeviceImage", id);
        out.status = src.saveDeviceImage(path);
    }
    if (!out.status.isOk()) {
        return out;
    }
    out.store = std::make_unique<MithriLog>(config);
    double t0 = nowSeconds();
    {
        Spans::Scope span = spans.open("core.recover", id);
        out.status = out.store->recover(path);
    }
    out.wall_s = nowSeconds() - t0;
    std::remove(path.c_str());
    out.sim_ms = static_cast<double>(out.store->metrics().counterValue(
                     "recovery.modeled_ps")) /
                 1e9;
    out.replay_records =
        out.store->metrics().counterValue("recovery.records_replayed");
    return out;
}

QuerySample
sampleOf(const mithril::core::QueryBreakdown &b, double wall_s,
         uint64_t pages_read_delta, uint64_t round)
{
    QuerySample s;
    s.round = round;
    s.wall_s = wall_s;
    s.sim_us = b.total_time.toSeconds() * 1e6;
    s.device_kb = static_cast<double>(pages_read_delta) *
                  static_cast<double>(mithril::storage::kPageSize) / 1024.0;
    s.index_us = b.index_time.toSeconds() * 1e6;
    s.storage_us = b.storage_time.toSeconds() * 1e6;
    s.candidate_pages = b.candidate_pages;
    s.false_positive_pages = b.false_positive_pages;
    s.pages_scanned = b.pages_scanned;
    s.pages_total = b.pages_total;
    s.planned_full_scan = b.planned_full_scan;
    return s;
}

std::vector<QuerySample>
QueryStats::modeledSamples() const
{
    std::vector<QuerySample> out;
    for (const QuerySample &s : samples_) {
        if (s.round < kModeledRounds) {
            out.push_back(s);
        }
    }
    return out;
}

void
QueryStats::report(Report &r) const
{
    std::vector<double> wall;
    double busy = 0.0;
    for (const QuerySample &s : samples_) {
        wall.push_back(s.wall_s * 1e3);
        busy += s.wall_s;
    }
    std::vector<double> sim, device;
    for (const QuerySample &s : modeledSamples()) {
        sim.push_back(s.sim_us);
        device.push_back(s.device_kb);
    }
    size_t n = samples_.size();
    r.note("query samples: " + std::to_string(n) + " (p95 has " +
           std::to_string(samplesBeyond(n, kTailQuantile)) +
           " samples beyond it)");
    r.check(n >= minSamplesForTail(kTailQuantile),
            "too few query samples for a p95");
    r.metric("query_p50_ms", median(wall), "ms");
    r.metric("query_p95_ms", quantile(wall, kTailQuantile), "ms");
    r.metric("queries_per_s", busy > 0 ? static_cast<double>(n) / busy : 0,
             "1/s");
    // Modeled per-query time sits on a few plateaus (index-pruned
    // queries of like size cost the same chain reads plus one device
    // latency), so its median is pinned to one plateau whatever the
    // seed; the mean keeps the mix visible.
    r.metric("query_sim_mean_us", mean(sim), "us");
    r.metric("query_device_KB", mean(device), "KB");
}

DeviceFigures
deviceFigures(MithriLog &s)
{
    DeviceFigures f;
    double raw = static_cast<double>(s.rawBytes());
    f.write_amp = static_cast<double>(bytesWritten(s)) / raw;
    f.space_amp = static_cast<double>(liveDeviceBytes(s)) / raw;
    f.ingest_sim_mbps = raw / 1e6 / s.ssd().elapsed().toSeconds();
    return f;
}

} // namespace perfbench
