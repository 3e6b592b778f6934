#include "core/mithrilog.h"

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/text.h"
#include "loggen/log_generator.h"
#include "query/matcher.h"
#include "query/parser.h"

namespace mithril::core {
namespace {

query::Query
mustParse(std::string_view text)
{
    query::Query q;
    Status st = query::parseQuery(text, &q);
    EXPECT_TRUE(st.isOk()) << st.toString();
    return q;
}

std::string
smallCorpus()
{
    std::string text;
    for (int i = 0; i < 3000; ++i) {
        if (i % 3 == 0) {
            text += "RAS KERNEL INFO instruction cache parity error "
                    "corrected seq" + std::to_string(i) + "\n";
        } else if (i % 3 == 1) {
            text += "RAS KERNEL FATAL data TLB error interrupt seq" +
                    std::to_string(i) + "\n";
        } else {
            text += "RAS APP FATAL ciod error reading message prefix "
                    "seq" + std::to_string(i) + "\n";
        }
    }
    return text;
}

TEST(MithriLogTest, IngestAccountsLinesAndPages)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    EXPECT_EQ(system.lineCount(), 3000u);
    EXPECT_GT(system.dataPageCount(), 0u);
    EXPECT_GT(system.compressionRatio(), 1.5);
}

TEST(MithriLogTest, QueryCountsMatchCorpusStructure)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());

    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("KERNEL & INFO"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 1000u);
    EXPECT_FALSE(r.used_fallback);

    ASSERT_TRUE(system.run(mustParse("KERNEL & !FATAL"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 1000u);

    ASSERT_TRUE(system.run(mustParse("FATAL"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 2000u);
}

TEST(MithriLogTest, IndexPrunesPages)
{
    MithriLog system;
    std::string text = smallCorpus();
    text += "needle UNIQUETOKEN in haystack\n";
    text += smallCorpus();
    ASSERT_TRUE(system.ingestText(text).isOk());
    EXPECT_TRUE(system.flush().isOk());

    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("UNIQUETOKEN"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 1u);
    // The single-token query must touch far fewer pages than exist.
    EXPECT_LT(r.pages_scanned, r.pages_total / 2);
    EXPECT_GT(r.index_time.ps(), 0u);
}

TEST(MithriLogTest, QueryTimeBreakdownIsConsistent)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("KERNEL"), &r).isOk());
    EXPECT_GE(r.total_time.ps(),
              std::max(r.storage_time.ps(), r.compute_time.ps()));
    EXPECT_GT(r.effectiveThroughput(system.rawBytes()), 0.0);
}

TEST(MithriLogTest, FullScanTouchesAllPages)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    std::vector<query::Query> queries{mustParse("INFO")};
    QueryResult r;
    ASSERT_TRUE(system.runFullScan(queries, &r).isOk());
    EXPECT_EQ(r.pages_scanned, r.pages_total);
    EXPECT_EQ(r.matched_lines, 1000u);
}

TEST(MithriLogTest, BatchedQueriesShareOnePass)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    std::vector<query::Query> queries{mustParse("INFO"),
                                      mustParse("APP & FATAL")};
    QueryResult r;
    ASSERT_TRUE(system.runBatch(queries, &r).isOk());
    ASSERT_EQ(r.matched_per_query.size(), 2u);
    EXPECT_EQ(r.matched_per_query[0], 1000u);
    EXPECT_EQ(r.matched_per_query[1], 1000u);
    EXPECT_EQ(r.matched_lines, 2000u);
}

TEST(MithriLogTest, FallbackOnNonOffloadableQuery)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    // 9 union sets exceed the 8 flag pairs -> software fallback.
    query::Query q = mustParse(
        "INFO | FATAL | APP | KERNEL | cache | TLB | ciod | parity | "
        "interrupt");
    QueryResult r;
    ASSERT_TRUE(system.run(q, &r).isOk());
    EXPECT_TRUE(r.used_fallback);
    EXPECT_GT(r.matched_lines, 0u);

    // The fallback keeps lines like the accelerator path does: exactly
    // the corpus lines the host matcher accepts, in ingest order.
    query::SoftwareMatcher matcher(q);
    std::vector<std::string> expected;
    forEachLine(smallCorpus(), [&](std::string_view line) {
        if (matcher.matches(line)) {
            expected.emplace_back(line);
        }
    });
    std::vector<std::string> kept;
    for (const accel::KeptLine &k : r.lines) {
        kept.push_back(k.text);
    }
    EXPECT_EQ(kept, expected);
}

TEST(MithriLogTest, TextQueryInterface)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText("alpha beta\ngamma delta\n").isOk());
    EXPECT_TRUE(system.flush().isOk());
    QueryResult r;
    ASSERT_TRUE(system.run("alpha & beta", &r).isOk());
    EXPECT_EQ(r.matched_lines, 1u);
    EXPECT_FALSE(system.run("((", &r).isOk());
}

TEST(MithriLogTest, LongLinesTruncatedWithCounter)
{
    MithriLog system;
    std::string giant(10000, 'x');
    ASSERT_TRUE(system.ingestLine(giant).isOk());
    EXPECT_TRUE(system.flush().isOk());
    EXPECT_EQ(system.truncatedLines(), 1u);
    EXPECT_EQ(system.lineCount(), 1u);
    // The same count is visible in the unified metric namespace.
    EXPECT_EQ(system.metrics().counterValue("core.lines_truncated"),
              1u);
    EXPECT_EQ(system.metrics().counterValue("core.lines_ingested"), 1u);
}

TEST(MithriLogTest, LongLineRejectedWhenTruncationDisabled)
{
    MithriLogConfig cfg;
    cfg.truncate_long_lines = false;
    MithriLog system(cfg);
    std::string giant(10000, 'x');
    EXPECT_FALSE(system.ingestLine(giant).isOk());
}

TEST(MithriLogTest, NoIndexConfigScansEverything)
{
    MithriLogConfig cfg;
    cfg.use_index = false;
    MithriLog system(cfg);
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("INFO"), &r).isOk());
    EXPECT_EQ(r.pages_scanned, r.pages_total);
    EXPECT_EQ(r.index_time.ps(), 0u);
}

TEST(MithriLogTest, EmptyBatchRejected)
{
    MithriLog system;
    QueryResult r;
    EXPECT_FALSE(system.runBatch({}, &r).isOk());
}

TEST(MithriLogTest, PlannerSkipsTraversalForCommonTokens)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());

    // "RAS" occurs on every line: entry counters predict no pruning,
    // so the planner goes straight to a full scan (no traversal time).
    QueryResult common;
    ASSERT_TRUE(system.run(mustParse("RAS"), &common).isOk());
    EXPECT_TRUE(common.planned_full_scan);
    EXPECT_EQ(common.index_time.ps(), 0u);
    EXPECT_EQ(common.pages_scanned, common.pages_total);
    EXPECT_EQ(common.matched_lines, 3000u);

    // A selective token goes through the index as usual.
    QueryResult rare;
    ASSERT_TRUE(system.run(mustParse("seq42"), &rare).isOk());
    EXPECT_FALSE(rare.planned_full_scan);
    EXPECT_LT(rare.pages_scanned, rare.pages_total);
    EXPECT_EQ(rare.matched_lines, 1u);
}

TEST(MithriLogTest, PlannerCanBeDisabled)
{
    MithriLogConfig cfg;
    cfg.planner_scan_threshold = 1.0;
    MithriLog system(cfg);
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("RAS"), &r).isOk());
    EXPECT_FALSE(r.planned_full_scan);
    EXPECT_GT(r.index_time.ps(), 0u);
    EXPECT_EQ(r.matched_lines, 3000u);
}

TEST(MithriLogTest, TimeRangeQueryBoundsPages)
{
    // A realistic corpus desynchronizes index leaf flushes (tokens of
    // different page frequencies), which is what gives the snapshot
    // log its granularity.
    MithriLogConfig cfg;
    cfg.index.snapshot_leaf_interval = 2;
    MithriLog system(cfg);
    loggen::LogGenerator gen(loggen::hpc4Datasets()[1]);
    std::string text = gen.generate(4 << 20);
    std::vector<std::string_view> lines = splitLines(text);
    ASSERT_TRUE(system.ingestText(text).isOk());
    EXPECT_TRUE(system.flush().isOk());
    ASSERT_GT(system.index().snapshots().size(), 2u);

    query::Query q = mustParse("error | failed");
    uint64_t t0 = lines.size() / 4;
    uint64_t t1 = lines.size() / 2;

    QueryResult full, middle;
    ASSERT_TRUE(system.run(q, &full).isOk());
    ASSERT_TRUE(system.runTimeRange(q, t0, t1, &middle).isOk());

    // Bounded query touches fewer pages and returns fewer lines, but
    // never loses a match inside the window (coarseness only ever
    // over-approximates).
    EXPECT_LT(middle.pages_scanned, full.pages_scanned);
    EXPECT_LE(middle.matched_lines, full.matched_lines);

    query::SoftwareMatcher matcher(q);
    uint64_t in_window = 0;
    for (uint64_t j = t0; j < t1 && j < lines.size(); ++j) {
        if (matcher.matches(lines[j])) {
            ++in_window;
        }
    }
    EXPECT_GT(in_window, 0u);
    EXPECT_GE(middle.matched_lines, in_window);
}

TEST(MithriLogTest, TimeRangeWholeRangeEqualsFullQuery)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    query::Query q = mustParse("FATAL");
    QueryResult full, ranged;
    ASSERT_TRUE(system.run(q, &full).isOk());
    ASSERT_TRUE(system.runTimeRange(q, 0, ~0ull, &ranged).isOk());
    EXPECT_EQ(full.matched_lines, ranged.matched_lines);
}

TEST(MithriLogTest, KeptLinesAreRealLines)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText("keep me now\ndrop me\n").isOk());
    EXPECT_TRUE(system.flush().isOk());
    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("keep"), &r).isOk());
    ASSERT_EQ(r.lines.size(), 1u);
    EXPECT_EQ(r.lines[0].text, "keep me now");
}

TEST(MithriLogTest, QueryBreakdownMatchesScalars)
{
    MithriLog system;
    std::string text = smallCorpus();
    text += "needle UNIQUETOKEN in haystack\n";
    text += smallCorpus();
    ASSERT_TRUE(system.ingestText(text).isOk());
    EXPECT_TRUE(system.flush().isOk());

    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("UNIQUETOKEN"), &r).isOk());
    const QueryBreakdown &b = r.breakdown;
    EXPECT_EQ(b.total_time.ps(), r.total_time.ps());
    EXPECT_EQ(b.index_time.ps(), r.index_time.ps());
    EXPECT_EQ(b.pages_scanned, r.pages_scanned);
    EXPECT_EQ(b.matched_lines, r.matched_lines);
    EXPECT_FALSE(b.used_fallback);
    EXPECT_GT(b.wall_seconds, 0.0);
    // Index path: candidates were nominated and the page-pruning
    // account closes (candidates = with-matches + false positives).
    EXPECT_EQ(b.candidate_pages, b.pages_scanned);
    EXPECT_GE(b.pages_with_matches, 1u);
    EXPECT_EQ(b.false_positive_pages,
              b.pages_scanned - b.pages_with_matches);

    std::string json = b.toJson();
    EXPECT_NE(json.find("\"total_ps\""), std::string::npos);
    EXPECT_NE(json.find("\"false_positive_pages\""), std::string::npos);
}

TEST(MithriLogTest, QueryDatapathFeedsMetricsAndSpans)
{
    MithriLog system;
    ASSERT_TRUE(system.ingestText(smallCorpus()).isOk());
    EXPECT_TRUE(system.flush().isOk());
    QueryResult r;
    ASSERT_TRUE(system.run(mustParse("seq42"), &r).isOk());

    const obs::MetricsRegistry &m = system.metrics();
    EXPECT_EQ(m.counterValue("core.queries"), 1u);
    EXPECT_GT(m.counterValue("ssd.pages_read"), 0u);
    EXPECT_GT(m.counterValue("index.candidate_pages"), 0u);
    EXPECT_GT(m.counterValue("accel.busy_cycles"), 0u);
    EXPECT_GT(m.counterValue("lzah.bytes_in"), 0u);
    EXPECT_EQ(m.counterValue("core.lines_ingested"), 3000u);

    // The span buffer covers the datapath phases, nested under the
    // parent query span, with modeled durations attached.
    bool saw_query = false, saw_lookup = false, saw_stream = false,
         saw_filter = false;
    for (const obs::TraceEvent &e : system.tracer().events()) {
        if (e.name == "query") {
            saw_query = true;
            EXPECT_EQ(e.depth, 0u);
            EXPECT_TRUE(e.has_sim);
            EXPECT_EQ(e.sim_dur_ps, r.total_time.ps());
        } else if (e.name == "query.index_lookup") {
            saw_lookup = true;
            EXPECT_EQ(e.depth, 1u);
        } else if (e.name == "query.page_stream") {
            saw_stream = true;
            EXPECT_EQ(e.sim_dur_ps, r.storage_time.ps());
        } else if (e.name == "query.filter") {
            saw_filter = true;
            EXPECT_EQ(e.sim_dur_ps, r.compute_time.ps());
        }
    }
    EXPECT_TRUE(saw_query);
    EXPECT_TRUE(saw_lookup);
    EXPECT_TRUE(saw_stream);
    EXPECT_TRUE(saw_filter);
}

TEST(MithriLogTest, SimDomainTelemetryIsDeterministic)
{
    auto run = [] {
        MithriLog system;
        EXPECT_TRUE(system.ingestText(smallCorpus()).isOk());
        EXPECT_TRUE(system.flush().isOk());
        QueryResult r;
        EXPECT_TRUE(system.run(mustParse("KERNEL & INFO"), &r).isOk());
        obs::MetricsSnapshot snap = system.metrics().snapshot();
        std::vector<std::pair<uint64_t, uint64_t>> sim;
        for (const obs::TraceEvent &e : system.tracer().events()) {
            if (e.has_sim) {
                sim.emplace_back(e.sim_start_ps, e.sim_dur_ps);
            }
        }
        return std::make_pair(snap.counters, sim);
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(MithriLogTest, ExternalRegistryIsShared)
{
    obs::MetricsRegistry registry;
    obs::Tracer tracer;
    MithriLogConfig cfg;
    cfg.metrics = &registry;
    cfg.tracer = &tracer;
    MithriLog system(cfg);
    ASSERT_TRUE(system.ingestText("alpha beta\n").isOk());
    EXPECT_TRUE(system.flush().isOk());
    EXPECT_EQ(&system.metrics(), &registry);
    EXPECT_EQ(&system.tracer(), &tracer);
    EXPECT_EQ(registry.counterValue("core.lines_ingested"), 1u);
}

} // namespace
} // namespace mithril::core
