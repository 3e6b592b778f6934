/**
 * @file
 * Query fingerprints: what every query path returns, field by field.
 *
 * Querying is a pure function of the stored bytes and the query, in
 * the modeled clock as well as in its results. Each case below builds
 * a store from a fixed corpus (a BGL2 twin or the seeded incident
 * scenario), drives one execution path, and compares a fingerprint of
 * the result with a recorded one: QueryBreakdown::toJson() without
 * the measured wall_seconds, matched_per_query, and digests of the
 * kept lines (text, query mask, page and line ordinals) and of
 * line_numbers. The paths are the indexed accelerator, the planner's
 * full scan, runFullScan over keyword and typed batches, runTimeRange,
 * the typed tier with pruning, the use_index=false and
 * use_typed_index=false configurations, the compile fallback, and the
 * three degraded paths (index damage, typed posting damage, a filter
 * fault), each driven by deliberately damaged pages.
 *
 * A mismatch means a path's modeled cost, its pruning account or its
 * results moved. When that is the point of a change, record the new
 * fingerprint and say why in EXPERIMENTS.md.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/text.h"
#include "core/mithrilog.h"
#include "loggen/incident.h"
#include "loggen/log_generator.h"
#include "query/parser.h"

namespace mithril::core {
namespace {

const std::string &
bglCorpus()
{
    static const std::string text =
        loggen::LogGenerator(loggen::datasetByName("BGL2"))
            .generate(1 << 20);
    return text;
}

const std::string &
incidentCorpus()
{
    static const std::string text = [] {
        loggen::IncidentSpec spec;
        spec.background_bytes = 512 << 10;
        loggen::IncidentGroundTruth truth;
        return loggen::generateIncident(spec, &truth);
    }();
    return text;
}

std::unique_ptr<MithriLog>
ingest(const std::string &text, MithriLogConfig config = MithriLogConfig{})
{
    auto store = std::make_unique<MithriLog>(config);
    EXPECT_TRUE(store->ingestText(text).isOk());
    EXPECT_TRUE(store->flush().isOk());
    return store;
}

std::vector<query::Query>
parseAll(std::initializer_list<const char *> texts)
{
    std::vector<query::Query> out;
    for (const char *text : texts) {
        query::Query q;
        Status st = query::parseQuery(text, &q);
        EXPECT_TRUE(st.isOk()) << text << ": " << st.toString();
        out.push_back(std::move(q));
    }
    return out;
}

std::string
hex(uint64_t v)
{
    return strprintf("0x%016llx", static_cast<unsigned long long>(v));
}

/** Breakdown JSON minus wall_seconds, per-query counts, and digests of
 *  the kept lines and their line numbers. */
std::string
fingerprint(const QueryResult &r)
{
    std::string json = r.breakdown.toJson();
    size_t wall = json.rfind(",\"wall_seconds\"");
    EXPECT_NE(wall, std::string::npos);
    json.erase(wall);
    json += '}';

    std::string per_query;
    for (uint64_t n : r.matched_per_query) {
        per_query += (per_query.empty() ? "" : ",") + std::to_string(n);
    }
    uint64_t lines = 0;
    for (const accel::KeptLine &k : r.lines) {
        lines = hash64(k.text, lines);
        lines = mix64(lines ^ k.query_mask);
        lines = mix64(lines ^ (static_cast<uint64_t>(k.page_index) << 32 |
                               k.line_in_page));
    }
    uint64_t numbers =
        r.line_numbers.empty()
            ? 0
            : hash64(r.line_numbers.data(),
                     r.line_numbers.size() * sizeof(uint64_t));
    return json + " per_query=" + per_query +
           " lines=" + std::to_string(r.lines.size()) + ":" + hex(lines) +
           " numbers=" + std::to_string(r.line_numbers.size()) + ":" +
           hex(numbers);
}

/** Flips every byte of every page that is not a data page: inverted-
 *  index nodes and typed posting pages then fail their CRCs. */
void
corruptNonDataPages(MithriLog *store)
{
    std::vector<storage::PageId> data = store->dataPages();
    std::sort(data.begin(), data.end());
    storage::PageStore &pages = store->ssd().store();
    for (storage::PageId id = 0; id < pages.pageCount(); ++id) {
        if (!pages.contains(id) ||
            std::binary_search(data.begin(), data.end(), id)) {
            continue;
        }
        for (uint8_t &b : pages.mutablePage(id)) {
            b ^= 0xff;
        }
    }
}

/** Claims 4096 more LZAH items in @p page's header, consistently with
 *  its byte count: the payload CRC still verifies, so staging passes
 *  the page and the decoder runs out of bounds inside the filter. */
void
overstateItemCount(MithriLog *store, storage::PageId page)
{
    std::span<uint8_t> bytes = store->ssd().store().mutablePage(page);
    uint32_t items = 0;
    std::memcpy(&items, bytes.data(), 4);
    items += 4096;
    uint32_t decompressed = items * 16;
    std::memcpy(bytes.data(), &items, 4);
    std::memcpy(bytes.data() + 4, &decompressed, 4);
}

TEST(QueryFingerprintTest, IndexedAccelerator)
{
    auto store = ingest(bglCorpus());
    auto batch = parseAll({"TLB & refused", "lustre & timeout",
                           "0xf0c7b709"});
    QueryResult r;
    ASSERT_TRUE(store->runBatch(batch, &r).isOk());
    EXPECT_FALSE(r.planned_full_scan);
    EXPECT_EQ(fingerprint(r),
              "{\"index_ps\":210570320,\"storage_ps\":126453333,"
              "\"compute_ps\":21600000,\"total_ps\":310570320,"
              "\"candidate_pages\":31,\"pages_scanned\":31,"
              "\"pages_total\":134,\"pages_with_matches\":27,"
              "\"false_positive_pages\":4,\"matched_lines\":171,"
              "\"used_fallback\":false,\"planned_full_scan\":false,"
              "\"degraded_index_scan\":false,"
              "\"degraded_software_scan\":false,\"pages_dropped\":0,"
              "\"read_retries\":0,\"typed_predicates\":0,"
              "\"typed_index_pages\":0,\"typed_index_bytes\":0,"
              "\"degraded_typed_scan\":false} per_query=61,77,33 "
              "lines=171:0xfe6d22bd3de91691 numbers=0:0x0000000000000000");
}

TEST(QueryFingerprintTest, PlannerFullScan)
{
    auto store = ingest(bglCorpus());
    QueryResult r;
    ASSERT_TRUE(store->run("RAS & ERROR", &r).isOk());
    EXPECT_TRUE(r.planned_full_scan);
    EXPECT_EQ(fingerprint(r),
              "{\"index_ps\":0,\"storage_ps\":214346666,"
              "\"compute_ps\":88480000,\"total_ps\":314346666,"
              "\"candidate_pages\":0,\"pages_scanned\":134,"
              "\"pages_total\":134,\"pages_with_matches\":127,"
              "\"false_positive_pages\":0,\"matched_lines\":2006,"
              "\"used_fallback\":false,\"planned_full_scan\":true,"
              "\"degraded_index_scan\":false,"
              "\"degraded_software_scan\":false,\"pages_dropped\":0,"
              "\"read_retries\":0,\"typed_predicates\":0,"
              "\"typed_index_pages\":0,\"typed_index_bytes\":0,"
              "\"degraded_typed_scan\":false} per_query=2006 "
              "lines=2006:0x3918f4892a07caca numbers=0:0x0000000000000000");
}

TEST(QueryFingerprintTest, KeywordFullScan)
{
    auto store = ingest(bglCorpus());
    auto batch = parseAll({"KERNEL & FATAL", "parity"});
    QueryResult r;
    ASSERT_TRUE(store->runFullScan(batch, &r).isOk());
    EXPECT_EQ(fingerprint(r),
              "{\"index_ps\":0,\"storage_ps\":214346666,"
              "\"compute_ps\":88480000,\"total_ps\":314346666,"
              "\"candidate_pages\":0,\"pages_scanned\":134,"
              "\"pages_total\":134,\"pages_with_matches\":109,"
              "\"false_positive_pages\":0,\"matched_lines\":1132,"
              "\"used_fallback\":false,\"planned_full_scan\":false,"
              "\"degraded_index_scan\":false,"
              "\"degraded_software_scan\":false,\"pages_dropped\":0,"
              "\"read_retries\":0,\"typed_predicates\":0,"
              "\"typed_index_pages\":0,\"typed_index_bytes\":0,"
              "\"degraded_typed_scan\":false} per_query=86,1046 "
              "lines=1132:0x30b40dcec1e28610 numbers=0:0x0000000000000000");
}

TEST(QueryFingerprintTest, TypedFullScan)
{
    auto store = ingest(incidentCorpus());
    auto batch = parseAll({"ip:192.0.2.77", "id:f00dfeed8badc0de"});
    QueryResult r;
    ASSERT_TRUE(store->runFullScan(batch, &r).isOk());
    EXPECT_EQ(fingerprint(r),
              "{\"index_ps\":0,\"storage_ps\":147566451,\"compute_ps\":0,"
              "\"total_ps\":247566451,\"candidate_pages\":0,"
              "\"pages_scanned\":36,\"pages_total\":36,"
              "\"pages_with_matches\":0,\"false_positive_pages\":0,"
              "\"matched_lines\":50,\"used_fallback\":false,"
              "\"planned_full_scan\":false,\"degraded_index_scan\":false,"
              "\"degraded_software_scan\":false,\"pages_dropped\":0,"
              "\"read_retries\":0,\"typed_predicates\":0,"
              "\"typed_index_pages\":0,\"typed_index_bytes\":0,"
              "\"degraded_typed_scan\":false} per_query=50,10 "
              "lines=50:0x0b0439894bc21f67 numbers=50:0xdcb4a60744843792");
}

TEST(QueryFingerprintTest, TimeRange)
{
    MithriLogConfig config;
    config.index.snapshot_leaf_interval = 2;
    auto store = ingest(bglCorpus(), config);
    auto q = parseAll({"FATAL & !KERNEL"});
    uint64_t lines = store->lineCount();
    QueryResult r;
    ASSERT_TRUE(
        store->runTimeRange(q[0], lines / 4, lines / 2, &r).isOk());
    EXPECT_EQ(fingerprint(r),
              "{\"index_ps\":210570320,\"storage_ps\":123040000,"
              "\"compute_ps\":19120000,\"total_ps\":310570320,"
              "\"candidate_pages\":93,\"pages_scanned\":27,"
              "\"pages_total\":134,\"pages_with_matches\":23,"
              "\"false_positive_pages\":4,\"matched_lines\":170,"
              "\"used_fallback\":false,\"planned_full_scan\":false,"
              "\"degraded_index_scan\":false,"
              "\"degraded_software_scan\":false,\"pages_dropped\":0,"
              "\"read_retries\":0,\"typed_predicates\":0,"
              "\"typed_index_pages\":0,\"typed_index_bytes\":0,"
              "\"degraded_typed_scan\":false} per_query=170 "
              "lines=170:0x10b2fb33ada3b004 numbers=0:0x0000000000000000");
}

TEST(QueryFingerprintTest, TypedPruned)
{
    auto store = ingest(incidentCorpus());
    auto batch = parseAll({"ip:192.0.2.64/26", "ip:192.0.2.77 & password",
                           "Accepted & jsmith"});
    QueryResult r;
    ASSERT_TRUE(store->runBatch(batch, &r).isOk());
    EXPECT_EQ(fingerprint(r),
              "{\"index_ps\":205285160,\"storage_ps\":114534193,"
              "\"compute_ps\":0,\"total_ps\":419819353,"
              "\"candidate_pages\":11,\"pages_scanned\":11,"
              "\"pages_total\":36,\"pages_with_matches\":0,"
              "\"false_positive_pages\":0,\"matched_lines\":60,"
              "\"used_fallback\":false,\"planned_full_scan\":false,"
              "\"degraded_index_scan\":false,"
              "\"degraded_software_scan\":false,\"pages_dropped\":0,"
              "\"read_retries\":0,\"typed_predicates\":2,"
              "\"typed_index_pages\":2,\"typed_index_bytes\":8192,"
              "\"degraded_typed_scan\":false} per_query=60,20,10 "
              "lines=60:0xad609d0b13901505 numbers=60:0x15614a7f066377c6");
}

TEST(QueryFingerprintTest, KeywordIndexOff)
{
    MithriLogConfig config;
    config.use_index = false;
    auto store = ingest(bglCorpus(), config);
    QueryResult r;
    ASSERT_TRUE(store->run("KERNEL & FATAL", &r).isOk());
    EXPECT_EQ(fingerprint(r),
              "{\"index_ps\":0,\"storage_ps\":214346666,"
              "\"compute_ps\":88480000,\"total_ps\":314346666,"
              "\"candidate_pages\":0,\"pages_scanned\":134,"
              "\"pages_total\":134,\"pages_with_matches\":16,"
              "\"false_positive_pages\":0,\"matched_lines\":86,"
              "\"used_fallback\":false,\"planned_full_scan\":false,"
              "\"degraded_index_scan\":false,"
              "\"degraded_software_scan\":false,\"pages_dropped\":0,"
              "\"read_retries\":0,\"typed_predicates\":0,"
              "\"typed_index_pages\":0,\"typed_index_bytes\":0,"
              "\"degraded_typed_scan\":false} per_query=86 "
              "lines=86:0x6eee1b4709512781 numbers=0:0x0000000000000000");
}

TEST(QueryFingerprintTest, TypedIndexOff)
{
    MithriLogConfig config;
    config.use_typed_index = false;
    auto store = ingest(incidentCorpus(), config);
    QueryResult r;
    ASSERT_TRUE(store->run("ip:192.0.2.77 & password", &r).isOk());
    EXPECT_EQ(fingerprint(r),
              "{\"index_ps\":0,\"storage_ps\":147566451,\"compute_ps\":0,"
              "\"total_ps\":247566451,\"candidate_pages\":0,"
              "\"pages_scanned\":36,\"pages_total\":36,"
              "\"pages_with_matches\":0,\"false_positive_pages\":0,"
              "\"matched_lines\":20,\"used_fallback\":false,"
              "\"planned_full_scan\":false,\"degraded_index_scan\":false,"
              "\"degraded_software_scan\":false,\"pages_dropped\":0,"
              "\"read_retries\":0,\"typed_predicates\":1,"
              "\"typed_index_pages\":0,\"typed_index_bytes\":0,"
              "\"degraded_typed_scan\":false} per_query=20 "
              "lines=20:0xbeed088b9f3a023d numbers=20:0x16c9c52413930ce5");
}

TEST(QueryFingerprintTest, CompileFallback)
{
    auto store = ingest(bglCorpus());
    QueryResult r;
    // Nine union sets exceed the accelerator's eight flag pairs.
    ASSERT_TRUE(store->run("INFO | FATAL | APP | KERNEL | cache | TLB | "
                           "ciod | parity | interrupt",
                           &r)
                    .isOk());
    EXPECT_TRUE(r.used_fallback);
    EXPECT_EQ(fingerprint(r),
              "{\"index_ps\":0,\"storage_ps\":277052903,\"compute_ps\":0,"
              "\"total_ps\":277052903,\"candidate_pages\":0,"
              "\"pages_scanned\":134,\"pages_total\":134,"
              "\"pages_with_matches\":0,\"false_positive_pages\":0,"
              "\"matched_lines\":3158,\"used_fallback\":true,"
              "\"planned_full_scan\":true,\"degraded_index_scan\":false,"
              "\"degraded_software_scan\":false,\"pages_dropped\":0,"
              "\"read_retries\":0,\"typed_predicates\":0,"
              "\"typed_index_pages\":0,\"typed_index_bytes\":0,"
              "\"degraded_typed_scan\":false} per_query=3158 "
              "lines=3158:0xe9932858512265bd numbers=0:0x0000000000000000");
}

TEST(QueryFingerprintTest, DegradedIndexScan)
{
    auto store = ingest(bglCorpus());
    corruptNonDataPages(store.get());
    QueryResult r;
    ASSERT_TRUE(store->run("KERNEL & FATAL", &r).isOk());
    EXPECT_TRUE(r.degraded_index_scan);
    EXPECT_EQ(fingerprint(r),
              "{\"index_ps\":202642580,\"storage_ps\":214346666,"
              "\"compute_ps\":88480000,\"total_ps\":314346666,"
              "\"candidate_pages\":0,\"pages_scanned\":134,"
              "\"pages_total\":134,\"pages_with_matches\":16,"
              "\"false_positive_pages\":0,\"matched_lines\":86,"
              "\"used_fallback\":false,\"planned_full_scan\":false,"
              "\"degraded_index_scan\":true,"
              "\"degraded_software_scan\":false,\"pages_dropped\":0,"
              "\"read_retries\":0,\"typed_predicates\":0,"
              "\"typed_index_pages\":0,\"typed_index_bytes\":0,"
              "\"degraded_typed_scan\":false} per_query=86 "
              "lines=86:0x6eee1b4709512781 numbers=0:0x0000000000000000");
}

TEST(QueryFingerprintTest, DegradedTypedScan)
{
    auto store = ingest(incidentCorpus());
    corruptNonDataPages(store.get());
    QueryResult r;
    ASSERT_TRUE(store->run("ip:192.0.2.64/26", &r).isOk());
    EXPECT_TRUE(r.degraded_typed_scan);
    EXPECT_EQ(fingerprint(r),
              "{\"index_ps\":1321290,\"storage_ps\":147566451,"
              "\"compute_ps\":0,\"total_ps\":248887741,"
              "\"candidate_pages\":0,\"pages_scanned\":36,"
              "\"pages_total\":36,\"pages_with_matches\":0,"
              "\"false_positive_pages\":0,\"matched_lines\":60,"
              "\"used_fallback\":false,\"planned_full_scan\":false,"
              "\"degraded_index_scan\":false,"
              "\"degraded_software_scan\":false,\"pages_dropped\":0,"
              "\"read_retries\":0,\"typed_predicates\":1,"
              "\"typed_index_pages\":1,\"typed_index_bytes\":4096,"
              "\"degraded_typed_scan\":true} per_query=60 "
              "lines=60:0xd12343dd50483cf8 numbers=60:0x15614a7f066377c6");
}

TEST(QueryFingerprintTest, DegradedSoftwareScan)
{
    auto store = ingest(bglCorpus());
    std::vector<storage::PageId> candidates =
        store->index().lookup("KERNEL");
    ASSERT_GT(candidates.size(), 1u);
    overstateItemCount(store.get(), candidates[1]);
    QueryResult r;
    ASSERT_TRUE(store->run("KERNEL", &r).isOk());
    EXPECT_TRUE(r.degraded_software_scan);
    EXPECT_EQ(fingerprint(r),
              "{\"index_ps\":210570320,\"storage_ps\":358747526,"
              "\"compute_ps\":0,\"total_ps\":669317846,"
              "\"candidate_pages\":73,\"pages_scanned\":73,"
              "\"pages_total\":134,\"pages_with_matches\":0,"
              "\"false_positive_pages\":73,\"matched_lines\":501,"
              "\"used_fallback\":false,\"planned_full_scan\":false,"
              "\"degraded_index_scan\":false,"
              "\"degraded_software_scan\":true,\"pages_dropped\":1,"
              "\"read_retries\":0,\"typed_predicates\":0,"
              "\"typed_index_pages\":0,\"typed_index_bytes\":0,"
              "\"degraded_typed_scan\":false} per_query=501 "
              "lines=501:0x9fa9030af67998b7 numbers=0:0x0000000000000000");
}

} // namespace
} // namespace mithril::core
