/**
 * @file
 * Functional tests for the sharded log service: routing, merged query
 * correctness against a single-store oracle, admission control, sticky
 * ingest errors, and the recovered read-only shard state.
 *
 * The concurrency-shaped tests (multi-producer ingest, queries racing
 * ingest) live in concurrency_test.cc so the TSan tier can target them
 * directly; determinism-across-worker-counts lives in
 * svc_determinism_test.cc.
 */
#include "svc/log_service.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/parser.h"
#include "testutil/scratch_path.h"

namespace mithril::svc {
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
tempPath(const std::string &name)
{
    return testutil::scratchPath(name, "");
}

std::string
smallCorpus(int lines = 3000)
{
    std::string text;
    for (int i = 0; i < lines; ++i) {
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

std::vector<std::string>
sortedTexts(const std::vector<accel::KeptLine> &lines)
{
    std::vector<std::string> texts;
    texts.reserve(lines.size());
    for (const accel::KeptLine &l : lines) {
        texts.push_back(l.text);
    }
    std::sort(texts.begin(), texts.end());
    return texts;
}

TEST(LogServiceTest, MergedQueryMatchesSingleStoreOracle)
{
    LogServiceConfig cfg;
    cfg.shards = 4;
    cfg.threads = 4;
    LogService service(cfg);
    std::string corpus = smallCorpus();
    ASSERT_TRUE(service.appendText(corpus).isOk());
    ASSERT_TRUE(service.flush().isOk());
    EXPECT_EQ(service.lineCount(), 3000u);

    core::MithriLog oracle;
    ASSERT_TRUE(oracle.ingestText(corpus).isOk());
    ASSERT_TRUE(oracle.flush().isOk());

    for (const char *text :
         {"KERNEL & INFO", "FATAL", "KERNEL & !FATAL", "seq42"}) {
        ServiceQueryResult merged;
        core::QueryResult single;
        ASSERT_TRUE(service.query(text, &merged).isOk());
        ASSERT_TRUE(oracle.run(mustParse(text), &single).isOk());
        EXPECT_EQ(merged.matched_lines, single.matched_lines) << text;
        // Shards interleave the corpus, so merged order differs from
        // the single store's — the match *set* must be identical.
        EXPECT_EQ(sortedTexts(merged.lines), sortedTexts(single.lines))
            << text;
    }
}

TEST(LogServiceTest, RoundRobinBalancesShards)
{
    LogServiceConfig cfg;
    cfg.shards = 4;
    cfg.threads = 2;
    LogService service(cfg);
    ASSERT_TRUE(service.appendText(smallCorpus(4000)).isOk());
    ASSERT_TRUE(service.flush().isOk());
    for (size_t i = 0; i < service.shardCount(); ++i) {
        EXPECT_EQ(service.shard(i).lineCount(), 1000u) << "shard " << i;
    }
}

TEST(LogServiceTest, HashRoutingKeepsTokenGroupsTogether)
{
    LogServiceConfig cfg;
    cfg.shards = 4;
    cfg.threads = 2;
    cfg.routing = RoutingPolicy::kHashToken;
    cfg.batch_lines = 8;
    LogService service(cfg);
    // Two first-token groups: each must land wholly on one shard.
    // Skewed routing concentrates backlog, so ride out backpressure.
    auto appendRetrying = [&](const std::string &line) {
        Status st = service.append(line);
        while (!st.isOk() &&
               st.code() == StatusCode::kResourceExhausted) {
            service.drain();
            st = service.append(line);
        }
        ASSERT_TRUE(st.isOk()) << st.toString();
    };
    for (int i = 0; i < 64; ++i) {
        appendRetrying("alpha payload " + std::to_string(i));
        appendRetrying("bravo payload " + std::to_string(i));
    }
    ASSERT_TRUE(service.flush().isOk());
    EXPECT_EQ(service.lineCount(), 128u);
    size_t shards_used = 0;
    for (size_t i = 0; i < service.shardCount(); ++i) {
        uint64_t n = service.shard(i).lineCount();
        EXPECT_TRUE(n == 0 || n == 64 || n == 128) << "shard " << i
            << " holds " << n << " lines — a token group split";
        shards_used += (n != 0);
    }
    EXPECT_GE(shards_used, 1u);

    ServiceQueryResult r;
    ASSERT_TRUE(service.query("payload", &r).isOk());
    EXPECT_EQ(r.matched_lines, 128u);
}

TEST(LogServiceTest, BackpressureRejectsThenRecovers)
{
    LogServiceConfig cfg;
    cfg.shards = 1;
    cfg.threads = 1;
    cfg.batch_lines = 1;  // every line is a batch
    cfg.queue_depth = 1;  // one may wait
    LogService service(cfg);

    uint64_t accepted = 0;
    uint64_t rejected = 0;
    for (int i = 0; i < 5000; ++i) {
        Status st = service.append("burst line seq" +
                                   std::to_string(i));
        if (st.isOk()) {
            ++accepted;
        } else {
            ASSERT_EQ(st.code(), StatusCode::kResourceExhausted)
                << st.toString();
            ++rejected;
            if (rejected > 4) {
                break; // seen enough; don't spin the full loop
            }
            service.drain(); // backlog clears -> admission reopens
        }
    }
    // A producer that only buffers strings outruns a single worker
    // paying full per-line ingest; admission control must have fired.
    EXPECT_GT(rejected, 0u);
    service.drain();
    ASSERT_TRUE(service.append("after drain").isOk());
    ASSERT_TRUE(service.flush().isOk());
    EXPECT_EQ(service.lineCount(), accepted + 1);
    EXPECT_EQ(service.metrics().counterValue("svc.lines_rejected"),
              rejected);
    EXPECT_EQ(service.metrics().counterValue("svc.lines_routed"),
              accepted + 1);
}

TEST(LogServiceTest, SealedShardErrorIsSticky)
{
    LogServiceConfig cfg;
    cfg.shards = 1;
    cfg.threads = 1;
    cfg.batch_lines = 1;
    LogService service(cfg);
    ASSERT_TRUE(service.append("only line").isOk());
    ASSERT_TRUE(service.seal().isOk());

    // The append is accepted (routing only buffers); the failure
    // surfaces when the worker applies it, then sticks.
    Status first = service.append("after seal");
    if (first.isOk()) {
        service.drain();
    }
    Status second = service.append("after seal again");
    EXPECT_FALSE(second.isOk());
    EXPECT_EQ(service.lineCount(), 1u);
    EXPECT_GE(service.metrics().counterValue("svc.ingest_errors"), 1u);
}

TEST(LogServiceTest, RecoveredShardIsReadonlyButQueryable)
{
    // Build a device image the way a crash-recovery mount would see
    // it: ingest, flush, dump NAND.
    std::string img = tempPath("svc_recover_shard.img");
    {
        core::MithriLog donor;
        ASSERT_TRUE(donor
                        .ingestText("golden alpha one\n"
                                    "golden beta two\n"
                                    "golden gamma three\n")
                        .isOk());
        ASSERT_TRUE(donor.flush().isOk());
        ASSERT_TRUE(donor.saveDeviceImage(img).isOk());
    }

    LogServiceConfig cfg;
    cfg.shards = 2;
    cfg.threads = 2;
    cfg.batch_lines = 1;
    LogService service(cfg);
    ASSERT_TRUE(service.recoverShard(1, img).isOk());
    EXPECT_EQ(service.readonlyShards(), 1u);
    EXPECT_EQ(service.metrics().gauge("svc.shards_readonly").value(),
              1.0);

    // Round-robin: line 0 -> shard 0 (accepted), line 1 -> shard 1
    // (recovered -> kFailedPrecondition, nothing buffered).
    ASSERT_TRUE(service.append("fresh line zero").isOk());
    Status st = service.append("fresh line one");
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition)
        << st.toString();
    ASSERT_TRUE(service.flush().isOk());

    // Queries still fan out over the recovered shard's lines.
    ServiceQueryResult r;
    ASSERT_TRUE(service.query("golden", &r).isOk());
    EXPECT_EQ(r.matched_lines, 3u);
    ASSERT_TRUE(service.query("fresh", &r).isOk());
    EXPECT_EQ(r.matched_lines, 1u);

    // seal() skips the recovered shard instead of failing on it.
    EXPECT_TRUE(service.seal().isOk());
}

TEST(LogServiceTest, ReopenShardResumesIngestAndSealsLikeFresh)
{
    std::string img = tempPath("svc_reopen_shard.img");
    {
        core::MithriLog donor;
        ASSERT_TRUE(donor
                        .ingestText("golden alpha one\n"
                                    "golden beta two\n"
                                    "golden gamma three\n")
                        .isOk());
        ASSERT_TRUE(donor.flush().isOk());
        ASSERT_TRUE(donor.saveDeviceImage(img).isOk());
    }

    LogServiceConfig cfg;
    cfg.shards = 2;
    cfg.threads = 2;
    cfg.batch_lines = 1;
    LogService service(cfg);
    ASSERT_TRUE(service.recoverShard(1, img).isOk());
    ASSERT_TRUE(service.reopenShard(1).isOk());
    EXPECT_EQ(service.readonlyShards(), 0u);
    EXPECT_EQ(service.metrics().gauge("svc.shards_readonly").value(),
              0.0);
    EXPECT_EQ(service.metrics().counterValue("svc.shards_reopened"),
              1u);

    // Round-robin re-admits the reopened shard: line 0 -> shard 0,
    // line 1 -> shard 1 on top of its three recovered lines.
    ASSERT_TRUE(service.append("fresh line zero").isOk());
    ASSERT_TRUE(service.append("fresh line one").isOk());
    ASSERT_TRUE(service.flush().isOk());
    EXPECT_EQ(service.shard(1).lineCount(), 4u);

    ServiceQueryResult r;
    ASSERT_TRUE(service.query("golden", &r).isOk());
    EXPECT_EQ(r.matched_lines, 3u);
    ASSERT_TRUE(service.query("fresh", &r).isOk());
    EXPECT_EQ(r.matched_lines, 2u);

    // Regression for the seal() skip logic: a reopened shard is no
    // longer "recovered", so seal() must seal it like a fresh one
    // instead of skipping it.
    ASSERT_TRUE(service.seal().isOk());
    EXPECT_TRUE(service.shard(1).sealed());
}

TEST(LogServiceTest, ReopenShardPreconditions)
{
    std::string sealed_img = tempPath("svc_reopen_sealed.img");
    {
        core::MithriLog donor;
        ASSERT_TRUE(donor.ingestText("sealed donor line\n").isOk());
        ASSERT_TRUE(donor.seal().isOk());
        ASSERT_TRUE(donor.saveDeviceImage(sealed_img).isOk());
    }
    LogServiceConfig cfg;
    cfg.shards = 2;
    cfg.threads = 1;
    cfg.batch_lines = 1;
    LogService service(cfg);
    EXPECT_EQ(service.reopenShard(7).code(),
              StatusCode::kInvalidArgument);
    // A live shard that was never recovered has nothing to reopen.
    EXPECT_EQ(service.reopenShard(0).code(),
              StatusCode::kFailedPrecondition);

    // A durably sealed donor recovers read-only but refuses reopen —
    // seal is terminal across recovery — and stays read-only.
    ASSERT_TRUE(service.recoverShard(1, sealed_img).isOk());
    EXPECT_EQ(service.reopenShard(1).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(service.readonlyShards(), 1u);
    EXPECT_EQ(service.metrics().gauge("svc.shards_readonly").value(),
              1.0);
    EXPECT_EQ(service.metrics().counterValue("svc.shards_reopened"),
              0u);
}

TEST(LogServiceTest, RecoverShardPreconditions)
{
    std::string img = tempPath("svc_recover_precond.img");
    {
        core::MithriLog donor;
        ASSERT_TRUE(donor.ingestText("x y z\n").isOk());
        ASSERT_TRUE(donor.flush().isOk());
        ASSERT_TRUE(donor.saveDeviceImage(img).isOk());
    }
    LogServiceConfig cfg;
    cfg.shards = 2;
    cfg.threads = 1;
    cfg.batch_lines = 1;
    LogService service(cfg);
    EXPECT_EQ(service.recoverShard(7, img).code(),
              StatusCode::kInvalidArgument);

    ASSERT_TRUE(service.append("occupies shard zero").isOk());
    service.drain();
    EXPECT_EQ(service.recoverShard(0, img).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_TRUE(service.recoverShard(1, img).isOk());
}

TEST(LogServiceTest, QueryResultRollupIsConsistent)
{
    LogServiceConfig cfg;
    cfg.shards = 4;
    cfg.threads = 4;
    LogService service(cfg);
    ASSERT_TRUE(service.appendText(smallCorpus()).isOk());
    ASSERT_TRUE(service.flush().isOk());

    ServiceQueryResult r;
    ASSERT_TRUE(service.query("KERNEL & INFO", &r).isOk());
    EXPECT_EQ(r.matched_lines, 1000u);
    ASSERT_EQ(r.per_shard.size(), 4u);

    // Parallel roll-up: the fan-out total is the slowest shard, never
    // the sum; scalar counts sum.
    uint64_t max_ps = 0;
    uint64_t pages = 0;
    for (const core::QueryBreakdown &b : r.per_shard) {
        max_ps = std::max<uint64_t>(max_ps, b.total_time.ps());
        pages += b.pages_scanned;
    }
    EXPECT_EQ(r.total_time.ps(), max_ps);
    EXPECT_EQ(r.pages_scanned, pages);
    EXPECT_EQ(r.breakdown.total_time.ps(), r.total_time.ps());
    EXPECT_EQ(r.breakdown.matched_lines, r.matched_lines);
    EXPECT_GE(r.total_time.ps(),
              std::max(r.storage_time.ps(), r.compute_time.ps()));
    EXPECT_GE(r.shardImbalancePct(), 0.0);
    EXPECT_LT(r.shardImbalancePct(), 100.0);
    EXPECT_GT(r.wall_seconds, 0.0);

    const obs::MetricsRegistry &m = service.metrics();
    EXPECT_EQ(m.counterValue("svc.queries"), 1u);
    EXPECT_EQ(m.counterValue("svc.shard_queries"), 4u);
    EXPECT_EQ(m.counterValue("svc.lines_routed"), 3000u);
}

TEST(LogServiceTest, ZeroConfigClampsToMinimumService)
{
    LogServiceConfig cfg;
    cfg.shards = 0;
    cfg.threads = 0;
    cfg.batch_lines = 0;
    cfg.queue_depth = 0;
    LogService service(cfg);
    EXPECT_EQ(service.shardCount(), 1u);
    EXPECT_EQ(service.threadCount(), 1u);
    ASSERT_TRUE(service.append("still works").isOk());
    ASSERT_TRUE(service.flush().isOk());
    EXPECT_EQ(service.lineCount(), 1u);
}

TEST(LogServiceTest, ParseErrorSurfacesBeforeFanout)
{
    LogService service(LogServiceConfig{});
    ServiceQueryResult r;
    EXPECT_FALSE(service.query("((", &r).isOk());
    EXPECT_EQ(service.metrics().counterValue("svc.shard_queries"), 0u);
}

} // namespace
} // namespace mithril::svc
