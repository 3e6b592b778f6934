/**
 * @file
 * Worker-count independence (ISSUE 5 acceptance): the same corpus
 * through the same shard layout must produce byte-identical merged
 * query results and identical per-shard modeled time whether the pool
 * has 1, 2, or 8 workers — including with a fault plan attached. The
 * argument being tested: routing happens on the caller's thread in
 * append order, and each shard applies its batches FIFO, so worker
 * scheduling can change only *when* work happens, never *what*.
 */
#include "svc/log_service.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testutil/scratch_path.h"

namespace mithril::svc {
namespace {

std::string
corpus()
{
    std::string text;
    for (int i = 0; i < 6000; ++i) {
        switch (i % 4) {
        case 0:
            text += "RAS KERNEL INFO cache parity error corrected seq" +
                    std::to_string(i) + "\n";
            break;
        case 1:
            text += "RAS KERNEL FATAL data TLB error interrupt seq" +
                    std::to_string(i) + "\n";
            break;
        case 2:
            text += "RAS APP FATAL ciod failed message prefix seq" +
                    std::to_string(i) + "\n";
            break;
        default:
            text += "NODE LINK INFO heartbeat ok seq" +
                    std::to_string(i) + "\n";
            break;
        }
    }
    return text;
}

/** Device image of a small donor store, dumped the way a crash-
 *  recovery mount would see it — the seed for a recovered shard. */
std::string
donorImage()
{
    std::string img = testutil::scratchPath("svc_det_reopen_donor");
    core::MithriLog donor;
    EXPECT_TRUE(donor
                    .ingestText("RAS KERNEL INFO recovered golden head "
                                "seq-old0\n"
                                "RAS KERNEL FATAL recovered golden head "
                                "seq-old1\n")
                    .isOk());
    EXPECT_TRUE(donor.flush().isOk());
    EXPECT_TRUE(donor.saveDeviceImage(img).isOk());
    return img;
}

/** Everything that must be invariant across worker counts. */
struct Fingerprint {
    std::string merged_lines;          ///< all kept lines, in order
    std::vector<uint64_t> matched;     ///< per query
    std::vector<uint64_t> shard_lines; ///< per shard
    std::vector<uint64_t> shard_ps;    ///< per (query, shard) SimTime
    uint64_t pages_dropped = 0;

    bool operator==(const Fingerprint &o) const
    {
        return merged_lines == o.merged_lines && matched == o.matched &&
               shard_lines == o.shard_lines && shard_ps == o.shard_ps &&
               pages_dropped == o.pages_dropped;
    }
};

Fingerprint
runOnce(size_t threads, RoutingPolicy routing,
        const std::string &fault_spec,
        const std::string *reopen_img = nullptr)
{
    LogServiceConfig cfg;
    cfg.shards = 4;
    cfg.threads = threads;
    cfg.routing = routing;
    cfg.batch_lines = 64;
    cfg.fault_spec = fault_spec;
    LogService service(cfg);
    if (reopen_img != nullptr) {
        // Shard 0 starts life as a recovered store brought back live:
        // the rest of the run must not be able to tell.
        EXPECT_TRUE(service.recoverShard(0, *reopen_img).isOk());
        EXPECT_TRUE(service.reopenShard(0).isOk());
    }

    std::string text = corpus();
    // Line-by-line with backpressure retries: the retry schedule
    // differs per worker count, the accepted sequence must not.
    size_t start = 0;
    while (start < text.size()) {
        size_t end = text.find('\n', start);
        std::string_view line(text.data() + start, end - start);
        Status st = service.append(line);
        if (!st.isOk()) {
            EXPECT_EQ(st.code(), StatusCode::kResourceExhausted)
                << st.toString();
            service.drain();
            continue; // retry the same line
        }
        start = end + 1;
    }
    EXPECT_TRUE(service.flush().isOk());

    Fingerprint fp;
    for (size_t i = 0; i < service.shardCount(); ++i) {
        fp.shard_lines.push_back(service.shard(i).lineCount());
    }
    for (const char *q :
         {"KERNEL & INFO", "FATAL", "error | failed", "seq1234"}) {
        ServiceQueryResult r;
        Status st = service.query(q, &r);
        EXPECT_TRUE(st.isOk()) << st.toString();
        fp.matched.push_back(r.matched_lines);
        for (const accel::KeptLine &line : r.lines) {
            fp.merged_lines += line.text;
            fp.merged_lines += '\n';
        }
        for (const core::QueryBreakdown &b : r.per_shard) {
            fp.shard_ps.push_back(b.total_time.ps());
        }
        fp.pages_dropped += r.pages_dropped;
    }
    return fp;
}

TEST(SvcDeterminismTest, WorkerCountInvariantRoundRobin)
{
    Fingerprint one = runOnce(1, RoutingPolicy::kRoundRobin, "");
    Fingerprint two = runOnce(2, RoutingPolicy::kRoundRobin, "");
    Fingerprint eight = runOnce(8, RoutingPolicy::kRoundRobin, "");
    EXPECT_GT(one.matched[0], 0u);
    EXPECT_FALSE(one.merged_lines.empty());
    EXPECT_TRUE(one == two);
    EXPECT_TRUE(one == eight);
}

TEST(SvcDeterminismTest, WorkerCountInvariantHashRouting)
{
    Fingerprint one = runOnce(1, RoutingPolicy::kHashToken, "");
    Fingerprint eight = runOnce(8, RoutingPolicy::kHashToken, "");
    EXPECT_TRUE(one == eight);
}

TEST(SvcDeterminismTest, WorkerCountInvariantAfterShardReopen)
{
    // ISSUE 8 acceptance: a shard recovered from a crash image and
    // reopened under a fresh journal generation behaves exactly like a
    // fresh shard — merged results stay byte-identical across worker
    // counts, and the reopened shard accepts live ingest on top of its
    // recovered lines.
    std::string img = donorImage();
    Fingerprint one = runOnce(1, RoutingPolicy::kRoundRobin, "", &img);
    Fingerprint two = runOnce(2, RoutingPolicy::kRoundRobin, "", &img);
    Fingerprint eight =
        runOnce(8, RoutingPolicy::kRoundRobin, "", &img);
    EXPECT_GT(one.matched[0], 0u);
    EXPECT_TRUE(one == two);
    EXPECT_TRUE(one == eight);
    // 6000 corpus lines round-robin over 4 live shards, plus the two
    // recovered donor lines already on shard 0.
    ASSERT_FALSE(one.shard_lines.empty());
    EXPECT_EQ(one.shard_lines[0], 1500u + 2u);
}

TEST(SvcDeterminismTest, WorkerCountInvariantUnderReadFaults)
{
    // Per-shard fault plans draw from per-shard deterministic streams;
    // worker count must not shift a single draw.
    const std::string spec = "seed=9,ber=1e-6,ecc=1e-4,timeout=0.005";
    Fingerprint one = runOnce(1, RoutingPolicy::kRoundRobin, spec);
    Fingerprint two = runOnce(2, RoutingPolicy::kRoundRobin, spec);
    Fingerprint eight = runOnce(8, RoutingPolicy::kRoundRobin, spec);
    EXPECT_TRUE(one == two);
    EXPECT_TRUE(one == eight);
}

TEST(SvcDeterminismTest, FaultedRunStaysCorrectOrDegradesVisibly)
{
    // Sanity on the faulted fingerprint itself: with ECC recovering
    // most flips, the run either matches the clean result or drops
    // pages it could not read — never silently diverges elsewhere.
    Fingerprint clean = runOnce(2, RoutingPolicy::kRoundRobin, "");
    Fingerprint faulted = runOnce(
        2, RoutingPolicy::kRoundRobin,
        "seed=9,ber=1e-6,ecc=1e-4,timeout=0.005");
    EXPECT_EQ(clean.shard_lines, faulted.shard_lines);
    if (faulted.pages_dropped == 0) {
        EXPECT_EQ(clean.matched, faulted.matched);
        EXPECT_EQ(clean.merged_lines, faulted.merged_lines);
    } else {
        for (size_t i = 0; i < clean.matched.size(); ++i) {
            EXPECT_LE(faulted.matched[i], clean.matched[i]);
        }
    }
}

} // namespace
} // namespace mithril::svc
