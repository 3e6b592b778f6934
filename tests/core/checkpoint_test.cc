/**
 * @file
 * Storage-lifecycle contract at the MithriLog API level (DESIGN.md
 * §14) — the in-process counterpart of `crash_matrix.sh --checkpoint`.
 * checkpoint() collapses the journal chain into a snapshot and runs
 * the segment cleaner; the properties pinned here:
 *
 *   bounded replay:  after a checkpoint, a mount replays the snapshot
 *                    plus only the post-checkpoint chain tail — the
 *                    tail strictly drops across checkpoints instead of
 *                    growing with the whole commit history;
 *   preservation:    committed lines, query results, and the durable
 *                    ack point are bit-identical across any number of
 *                    checkpoints (including back-to-back ones);
 *   crash safety:    a power cut anywhere inside the protocol loses
 *                    nothing acknowledged — recovery lands on the pre-
 *                    or post-checkpoint superblock, never a mix;
 *   reclamation:     drained segments return to the allocator, so the
 *                    physical footprint does not grow monotonically;
 *   edges:           empty store, sealed store, and image round-trips.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/mithrilog.h"
#include "fault/fault_plan.h"
#include "query/parser.h"
#include "testutil/scratch_path.h"

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

/** Same corpus shape as the crash-recovery suite: a common token plus
 *  a unique seqN per line, so prefix boundaries pin exactly. */
std::vector<std::string>
corpus(size_t lines)
{
    std::vector<std::string> out;
    out.reserve(lines);
    for (size_t i = 0; i < lines; ++i) {
        out.push_back("ckpt payload seq" + std::to_string(i) +
                      " filler text keeps pages turning over quickly");
    }
    return out;
}

void
ingestAll(MithriLog *log, const std::vector<std::string> &lines)
{
    for (const std::string &line : lines) {
        ASSERT_TRUE(log->ingestLine(line).isOk());
    }
}

class CheckpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = testutil::scratchPath("mithrilog_ckpt");
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::string path_;
};

TEST_F(CheckpointTest, ReplayTailStrictlyDropsAcrossCheckpoints)
{
    std::vector<std::string> lines = corpus(900);
    MithriLog log;
    ingestAll(&log, lines);
    ASSERT_TRUE(log.flush().isOk());

    // K explicit checkpoints with more ingest between them: each one
    // must collapse the accumulated chain back below its own length.
    uint64_t total_records = 0;
    for (int k = 0; k < 3; ++k) {
        uint64_t before = log.journalChainRecords();
        ASSERT_GT(before, 0u);
        ASSERT_TRUE(log.checkpoint().isOk());
        uint64_t after = log.journalChainRecords();
        // The fresh chain holds only this pass's migrate records —
        // strictly fewer than the page commits it replaced.
        EXPECT_LT(after, before) << "checkpoint " << k;
        // The snapshot now carries every committed page.
        EXPECT_EQ(log.journalSnapshotRecords(), log.dataPageCount());
        total_records = log.journalSnapshotRecords() + after;
        ingestAll(&log, lines);
        ASSERT_TRUE(log.flush().isOk());
    }
    EXPECT_EQ(log.checkpoints(), 3u);

    // Mount the device: replay must walk snapshot + tail, and the
    // tail must be the post-checkpoint records only, not the 4x-grown
    // history (the corpus went in once up front plus once per
    // checkpoint round). total_records was measured at the LAST
    // checkpoint; the tail since then is what the final round added.
    ASSERT_TRUE(log.seal().isOk());
    ASSERT_TRUE(log.saveDeviceImage(path_).isOk());
    MithriLog mounted;
    ASSERT_TRUE(mounted.recover(path_).isOk());
    EXPECT_EQ(mounted.lineCount(), lines.size() * 4);
    EXPECT_GT(mounted.recoveredSnapshotRecords(), 0u);
    // Tail bound: one round's worth of page commits + seal, with
    // slack for migrate records — far below the full 4-round history.
    uint64_t one_life_pages = mounted.dataPageCount() / 4;
    EXPECT_LE(mounted.recoveredChainRecords(), one_life_pages + 16)
        << "replay tail not bounded by the post-checkpoint delta";
    EXPECT_LT(mounted.recoveredChainRecords(),
              mounted.dataPageCount());
    // The replay_records gauge mirrors what the mount walked.
    EXPECT_EQ(static_cast<uint64_t>(
                  mounted.metrics()
                      .gauge("recovery.replay_records")
                      .value()),
              mounted.recoveredSnapshotRecords() +
                  mounted.recoveredChainRecords());
    (void)total_records;

    QueryResult r;
    ASSERT_TRUE(mounted.run(mustParse("payload"), &r).isOk());
    EXPECT_EQ(r.matched_lines, lines.size() * 4);
}

TEST_F(CheckpointTest, DoubleCheckpointIsIdempotent)
{
    std::vector<std::string> lines = corpus(400);
    MithriLog log;
    ingestAll(&log, lines);
    ASSERT_TRUE(log.flush().isOk());

    ASSERT_TRUE(log.checkpoint().isOk());
    uint64_t pages = log.dataPageCount();
    uint64_t snapshot = log.journalSnapshotRecords();
    // Nothing new was committed: the second checkpoint rewrites the
    // same snapshot and leaves an empty chain (the first pass already
    // cleaned, so no migrate records either).
    ASSERT_TRUE(log.checkpoint().isOk());
    EXPECT_EQ(log.dataPageCount(), pages);
    EXPECT_EQ(log.journalSnapshotRecords(), snapshot);
    EXPECT_EQ(log.journalChainRecords(), 0u);
    EXPECT_EQ(log.checkpoints(), 2u);

    QueryResult r;
    ASSERT_TRUE(log.run(mustParse("payload"), &r).isOk());
    EXPECT_EQ(r.matched_lines, lines.size());
}

TEST_F(CheckpointTest, EmptyStoreCheckpointIsANoOp)
{
    MithriLog log;
    // Nothing ever committed: no chain to truncate — ok, not an error.
    EXPECT_TRUE(log.checkpoint().isOk());
    EXPECT_EQ(log.checkpoints(), 0u);
    EXPECT_EQ(log.journalSnapshotRecords(), 0u);
    // Pending-but-unflushed lines get committed by the checkpoint's
    // own flush, then truncated into the snapshot.
    ASSERT_TRUE(log.ingestLine("ckpt payload seq0 first line").isOk());
    EXPECT_TRUE(log.checkpoint().isOk());
    EXPECT_EQ(log.checkpoints(), 1u);
    EXPECT_EQ(log.durableLineCount(), 1u);
    EXPECT_EQ(log.journalSnapshotRecords(), log.dataPageCount());
}

TEST_F(CheckpointTest, SealedStoreCheckpointKeepsTheSeal)
{
    std::vector<std::string> lines = corpus(200);
    MithriLog log;
    ingestAll(&log, lines);
    ASSERT_TRUE(log.seal().isOk());

    // Maintenance on an archived store: allowed, and the seal is
    // terminal across it (the superblock flag survives truncation).
    ASSERT_TRUE(log.checkpoint().isOk());
    EXPECT_TRUE(log.sealed());
    EXPECT_EQ(log.ingestLine("late").code(),
              StatusCode::kInvalidArgument);

    ASSERT_TRUE(log.saveDeviceImage(path_).isOk());
    MithriLog mounted;
    ASSERT_TRUE(mounted.recover(path_).isOk());
    EXPECT_TRUE(mounted.sealed());
    EXPECT_EQ(mounted.lineCount(), lines.size());
    EXPECT_GT(mounted.recoveredSnapshotRecords(), 0u);
    // Sealed + checkpointed is terminal: the journal cannot reopen.
    EXPECT_FALSE(mounted.reopen().isOk());
}

TEST_F(CheckpointTest, RecoveredMountRefusesCheckpoint)
{
    std::vector<std::string> lines = corpus(100);
    MithriLog log;
    ingestAll(&log, lines);
    ASSERT_TRUE(log.flush().isOk());
    ASSERT_TRUE(log.saveDeviceImage(path_).isOk());

    MithriLog mounted;
    ASSERT_TRUE(mounted.recover(path_).isOk());
    // Read-only until reopen(): the replay cursor is not live.
    EXPECT_EQ(mounted.checkpoint().code(),
              StatusCode::kFailedPrecondition);
    ASSERT_TRUE(mounted.reopen().isOk());
    EXPECT_TRUE(mounted.checkpoint().isOk());
    EXPECT_EQ(mounted.durableLineCount(), lines.size());
}

TEST_F(CheckpointTest, AutoPolicyCheckpointsEveryNPages)
{
    MithriLogConfig config;
    config.checkpoint_every_pages = 2;
    MithriLog log(config);
    ingestAll(&log, corpus(900));
    ASSERT_TRUE(log.flush().isOk());
    // ~N/2 policy firings, and the chain tail stays within one policy
    // window (+ slack for migrate records) instead of one per commit.
    EXPECT_GE(log.checkpoints(), 3u);
    EXPECT_EQ(log.checkpoints(), log.dataPageCount() / 2);
    EXPECT_LE(log.journalChainRecords(), 2 + 16u);

    QueryResult r;
    ASSERT_TRUE(log.run(mustParse("payload"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 900u);
}

TEST_F(CheckpointTest, SegmentCleanerReclaimsDrainedSegments)
{
    // Repeated checkpoints strand old chain/snapshot pages across
    // segments; the cleaner must hand whole segments back instead of
    // letting the physical footprint grow monotonically. The corpus
    // must span enough segments for cold ones to form (a handful of
    // pages never drains below the half-occupancy threshold).
    std::vector<std::string> lines = corpus(7000);
    MithriLogConfig config;
    config.checkpoint_every_pages = 3;
    MithriLog log(config);
    ingestAll(&log, lines);
    ASSERT_TRUE(log.flush().isOk());
    EXPECT_GT(log.ssd().store().segmentsFreed(), 0u)
        << "no segment was ever reclaimed across "
        << log.checkpoints() << " checkpoints";
    EXPECT_GT(log.metrics().counter("storage.migrations").value(), 0u);

    QueryResult r;
    ASSERT_TRUE(log.run(mustParse("payload"), &r).isOk());
    EXPECT_EQ(r.matched_lines, lines.size());
}

TEST_F(CheckpointTest, HostImageRoundTripsACheckpointedStore)
{
    std::vector<std::string> lines = corpus(500);
    MithriLog log;
    ingestAll(&log, lines);
    ASSERT_TRUE(log.flush().isOk());
    ASSERT_TRUE(log.checkpoint().isOk());
    uint64_t snapshot = log.journalSnapshotRecords();
    ASSERT_TRUE(log.saveImage(path_).isOk());

    // The v5 image carries the freed-slot list and the journal cursor:
    // the reloaded store knows its snapshot and can checkpoint again.
    MithriLog loaded;
    ASSERT_TRUE(loaded.loadImage(path_).isOk());
    EXPECT_EQ(loaded.lineCount(), lines.size());
    EXPECT_EQ(loaded.journalSnapshotRecords(), snapshot);
    EXPECT_EQ(loaded.checkpoints(), 1u);
    QueryResult r;
    ASSERT_TRUE(loaded.run(mustParse("payload"), &r).isOk());
    EXPECT_EQ(r.matched_lines, lines.size());

    ingestAll(&loaded, lines);
    ASSERT_TRUE(loaded.checkpoint().isOk());
    EXPECT_EQ(loaded.durableLineCount(), lines.size() * 2);
}

TEST_F(CheckpointTest, CutInsideCheckpointLosesNothingAcknowledged)
{
    // Sweep cut ordinals across an ingest whose per-page checkpoints
    // dominate the write stream: most cuts land inside a snapshot
    // write, an epoch bump, or a migration. Whatever the landing spot,
    // recovery must hold the durability + prefix contract.
    std::vector<std::string> lines = corpus(300);
    bool any_fired = false;
    for (uint64_t cut = 1; cut <= 41; cut += 4) {
        fault::FaultPlanConfig fc;
        fc.seed = 1;
        fc.power_cut_after_writes = cut;
        fault::FaultPlan plan(fc);

        MithriLogConfig config;
        config.checkpoint_every_pages = 1;
        MithriLog log(config);
        log.ssd().attachFaultPlan(&plan);
        Status st = Status::ok();
        for (const std::string &line : lines) {
            st = log.ingestLine(line);
            if (!st.isOk()) {
                break;
            }
        }
        if (st.isOk()) {
            st = log.flush();
        }
        if (st.isOk()) {
            continue; // cut point past this run's last program
        }
        ASSERT_EQ(st.code(), StatusCode::kUnavailable)
            << st.toString();
        any_fired = true;
        uint64_t acknowledged = log.durableLineCount();
        ASSERT_TRUE(log.saveDeviceImage(path_).isOk());

        MithriLog mounted;
        ASSERT_TRUE(mounted.recover(path_).isOk()) << "cut=" << cut;
        uint64_t recovered = mounted.lineCount();
        EXPECT_GE(recovered, acknowledged) << "cut=" << cut;
        EXPECT_LE(recovered, lines.size()) << "cut=" << cut;
        // Prefix boundary pins exactly: seq(R-1) in, seq(R) out.
        if (recovered > 0) {
            QueryResult last;
            std::string q = "seq" + std::to_string(recovered - 1);
            ASSERT_TRUE(mounted.run(mustParse(q), &last).isOk());
            EXPECT_EQ(last.matched_lines, 1u) << q << " cut=" << cut;
        }
        if (recovered < lines.size()) {
            QueryResult past;
            std::string q = "seq" + std::to_string(recovered);
            ASSERT_TRUE(mounted.run(mustParse(q), &past).isOk());
            EXPECT_EQ(past.matched_lines, 0u) << q << " cut=" << cut;
        }
    }
    EXPECT_TRUE(any_fired);
}

} // namespace
} // namespace mithril::core
