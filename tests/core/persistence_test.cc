/**
 * @file
 * Device-image persistence: a saved MithriLog system restored into a
 * fresh instance must answer every query identically — same matches,
 * same page pruning — and keep accepting ingest afterwards.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "core/mithrilog.h"
#include "loggen/log_generator.h"
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

/** Temp file path cleaned up by each test. */
class PersistenceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = testutil::scratchPath("mithrilog_image", ".bin");
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(PersistenceTest, RoundTripPreservesQueries)
{
    loggen::LogGenerator gen(loggen::hpc4Datasets()[0]);
    std::string text = gen.generate(1 << 20);

    MithriLog original;
    ASSERT_TRUE(original.ingestText(text).isOk());
    ASSERT_TRUE(original.saveImage(path_).isOk());

    MithriLog restored;
    ASSERT_TRUE(restored.loadImage(path_).isOk());

    EXPECT_EQ(restored.lineCount(), original.lineCount());
    EXPECT_EQ(restored.rawBytes(), original.rawBytes());
    EXPECT_EQ(restored.dataPageCount(), original.dataPageCount());

    for (const char *q :
         {"KERNEL & INFO", "FATAL & !APP", "error | corrected"}) {
        QueryResult a, b;
        ASSERT_TRUE(original.run(mustParse(q), &a).isOk()) << q;
        ASSERT_TRUE(restored.run(mustParse(q), &b).isOk()) << q;
        EXPECT_EQ(a.matched_lines, b.matched_lines) << q;
        EXPECT_EQ(a.pages_scanned, b.pages_scanned) << q;
    }
}

TEST_F(PersistenceTest, IngestContinuesAfterRestore)
{
    MithriLog original;
    ASSERT_TRUE(original.ingestText("before save alpha\n").isOk());
    ASSERT_TRUE(original.saveImage(path_).isOk());

    MithriLog restored;
    ASSERT_TRUE(restored.loadImage(path_).isOk());
    ASSERT_TRUE(restored.ingestText("after load beta\n").isOk());
    EXPECT_TRUE(restored.flush().isOk());

    QueryResult r;
    ASSERT_TRUE(restored.run(mustParse("alpha | beta"), &r).isOk());
    EXPECT_EQ(r.matched_lines, 2u);
    EXPECT_EQ(restored.lineCount(), 2u);
}

TEST_F(PersistenceTest, LoadRequiresFreshSystem)
{
    MithriLog original;
    ASSERT_TRUE(original.ingestText("x y z\n").isOk());
    ASSERT_TRUE(original.saveImage(path_).isOk());

    MithriLog dirty;
    ASSERT_TRUE(dirty.ingestText("already has data\n").isOk());
    EXPECT_TRUE(dirty.flush().isOk());
    EXPECT_EQ(dirty.loadImage(path_).code(),
              StatusCode::kInvalidArgument);
}

TEST_F(PersistenceTest, MissingFileFails)
{
    MithriLog system;
    EXPECT_FALSE(system.loadImage("/nonexistent/dir/image.bin").isOk());
}

TEST_F(PersistenceTest, TruncatedImageRejected)
{
    MithriLog original;
    ASSERT_TRUE(original.ingestText("some content here\n").isOk());
    ASSERT_TRUE(original.saveImage(path_).isOk());

    // Truncate the file to half.
    std::FILE *f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path_.c_str(), size / 2), 0);

    MithriLog restored;
    EXPECT_EQ(restored.loadImage(path_).code(),
              StatusCode::kCorruptData);
}

TEST_F(PersistenceTest, ConfigMismatchRejected)
{
    MithriLog original;
    ASSERT_TRUE(original.ingestText("payload line\n").isOk());
    ASSERT_TRUE(original.saveImage(path_).isOk());

    MithriLogConfig other;
    other.index.hash_entries = 1u << 10;  // different table size
    MithriLog restored(other);
    EXPECT_EQ(restored.loadImage(path_).code(),
              StatusCode::kCorruptData);
}

} // namespace
} // namespace mithril::core
