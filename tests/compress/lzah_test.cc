#include "compress/lzah.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "storage/page.h"

namespace mithril::compress {
namespace {

std::string
decodeAll(const std::vector<Bytes> &pages, bool padded)
{
    Bytes out;
    for (const Bytes &page : pages) {
        Status st = lzahDecodePage(page, padded, &out);
        EXPECT_TRUE(st.isOk()) << st.toString();
    }
    return std::string(out.begin(), out.end());
}

TEST(LzahHashTest, DeterministicAndInRange)
{
    Word w{};
    w[0] = 'R';
    w[1] = 'A';
    w[2] = 'S';
    EXPECT_EQ(lzahHash(w), lzahHash(w));
    EXPECT_LT(lzahHash(w), kLzahTableEntries);
}

TEST(LzahPageEncoderTest, SingleLineRoundTrip)
{
    LzahPageEncoder enc;
    ASSERT_EQ(enc.addLine("hello log world"), AddLineResult::kAppended);
    enc.flush();
    ASSERT_EQ(enc.pages().size(), 1u);
    EXPECT_EQ(enc.pages()[0].size(), storage::kPageSize);
    EXPECT_EQ(decodeAll(enc.pages(), false), "hello log world\n");
}

TEST(LzahPageEncoderTest, EmptyLineRoundTrip)
{
    LzahPageEncoder enc;
    ASSERT_EQ(enc.addLine(""), AddLineResult::kAppended);
    ASSERT_EQ(enc.addLine("x"), AddLineResult::kAppended);
    enc.flush();
    EXPECT_EQ(decodeAll(enc.pages(), false), "\nx\n");
}

TEST(LzahPageEncoderTest, ExactWordMultipleLine)
{
    LzahPageEncoder enc;
    std::string line(32, 'a');  // exactly two words + terminator word
    ASSERT_EQ(enc.addLine(line), AddLineResult::kAppended);
    enc.flush();
    EXPECT_EQ(decodeAll(enc.pages(), false), line + "\n");
}

TEST(LzahPageEncoderTest, RepeatedLinesCompress)
{
    LzahPageEncoder enc;
    std::string line =
        "- 117 2005.06.03 R24-M0-N0 RAS KERNEL INFO cache parity";
    for (int i = 0; i < 40; ++i) {
        ASSERT_NE(enc.addLine(line), AddLineResult::kRejected);
    }
    enc.flush();
    // 40 identical ~57-byte lines (~2.3 KB raw) must fit one page with
    // plenty of headroom, since repeats cost 2 bytes per word.
    EXPECT_EQ(enc.pages().size(), 1u);
    std::string expect;
    for (int i = 0; i < 40; ++i) {
        expect += line;
        expect += '\n';
    }
    EXPECT_EQ(decodeAll(enc.pages(), false), expect);
}

TEST(LzahPageEncoderTest, RejectsOverlongLine)
{
    LzahPageEncoder enc;
    std::string giant(LzahPageEncoder::kMaxLineBytes + 1, 'x');
    EXPECT_EQ(enc.addLine(giant), AddLineResult::kRejected);
}

TEST(LzahPageEncoderTest, MaxLineAlwaysFitsFreshPage)
{
    LzahPageEncoder enc;
    // Fill the open page with ~2 KB of unique (incompressible) lines,
    // then push an incompressible max-length line: the page must seal
    // and the line must land whole in a fresh page.
    Rng rng(1);
    std::string expect;
    auto random_line = [&](size_t len) {
        std::string line;
        for (size_t i = 0; i < len; ++i) {
            line += static_cast<char>('A' + rng.below(26));
        }
        return line;
    };
    for (int i = 0; i < 60; ++i) {
        std::string starter = random_line(30);
        ASSERT_EQ(enc.addLine(starter), AddLineResult::kAppended) << i;
        expect += starter + "\n";
    }
    std::string line = random_line(LzahPageEncoder::kMaxLineBytes);
    EXPECT_EQ(enc.addLine(line), AddLineResult::kSealedAndAppended);
    enc.flush();
    ASSERT_EQ(enc.pages().size(), 2u);
    EXPECT_EQ(decodeAll(enc.pages(), false), expect + line + "\n");
}

TEST(LzahPageEncoderTest, PagesDecodeIndependently)
{
    LzahPageEncoder enc;
    std::string a = "alpha beta gamma delta epsilon zeta eta theta";
    for (int i = 0; i < 600; ++i) {
        ASSERT_NE(enc.addLine(a + std::to_string(i)),
                  AddLineResult::kRejected);
    }
    enc.flush();
    ASSERT_GT(enc.pages().size(), 1u);
    // Decode only the second page: must succeed standalone.
    Bytes out;
    Status st = lzahDecodePage(enc.pages()[1], false, &out);
    EXPECT_TRUE(st.isOk()) << st.toString();
    EXPECT_FALSE(out.empty());
    // Its first byte starts a fresh line (the previous page ended one).
    std::string text(out.begin(), out.end());
    EXPECT_EQ(text.substr(0, 5), "alpha");
}

// ---- running encoded size ---------------------------------------------

/** Reference size of a sealed page, computed from its own chunk
 *  headers: page header word, then per chunk a header word and the
 *  word-aligned payload (2 B per match, 16 B per literal). */
size_t
sealedPageBytes(const Bytes &page)
{
    uint32_t items = 0;
    std::memcpy(&items, page.data(), 4);
    size_t off = kLzahWord;
    for (uint32_t done = 0; done < items;) {
        uint32_t n = std::min<uint32_t>(kLzahChunkItems, items - done);
        size_t payload = 0;
        for (uint32_t k = 0; k < n; ++k) {
            bool match = (page[off + k / 8] >> (k % 8)) & 1;
            payload += match ? 2 : kLzahWord;
        }
        off += kLzahWord + (payload + kLzahWord - 1) / kLzahWord * kLzahWord;
        done += n;
    }
    return off;
}

/** The whole-page reference for the open page of @p enc: seal a copy
 *  and measure the page it produces. */
size_t
referenceOpenBytes(const LzahPageEncoder &enc)
{
    LzahPageEncoder copy = enc;
    size_t sealed = copy.pages().size();
    copy.flush();
    if (copy.pages().size() == sealed) {
        return kLzahWord;  // empty page: header word only
    }
    return sealedPageBytes(copy.pages().back());
}

/** A distinct 15-byte line: one literal word with its terminator. */
std::string
oneWordLine(int i)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "line%010d", i);
    return buf;
}

TEST(LzahRunningSizeTest, MatchesReferenceAtChunkBoundary)
{
    LzahPageEncoder enc;
    EXPECT_EQ(enc.openPageBytes(), referenceOpenBytes(enc));
    for (int i = 0; i < 129; ++i) {
        ASSERT_EQ(enc.addLine(oneWordLine(i)), AddLineResult::kAppended);
        ASSERT_EQ(enc.openPageBytes(), referenceOpenBytes(enc)) << i;
    }
    // 128 literals close the first chunk; the 129th opens the second.
    EXPECT_EQ(enc.openPageBytes(), 16u + (16 + 128 * 16) + (16 + 16));
}

TEST(LzahRunningSizeTest, ExactPageFillThenOverflowRollsBack)
{
    // 16 (page header) + 16 + 128*16 (full chunk) + 16 + 125*16 = 4096:
    // 253 one-word literal lines fill the page to the byte.
    LzahPageEncoder enc;
    std::string expected;
    for (int i = 0; i < 253; ++i) {
        ASSERT_EQ(enc.addLine(oneWordLine(i)), AddLineResult::kAppended)
            << i;
        expected += oneWordLine(i) + "\n";
    }
    EXPECT_EQ(enc.openPageBytes(), storage::kPageSize);
    EXPECT_EQ(referenceOpenBytes(enc), storage::kPageSize);

    // One more word overflows: the line is rolled back, the full page
    // seals unchanged, and the line opens the next page alone.
    ASSERT_EQ(enc.addLine(oneWordLine(253)),
              AddLineResult::kSealedAndAppended);
    ASSERT_EQ(enc.pages().size(), 1u);
    EXPECT_EQ(sealedPageBytes(enc.pages()[0]), storage::kPageSize);
    EXPECT_EQ(enc.openPageBytes(), 16u + 16 + 16);
    EXPECT_EQ(enc.openPageBytes(), referenceOpenBytes(enc));
    EXPECT_EQ(decodeAll(enc.pages(), false), expected);
}

TEST(LzahRunningSizeTest, MultiWordOverflowAcrossChunkBoundary)
{
    // 127 one-word lines, then lines of five words: the first crosses
    // the chunk boundary, and one of them eventually overflows
    // mid-line, so the rollback has to restore both running counters.
    LzahPageEncoder enc;
    std::string text;
    for (int i = 0; i < 127; ++i) {
        ASSERT_EQ(enc.addLine(oneWordLine(i)), AddLineResult::kAppended);
        text += oneWordLine(i) + "\n";
    }
    bool overflowed = false;
    for (int i = 0; !overflowed; ++i) {
        std::string line = oneWordLine(1000 + i) + "_" +
                           oneWordLine(2000 + i) + "_" +
                           oneWordLine(3000 + i) + "_" +
                           oneWordLine(4000 + i) + "_" +
                           oneWordLine(5000 + i);
        overflowed =
            enc.addLine(line) == AddLineResult::kSealedAndAppended;
        text += line + "\n";
        ASSERT_LE(enc.openPageBytes(), storage::kPageSize);
        ASSERT_EQ(enc.openPageBytes(), referenceOpenBytes(enc)) << i;
    }
    ASSERT_EQ(enc.pages().size(), 1u);
    EXPECT_LE(sealedPageBytes(enc.pages()[0]), storage::kPageSize);
    enc.flush();
    EXPECT_EQ(decodeAll(enc.pages(), false), text);
}

TEST(LzahRunningSizeTest, MatchesReferenceOnMixedLogLines)
{
    // Matches (2 B) and literals (16 B) interleave on real-looking
    // text; the running size tracks the reference after every line,
    // across several seals.
    Rng rng(11);
    LzahPageEncoder enc;
    for (int i = 0; i < 1500; ++i) {
        std::string line = "RAS KERNEL INFO node-" +
                           std::to_string(rng.below(40)) +
                           " cache parity error corrected";
        if (rng.below(3) == 0) {
            line += " seq" + std::to_string(i);
        }
        enc.addLine(line);
        ASSERT_EQ(enc.openPageBytes(), referenceOpenBytes(enc)) << i;
    }
    EXPECT_GE(enc.pages().size(), 2u);
}

TEST(LzahPaddedModeTest, WordsAreLineAligned)
{
    LzahPageEncoder enc;
    ASSERT_EQ(enc.addLine("ab"), AddLineResult::kAppended);
    ASSERT_EQ(enc.addLine("cd"), AddLineResult::kAppended);
    enc.flush();
    Bytes out;
    ASSERT_TRUE(lzahDecodePage(enc.pages()[0], true, &out).isOk());
    ASSERT_EQ(out.size(), 2 * kLzahWord);
    EXPECT_EQ(out[0], 'a');
    EXPECT_EQ(out[2], '\n');
    EXPECT_EQ(out[3], 0);  // zero padding after the newline
    EXPECT_EQ(out[16], 'c');
}

TEST(LzahDecompressorModelTest, OneCyclePerWord)
{
    LzahPageEncoder enc;
    for (int i = 0; i < 100; ++i) {
        ASSERT_NE(enc.addLine("some log line with several tokens " +
                              std::to_string(i)),
                  AddLineResult::kRejected);
    }
    enc.flush();
    LzahDecompressorModel model;
    Bytes out;
    for (const Bytes &page : enc.pages()) {
        ASSERT_TRUE(model.decodePage(page, &out).isOk());
    }
    EXPECT_EQ(model.cycles() * kLzahWord, out.size());
    EXPECT_EQ(model.bytesOut(), out.size());
}

TEST(LzahCodecTest, WholeBufferRoundTripSimple)
{
    Lzah codec;
    std::string text = "one two three\nfour five six\nseven\n";
    Bytes compressed = codec.compress(asBytes(text));
    Bytes out;
    ASSERT_TRUE(codec.decompress(compressed, &out).isOk());
    EXPECT_EQ(std::string(out.begin(), out.end()), text);
}

TEST(LzahCodecTest, NoTrailingNewline)
{
    Lzah codec;
    std::string text = "line one\nline two";  // no final terminator
    Bytes compressed = codec.compress(asBytes(text));
    Bytes out;
    ASSERT_TRUE(codec.decompress(compressed, &out).isOk());
    EXPECT_EQ(std::string(out.begin(), out.end()), text);
}

TEST(LzahCodecTest, EmptyInput)
{
    Lzah codec;
    Bytes compressed = codec.compress({});
    Bytes out;
    ASSERT_TRUE(codec.decompress(compressed, &out).isOk());
    EXPECT_TRUE(out.empty());
}

TEST(LzahCodecTest, VeryLongLineSplitsAndRejoins)
{
    Lzah codec;
    Rng rng(3);
    std::string line;
    for (int i = 0; i < 9000; ++i) {
        line += static_cast<char>('a' + rng.below(26));
    }
    std::string text = "short\n" + line + "\ntail\n";
    Bytes compressed = codec.compress(asBytes(text));
    Bytes out;
    ASSERT_TRUE(codec.decompress(compressed, &out).isOk());
    EXPECT_EQ(std::string(out.begin(), out.end()), text);
}

TEST(LzahCodecTest, CompressesRepetitiveLogs)
{
    Lzah codec;
    std::string text;
    for (int i = 0; i < 2000; ++i) {
        text += "Jun 3 15:42:50 node-7 kernel: eth0 link up 1000Mbps\n";
    }
    Bytes compressed = codec.compress(asBytes(text));
    double ratio = compressionRatio(text.size(), compressed.size());
    // Identical lines approach the format's ~8x bound.
    EXPECT_GT(ratio, 5.0);
    Bytes out;
    ASSERT_TRUE(codec.decompress(compressed, &out).isOk());
    EXPECT_EQ(out.size(), text.size());
}

/**
 * Property sweep: the page encoder round-trips random line streams
 * across length regimes — empty-heavy, short, word-boundary-aligned,
 * long, and mixed — for several seeds.
 */
class LzahLineSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(LzahLineSweep, PageEncoderRoundTrips)
{
    auto [regime, seed] = GetParam();
    Rng rng(static_cast<uint64_t>(seed) * 7919 + regime);

    auto line_length = [&]() -> size_t {
        switch (regime) {
          case 0:  // empty-heavy
            return rng.chance(0.5) ? 0 : rng.below(4);
          case 1:  // short tokensy lines
            return 1 + rng.below(24);
          case 2:  // around word-size multiples
            return 16 * (1 + rng.below(4)) + rng.below(3) - 1;
          case 3:  // long lines
            return 200 + rng.below(1200);
          default:  // mixed
            return rng.below(400);
        }
    };

    LzahPageEncoder enc;
    std::string expect;
    for (int i = 0; i < 400; ++i) {
        std::string line;
        size_t len = line_length();
        for (size_t b = 0; b < len; ++b) {
            // Printable, no newline/NUL (LZAH's input contract).
            line += static_cast<char>(' ' + rng.below(95));
        }
        ASSERT_NE(enc.addLine(line), AddLineResult::kRejected);
        expect += line;
        expect += '\n';
    }
    enc.flush();
    EXPECT_EQ(decodeAll(enc.pages(), false), expect);
    // Padded form is consistent word-wise with the unpadded form.
    Bytes padded;
    uint64_t words = 0;
    for (const Bytes &page : enc.pages()) {
        ASSERT_TRUE(lzahDecodePage(page, true, &padded, &words).isOk());
    }
    EXPECT_EQ(padded.size(), words * kLzahWord);
    EXPECT_GE(padded.size(), expect.size());
}

INSTANTIATE_TEST_SUITE_P(
    RegimesAndSeeds, LzahLineSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(1, 2, 3)));

TEST(LzahCodecTest, RejectsCorruptMagic)
{
    Lzah codec;
    std::string text = "a line of text\n";
    Bytes compressed = codec.compress(asBytes(text));
    // Flip a byte inside the first page's header magic region.
    ASSERT_GT(compressed.size(), 32u);
    compressed[13 + 4 + 8] ^= 0xff;
    Bytes out;
    EXPECT_FALSE(codec.decompress(compressed, &out).isOk());
}

TEST(LzahCodecTest, RejectsTruncatedFrame)
{
    Lzah codec;
    Bytes out;
    Bytes tiny{1, 2, 3};
    EXPECT_EQ(codec.decompress(tiny, &out).code(),
              StatusCode::kCorruptData);
}

} // namespace
} // namespace mithril::compress
