#include "common/hash.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

namespace mithril {
namespace {

TEST(Mix64Test, IsDeterministic)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
}

TEST(Mix64Test, AvalanchesSingleBitFlips)
{
    // Flipping one input bit should flip a substantial number of output
    // bits (a weak but effective sanity test for mixers).
    for (int bit = 0; bit < 64; ++bit) {
        uint64_t a = mix64(0x1234567890abcdefull);
        uint64_t b = mix64(0x1234567890abcdefull ^ (1ull << bit));
        int flipped = __builtin_popcountll(a ^ b);
        EXPECT_GE(flipped, 16) << "bit " << bit;
        EXPECT_LE(flipped, 48) << "bit " << bit;
    }
}

TEST(Hash64Test, EmptyInputIsStable)
{
    EXPECT_EQ(hash64("", 0), hash64("", 0));
    EXPECT_NE(hash64("", 0), hash64("", 1));
}

TEST(Hash64Test, SeedChangesResult)
{
    EXPECT_NE(hash64("token", 1), hash64("token", 2));
}

TEST(Hash64Test, LengthExtensionDiffers)
{
    // "ab" + "c" vs "abc" with different boundaries must differ from
    // plain prefixes.
    EXPECT_NE(hash64("abc"), hash64("ab"));
    EXPECT_NE(hash64("abc"), hash64("abcd"));
}

TEST(Hash64Test, TailBytesMatter)
{
    // Inputs differing only in the last byte past an 8-byte boundary.
    std::string a = "12345678X";
    std::string b = "12345678Y";
    EXPECT_NE(hash64(a), hash64(b));
}

TEST(Hash64Test, DistributionOverBucketsIsRoughlyUniform)
{
    constexpr int kBuckets = 64;
    constexpr int kSamples = 64000;
    std::vector<int> counts(kBuckets, 0);
    for (int i = 0; i < kSamples; ++i) {
        std::string key = "token-" + std::to_string(i);
        ++counts[hash64(key) % kBuckets];
    }
    for (int c : counts) {
        EXPECT_GT(c, kSamples / kBuckets / 2);
        EXPECT_LT(c, kSamples / kBuckets * 2);
    }
}

TEST(Crc32Test, MatchesKnownVectors)
{
    // Standard IEEE CRC-32 check values.
    EXPECT_EQ(crc32("", 0), 0u);
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog", 43),
              0x414fa339u);
}

TEST(Crc32Test, SeedContinuesAcrossRanges)
{
    const char *msg = "123456789";
    uint32_t split = crc32(msg + 4, 5, crc32(msg, 4));
    EXPECT_EQ(split, crc32(msg, 9));
}

/** The textbook bit-at-a-time CRC-32, the reference for the sliced
 *  implementation. */
uint32_t
crc32Bitwise(const uint8_t *p, size_t len, uint32_t seed)
{
    uint32_t c = ~seed;
    for (size_t i = 0; i < len; ++i) {
        c ^= p[i];
        for (int bit = 0; bit < 8; ++bit) {
            c = (c >> 1) ^ ((c & 1u) ? 0xedb88320u : 0u);
        }
    }
    return ~c;
}

TEST(Crc32Test, SlicedMatchesBitwiseReference)
{
    // Every length through two 128-byte blocks plus one, from every
    // start offset within an 8-byte word, so each split between the
    // eight-byte loop and the byte tail is covered.
    std::vector<uint8_t> buf(257 + 8);
    uint64_t x = 0x243f6a8885a308d3ull;
    for (uint8_t &b : buf) {
        x = mix64(x);
        b = static_cast<uint8_t>(x);
    }
    for (size_t offset = 0; offset < 8; ++offset) {
        for (size_t len = 0; len <= 257; ++len) {
            const uint8_t *p = buf.data() + offset;
            ASSERT_EQ(crc32(p, len), crc32Bitwise(p, len, 0))
                << "offset " << offset << " len " << len;
        }
    }
}

TEST(Crc32Test, SlicedChainsSeedsLikeReference)
{
    std::vector<uint8_t> buf(300);
    for (size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    // Chained ranges of uneven lengths equal one pass, and each link
    // equals the reference continued from the same seed.
    uint32_t chained = 0;
    size_t pos = 0;
    for (size_t step : {1u, 7u, 8u, 9u, 63u, 64u, 148u}) {
        uint32_t ref = crc32Bitwise(buf.data() + pos, step, chained);
        chained = crc32(buf.data() + pos, step, chained);
        ASSERT_EQ(chained, ref) << "at " << pos;
        pos += step;
    }
    EXPECT_EQ(chained, crc32(buf.data(), pos));
    EXPECT_EQ(crc32(buf.data(), 17, 0xdeadbeefu),
              crc32Bitwise(buf.data(), 17, 0xdeadbeefu));
}

TEST(Crc32Test, DetectsSingleBitFlips)
{
    std::vector<uint8_t> buf(4096, 0x5a);
    uint32_t clean = crc32(buf.data(), buf.size());
    for (size_t bit : {size_t{0}, size_t{17}, size_t{4096 * 8 - 1}}) {
        buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        EXPECT_NE(crc32(buf.data(), buf.size()), clean) << "bit " << bit;
        buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    EXPECT_EQ(crc32(buf.data(), buf.size()), clean);
}

TEST(HashPairTest, ProducesIndicesInRange)
{
    HashPair pair(256);
    for (int i = 0; i < 1000; ++i) {
        std::string key = "k" + std::to_string(i);
        EXPECT_LT(pair.h0(key), 256u);
        EXPECT_LT(pair.h1(key), 256u);
    }
}

TEST(HashPairTest, TwoFunctionsAreIndependent)
{
    // h0 == h1 for a random key should happen about 1/rows of the time.
    HashPair pair(256);
    int collisions = 0;
    constexpr int kSamples = 10000;
    for (int i = 0; i < kSamples; ++i) {
        std::string key = "key-" + std::to_string(i);
        if (pair.h0(key) == pair.h1(key)) {
            ++collisions;
        }
    }
    // Expected ~39; allow a wide band.
    EXPECT_LT(collisions, 120);
}

TEST(HashPairTest, DeterministicAcrossInstances)
{
    HashPair a(1024), b(1024);
    EXPECT_EQ(a.h0("RAS"), b.h0("RAS"));
    EXPECT_EQ(a.h1("RAS"), b.h1("RAS"));
}

} // namespace
} // namespace mithril
