/**
 * @file
 * Extractor-registry tests (DESIGN.md §15), centered on the boundary
 * forms real logs glue values into: `src=10.1.2.3,`, `[deadbeef01]`,
 * `host:10.0.0.1`. These are exact-byte regression tests — each input
 * line pins the exact key sequence extractLine() must emit, so any
 * ladder or trimming change that shifts extraction shows up here
 * before it silently splits the ingest-time and query-time views.
 */
#include "typed/extract.h"

#include <gtest/gtest.h>

#include <vector>

#include "typed/typed_key.h"

namespace mithril::typed {
namespace {

std::vector<TypedKey>
keysOf(std::string_view line)
{
    std::vector<TypedKey> keys;
    extractLine(line, [&](const TypedKey &k) { keys.push_back(k); });
    return keys;
}

TEST(ExtractTest, PlainTokens)
{
    auto keys = keysOf("connection from 10.1.2.3 established");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], ip4Key({10, 1, 2, 3}));

    keys = keysOf("session deadbeef01 opened");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], hexIdKey("deadbeef01"));
}

TEST(ExtractTest, KeyValueWithTrailingComma)
{
    // The satellite form: `src=10.1.2.3,` — '=' ladder rung plus
    // trailing-punctuation trim, in one token.
    auto keys = keysOf("fw: DROP src=10.1.2.3, dst=10.0.0.5 proto=tcp");
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], ip4Key({10, 1, 2, 3}));
    EXPECT_EQ(keys[1], ip4Key({10, 0, 0, 5}));
}

TEST(ExtractTest, BracketedHexId)
{
    // The satellite form: `[deadbeef01]` — surrounding punctuation.
    auto keys = keysOf("auth: session [f00dfeed8badc0de] opened");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], hexIdKey("f00dfeed8badc0de"));
}

TEST(ExtractTest, ColonPrefixedValue)
{
    auto keys = keysOf("peer host:10.9.8.7 ready");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], ip4Key({10, 9, 8, 7}));
}

TEST(ExtractTest, SentencePunctuation)
{
    // Trailing sentence dot after a dotted quad: strip exactly one.
    auto keys = keysOf("unreachable peer 10.1.2.3.");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], ip4Key({10, 1, 2, 3}));

    keys = keysOf("was it 10.1.2.3?");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], ip4Key({10, 1, 2, 3}));

    keys = keysOf("(10.1.2.3)");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], ip4Key({10, 1, 2, 3}));
}

TEST(ExtractTest, MacBeforeIp6Disambiguation)
{
    // A MAC is also lexable as IPv6 hex groups; the registry order
    // must classify the 17-byte two-nibble form as a MAC.
    auto keys = keysOf("link aa:bb:cc:dd:ee:ff up");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], macKey({0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}));

    keys = keysOf("addr 2001:db8::1 reachable");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0].kind, TypedKind::kIp6);
}

TEST(ExtractTest, SyslogHeaderSpansTokens)
{
    uint64_t epoch = 0;
    ASSERT_TRUE(parseSyslogTime("Jun", "3", "22:02:50", &epoch));
    auto keys = keysOf("- 1117836170 sn42 Jun 3 22:02:50 src@sn42 up");
    // The three-token header is found at line level; the epoch-like
    // number is a pure digit run (not a hex id, not an address).
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], timestampKey(epoch));
}

TEST(ExtractTest, SyslogHeaderAfterSandiaPrefix)
{
    // A loggen Spirit2 line: alert, epoch, date and node come first,
    // so the zero-padded header sits at tokens 4-6.
    uint64_t epoch = 0;
    ASSERT_TRUE(parseSyslogTime("Dec", "08", "22:48:26", &epoch));
    auto keys = keysOf("- 1117838906 2005.12.08 sn0438 Dec 08 22:48:26 "
                       "sn0438 pbs_mom: parity prefetch node 748.48 "
                       "errors");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], timestampKey(epoch));

    // Past token 4 a month-day-time run is message text, not a header.
    EXPECT_TRUE(keysOf("a b c d e Dec 08 22:48:26 x").empty());
}

TEST(ExtractTest, OneKeyPerToken)
{
    // First ladder hit wins: the raw token parses as an RFC 3339
    // timestamp; the ladder must not also emit for later rungs.
    auto keys = keysOf("at 2026-08-09T12:34:56Z exactly");
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0].kind, TypedKind::kTimestamp);
}

TEST(ExtractTest, NonValuesEmitNothing)
{
    EXPECT_TRUE(keysOf("").empty());
    EXPECT_TRUE(keysOf("plain words only here").empty());
    EXPECT_TRUE(keysOf("version 1.2.3 released").empty());  // 3 octets
    EXPECT_TRUE(keysOf("error code 404 at line 12345678").empty());
}

TEST(ExtractTest, LineContainsKey)
{
    TypedKey key = ip4Key({10, 1, 2, 3});
    EXPECT_TRUE(lineContainsKey("src=10.1.2.3, ok", key));
    EXPECT_FALSE(lineContainsKey("src=10.1.2.4, ok", key));
}

} // namespace
} // namespace mithril::typed
