/**
 * @file
 * Normalization unit tests for the typed-key parsers (DESIGN.md §15).
 * Strictness is the contract under test: one value has exactly one
 * key, so the posting lists never alias; malformed spellings are
 * rejected, never guessed at.
 */
#include "typed/typed_key.h"

#include <gtest/gtest.h>

namespace mithril::typed {
namespace {

// ---- IPv4 -------------------------------------------------------------

TEST(TypedKeyTest, Ip4ParsesDottedQuad)
{
    std::array<uint8_t, 4> o{};
    ASSERT_TRUE(parseIp4("10.1.2.3", &o));
    EXPECT_EQ(o, (std::array<uint8_t, 4>{10, 1, 2, 3}));
    ASSERT_TRUE(parseIp4("0.0.0.0", &o));
    EXPECT_EQ(o, (std::array<uint8_t, 4>{0, 0, 0, 0}));
    ASSERT_TRUE(parseIp4("255.255.255.255", &o));
    EXPECT_EQ(o, (std::array<uint8_t, 4>{255, 255, 255, 255}));
}

TEST(TypedKeyTest, Ip4RejectsOctetEdgeCases)
{
    std::array<uint8_t, 4> o{};
    EXPECT_FALSE(parseIp4("10.0.0.256", &o));   // octet overflow
    EXPECT_FALSE(parseIp4("10.0.0.01", &o));    // leading zero
    EXPECT_FALSE(parseIp4("010.0.0.1", &o));    // leading zero, first
    EXPECT_FALSE(parseIp4("10.0.0", &o));       // three octets
    EXPECT_FALSE(parseIp4("10.0.0.1.2", &o));   // five octets
    EXPECT_FALSE(parseIp4("10..0.1", &o));      // empty octet
    EXPECT_FALSE(parseIp4("10.0.0.1.", &o));    // trailing dot
    EXPECT_FALSE(parseIp4("10.0.0.x", &o));     // non-digit
    EXPECT_FALSE(parseIp4("", &o));
    EXPECT_FALSE(parseIp4("999.1.1.1", &o));
}

// ---- IPv6 -------------------------------------------------------------

TEST(TypedKeyTest, Ip6DoubleColonRoundTrips)
{
    // parse -> format must reproduce the RFC 5952 canonical spelling,
    // so every spelling of one address lands on one key and one text.
    std::array<uint8_t, 16> g{};
    ASSERT_TRUE(parseIp6("2001:db8::1", &g));
    EXPECT_EQ(formatIp6(g), "2001:db8::1");

    std::array<uint8_t, 16> expanded{};
    ASSERT_TRUE(parseIp6("2001:0db8:0000:0000:0000:0000:0000:0001",
                         &expanded));
    EXPECT_EQ(g, expanded);  // compressed == expanded, same key
    EXPECT_EQ(formatIp6(expanded), "2001:db8::1");

    ASSERT_TRUE(parseIp6("::", &g));
    EXPECT_EQ(g, (std::array<uint8_t, 16>{}));
    EXPECT_EQ(formatIp6(g), "::");

    ASSERT_TRUE(parseIp6("::1", &g));
    EXPECT_EQ(formatIp6(g), "::1");

    ASSERT_TRUE(parseIp6("fe80::", &g));
    EXPECT_EQ(formatIp6(g), "fe80::");
}

TEST(TypedKeyTest, Ip6EmbeddedDottedQuad)
{
    std::array<uint8_t, 16> g{};
    ASSERT_TRUE(parseIp6("::ffff:10.1.2.3", &g));
    EXPECT_EQ(g[10], 0xff);
    EXPECT_EQ(g[11], 0xff);
    EXPECT_EQ(g[12], 10);
    EXPECT_EQ(g[13], 1);
    EXPECT_EQ(g[14], 2);
    EXPECT_EQ(g[15], 3);
}

TEST(TypedKeyTest, Ip6RejectsMalformed)
{
    std::array<uint8_t, 16> g{};
    EXPECT_FALSE(parseIp6("2001::db8::1", &g));  // two zero runs
    EXPECT_FALSE(parseIp6("2001:db8:12345::", &g));  // 5-nibble group
    EXPECT_FALSE(parseIp6("1:2:3:4:5:6:7:8:9", &g));  // nine groups
    EXPECT_FALSE(parseIp6("1:2:3:4:5:6:7", &g));  // seven, no ::
    EXPECT_FALSE(parseIp6("10.1.2.3", &g));       // that's an IPv4
    EXPECT_FALSE(parseIp6("", &g));
}

// ---- MAC --------------------------------------------------------------

TEST(TypedKeyTest, MacSeparators)
{
    std::array<uint8_t, 6> a{};
    std::array<uint8_t, 6> b{};
    ASSERT_TRUE(parseMac("aa:bb:cc:dd:ee:ff", &a));
    ASSERT_TRUE(parseMac("AA-BB-CC-DD-EE-FF", &b));
    EXPECT_EQ(a, b);  // separator and case do not change the key
    EXPECT_EQ(formatMac(a), "aa:bb:cc:dd:ee:ff");

    EXPECT_FALSE(parseMac("aa:bb:cc:dd:ee", &a));       // five groups
    EXPECT_FALSE(parseMac("aa:bb-cc:dd:ee:ff", &a));    // mixed seps
    EXPECT_FALSE(parseMac("aab:bcc:dde:eff", &a));      // wrong shape
    EXPECT_FALSE(parseMac("aa:bb:cc:dd:ee:fg", &a));    // non-hex
}

// ---- hex ids ----------------------------------------------------------

TEST(TypedKeyTest, HexIdNormalization)
{
    std::string_view id;
    ASSERT_TRUE(parseHexId("DEADBEEF", &id));
    EXPECT_EQ(formatKey(hexIdKey(id)), "deadbeef");  // lowercased
    ASSERT_TRUE(parseHexId("0xDeadBeef01", &id));
    EXPECT_EQ(id, "DeadBeef01");  // 0x stripped, case as written
    EXPECT_EQ(formatKey(hexIdKey(id)), "deadbeef01");

    EXPECT_FALSE(parseHexId("deadbee", &id));    // 7 nibbles: too short
    EXPECT_FALSE(parseHexId("12345678", &id));   // pure digits: a number
    EXPECT_FALSE(parseHexId("deadbeefx", &id));  // stray non-hex
    EXPECT_FALSE(parseHexId(std::string(65, 'a'), &id));  // > 64
    ASSERT_TRUE(parseHexId(std::string(64, 'a'), &id));   // == 64 ok
}

// ---- timestamps -------------------------------------------------------

TEST(TypedKeyTest, Rfc3339ToEpoch)
{
    uint64_t epoch = 0;
    ASSERT_TRUE(parseRfc3339("2026-08-09T12:34:56Z", &epoch));
    uint64_t expected =
        static_cast<uint64_t>(daysFromCivil(2026, 8, 9)) * 86400 +
        12 * 3600 + 34 * 60 + 56;
    EXPECT_EQ(epoch, expected);

    // Offsets shift back to UTC; fractional seconds truncate.
    uint64_t with_offset = 0;
    ASSERT_TRUE(
        parseRfc3339("2026-08-09T14:34:56+02:00", &with_offset));
    EXPECT_EQ(with_offset, expected);
    uint64_t with_frac = 0;
    ASSERT_TRUE(parseRfc3339("2026-08-09T12:34:56.789Z", &with_frac));
    EXPECT_EQ(with_frac, expected);

    EXPECT_FALSE(parseRfc3339("2026-13-09T12:34:56Z", &epoch));
    EXPECT_FALSE(parseRfc3339("2026-08-09 12:34:56", &epoch));
    EXPECT_FALSE(parseRfc3339("not-a-time", &epoch));
}

TEST(TypedKeyTest, SyslogTimeUsesFixedBaseYear)
{
    // Syslog headers omit the year; the fixed convention year 2000
    // keeps keys comparable within a corpus.
    uint64_t epoch = 0;
    ASSERT_TRUE(parseSyslogTime("Jun", "3", "22:02:50", &epoch));
    uint64_t expected =
        static_cast<uint64_t>(daysFromCivil(2000, 6, 3)) * 86400 +
        22 * 3600 + 2 * 60 + 50;
    EXPECT_EQ(epoch, expected);

    EXPECT_FALSE(parseSyslogTime("Jub", "3", "22:02:50", &epoch));
    EXPECT_FALSE(parseSyslogTime("Jun", "32", "22:02:50", &epoch));
    EXPECT_FALSE(parseSyslogTime("Jun", "3", "25:02:50", &epoch));
}

TEST(TypedKeyTest, SyslogTimeAcceptsZeroPaddedDay)
{
    // loggen and many daemons write "Dec 09"; it is the same instant
    // as the space-padded "Dec  9".
    uint64_t padded = 0;
    uint64_t plain = 0;
    ASSERT_TRUE(parseSyslogTime("Dec", "09", "22:48:26", &padded));
    ASSERT_TRUE(parseSyslogTime("Dec", "9", "22:48:26", &plain));
    EXPECT_EQ(padded, plain);
    uint64_t tenth = 0;
    ASSERT_TRUE(parseSyslogTime("Dec", "10", "22:48:26", &tenth));
    EXPECT_EQ(tenth - plain, 86400u);

    uint64_t epoch = 0;
    EXPECT_FALSE(parseSyslogTime("Dec", "00", "22:48:26", &epoch));
    EXPECT_FALSE(parseSyslogTime("Dec", "009", "22:48:26", &epoch));
    EXPECT_FALSE(parseSyslogTime("Dec", "0", "22:48:26", &epoch));
    EXPECT_FALSE(parseSyslogTime("Dec", "32", "22:48:26", &epoch));
}

// ---- ordering ---------------------------------------------------------

TEST(TypedKeyTest, KeyOrderingIsNumeric)
{
    // Lexicographic byte order == numeric order: the property range
    // predicates stand on.
    EXPECT_LT(ip4Key({10, 0, 0, 1}), ip4Key({10, 0, 0, 2}));
    EXPECT_LT(ip4Key({10, 0, 0, 255}), ip4Key({10, 0, 1, 0}));
    EXPECT_LT(ip4Key({9, 255, 255, 255}), ip4Key({10, 0, 0, 0}));
    EXPECT_LT(timestampKey(1000), timestampKey(1ull << 33));
    // Kind-major: every ip4 key sorts apart from every timestamp key.
    EXPECT_LT(ip4Key({255, 255, 255, 255}), timestampKey(0));
}

TEST(TypedKeyTest, FormatKeyCanonical)
{
    EXPECT_EQ(formatKey(ip4Key({10, 1, 2, 3})), "10.1.2.3");
    EXPECT_EQ(formatKey(hexIdKey("deadbeef")), "deadbeef");
    EXPECT_EQ(formatKey(macKey({0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff})),
              "aa:bb:cc:dd:ee:ff");
}

} // namespace
} // namespace mithril::typed
