/**
 * @file
 * Typed-field keys: the normalized, comparable form of the values the
 * extractor registry pulls out of log lines (DESIGN.md §15).
 *
 * A TypedKey is (kind, bytes) where the bytes are a *big-endian
 * order-preserving encoding* of the value: lexicographic comparison of
 * the byte strings equals numeric comparison of the values. That single
 * property is what makes range predicates (CIDR blocks, time windows)
 * resolvable against the sorted posting-list directory without decoding
 * every key.
 *
 * Encodings:
 *   - kIp4:       4 bytes, network order.
 *   - kIp6:       16 bytes, network order (`::` expanded).
 *   - kMac:       6 bytes.
 *   - kHexId:     lowercase ASCII hex nibbles, `0x` stripped. Variable
 *                 length; predicates on hex ids are exact-match only.
 *   - kTimestamp: 8 bytes, big-endian seconds since the Unix epoch.
 *
 * Normalization is strict by design: `10.0.0.01` (leading zero) and
 * `10.0.0.256` (octet overflow) are rejected rather than guessed at, so
 * one value has exactly one key and the on-device posting lists never
 * alias. The parse helpers return false on malformed input instead of
 * producing a Status — extraction runs on every ingested line and most
 * tokens are not typed values.
 */
#ifndef MITHRIL_TYPED_TYPED_KEY_H
#define MITHRIL_TYPED_TYPED_KEY_H

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mithril::typed {

/** The value families the extractor registry recognizes. */
enum class TypedKind : uint8_t {
    kNone = 0,
    kIp4 = 1,
    kIp6 = 2,
    kMac = 3,
    kHexId = 4,
    kTimestamp = 5,
};

/** Stable lowercase name ("ip4", "mac", ...) for reports and tests. */
const char *kindName(TypedKind kind);

/** A normalized typed value; ordering is kind-major, then bytewise. */
struct TypedKey {
    TypedKind kind = TypedKind::kNone;
    std::vector<uint8_t> bytes;

    auto operator<=>(const TypedKey &) const = default;

    bool valid() const { return kind != TypedKind::kNone; }
};

// ---- strict normalizers (false on malformed input) --------------------

/** Dotted quad; exactly 4 decimal octets 0..255, no leading zeros. */
bool parseIp4(std::string_view text, std::array<uint8_t, 4> *out);

/**
 * RFC 4291 textual IPv6, including one `::` zero-run compression and an
 * optional embedded dotted-quad tail (`::ffff:10.1.2.3`). Hex groups are
 * 1-4 nibbles, case-insensitive.
 */
bool parseIp6(std::string_view text, std::array<uint8_t, 16> *out);

/** Six 2-nibble groups separated uniformly by ':' or '-'. */
bool parseMac(std::string_view text, std::array<uint8_t, 6> *out);

/**
 * Opaque hex identifier: optional `0x` prefix, then 8..64 hex nibbles
 * of which at least one is alphabetic (a pure digit run is a number,
 * not an id). @p nibbles views the nibbles in @p text as written,
 * prefix stripped and case kept; hexIdKey() lowercases them.
 */
bool parseHexId(std::string_view text, std::string_view *nibbles);

/**
 * RFC 3339 timestamp (`2026-08-09T12:34:56Z`, optional fractional
 * seconds, `Z` or `+hh:mm`/`-hh:mm` offset) to epoch seconds. Fractional
 * seconds truncate.
 */
bool parseRfc3339(std::string_view text, uint64_t *epoch_s);

/**
 * Classic syslog header triple (`Aug  9 12:34:56` split into month, day,
 * hh:mm:ss tokens) to epoch seconds. Syslog omits the year; the fixed
 * convention year 2000 is used so keys stay comparable within a corpus
 * (documented in DESIGN.md §15 — windows are relative, not absolute).
 */
bool parseSyslogTime(std::string_view month, std::string_view day,
                     std::string_view hms, uint64_t *epoch_s);

/** Civil date to days since 1970-01-01 (proleptic Gregorian). */
int64_t daysFromCivil(int64_t y, unsigned m, unsigned d);

// ---- key constructors -------------------------------------------------

TypedKey ip4Key(const std::array<uint8_t, 4> &octets);
TypedKey ip6Key(const std::array<uint8_t, 16> &groups);
TypedKey macKey(const std::array<uint8_t, 6> &octets);
TypedKey hexIdKey(std::string_view nibbles);
TypedKey timestampKey(uint64_t epoch_s);

/** In-place forms of the constructors above: the same encoding written
 *  into @p out, reusing its byte buffer. */
void assignIp4Key(const std::array<uint8_t, 4> &octets, TypedKey *out);
void assignIp6Key(const std::array<uint8_t, 16> &groups, TypedKey *out);
void assignMacKey(const std::array<uint8_t, 6> &octets, TypedKey *out);
void assignHexIdKey(std::string_view nibbles, TypedKey *out);
void assignTimestampKey(uint64_t epoch_s, TypedKey *out);

// ---- canonical text ---------------------------------------------------

std::string formatIp4(const std::array<uint8_t, 4> &octets);

/** RFC 5952 canonical form: lowercase, longest zero run compressed. */
std::string formatIp6(const std::array<uint8_t, 16> &groups);

std::string formatMac(const std::array<uint8_t, 6> &octets);

/** Canonical rendering of any key ("10.1.2.3", "deadbeef01", "1723...").
 */
std::string formatKey(const TypedKey &key);

} // namespace mithril::typed

#endif // MITHRIL_TYPED_TYPED_KEY_H
