#include "typed/typed_key.h"

#include <algorithm>
#include <cstdio>

#include "common/status.h"
#include "common/text.h"

namespace mithril::typed {

namespace {

bool
isHexDigit(char c)
{
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
           || (c >= 'A' && c <= 'F');
}

int
hexValue(char c)
{
    if (c >= '0' && c <= '9') {
        return c - '0';
    }
    if (c >= 'a' && c <= 'f') {
        return c - 'a' + 10;
    }
    if (c >= 'A' && c <= 'F') {
        return c - 'A' + 10;
    }
    return -1;
}

char
toLowerHex(char c)
{
    return (c >= 'A' && c <= 'F') ? static_cast<char>(c - 'A' + 'a') : c;
}

/** Parses a decimal field of 1..@p max_digits digits, no sign, no
 *  leading zeros unless the value is exactly "0" and @p zero_ok. */
bool
parseStrictDecimal(std::string_view text, unsigned max_value,
                   unsigned *out)
{
    if (text.empty() || text.size() > 3) {
        return false;
    }
    if (text.size() > 1 && text[0] == '0') {
        return false; // leading zero: not canonical, rejected
    }
    unsigned value = 0;
    for (char c : text) {
        if (c < '0' || c > '9') {
            return false;
        }
        value = value * 10 + static_cast<unsigned>(c - '0');
    }
    if (value > max_value) {
        return false;
    }
    *out = value;
    return true;
}

/** Parses exactly @p digits decimal digits (leading zeros allowed —
 *  fixed-width timestamp fields). */
bool
parseFixedDigits(std::string_view text, size_t digits, unsigned *out)
{
    if (text.size() != digits) {
        return false;
    }
    unsigned value = 0;
    for (char c : text) {
        if (c < '0' || c > '9') {
            return false;
        }
        value = value * 10 + static_cast<unsigned>(c - '0');
    }
    *out = value;
    return true;
}

/** One 1-4 nibble IPv6 hex group. */
bool
parseHexGroup(std::string_view text, uint16_t *out)
{
    if (text.empty() || text.size() > 4) {
        return false;
    }
    unsigned value = 0;
    for (char c : text) {
        int v = hexValue(c);
        if (v < 0) {
            return false;
        }
        value = (value << 4) | static_cast<unsigned>(v);
    }
    *out = static_cast<uint16_t>(value);
    return true;
}

constexpr std::string_view kMonths[12] = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
};

/** hh:mm:ss with range checks; returns seconds into the day. */
bool
parseHms(std::string_view text, uint64_t *out)
{
    unsigned h = 0;
    unsigned m = 0;
    unsigned s = 0;
    if (text.size() != 8 || text[2] != ':' || text[5] != ':'
        || !parseFixedDigits(text.substr(0, 2), 2, &h)
        || !parseFixedDigits(text.substr(3, 2), 2, &m)
        || !parseFixedDigits(text.substr(6, 2), 2, &s) || h > 23 || m > 59
        || s > 60) {
        return false;
    }
    *out = static_cast<uint64_t>(h) * 3600 + m * 60 + s;
    return true;
}

} // namespace

const char *
kindName(TypedKind kind)
{
    switch (kind) {
    case TypedKind::kNone:
        return "none";
    case TypedKind::kIp4:
        return "ip4";
    case TypedKind::kIp6:
        return "ip6";
    case TypedKind::kMac:
        return "mac";
    case TypedKind::kHexId:
        return "hexid";
    case TypedKind::kTimestamp:
        return "time";
    }
    return "none";
}

bool
parseIp4(std::string_view text, std::array<uint8_t, 4> *out)
{
    std::array<uint8_t, 4> octets{};
    size_t start = 0;
    for (int i = 0; i < 4; ++i) {
        size_t dot = i == 3 ? text.size() : text.find('.', start);
        if (dot == std::string_view::npos) {
            return false;
        }
        unsigned value = 0;
        if (!parseStrictDecimal(text.substr(start, dot - start), 255,
                                &value)) {
            return false;
        }
        octets[static_cast<size_t>(i)] = static_cast<uint8_t>(value);
        start = dot + 1;
    }
    *out = octets;
    return true;
}

bool
parseIp6(std::string_view text, std::array<uint8_t, 16> *out)
{
    if (text.size() < 2) {
        return false;
    }
    // Split on the (at most one) "::" zero-run marker.
    size_t gap = text.find("::");
    std::string_view head = gap == std::string_view::npos
                                ? text
                                : text.substr(0, gap);
    std::string_view tail = gap == std::string_view::npos
                                ? std::string_view{}
                                : text.substr(gap + 2);
    if (tail.find("::") != std::string_view::npos) {
        return false; // a second "::" is ambiguous
    }

    // Parse a colon-separated group list; the final group may be a
    // dotted quad (embedded IPv4 tail), contributing two groups. More
    // than eight groups can never form an address, so fixed arrays
    // suffice and a candidate costs no allocation.
    struct Groups {
        std::array<uint16_t, 8> v{};
        size_t size = 0;

        bool
        push(uint16_t g)
        {
            if (size == v.size()) {
                return false;
            }
            v[size++] = g;
            return true;
        }
    };
    auto parseGroups = [](std::string_view part, Groups *groups) {
        if (part.empty()) {
            return true;
        }
        size_t start = 0;
        while (true) {
            size_t colon = part.find(':', start);
            std::string_view field =
                part.substr(start, colon == std::string_view::npos
                                       ? std::string_view::npos
                                       : colon - start);
            if (colon == std::string_view::npos
                && field.find('.') != std::string_view::npos) {
                std::array<uint8_t, 4> v4{};
                return parseIp4(field, &v4)
                       && groups->push(
                           static_cast<uint16_t>(v4[0] << 8 | v4[1]))
                       && groups->push(
                           static_cast<uint16_t>(v4[2] << 8 | v4[3]));
            }
            uint16_t value = 0;
            if (!parseHexGroup(field, &value) || !groups->push(value)) {
                return false;
            }
            if (colon == std::string_view::npos) {
                return true;
            }
            start = colon + 1;
        }
    };

    Groups front;
    Groups back;
    if (!parseGroups(head, &front) || !parseGroups(tail, &back)) {
        return false;
    }
    size_t total = front.size + back.size;
    if (gap == std::string_view::npos) {
        if (total != 8) {
            return false;
        }
    } else if (total > 7) {
        return false; // "::" must stand for at least one zero group
    }

    std::array<uint8_t, 16> bytes{};
    for (size_t i = 0; i < front.size; ++i) {
        bytes[i * 2] = static_cast<uint8_t>(front.v[i] >> 8);
        bytes[i * 2 + 1] = static_cast<uint8_t>(front.v[i] & 0xff);
    }
    for (size_t i = 0; i < back.size; ++i) {
        size_t g = 8 - back.size + i;
        bytes[g * 2] = static_cast<uint8_t>(back.v[i] >> 8);
        bytes[g * 2 + 1] = static_cast<uint8_t>(back.v[i] & 0xff);
    }
    *out = bytes;
    return true;
}

bool
parseMac(std::string_view text, std::array<uint8_t, 6> *out)
{
    if (text.size() != 17) {
        return false;
    }
    char sep = text[2];
    if (sep != ':' && sep != '-') {
        return false;
    }
    std::array<uint8_t, 6> octets{};
    for (size_t i = 0; i < 6; ++i) {
        size_t pos = i * 3;
        int hi = hexValue(text[pos]);
        int lo = hexValue(text[pos + 1]);
        if (hi < 0 || lo < 0) {
            return false;
        }
        if (i < 5 && text[pos + 2] != sep) {
            return false; // mixed separators rejected
        }
        octets[i] = static_cast<uint8_t>(hi << 4 | lo);
    }
    *out = octets;
    return true;
}

bool
parseHexId(std::string_view text, std::string_view *nibbles)
{
    if (text.size() >= 2 && text[0] == '0'
        && (text[1] == 'x' || text[1] == 'X')) {
        text.remove_prefix(2);
    }
    // 8..64 nibbles: shorter runs are too ambiguous, longer than a
    // SHA-256 digest is not an id (and keys must fit posting records).
    if (text.size() < 8 || text.size() > 64) {
        return false;
    }
    bool has_alpha = false;
    for (char c : text) {
        if (!isHexDigit(c)) {
            return false;
        }
        if (c > '9') {
            has_alpha = true;
        }
    }
    if (!has_alpha) {
        return false; // all-digit runs are numbers, not ids
    }
    *nibbles = text;
    return true;
}

int64_t
daysFromCivil(int64_t y, unsigned m, unsigned d)
{
    // Howard Hinnant's days_from_civil algorithm.
    y -= m <= 2;
    int64_t era = (y >= 0 ? y : y - 399) / 400;
    auto yoe = static_cast<uint64_t>(y - era * 400);
    uint64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
    uint64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

bool
parseRfc3339(std::string_view text, uint64_t *epoch_s)
{
    // date-time = YYYY-MM-DD "T" hh:mm:ss [frac] (Z | +hh:mm | -hh:mm)
    unsigned year = 0;
    unsigned month = 0;
    unsigned day = 0;
    if (text.size() < 20 || text[4] != '-' || text[7] != '-'
        || (text[10] != 'T' && text[10] != 't')
        || !parseFixedDigits(text.substr(0, 4), 4, &year)
        || !parseFixedDigits(text.substr(5, 2), 2, &month)
        || !parseFixedDigits(text.substr(8, 2), 2, &day) || month < 1
        || month > 12 || day < 1 || day > 31) {
        return false;
    }
    uint64_t seconds = 0;
    if (!parseHms(text.substr(11, 8), &seconds)) {
        return false;
    }
    size_t pos = 19;
    if (pos < text.size() && text[pos] == '.') {
        ++pos;
        size_t digits = 0;
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
            ++pos;
            ++digits;
        }
        if (digits == 0) {
            return false;
        }
    }
    if (pos >= text.size()) {
        return false;
    }
    int64_t offset_s = 0;
    char z = text[pos];
    if (z == 'Z' || z == 'z') {
        if (pos + 1 != text.size()) {
            return false;
        }
    } else if (z == '+' || z == '-') {
        unsigned oh = 0;
        unsigned om = 0;
        if (text.size() != pos + 6 || text[pos + 3] != ':'
            || !parseFixedDigits(text.substr(pos + 1, 2), 2, &oh)
            || !parseFixedDigits(text.substr(pos + 4, 2), 2, &om)
            || oh > 23 || om > 59) {
            return false;
        }
        offset_s = static_cast<int64_t>(oh) * 3600 + om * 60;
        if (z == '-') {
            offset_s = -offset_s;
        }
    } else {
        return false;
    }
    int64_t days = daysFromCivil(year, month, day);
    int64_t total = days * 86400 + static_cast<int64_t>(seconds)
                    - offset_s;
    if (total < 0) {
        return false; // pre-epoch times not representable in the key
    }
    *epoch_s = static_cast<uint64_t>(total);
    return true;
}

bool
parseSyslogTime(std::string_view month, std::string_view day,
                std::string_view hms, uint64_t *epoch_s)
{
    unsigned mon = 0;
    for (unsigned i = 0; i < 12; ++i) {
        if (month == kMonths[i]) {
            mon = i + 1;
            break;
        }
    }
    if (mon == 0) {
        return false;
    }
    // The day is space-padded ("Dec  9", which the tokenizer already
    // reduced to "9") or zero-padded ("Dec 09"); accept both forms.
    if (day.size() == 2 && day[0] == '0') {
        day.remove_prefix(1);
    }
    unsigned d = 0;
    if (!parseStrictDecimal(day, 31, &d) || d < 1) {
        return false;
    }
    uint64_t seconds = 0;
    if (!parseHms(hms, &seconds)) {
        return false;
    }
    // Syslog has no year; the fixed convention year 2000 keeps keys
    // comparable within a corpus (DESIGN.md §15).
    int64_t days = daysFromCivil(2000, mon, d);
    *epoch_s = static_cast<uint64_t>(days) * 86400 + seconds;
    return true;
}

namespace {

/** The raw-bytes encoding shared by IPv4, IPv6 and MAC keys. */
template <size_t N>
void
assignRawKey(TypedKind kind, const std::array<uint8_t, N> &bytes,
             TypedKey *out)
{
    out->kind = kind;
    out->bytes.assign(bytes.begin(), bytes.end());
}

} // namespace

TypedKey
ip4Key(const std::array<uint8_t, 4> &octets)
{
    TypedKey key;
    assignIp4Key(octets, &key);
    return key;
}

void
assignIp4Key(const std::array<uint8_t, 4> &octets, TypedKey *out)
{
    assignRawKey(TypedKind::kIp4, octets, out);
}

TypedKey
ip6Key(const std::array<uint8_t, 16> &groups)
{
    TypedKey key;
    assignIp6Key(groups, &key);
    return key;
}

void
assignIp6Key(const std::array<uint8_t, 16> &groups, TypedKey *out)
{
    assignRawKey(TypedKind::kIp6, groups, out);
}

TypedKey
macKey(const std::array<uint8_t, 6> &octets)
{
    TypedKey key;
    assignMacKey(octets, &key);
    return key;
}

void
assignMacKey(const std::array<uint8_t, 6> &octets, TypedKey *out)
{
    assignRawKey(TypedKind::kMac, octets, out);
}

TypedKey
hexIdKey(std::string_view nibbles)
{
    TypedKey key;
    assignHexIdKey(nibbles, &key);
    return key;
}

void
assignHexIdKey(std::string_view nibbles, TypedKey *out)
{
    out->kind = TypedKind::kHexId;
    out->bytes.resize(nibbles.size());
    for (size_t i = 0; i < nibbles.size(); ++i) {
        out->bytes[i] = static_cast<uint8_t>(toLowerHex(nibbles[i]));
    }
}

TypedKey
timestampKey(uint64_t epoch_s)
{
    TypedKey key;
    assignTimestampKey(epoch_s, &key);
    return key;
}

void
assignTimestampKey(uint64_t epoch_s, TypedKey *out)
{
    out->kind = TypedKind::kTimestamp;
    out->bytes.resize(8);
    for (int i = 0; i < 8; ++i) {
        out->bytes[static_cast<size_t>(i)] =
            static_cast<uint8_t>(epoch_s >> (56 - i * 8));
    }
}

std::string
formatIp4(const std::array<uint8_t, 4> &octets)
{
    return strprintf("%u.%u.%u.%u", octets[0], octets[1], octets[2],
                     octets[3]);
}

std::string
formatIp6(const std::array<uint8_t, 16> &groups)
{
    uint16_t g[8];
    for (size_t i = 0; i < 8; ++i) {
        g[i] = static_cast<uint16_t>(groups[i * 2] << 8
                                     | groups[i * 2 + 1]);
    }
    // RFC 5952: compress the longest (leftmost on tie) zero run of
    // length >= 2.
    int best_start = -1;
    int best_len = 0;
    for (int i = 0; i < 8;) {
        if (g[i] != 0) {
            ++i;
            continue;
        }
        int j = i;
        while (j < 8 && g[j] == 0) {
            ++j;
        }
        if (j - i > best_len) {
            best_start = i;
            best_len = j - i;
        }
        i = j;
    }
    if (best_len < 2) {
        best_start = -1;
    }
    std::string out;
    for (int i = 0; i < 8;) {
        if (i == best_start) {
            // Always both colons: the group after the run suppresses
            // its own separator when the string already ends in ':'.
            out += "::";
            i += best_len;
            if (i >= 8) {
                break;
            }
            continue;
        }
        if (!out.empty() && out.back() != ':') {
            out += ':';
        }
        out += strprintf("%x", g[i]);
        ++i;
    }
    if (out.empty()) {
        out = "::";
    }
    return out;
}

std::string
formatMac(const std::array<uint8_t, 6> &octets)
{
    return strprintf("%02x:%02x:%02x:%02x:%02x:%02x", octets[0],
                     octets[1], octets[2], octets[3], octets[4],
                     octets[5]);
}

std::string
formatKey(const TypedKey &key)
{
    switch (key.kind) {
    case TypedKind::kIp4: {
        std::array<uint8_t, 4> v{};
        if (key.bytes.size() == 4) {
            std::copy(key.bytes.begin(), key.bytes.end(), v.begin());
            return formatIp4(v);
        }
        break;
    }
    case TypedKind::kIp6: {
        std::array<uint8_t, 16> v{};
        if (key.bytes.size() == 16) {
            std::copy(key.bytes.begin(), key.bytes.end(), v.begin());
            return formatIp6(v);
        }
        break;
    }
    case TypedKind::kMac: {
        std::array<uint8_t, 6> v{};
        if (key.bytes.size() == 6) {
            std::copy(key.bytes.begin(), key.bytes.end(), v.begin());
            return formatMac(v);
        }
        break;
    }
    case TypedKind::kHexId:
        return {key.bytes.begin(), key.bytes.end()};
    case TypedKind::kTimestamp: {
        if (key.bytes.size() == 8) {
            uint64_t value = 0;
            for (uint8_t b : key.bytes) {
                value = value << 8 | b;
            }
            return strprintf("%llu",
                             static_cast<unsigned long long>(value));
        }
        break;
    }
    case TypedKind::kNone:
        break;
    }
    return "?";
}

} // namespace mithril::typed
