#include "typed/predicate.h"

#include <algorithm>
#include <array>

#include "common/text.h"
#include "typed/extract.h"

namespace mithril::typed {

namespace {

/** Unsigned decimal with no sign/whitespace; false on overflow. */
bool
parseU64(std::string_view text, uint64_t *out)
{
    if (text.empty() || text.size() > 20) {
        return false;
    }
    uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9') {
            return false;
        }
        uint64_t digit = static_cast<uint64_t>(c - '0');
        if (value > (~0ull - digit) / 10) {
            return false;
        }
        value = value * 10 + digit;
    }
    *out = value;
    return true;
}

/** One time-window bound: epoch seconds or an RFC 3339 timestamp. */
bool
parseTimeBound(std::string_view text, uint64_t *out)
{
    return parseU64(text, out) || parseRfc3339(text, out);
}

Status
badPredicate(std::string_view word, const char *why)
{
    return Status::invalidArgument(
        strprintf("typed predicate '%.*s': %s",
                  static_cast<int>(word.size()), word.data(), why));
}

/** Applies a /prefix mask over an N-byte address, producing [lo, hi]. */
template <size_t N>
void
cidrRange(const std::array<uint8_t, N> &addr, unsigned prefix,
          std::vector<uint8_t> *lo, std::vector<uint8_t> *hi)
{
    lo->assign(addr.begin(), addr.end());
    hi->assign(addr.begin(), addr.end());
    for (size_t i = 0; i < N; ++i) {
        unsigned bit = static_cast<unsigned>(i) * 8;
        uint8_t mask;
        if (prefix >= bit + 8) {
            mask = 0xff;
        } else if (prefix <= bit) {
            mask = 0x00;
        } else {
            mask = static_cast<uint8_t>(0xff << (8 - (prefix - bit)));
        }
        (*lo)[i] &= mask;
        (*hi)[i] |= static_cast<uint8_t>(~mask);
    }
}

Status
parseIpPredicate(std::string_view word, std::string_view value,
                 Predicate *out)
{
    unsigned prefix = 0;
    bool has_prefix = false;
    size_t slash = value.rfind('/');
    std::string_view addr_text = value;
    if (slash != std::string_view::npos) {
        uint64_t p = 0;
        if (!parseU64(value.substr(slash + 1), &p) || p > 128) {
            return badPredicate(word, "bad CIDR prefix length");
        }
        prefix = static_cast<unsigned>(p);
        has_prefix = true;
        addr_text = value.substr(0, slash);
    }
    std::array<uint8_t, 4> v4{};
    if (parseIp4(addr_text, &v4)) {
        if (has_prefix && prefix > 32) {
            return badPredicate(word, "IPv4 prefix length exceeds 32");
        }
        if (!has_prefix) {
            prefix = 32;
        }
        out->kind = TypedKind::kIp4;
        cidrRange(v4, prefix, &out->lo, &out->hi);
        std::array<uint8_t, 4> base{};
        std::copy(out->lo.begin(), out->lo.end(), base.begin());
        out->text = "ip:" + formatIp4(base);
        if (prefix < 32) {
            out->text += strprintf("/%u", prefix);
        }
        return Status::ok();
    }
    std::array<uint8_t, 16> v6{};
    if (parseIp6(addr_text, &v6)) {
        if (!has_prefix) {
            prefix = 128;
        }
        out->kind = TypedKind::kIp6;
        cidrRange(v6, prefix, &out->lo, &out->hi);
        std::array<uint8_t, 16> base{};
        std::copy(out->lo.begin(), out->lo.end(), base.begin());
        out->text = "ip:" + formatIp6(base);
        if (prefix < 128) {
            out->text += strprintf("/%u", prefix);
        }
        return Status::ok();
    }
    return badPredicate(word, "unparseable address");
}

} // namespace

bool
Predicate::matchesKey(const TypedKey &key) const
{
    if (key.kind != kind) {
        return false;
    }
    return key.bytes >= lo && key.bytes <= hi;
}

bool
isTypedWord(std::string_view word)
{
    return word.rfind("ip:", 0) == 0 || word.rfind("id:", 0) == 0
           || word.rfind("mac:", 0) == 0 || word.rfind("time:", 0) == 0;
}

Status
parsePredicate(std::string_view word, Predicate *out)
{
    *out = Predicate{};
    if (word.rfind("ip:", 0) == 0) {
        return parseIpPredicate(word, word.substr(3), out);
    }
    if (word.rfind("id:", 0) == 0) {
        std::string_view nibbles;
        if (!parseHexId(word.substr(3), &nibbles)) {
            return badPredicate(
                word, "hex id needs >= 8 hex nibbles, one non-digit");
        }
        out->kind = TypedKind::kHexId;
        TypedKey key = hexIdKey(nibbles);
        out->lo = key.bytes;
        out->hi = key.bytes;
        out->text = "id:" + formatKey(key);
        return Status::ok();
    }
    if (word.rfind("mac:", 0) == 0) {
        std::array<uint8_t, 6> octets{};
        if (!parseMac(word.substr(4), &octets)) {
            return badPredicate(word, "unparseable MAC address");
        }
        out->kind = TypedKind::kMac;
        TypedKey key = macKey(octets);
        out->lo = key.bytes;
        out->hi = key.bytes;
        out->text = "mac:" + formatMac(octets);
        return Status::ok();
    }
    if (word.rfind("time:", 0) == 0) {
        std::string_view value = word.substr(5);
        if (value.size() < 2 || value.front() != '['
            || value.back() != ']') {
            return badPredicate(word, "window must be time:[t0,t1]");
        }
        value = value.substr(1, value.size() - 2);
        size_t comma = value.find(',');
        if (comma == std::string_view::npos) {
            return badPredicate(word, "window must be time:[t0,t1]");
        }
        uint64_t t0 = 0;
        uint64_t t1 = 0;
        if (!parseTimeBound(value.substr(0, comma), &t0)
            || !parseTimeBound(value.substr(comma + 1), &t1)) {
            return badPredicate(word, "unparseable window bound");
        }
        if (t0 > t1) {
            return badPredicate(word, "window bounds out of order");
        }
        out->kind = TypedKind::kTimestamp;
        out->lo = timestampKey(t0).bytes;
        out->hi = timestampKey(t1).bytes;
        out->text = strprintf("time:[%llu,%llu]",
                              static_cast<unsigned long long>(t0),
                              static_cast<unsigned long long>(t1));
        return Status::ok();
    }
    return badPredicate(word, "unknown typed prefix");
}

bool
lineMatches(std::string_view line, const Predicate &pred)
{
    if (!pred.active()) {
        return false;
    }
    bool hit = false;
    extractLine(line, [&](const TypedKey &key) {
        if (pred.matchesKey(key)) {
            hit = true;
        }
    });
    return hit;
}

} // namespace mithril::typed
