#include "typed/extract.h"

namespace mithril::typed {

namespace {

bool
tryIp4(std::string_view candidate, TypedKey *out)
{
    std::array<uint8_t, 4> octets{};
    if (!parseIp4(candidate, &octets)) {
        return false;
    }
    assignIp4Key(octets, out);
    return true;
}

bool
tryMac(std::string_view candidate, TypedKey *out)
{
    std::array<uint8_t, 6> octets{};
    if (!parseMac(candidate, &octets)) {
        return false;
    }
    assignMacKey(octets, out);
    return true;
}

bool
tryIp6(std::string_view candidate, TypedKey *out)
{
    // Require at least one ':' so plain hex ids never reach the
    // (permissive) IPv6 grammar.
    if (candidate.find(':') == std::string_view::npos) {
        return false;
    }
    std::array<uint8_t, 16> groups{};
    if (!parseIp6(candidate, &groups)) {
        return false;
    }
    assignIp6Key(groups, out);
    return true;
}

bool
tryHexId(std::string_view candidate, TypedKey *out)
{
    std::string_view nibbles;
    if (!parseHexId(candidate, &nibbles)) {
        return false;
    }
    assignHexIdKey(nibbles, out);
    return true;
}

bool
tryRfc3339(std::string_view candidate, TypedKey *out)
{
    uint64_t epoch_s = 0;
    if (!parseRfc3339(candidate, &epoch_s)) {
        return false;
    }
    assignTimestampKey(epoch_s, out);
    return true;
}

// MAC before IPv6: "aa:bb:cc:dd:ee:ff" is also parseable as hex
// groups, and the 17-byte two-nibble form is the stronger signal.
// IPv4 before hex id keeps "10101010" unambiguous (it has no dots, so
// the order only matters for documentation).
constexpr Extractor kRegistry[] = {
    {"ip4", TypedKind::kIp4, tryIp4},
    {"mac", TypedKind::kMac, tryMac},
    {"ip6", TypedKind::kIp6, tryIp6},
    {"hexid", TypedKind::kHexId, tryHexId},
    {"rfc3339", TypedKind::kTimestamp, tryRfc3339},
};

bool
isTrimmable(char c)
{
    switch (c) {
    case '(':
    case ')':
    case '[':
    case ']':
    case '{':
    case '}':
    case '<':
    case '>':
    case '"':
    case '\'':
    case ',':
    case ';':
        return true;
    default:
        return false;
    }
}

/** Strips surrounding punctuation plus a trailing sentence '.' — but
 *  never a '.' that would cut into a dotted quad ("10.1.2.3." trims,
 *  "10.1.2.3" does not). */
std::string_view
trimPunct(std::string_view token)
{
    while (!token.empty() && isTrimmable(token.front())) {
        token.remove_prefix(1);
    }
    while (!token.empty()
           && (isTrimmable(token.back()) || token.back() == '.'
               || token.back() == '!' || token.back() == '?')) {
        if (token.back() == '.' && token.size() >= 2
            && token[token.size() - 2] >= '0'
            && token[token.size() - 2] <= '9'
            && token.find('.') != token.size() - 1) {
            // "10.1.2.3." — strip exactly the one trailing dot.
            token.remove_suffix(1);
            break;
        }
        token.remove_suffix(1);
    }
    return token;
}

/** Tries every registered extractor against one candidate. */
bool
tryCandidate(std::string_view candidate, TypedKey *out)
{
    if (candidate.empty()) {
        return false;
    }
    for (const Extractor &e : kRegistry) {
        if (e.parse(candidate, out)) {
            return true;
        }
    }
    return false;
}

} // namespace

std::span<const Extractor>
extractors()
{
    return kRegistry;
}

bool
syslogHeaderTime(std::span<const std::string_view> tokens,
                 uint64_t *epoch_s)
{
    // The header ("Aug  9 12:34:56") spans three whitespace tokens, so
    // it cannot be recognized token-wise. It starts within the first
    // five tokens: at 0 in plain syslog, at 4 in the Sandia-shaped
    // lines (Spirit2, Liberty2) that prepend alert, epoch, date and
    // node.
    for (size_t i = 0; i + 2 < tokens.size() && i <= 4; ++i) {
        if (parseSyslogTime(tokens[i], tokens[i + 1], tokens[i + 2],
                            epoch_s)) {
            return true;
        }
    }
    return false;
}

bool
extractToken(std::string_view token, TypedKey *out)
{
    // Boundary-candidate ladder: raw token, punctuation-trimmed, value
    // after '=', value after the last ':'. First hit wins.
    if (tryCandidate(token, out)) {
        return true;
    }
    std::string_view trimmed = trimPunct(token);
    if (trimmed != token && tryCandidate(trimmed, out)) {
        return true;
    }
    size_t eq = trimmed.rfind('=');
    if (eq != std::string_view::npos
        && tryCandidate(trimPunct(trimmed.substr(eq + 1)), out)) {
        return true;
    }
    size_t colon = trimmed.rfind(':');
    return colon != std::string_view::npos
           && tryCandidate(trimPunct(trimmed.substr(colon + 1)), out);
}

bool
lineContainsKey(std::string_view line, const TypedKey &key)
{
    bool found = false;
    extractLine(line, [&](const TypedKey &k) {
        if (k == key) {
            found = true;
        }
    });
    return found;
}

} // namespace mithril::typed
