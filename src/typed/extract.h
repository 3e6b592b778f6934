/**
 * @file
 * The typed-field extractor registry (DESIGN.md §15).
 *
 * Extraction is a pure function of the line bytes: every component that
 * needs typed values — the ingest pipeline feeding the posting lists,
 * the software matcher evaluating typed predicates, the degraded
 * full-scan path, and the test oracles — calls extractLine() (or, on
 * the ingest path, extractTokens() over the tokenizer's own spans) and
 * gets the identical key stream. Ad-hoc parsing of line bytes outside
 * src/typed/ is forbidden by the `typed-extractor` lint rule, for the
 * same reason the delimiter set lives in exactly one place: divergence
 * would silently break the index-vs-scan equivalence invariant.
 *
 * Tokens are delimited by the shared whitespace set, then each raw
 * token walks a boundary-candidate ladder (raw, punctuation-trimmed,
 * after `=`, after the last `:`) so values glued to log syntax —
 * `src=10.1.2.3,` or `[deadbeef01]` — still extract cleanly; the first
 * candidate any extractor accepts wins, so one token yields at most one
 * key. Timestamps are additionally matched at line level (the classic
 * syslog header spans three tokens).
 */
#ifndef MITHRIL_TYPED_EXTRACT_H
#define MITHRIL_TYPED_EXTRACT_H

#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/text.h"
#include "typed/typed_key.h"

namespace mithril::typed {

/** One registered extractor: a named, kind-tagged token recognizer. */
struct Extractor {
    const char *name;
    TypedKind kind;
    /** Tries the whole candidate token; false when it is not this
     *  extractor's value family. */
    bool (*parse)(std::string_view candidate, TypedKey *out);
};

/** The registry, in ladder order (tried first to last per candidate). */
std::span<const Extractor> extractors();

/**
 * Runs one whitespace token through the boundary-candidate ladder and
 * the registry; true with @p out set on the first hit. @p out's byte
 * buffer is reused, so once it has grown a hit allocates nothing.
 */
bool extractToken(std::string_view token, TypedKey *out);

/** Epoch seconds of the syslog header (`Mon DD HH:MM:SS`) when one
 *  starts at token 0..4 of @p tokens. */
bool syslogHeaderTime(std::span<const std::string_view> tokens,
                      uint64_t *epoch_s);

/**
 * Runs the full registry over a line already split into @p tokens (the
 * ingest path hands over its one tokenizer pass), calling
 * @p sink(const TypedKey &) for every extracted key: the header
 * timestamp first, then per-token keys in line order. The key handed
 * to the sink lives in @p scratch; reusing one across lines keeps
 * extraction free of allocation.
 */
template <typename Sink>
void
extractTokens(std::span<const std::string_view> tokens, TypedKey *scratch,
              Sink &&sink)
{
    uint64_t epoch_s = 0;
    if (syslogHeaderTime(tokens, &epoch_s)) {
        assignTimestampKey(epoch_s, scratch);
        sink(std::as_const(*scratch));
    }
    for (std::string_view token : tokens) {
        if (extractToken(token, scratch)) {
            sink(std::as_const(*scratch));
        }
    }
}

/**
 * extractTokens() over @p line split on the shared delimiter set.
 * Deterministic in the line bytes alone.
 */
template <typename Sink>
void
extractLine(std::string_view line, Sink &&sink)
{
    std::vector<std::string_view> tokens = splitTokens(line);
    TypedKey key;
    extractTokens(tokens, &key, sink);
}

/** True when extractLine(@p line) would emit a key matching @p key. */
bool lineContainsKey(std::string_view line, const TypedKey &key);

} // namespace mithril::typed

#endif // MITHRIL_TYPED_EXTRACT_H
