/**
 * @file
 * Reference answers computed apart from the program.
 *
 * The keyword reference tokenizes the raw corpus lines on space, tab
 * and CR — its own splitter, not the program's — into per-token
 * posting lists of line numbers, and evaluates a query as a union of
 * intersections with negation over them. The syslog reference parses
 * the `Mon DD HH:MM:SS` header of the Sandia-shaped lines under the
 * year-2000 convention. Answers are compared through an
 * order-independent digest of the matched line texts.
 */
#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "corpus.h"
#include "query/query.h"

namespace perfbench {

/** Splits @p line on ' ', '\t' and '\r'; empty tokens are dropped. */
std::vector<std::string_view> refTokens(std::string_view line);

/** Token -> ascending line numbers, over one corpus. */
class RefIndex
{
  public:
    /** Indexes @p c; the corpus must outlive the index. */
    explicit RefIndex(const Corpus &c);

    /**
     * Ascending line numbers below @p limit that satisfy the keyword
     * terms of @p q. Typed terms are not evaluated here: a set holding
     * one is evaluated on its keyword terms only (callers intersect
     * with their typed reference).
     */
    std::vector<uint64_t> eval(const mithril::query::Query &q,
                               uint64_t limit) const;

    /** Lines holding @p token (ascending). */
    const std::vector<uint32_t> &postings(std::string_view token) const;

  private:
    std::unordered_map<std::string_view, std::vector<uint32_t>> map_;
    std::vector<uint32_t> empty_;
    uint64_t lines_;
};

/** FNV-1a, 64-bit. */
uint64_t fnv64(std::string_view s);

/** Order-independent digest of a multiset of line texts. */
struct Digest {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t mixed = 0;

    void add(std::string_view line);
    bool operator==(const Digest &) const = default;
};

/** Digest of the corpus lines @p lines. */
Digest digestOf(const Corpus &c, const std::vector<uint64_t> &lines);

/** Seconds since 1970 of @p mon/@p day @p hh:@p mm:@p ss in 2000. */
uint64_t epoch2000(unsigned mon, unsigned day, unsigned hh, unsigned mm,
                   unsigned ss);

/** Parses the syslog header (`Mon DD HH:MM:SS`, zero-padded day
 *  allowed) that the Sandia-shaped lines carry at tokens 4-6. */
bool syslogHeaderTime(std::string_view line, uint64_t *epoch_s);

/** Ascending values of @p a that are also in @p b (both ascending). */
std::vector<uint64_t> intersect(const std::vector<uint64_t> &a,
                                const std::vector<uint64_t> &b);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
