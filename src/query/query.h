/**
 * @file
 * Query representation: unions of intersections of (possibly negated)
 * tokens — the exact query class the token filtering engine executes
 * (Section 4, Equation 1).
 *
 * A Query is a union set (OR) of intersection sets (AND), each holding
 * tokens that may be negated:
 *
 *     (!A & B & C) | (!D & !E & F & G)
 *
 * A log line satisfies an intersection set when every positive token is
 * present in the line (as a whole, delimiter-separated token) and no
 * negated token is present; it satisfies the query when it satisfies at
 * least one intersection set. Multiple independent queries are evaluated
 * concurrently by joining them with unions (Query::unionOf), which is how
 * the paper batches queries onto one accelerator configuration.
 */
#ifndef MITHRIL_QUERY_QUERY_H
#define MITHRIL_QUERY_QUERY_H

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "typed/predicate.h"

namespace mithril::query {

/**
 * One term in an intersection set: either a keyword token or a typed
 * predicate (`ip:10.0.0.0/8`, `id:deadbeef01`, `time:[t0,t1]` —
 * DESIGN.md §15). Exactly one of the two is populated: a keyword term
 * has a non-empty token and an inactive predicate; a typed term has an
 * empty token and an active predicate. Typed terms cannot be negated.
 */
struct Term {
    std::string token;
    bool negated = false;
    typed::Predicate typed{};

    bool operator==(const Term &) const = default;

    /** True when this term is a typed predicate, not a keyword. */
    bool isTyped() const { return typed.active(); }
};

/** Conjunction of terms: all positives present, no negatives present. */
struct IntersectionSet {
    std::vector<Term> terms;

    bool operator==(const IntersectionSet &) const = default;

    /** Number of positive (non-negated) terms. */
    size_t positiveCount() const;
};

/** Union of intersection sets. */
class Query
{
  public:
    Query() = default;

    /** Builds from explicit sets; empty sets are rejected downstream. */
    explicit Query(std::vector<IntersectionSet> sets)
        : sets_(std::move(sets)) {}

    /** Convenience: single intersection set of positive tokens. */
    static Query allOf(std::span<const std::string> tokens);

    /** Convenience: one single-token intersection set per token. */
    static Query anyOf(std::span<const std::string> tokens);

    /** Joins queries into one evaluating them concurrently (Section 4). */
    static Query unionOf(std::span<const Query> queries);

    const std::vector<IntersectionSet> &sets() const { return sets_; }
    std::vector<IntersectionSet> &sets() { return sets_; }

    bool empty() const { return sets_.empty(); }

    /** Total number of terms across all intersection sets. */
    size_t termCount() const;

    /** Distinct keyword token texts used anywhere in the query
     *  (typed-predicate terms carry no token and are skipped). */
    std::vector<std::string> distinctTokens() const;

    /** True when any intersection set carries a typed predicate. */
    bool hasTypedPredicates() const;

    /** Total typed-predicate terms across all intersection sets. */
    size_t typedPredicateCount() const;

    /**
     * Structural validation:
     *  - at least one intersection set, none empty;
     *  - no intersection set both requires and forbids the same token;
     *  - every term is exactly keyword or typed; typed terms are never
     *    negated (a negated range cannot be pruned by posting lists);
     *  - every intersection set has at least one positive term (a line
     *    satisfying only negatives cannot be represented by the
     *    hardware's exact-bitmap-match rule; such sets are legal in the
     *    software matcher but flagged here so callers can decide). A
     *    typed predicate counts as a positive term.
     *
     * @param allow_pure_negative permit sets with no positive terms.
     */
    [[nodiscard]] Status validate(bool allow_pure_negative = true) const;

    /** Renders as text parseable by parseQuery ("(a & !b) | c"). */
    std::string toString() const;

    bool operator==(const Query &) const = default;

  private:
    std::vector<IntersectionSet> sets_;
};

} // namespace mithril::query

#endif // MITHRIL_QUERY_QUERY_H
