/**
 * @file
 * Benchmark inputs: seeded corpora and query libraries.
 *
 * Everything here runs before any measured phase and counts toward no
 * metric. The same (dataset, seed, size) always yields the same bytes.
 */
#ifndef PERFBENCH_CORPUS_H
#define PERFBENCH_CORPUS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "query/query.h"

namespace perfbench {

/** Newline-terminated text with a line table. */
struct Corpus {
    std::string text;
    /** Views into `text`, without the newline. */
    std::vector<std::string_view> lines;
    /** Byte offset of line i's first byte; one extra entry at the end
     *  holds text.size(). */
    std::vector<uint64_t> offsets;

    uint64_t bytes() const { return text.size(); }
    /** Lines [first, last) including their newlines. */
    std::string_view span(size_t first, size_t last) const;
    /** Index of the first line starting at or after byte @p offset. */
    size_t lineAtByte(uint64_t offset) const;
};

/** Builds the line table of @p text (must end in '\n'). */
Corpus makeCorpus(std::string text);

/** Seeds select the corpus start among this many lines of a dataset's
 *  stream. Kept short: the BGL2 header dates are frequent enough to
 *  become FT-tree template words, so a window that slides across a day
 *  boundary changes the template library and, with it, the query
 *  costs (seed to seed, search's median query time moved by a third). */
constexpr uint64_t kMaxSkipLines = 512;

/** Seeds add 0..kLengthSteps-1 steps of kLengthStep bytes to a corpus. */
constexpr uint64_t kLengthSteps = 16;
constexpr uint64_t kLengthStep = 16ull << 10;

/** An HPC4 twin (BGL2, Liberty2, Spirit2, Thunderbird) of about
 *  @p bytes (plus a seeded length step): the dataset's line stream from
 *  a point @p seed selects. */
Corpus hpcCorpus(const std::string &dataset, uint64_t seed,
                 uint64_t bytes);

/** The paper's Section 7.1 query library over one corpus. */
struct QueryLibrary {
    std::vector<mithril::query::Query> singles;  ///< one per FT-tree template
    std::vector<mithril::query::Query> pairs;    ///< random 2-OR unions
    std::vector<mithril::query::Query> eights;   ///< random 8-OR unions

    /** singles, then pairs, then eights: the index space of round(). */
    std::vector<mithril::query::Query> all() const;

    /** Indices into all() of the queries round @p round runs: the next
     *  @p n_singles singles, @p n_pairs pairs and @p n_eights 8-OR
     *  unions, each pool taken in turn. Enough rounds cover every
     *  query, so a run's latency figures rest on many distinct queries,
     *  not on a few repeated ones. */
    std::vector<size_t> round(uint64_t round, size_t n_singles,
                              size_t n_pairs, size_t n_eights) const;
};

/** Extracts FT-tree templates from @p c (the @p max_singles with the
 *  most supporting lines become singles) and draws the OR unions from
 *  an RNG seeded with @p seed. */
QueryLibrary templateLibrary(const Corpus &c, uint64_t seed,
                             size_t max_singles, size_t pair_count,
                             size_t eight_count);

/** Mixes the run seed into a dataset's base seed. */
uint64_t mixSeed(uint64_t base, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_H
