#include "corpus.h"

#include <algorithm>

#include "common/hash.h"
#include "common/rng.h"
#include "loggen/datasets.h"
#include "loggen/log_generator.h"
#include "templates/ft_tree.h"

namespace perfbench {

using mithril::Rng;

std::string_view
Corpus::span(size_t first, size_t last) const
{
    return std::string_view(text).substr(offsets[first],
                                         offsets[last] - offsets[first]);
}

size_t
Corpus::lineAtByte(uint64_t offset) const
{
    auto it = std::lower_bound(offsets.begin(), offsets.end() - 1, offset);
    return static_cast<size_t>(it - offsets.begin());
}

Corpus
makeCorpus(std::string text)
{
    Corpus c;
    c.text = std::move(text);
    std::string_view all = c.text;
    size_t start = 0;
    while (start < all.size()) {
        size_t nl = all.find('\n', start);
        if (nl == std::string_view::npos) {
            nl = all.size();
        }
        c.offsets.push_back(start);
        c.lines.push_back(all.substr(start, nl - start));
        start = nl + 1;
    }
    c.offsets.push_back(all.size());
    return c;
}

uint64_t
mixSeed(uint64_t base, uint64_t seed)
{
    return base ^ mithril::mix64(seed * 0x9e3779b97f4a7c15ull + 1);
}

Corpus
hpcCorpus(const std::string &dataset, uint64_t seed, uint64_t bytes)
{
    // The dataset keeps its own generator seed, so every run sees the
    // same template library; the run seed picks where in the dataset's
    // line stream the corpus starts.
    mithril::loggen::LogGenerator gen(mithril::loggen::datasetByName(dataset));
    uint64_t skip = mixSeed(0x51c0, seed) % kMaxSkipLines;
    for (uint64_t i = 0; i < skip; ++i) {
        gen.line();
    }
    // The length varies a little too, so page and record counts (and the
    // modeled figures built on them) differ from seed to seed.
    uint64_t extra = (mixSeed(0x5123, seed) % kLengthSteps) * kLengthStep;
    return makeCorpus(gen.generate(bytes + extra));
}

std::vector<mithril::query::Query>
QueryLibrary::all() const
{
    std::vector<mithril::query::Query> out = singles;
    out.insert(out.end(), pairs.begin(), pairs.end());
    out.insert(out.end(), eights.begin(), eights.end());
    return out;
}

std::vector<size_t>
QueryLibrary::round(uint64_t round, size_t n_singles, size_t n_pairs,
                    size_t n_eights) const
{
    std::vector<size_t> out;
    size_t base = 0;
    auto slice = [&](size_t per_round, size_t total) {
        for (size_t k = 0; k < per_round && total > 0; ++k) {
            out.push_back(base + (round * per_round + k) % total);
        }
        base += total;
    };
    slice(n_singles, singles.size());
    slice(n_pairs, pairs.size());
    slice(n_eights, eights.size());
    return out;
}

QueryLibrary
templateLibrary(const Corpus &c, uint64_t seed, size_t max_singles,
                size_t pair_count, size_t eight_count)
{
    namespace tpl = mithril::templates;
    tpl::FtTreeConfig cfg;
    cfg.max_depth = 8;
    // Support scales with corpus size so the library stays in the
    // paper's range (tens of templates), as the table benches do.
    cfg.template_min_support =
        std::max<uint64_t>(24, c.bytes() / (128 << 10));
    tpl::FtTree tree = tpl::FtTree::build(c.text, cfg);
    std::vector<tpl::ExtractedTemplate> templates = tree.extractTemplates();
    // Best-supported first: templates near the support threshold come
    // and go between windows of one dataset, the frequent ones do not.
    std::stable_sort(templates.begin(), templates.end(),
                     [](const auto &a, const auto &b) {
                         return a.support > b.support;
                     });

    QueryLibrary lib;
    for (const tpl::ExtractedTemplate &t : templates) {
        lib.singles.push_back(tpl::templateToQuery(t));
    }
    if (lib.singles.size() > max_singles) {
        lib.singles.resize(max_singles);
    }
    // The OR unions are the seeded part of the library (Section 7.1:
    // random combinations, the same for every system measured).
    Rng rng(mixSeed(0xc0417b0, seed));
    auto combine = [&](size_t k) {
        std::vector<mithril::query::Query> picked;
        for (size_t i = 0; i < k; ++i) {
            picked.push_back(lib.singles[rng.below(lib.singles.size())]);
        }
        return mithril::query::Query::unionOf(picked);
    };
    if (!lib.singles.empty()) {
        for (size_t i = 0; i < pair_count; ++i) {
            lib.pairs.push_back(combine(2));
        }
        for (size_t i = 0; i < eight_count; ++i) {
            lib.eights.push_back(combine(8));
        }
    }
    return lib;
}

} // namespace perfbench
