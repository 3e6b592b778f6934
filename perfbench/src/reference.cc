#include "reference.h"

#include <algorithm>

namespace perfbench {

namespace {

bool
isSpace(char ch)
{
    return ch == ' ' || ch == '\t' || ch == '\r';
}

uint64_t
mixBits(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/** A decimal of @p min_width to @p max_width digits, digits only. */
bool
parseDigits(std::string_view s, size_t min_width, size_t max_width,
            unsigned *out)
{
    if (s.size() < min_width || s.size() > max_width) {
        return false;
    }
    unsigned v = 0;
    for (char ch : s) {
        if (ch < '0' || ch > '9') {
            return false;
        }
        v = v * 10 + static_cast<unsigned>(ch - '0');
    }
    *out = v;
    return true;
}

} // namespace

std::vector<std::string_view>
refTokens(std::string_view line)
{
    std::vector<std::string_view> out;
    size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && isSpace(line[i])) {
            ++i;
        }
        size_t start = i;
        while (i < line.size() && !isSpace(line[i])) {
            ++i;
        }
        if (i > start) {
            out.push_back(line.substr(start, i - start));
        }
    }
    return out;
}

RefIndex::RefIndex(const Corpus &c) : lines_(c.lines.size())
{
    for (size_t i = 0; i < c.lines.size(); ++i) {
        for (std::string_view tok : refTokens(c.lines[i])) {
            std::vector<uint32_t> &list = map_[tok];
            if (list.empty() || list.back() != i) {
                list.push_back(static_cast<uint32_t>(i));
            }
        }
    }
}

const std::vector<uint32_t> &
RefIndex::postings(std::string_view token) const
{
    auto it = map_.find(token);
    return it == map_.end() ? empty_ : it->second;
}

std::vector<uint64_t>
RefIndex::eval(const mithril::query::Query &q, uint64_t limit) const
{
    limit = std::min(limit, lines_);
    std::vector<uint64_t> result;
    for (const mithril::query::IntersectionSet &set : q.sets()) {
        std::vector<const std::vector<uint32_t> *> pos;
        std::vector<const std::vector<uint32_t> *> neg;
        for (const mithril::query::Term &t : set.terms) {
            if (t.isTyped()) {
                continue;
            }
            (t.negated ? neg : pos).push_back(&postings(t.token));
        }
        std::vector<uint64_t> lines;
        if (pos.empty()) {
            for (uint64_t i = 0; i < limit; ++i) {
                lines.push_back(i);
            }
        } else {
            std::sort(pos.begin(), pos.end(),
                      [](auto *a, auto *b) { return a->size() < b->size(); });
            for (uint32_t l : *pos[0]) {
                if (l >= limit) {
                    break;
                }
                bool all = true;
                for (size_t k = 1; k < pos.size() && all; ++k) {
                    all = std::binary_search(pos[k]->begin(), pos[k]->end(),
                                             l);
                }
                if (all) {
                    lines.push_back(l);
                }
            }
        }
        std::erase_if(lines, [&](uint64_t l) {
            for (const std::vector<uint32_t> *n : neg) {
                if (std::binary_search(n->begin(), n->end(),
                                       static_cast<uint32_t>(l))) {
                    return true;
                }
            }
            return false;
        });
        std::vector<uint64_t> merged;
        std::set_union(result.begin(), result.end(), lines.begin(),
                       lines.end(), std::back_inserter(merged));
        result = std::move(merged);
    }
    return result;
}

uint64_t
fnv64(std::string_view s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (char ch : s) {
        h ^= static_cast<uint8_t>(ch);
        h *= 0x100000001b3ull;
    }
    return h;
}

void
Digest::add(std::string_view line)
{
    uint64_t h = fnv64(line);
    ++count;
    sum += h;
    mixed += mixBits(h);
}

Digest
digestOf(const Corpus &c, const std::vector<uint64_t> &lines)
{
    Digest d;
    for (uint64_t l : lines) {
        d.add(c.lines[l]);
    }
    return d;
}

uint64_t
epoch2000(unsigned mon, unsigned day, unsigned hh, unsigned mm,
          unsigned ss)
{
    // Days from 1970-01-01 to 2000-01-01, then the days before @p mon
    // in the leap year 2000.
    static const unsigned kBefore[12] = {0,   31,  60,  91,  121, 152,
                                         182, 213, 244, 274, 305, 335};
    uint64_t days = 10957 + kBefore[mon - 1] + (day - 1);
    return days * 86400 + hh * 3600ull + mm * 60ull + ss;
}

bool
syslogHeaderTime(std::string_view line, uint64_t *epoch_s)
{
    static const char *kMonths[12] = {"Jan", "Feb", "Mar", "Apr",
                                      "May", "Jun", "Jul", "Aug",
                                      "Sep", "Oct", "Nov", "Dec"};
    std::vector<std::string_view> toks = refTokens(line);
    if (toks.size() < 7) {
        return false;
    }
    unsigned mon = 0;
    for (unsigned i = 0; i < 12; ++i) {
        if (toks[4] == kMonths[i]) {
            mon = i + 1;
        }
    }
    unsigned day = 0, hh = 0, mm = 0, ss = 0;
    std::string_view hms = toks[6];
    if (mon == 0 || !parseDigits(toks[5], 1, 2, &day) || day < 1 ||
        day > 31 || hms.size() != 8 || hms[2] != ':' || hms[5] != ':' ||
        !parseDigits(hms.substr(0, 2), 2, 2, &hh) ||
        !parseDigits(hms.substr(3, 2), 2, 2, &mm) ||
        !parseDigits(hms.substr(6, 2), 2, 2, &ss) || hh > 23 || mm > 59 ||
        ss > 60) {
        return false;
    }
    *epoch_s = epoch2000(mon, day, hh, mm, ss);
    return true;
}

std::vector<uint64_t>
intersect(const std::vector<uint64_t> &a, const std::vector<uint64_t> &b)
{
    std::vector<uint64_t> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
}

} // namespace perfbench
