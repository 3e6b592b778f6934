#include "common/stats.h"

#include <algorithm>
#include <cstdio>

#include "common/status.h"

namespace mithril {

Histogram::Histogram(std::vector<double> edges)
    : edges_(std::move(edges)), counts_(edges_.size() + 1, 0)
{
    MITHRIL_ASSERT(!edges_.empty());
    MITHRIL_ASSERT(std::is_sorted(edges_.begin(), edges_.end()));
}

void
Histogram::record(double value)
{
    size_t i = 0;
    while (i < edges_.size() && value >= edges_[i]) {
        ++i;
    }
    ++counts_[i];
    ++total_;
}

std::string
Histogram::bucketLabel(size_t i) const
{
    char buf[64];
    if (i == 0) {
        std::snprintf(buf, sizeof buf, "< %.3g", edges_[0]);
    } else if (i == edges_.size()) {
        std::snprintf(buf, sizeof buf, ">= %.3g", edges_.back());
    } else {
        std::snprintf(buf, sizeof buf, "[%.3g, %.3g)",
                      edges_[i - 1], edges_[i]);
    }
    return buf;
}

std::string
Histogram::render(size_t bar_width) const
{
    uint64_t peak = 1;
    for (uint64_t c : counts_) {
        peak = std::max(peak, c);
    }
    std::string out;
    for (size_t i = 0; i < counts_.size(); ++i) {
        char line[160];
        size_t bar = counts_[i] * bar_width / peak;
        std::snprintf(line, sizeof line, "%16s |%-*s| %llu\n",
                      bucketLabel(i).c_str(), static_cast<int>(bar_width),
                      std::string(bar, '#').c_str(),
                      static_cast<unsigned long long>(counts_[i]));
        out += line;
    }
    return out;
}

} // namespace mithril
