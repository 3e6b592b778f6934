#include "common/stats.h"

#include <algorithm>
#include <cstdio>

#include "common/status.h"

namespace mithril {

void
Distribution::record(double value)
{
    if (count_ == 0) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    sum_ += value;
    ++count_;
}

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

void
StatSet::bind(CounterSink *sink, std::string prefix)
{
    sink_ = sink;
    prefix_ = std::move(prefix);
    for (auto &[name, s] : counters_) {
        s.cell = sink_ != nullptr ? &sink_->counterCell(prefix_ + name)
                                  : nullptr;
        // Replay what accumulated before binding so the unified
        // namespace never under-counts (ingest can precede binding).
        if (s.cell != nullptr && s.value != 0) {
            s.cell->add(s.value);
        }
    }
}

StatSet::Slot &
StatSet::slot(std::string_view name)
{
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_.emplace(std::string(name), Slot{}).first;
        if (sink_ != nullptr) {
            it->second.cell = &sink_->counterCell(prefix_ + it->first);
        }
    }
    return it->second;
}

uint64_t
StatSet::get(std::string_view name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value;
}

std::map<std::string, uint64_t>
StatSet::all() const
{
    std::map<std::string, uint64_t> out;
    for (const auto &[name, s] : counters_) {
        out.emplace(name, s.value);
    }
    return out;
}

std::string
StatSet::toString() const
{
    std::string out;
    for (const auto &[name, s] : counters_) {
        out += name;
        out += ' ';
        out += std::to_string(s.value);
        out += '\n';
    }
    return out;
}

} // namespace mithril
