#include "obs/metrics.h"

#include <algorithm>

namespace mithril::obs {

std::string
MetricsRegistry::fullName(std::string_view name,
                          std::initializer_list<Label> labels)
{
    std::string full(name);
    if (labels.size() != 0) {
        std::vector<Label> sorted(labels);
        std::sort(sorted.begin(), sorted.end());
        full += '{';
        bool first = true;
        for (const Label &l : sorted) {
            if (!first) {
                full += ',';
            }
            first = false;
            full += l.first;
            full += '=';
            full += l.second;
        }
        full += '}';
    }
    return full;
}

Counter &
MetricsRegistry::counter(std::string_view name,
                         std::initializer_list<Label> labels)
{
    MutexLock lock(mu_);
    if (labels.size() == 0) {
        return findOrCreateLocked(
            counters_, name, [] { return std::make_unique<Counter>(); });
    }
    return findOrCreateLocked(
        counters_, fullName(name, labels),
        [] { return std::make_unique<Counter>(); });
}

Gauge &
MetricsRegistry::gauge(std::string_view name,
                       std::initializer_list<Label> labels)
{
    MutexLock lock(mu_);
    if (labels.size() == 0) {
        return findOrCreateLocked(
            gauges_, name, [] { return std::make_unique<Gauge>(); });
    }
    return findOrCreateLocked(
        gauges_, fullName(name, labels),
        [] { return std::make_unique<Gauge>(); });
}

Histogram &
MetricsRegistry::quantileHistogram(std::string_view name,
                                   std::initializer_list<Label> labels)
{
    auto make = [] { return std::make_unique<Histogram>(); };
    MutexLock lock(mu_);
    if (labels.size() == 0) {
        return findOrCreateLocked(quantile_histograms_, name, make);
    }
    return findOrCreateLocked(quantile_histograms_,
                              fullName(name, labels), make);
}

uint64_t
MetricsRegistry::counterValue(std::string_view name) const
{
    MutexLock lock(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second->value();
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    MutexLock lock(mu_);
    for (const auto &[name, c] : counters_) {
        snap.counters.emplace(name, c->value());
    }
    for (const auto &[name, g] : gauges_) {
        snap.gauges.emplace(name, g->value());
    }
    for (const auto &[name, h] : quantile_histograms_) {
        MetricsSnapshot::QuantileHistogramData data;
        data.count = h->count();
        data.sum = h->sum();
        data.min = h->min();
        data.max = h->max();
        data.quantiles = h->quantiles();
        for (size_t i = 0; i < Histogram::kBuckets; ++i) {
            uint64_t c = h->bucketCount(i);
            if (c != 0) {
                data.buckets.emplace_back(Histogram::bucketLo(i), c);
            }
        }
        snap.quantile_histograms.emplace(name, std::move(data));
    }
    return snap;
}

} // namespace mithril::obs
