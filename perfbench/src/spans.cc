#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "bench.h"

namespace perfbench {

double
Spans::Scope::end()
{
    if (owner_ == nullptr) {
        return 0.0;
    }
    Rec &r = owner_->recs_[index_];
    r.end = nowSeconds();
    // Spans close in LIFO order; tolerate an out-of-order close by
    // removing this span wherever it sits on the open stack.
    auto &open = owner_->open_;
    auto it = std::find(open.rbegin(), open.rend(), index_);
    if (it != open.rend()) {
        open.erase(std::next(it).base());
    }
    owner_ = nullptr;
    return r.end - r.start;
}

Spans::Scope
Spans::open(std::string_view name, uint64_t id)
{
    if (!enabled_) {
        return Scope();
    }
    int64_t parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    recs_.push_back(Rec{std::string(name), id, parent, nowSeconds(), 0.0});
    open_.push_back(recs_.size() - 1);
    return Scope(this, recs_.size() - 1);
}

std::vector<double>
Spans::selfTimes() const
{
    std::vector<double> self(recs_.size());
    for (size_t i = 0; i < recs_.size(); ++i) {
        self[i] = recs_[i].end - recs_[i].start;
    }
    for (const Rec &r : recs_) {
        if (r.parent >= 0) {
            self[static_cast<size_t>(r.parent)] -= r.end - r.start;
        }
    }
    return self;
}

bool
Spans::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    double t0 = recs_.empty() ? 0.0 : recs_.front().start;
    std::vector<double> self = selfTimes();
    for (size_t i = 0; i < recs_.size(); ++i) {
        const Rec &r = recs_[i];
        std::fprintf(f,
                     "{\"index\":%zu,\"name\":\"%s\",\"id\":%llu,"
                     "\"parent\":%lld,\"start_us\":%.3f,\"end_us\":%.3f,"
                     "\"self_us\":%.3f}\n",
                     i, r.name.c_str(),
                     static_cast<unsigned long long>(r.id),
                     static_cast<long long>(r.parent),
                     (r.start - t0) * 1e6, (r.end - t0) * 1e6,
                     self[i] * 1e6);
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
