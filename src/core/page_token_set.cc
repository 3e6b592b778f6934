#include "core/page_token_set.h"

#include <algorithm>

#include "common/hash.h"

namespace mithril::core {

bool
PageTokenSet::insert(std::string_view token)
{
    if ((entries_.size() + 1) * 2 > slots_.size()) {
        grow();
    }
    auto hash = static_cast<uint32_t>(hash64(token));
    size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
        Slot &slot = slots_[i];
        if (slot.stamp != stamp_) {
            slot = Slot{stamp_, hash,
                        static_cast<uint32_t>(entries_.size())};
            entries_.push_back(Entry{static_cast<uint32_t>(arena_.size()),
                                     static_cast<uint32_t>(token.size())});
            arena_.insert(arena_.end(), token.begin(), token.end());
            return true;
        }
        if (slot.hash == hash && view(entries_[slot.entry]) == token) {
            return false;
        }
    }
}

void
PageTokenSet::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    size_t mask = slots_.size() - 1;
    for (const Slot &slot : old) {
        if (slot.stamp != stamp_) {
            continue;
        }
        size_t i = slot.hash & mask;
        while (slots_[i].stamp == stamp_) {
            i = (i + 1) & mask;
        }
        slots_[i] = slot;
    }
}

std::span<const std::string_view>
PageTokenSet::sorted()
{
    sorted_.clear();
    for (const Entry &e : entries_) {
        sorted_.push_back(view(e));
    }
    std::sort(sorted_.begin(), sorted_.end());
    return sorted_;
}

void
PageTokenSet::clear()
{
    entries_.clear();
    arena_.clear();
    if (++stamp_ == 0) {
        // Stamp wrap: stale slots could read as live again.
        slots_.assign(slots_.size(), Slot{});
        stamp_ = 1;
    }
}

} // namespace mithril::core
