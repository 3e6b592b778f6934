/**
 * @file
 * The distinct-token set of the open data page (DESIGN.md §16).
 *
 * Every token of every line lands here once per occurrence, so it is
 * the hottest structure on the ingest path. It is a flat
 * open-addressing table over an append-only byte arena: a repeated
 * token costs one hash and one compare, a new one copies its bytes once,
 * and clear() at each page seal forgets the contents in O(1) (slots
 * carry the clear() round that wrote them) while keeping every buffer for
 * the next page.
 *
 * sorted() hands the index the distinct tokens in lexicographic byte
 * order, the order a std::set<std::string> iterates in. The order is
 * part of the stored format: the inverted index's two-hash balancing
 * pushes each token to the lighter of its two entries, so the order in
 * which a page's tokens arrive decides which entry grows, and with it
 * every index page written.
 */
#ifndef MITHRIL_CORE_PAGE_TOKEN_SET_H
#define MITHRIL_CORE_PAGE_TOKEN_SET_H

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace mithril::core {

class PageTokenSet
{
  public:
    PageTokenSet() : slots_(kInitialSlots) {}

    /** Adds @p token (copied); false when it is already present. */
    bool insert(std::string_view token);

    /** Distinct tokens held. */
    size_t size() const { return entries_.size(); }

    /** Table slots (grows at half load; never shrinks). */
    size_t capacity() const { return slots_.size(); }

    /**
     * The distinct tokens in lexicographic order. The views point into
     * the set and stay valid until the next insert() or clear().
     */
    std::span<const std::string_view> sorted();

    /** Forgets every token, keeping the table and arena memory. */
    void clear();

  private:
    /** Table size before the first growth; a power of two. */
    static constexpr size_t kInitialSlots = 1024;

    struct Slot {
        uint32_t stamp = 0;  ///< live when == stamp_
        uint32_t hash = 0;   ///< low bits of the token hash
        uint32_t entry = 0;  ///< index into entries_
    };
    struct Entry {
        uint32_t offset;  ///< first byte in arena_
        uint32_t length;
    };

    std::string_view view(const Entry &e) const
    {
        return {arena_.data() + e.offset, e.length};
    }

    void grow();

    std::vector<Slot> slots_;
    std::vector<Entry> entries_;         ///< insertion order
    std::vector<char> arena_;            ///< token bytes, back to back
    std::vector<std::string_view> sorted_;
    uint32_t stamp_ = 1;  ///< current clear() round
};

} // namespace mithril::core

#endif // MITHRIL_CORE_PAGE_TOKEN_SET_H
