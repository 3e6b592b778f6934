#include "typed/typed_index.h"

#include <algorithm>
#include <cstring>

#include "common/bits.h"
#include "common/hash.h"
#include "common/text.h"
#include "typed/extract.h"

namespace mithril::typed {

namespace {

constexpr size_t kHeaderSize = 16;
constexpr size_t kMaxPayload = storage::kPageSize - kHeaderSize;

/** LEB128 varint append. */
void
putVarint(std::vector<uint8_t> *out, uint64_t value)
{
    while (value >= 0x80) {
        out->push_back(static_cast<uint8_t>(value) | 0x80);
        value >>= 7;
    }
    out->push_back(static_cast<uint8_t>(value));
}

/** LEB128 varint read; false on truncation/overlong input. */
bool
getVarint(std::span<const uint8_t> payload, size_t *pos, uint64_t *out)
{
    uint64_t value = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (*pos >= payload.size()) {
            return false;
        }
        uint8_t byte = payload[(*pos)++];
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            *out = value;
            return true;
        }
    }
    return false;
}

/** Bytes one posting record occupies for @p key with @p count lines
 *  encoded as @p delta_bytes of varints. */
size_t
recordSize(size_t key_len, size_t delta_bytes)
{
    return 1 + 2 + 4 + key_len + delta_bytes;
}

} // namespace

TypedIndex::Counters::Counters(obs::MetricsRegistry &m)
    : postings(m.counter("typed.postings")),
      pages_written(m.counter("typed.pages_written")),
      bytes_written(m.counter("typed.bytes_written")),
      records_flushed(m.counter("typed.records_flushed")),
      lookups(m.counter("typed.lookups")),
      page_crc_recoveries(m.counter("typed.page_crc_recoveries")),
      pages_read(m.counter("typed.pages_read")),
      corrupt_pages(m.counter("typed.corrupt_pages")),
      lines_returned(m.counter("typed.lines_returned"))
{
}

TypedIndex::TypedIndex(storage::SsdModel *ssd)
    : ssd_(ssd), counters_(ssd->metrics())
{
}

void
TypedIndex::addLine(std::string_view line, uint64_t line_no)
{
    std::vector<std::string_view> tokens = splitTokens(line);
    addTokens(tokens, line_no);
}

void
TypedIndex::addTokens(std::span<const std::string_view> tokens,
                      uint64_t line_no)
{
    uint64_t postings = 0;
    extractTokens(tokens, &scratch_key_, [&](const TypedKey &key) {
        KeyEntry &entry = keys_[key];
        if (!entry.pending.empty() && entry.pending.back() == line_no) {
            return; // one posting per (key, line)
        }
        entry.pending.push_back(line_no);
        ++postings;
    });
    if (postings > 0) {
        counters_.postings.add(postings);
    }
}

void
TypedIndex::notePage(storage::PageId page, uint64_t first_line,
                     uint64_t line_count)
{
    page_dir_.push_back(PageSpan{page, first_line, line_count});
}

void
TypedIndex::flushPageBuffer(std::vector<uint8_t> *payload,
                            std::vector<const TypedKey *> *page_keys)
{
    if (payload->empty()) {
        return;
    }
    storage::PageId id = ssd_->allocate();
    auto page = ssd_->store().mutablePage(id);
    std::memset(page.data(), 0, page.size());
    PageHeader header{kTypedMagic, kTypedVersion,
                      static_cast<uint32_t>(payload->size()),
                      crc32(payload->data(), payload->size())};
    std::memcpy(page.data(), &header, sizeof header);
    std::memcpy(page.data() + kHeaderSize, payload->data(),
                payload->size());
    for (const TypedKey *key : *page_keys) {
        std::vector<storage::PageId> &pages = keys_[*key].pages;
        if (pages.empty() || pages.back() != id) {
            pages.push_back(id);
        }
    }
    counters_.pages_written.add();
    counters_.bytes_written.add(storage::kPageSize);
    payload->clear();
    page_keys->clear();
}

void
TypedIndex::flush()
{
    std::vector<uint8_t> payload;
    std::vector<const TypedKey *> page_keys;
    // std::map iteration is key-sorted: page contents are a
    // deterministic function of the postings alone.
    for (auto &[key, entry] : keys_) {
        size_t next = 0;
        while (next < entry.pending.size()) {
            // Encode as many of this key's remaining postings as fit
            // beside the current payload; records never span pages.
            std::vector<uint8_t> deltas;
            size_t count = 0;
            uint64_t prev = 0;
            // Keys are bounded (longest is a 64-nibble hex id), so an
            // empty page always fits a record header plus one 10-byte
            // worst-case varint.
            size_t header_cost = recordSize(key.bytes.size(), 0);
            if (header_cost + 10 > kMaxPayload - payload.size()) {
                flushPageBuffer(&payload, &page_keys);
            }
            size_t budget = kMaxPayload - payload.size() - header_cost;
            for (size_t i = next; i < entry.pending.size(); ++i) {
                size_t before = deltas.size();
                putVarint(&deltas, count == 0
                                       ? entry.pending[i]
                                       : entry.pending[i] - prev);
                if (deltas.size() > budget) {
                    deltas.resize(before);
                    break;
                }
                prev = entry.pending[i];
                ++count;
            }
            MITHRIL_ASSERT(count > 0);
            payload.push_back(static_cast<uint8_t>(key.kind));
            putLe(payload, static_cast<uint16_t>(key.bytes.size()));
            putLe(payload, static_cast<uint32_t>(count));
            payload.insert(payload.end(), key.bytes.begin(),
                           key.bytes.end());
            payload.insert(payload.end(), deltas.begin(), deltas.end());
            page_keys.push_back(&key);
            counters_.records_flushed.add();
            next += count;
            if (payload.size() + recordSize(1, 10) > kMaxPayload) {
                flushPageBuffer(&payload, &page_keys);
            }
        }
        entry.pending.clear();
    }
    flushPageBuffer(&payload, &page_keys);
}

LookupResult
TypedIndex::lookup(const Predicate &pred)
{
    LookupResult result;
    counters_.lookups.add();
    if (!pred.active()) {
        return result;
    }

    // Sorted-map range scan over [lo, hi] of the predicate's kind —
    // this is why the key encoding must be order-preserving.
    std::vector<storage::PageId> needed;
    TypedKey lo_key{pred.kind, pred.lo};
    for (auto it = keys_.lower_bound(lo_key); it != keys_.end(); ++it) {
        if (it->first.kind != pred.kind || it->first.bytes > pred.hi) {
            break;
        }
        result.lines.insert(result.lines.end(),
                            it->second.pending.begin(),
                            it->second.pending.end());
        needed.insert(needed.end(), it->second.pages.begin(),
                      it->second.pages.end());
    }
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()),
                 needed.end());

    // CRC-driven re-reads only help when a fault plan can change the
    // bytes between attempts (same convention as the inverted index).
    unsigned max_rereads = ssd_->faultPlan() != nullptr
                               ? ssd_->faultPlan()->config().max_retries
                               : 0;

    for (storage::PageId id : needed) {
        std::vector<uint8_t> bytes;
        auto readable = [&](const std::vector<uint8_t> &buf,
                            PageHeader *header) {
            if (buf.size() < kHeaderSize) {
                return false;
            }
            std::memcpy(header, buf.data(), sizeof *header);
            return header->magic == kTypedMagic
                   && header->version == kTypedVersion
                   && header->payload_len <= kMaxPayload
                   && header->crc == crc32(buf.data() + kHeaderSize,
                                           header->payload_len);
        };
        PageHeader header{};
        Status st = ssd_->readOverlapped(id, storage::Link::kExternal,
                                         &bytes);
        bool ok = st.isOk() && readable(bytes, &header);
        for (unsigned r = 0; !ok && r < max_rereads; ++r) {
            if (!ssd_->rereadPage(id, storage::Link::kExternal, &bytes)
                     .isOk()) {
                break;
            }
            ok = readable(bytes, &header);
            if (ok) {
                counters_.page_crc_recoveries.add();
            }
        }
        result.pages_read += 1;
        result.bytes_read += storage::kPageSize;
        counters_.pages_read.add();
        if (!ok) {
            counters_.corrupt_pages.add();
            result.integrity_lost = true;
            continue;
        }

        std::span<const uint8_t> payload(bytes.data() + kHeaderSize,
                                         header.payload_len);
        size_t pos = 0;
        while (pos < payload.size()) {
            if (payload.size() - pos < 7) {
                break; // zero padding after the last record
            }
            auto kind = static_cast<TypedKind>(payload[pos]);
            uint16_t key_len = getLe<uint16_t>(&payload[pos + 1]);
            uint32_t count = getLe<uint32_t>(&payload[pos + 3]);
            pos += 7;
            if (kind == TypedKind::kNone || count == 0
                || payload.size() - pos < key_len) {
                break;
            }
            std::span<const uint8_t> key_bytes =
                payload.subspan(pos, key_len);
            pos += key_len;
            std::vector<uint8_t> key_vec(key_bytes.begin(),
                                         key_bytes.end());
            bool match = kind == pred.kind && key_vec >= pred.lo
                         && key_vec <= pred.hi;
            uint64_t prev = 0;
            bool bad = false;
            for (uint32_t i = 0; i < count; ++i) {
                uint64_t delta = 0;
                if (!getVarint(payload, &pos, &delta)) {
                    bad = true;
                    break;
                }
                prev = i == 0 ? delta : prev + delta;
                if (match) {
                    result.lines.push_back(prev);
                }
            }
            if (bad) {
                // Truncated record despite a clean CRC: structural
                // corruption; treat like an unreadable page.
                counters_.corrupt_pages.add();
                result.integrity_lost = true;
                break;
            }
        }
    }

    std::sort(result.lines.begin(), result.lines.end());
    result.lines.erase(
        std::unique(result.lines.begin(), result.lines.end()),
        result.lines.end());
    counters_.lines_returned.add(result.lines.size());
    return result;
}

std::vector<storage::PageId>
TypedIndex::pagesForLines(std::span<const uint64_t> lines) const
{
    std::vector<storage::PageId> pages;
    for (uint64_t line : lines) {
        // page_dir_ is ascending by first_line (pages seal in order).
        auto it = std::upper_bound(
            page_dir_.begin(), page_dir_.end(), line,
            [](uint64_t l, const PageSpan &span) {
                return l < span.first_line;
            });
        if (it == page_dir_.begin()) {
            continue;
        }
        --it;
        if (line < it->first_line + it->line_count) {
            if (pages.empty() || pages.back() != it->page) {
                pages.push_back(it->page);
            }
        }
    }
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    return pages;
}

void
TypedIndex::serialize(std::vector<uint8_t> *out) const
{
    putLe(*out, kTypedMagic);
    putLe(*out, kTypedVersion);
    putLe(*out, static_cast<uint64_t>(keys_.size()));
    for (const auto &[key, entry] : keys_) {
        out->push_back(static_cast<uint8_t>(key.kind));
        putLe(*out, static_cast<uint32_t>(key.bytes.size()));
        out->insert(out->end(), key.bytes.begin(), key.bytes.end());
        putLe(*out, static_cast<uint64_t>(entry.pending.size()));
        for (uint64_t line : entry.pending) {
            putLe(*out, line);
        }
        putLe(*out, static_cast<uint64_t>(entry.pages.size()));
        for (storage::PageId page : entry.pages) {
            putLe(*out, page);
        }
    }
    putLe(*out, static_cast<uint64_t>(page_dir_.size()));
    for (const PageSpan &span : page_dir_) {
        putLe(*out, span.page);
        putLe(*out, span.first_line);
        putLe(*out, span.line_count);
    }
}

Status
TypedIndex::deserialize(std::span<const uint8_t> in)
{
    size_t pos = 0;
    auto need = [&](size_t n) { return in.size() - pos >= n; };
    auto fail = [] {
        return Status::corruptData("typed index blob malformed");
    };
    if (!need(16) || getLe<uint32_t>(&in[pos]) != kTypedMagic
        || getLe<uint32_t>(&in[pos + 4]) != kTypedVersion) {
        return fail();
    }
    uint64_t key_count = getLe<uint64_t>(&in[pos + 8]);
    pos += 16;
    std::map<TypedKey, KeyEntry> keys;
    for (uint64_t k = 0; k < key_count; ++k) {
        if (!need(5)) {
            return fail();
        }
        TypedKey key;
        key.kind = static_cast<TypedKind>(in[pos]);
        uint32_t len = getLe<uint32_t>(&in[pos + 1]);
        pos += 5;
        if (!need(len)) {
            return fail();
        }
        key.bytes.assign(in.begin() + static_cast<ptrdiff_t>(pos),
                         in.begin() + static_cast<ptrdiff_t>(pos + len));
        pos += len;
        KeyEntry entry;
        if (!need(8)) {
            return fail();
        }
        uint64_t pending = getLe<uint64_t>(&in[pos]);
        pos += 8;
        if (!need(pending * 8)) {
            return fail();
        }
        entry.pending.reserve(pending);
        for (uint64_t i = 0; i < pending; ++i) {
            entry.pending.push_back(getLe<uint64_t>(&in[pos]));
            pos += 8;
        }
        if (!need(8)) {
            return fail();
        }
        uint64_t pages = getLe<uint64_t>(&in[pos]);
        pos += 8;
        if (!need(pages * 8)) {
            return fail();
        }
        entry.pages.reserve(pages);
        for (uint64_t i = 0; i < pages; ++i) {
            entry.pages.push_back(getLe<uint64_t>(&in[pos]));
            pos += 8;
        }
        keys.emplace(std::move(key), std::move(entry));
    }
    if (!need(8)) {
        return fail();
    }
    uint64_t dir_count = getLe<uint64_t>(&in[pos]);
    pos += 8;
    if (!need(dir_count * 24)) {
        return fail();
    }
    std::vector<PageSpan> dir;
    dir.reserve(dir_count);
    for (uint64_t i = 0; i < dir_count; ++i) {
        PageSpan span{};
        span.page = getLe<uint64_t>(&in[pos]);
        span.first_line = getLe<uint64_t>(&in[pos + 8]);
        span.line_count = getLe<uint64_t>(&in[pos + 16]);
        pos += 24;
        dir.push_back(span);
    }
    keys_ = std::move(keys);
    page_dir_ = std::move(dir);
    return Status::ok();
}

size_t
TypedIndex::memoryFootprint() const
{
    size_t total = sizeof(*this)
                   + page_dir_.capacity() * sizeof(PageSpan);
    for (const auto &[key, entry] : keys_) {
        total += sizeof(TypedKey) + key.bytes.capacity()
                 + sizeof(KeyEntry)
                 + entry.pending.capacity() * sizeof(uint64_t)
                 + entry.pages.capacity() * sizeof(storage::PageId);
    }
    return total;
}

} // namespace mithril::typed
