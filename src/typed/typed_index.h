/**
 * @file
 * Typed-field pseudo-index: per-type posting lists on device pages
 * (DESIGN.md §15).
 *
 * Where the inverted index maps tokens to *data pages*, the typed index
 * maps normalized typed keys (IPs, MACs, hex ids, timestamps) to *line
 * numbers* — the logpi model: a tiny side index that answers "which
 * lines mention this address" without touching the compressed data at
 * all, then maps the hit lines back to the exact data pages to stage.
 *
 * Layout: an in-memory sorted key directory (key -> pending postings +
 * the device pages already holding flushed postings) over CRC-framed
 * 4 KB posting pages:
 *
 *   page   = header { magic 'MTYP', version, payload_len, crc32 }
 *            record*                      (records never split pages)
 *   record = { kind u8, key_len u16, count u32, key bytes,
 *              varint line deltas (first absolute, then gaps) }
 *
 * Durability follows the inverted index exactly: posting pages are
 * written through the store directly (no journaling, no fault draw on
 * the write path — so the crash grid's write ordinals are unchanged),
 * are swept as garbage at mount time, and are rebuilt from the
 * journal-verified surviving data pages. Reads go through the faulted
 * overlapped-read path with CRC verification and the fault plan's
 * retry budget; unrecoverable damage reports integrity_lost and the
 * query degrades to a typed full scan.
 */
#ifndef MITHRIL_TYPED_TYPED_INDEX_H
#define MITHRIL_TYPED_TYPED_INDEX_H

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/ssd_model.h"
#include "typed/predicate.h"
#include "typed/typed_key.h"

namespace mithril::typed {

/** Result of one predicate lookup against the posting lists. */
struct LookupResult {
    /** Matching line numbers, ascending, unique. Complete unless
     *  integrity_lost. */
    std::vector<uint64_t> lines;
    uint64_t pages_read = 0;  ///< typed-index pages fetched
    uint64_t bytes_read = 0;  ///< typed-index bytes fetched
    /** Posting bytes unrecoverable after retries: the line list may be
     *  missing entries and the caller must degrade to a scan. */
    bool integrity_lost = false;
};

/** The typed posting-list index; shares the SsdModel with the data. */
class TypedIndex
{
  public:
    explicit TypedIndex(storage::SsdModel *ssd);

    /** Ingest: extracts every typed key of @p line (0-based global
     *  @p line_no) into the pending posting lists. */
    void addLine(std::string_view line, uint64_t line_no);

    /** addLine() for a line the caller has already split into
     *  @p tokens (the ingest path's single tokenizer pass). */
    void addTokens(std::span<const std::string_view> tokens,
                   uint64_t line_no);

    /** Registers a sealed data page covering lines
     *  [@p first_line, @p first_line + @p line_count) — the directory
     *  that maps posting hits back to data pages. */
    void notePage(storage::PageId page, uint64_t first_line,
                  uint64_t line_count);

    /** Packs all pending postings into posting pages on the device. */
    void flush();

    /** Resolves @p pred against flushed pages + the pending tail. */
    LookupResult lookup(const Predicate &pred);

    /** Data pages holding @p lines (ascending input; sorted unique
     *  output), via the sealed-page directory. */
    std::vector<storage::PageId>
    pagesForLines(std::span<const uint64_t> lines) const;

    /** One sealed data page's line span. */
    struct PageSpan {
        storage::PageId page;
        uint64_t first_line;
        uint64_t line_count;
    };

    /** Sealed-page directory, ascending by first_line. */
    const std::vector<PageSpan> &pageDirectory() const
    {
        return page_dir_;
    }

    /** Distinct keys currently tracked (tests/diagnostics). */
    size_t keyCount() const { return keys_.size(); }

    /** Serializes the in-memory state (key directory, page directory)
     *  for device-image persistence; posting pages live in the shared
     *  SsdModel and persist with it. */
    void serialize(std::vector<uint8_t> *out) const;

    /** Restores state produced by serialize().
     *  @retval kCorruptData malformed blob. */
    Status deserialize(std::span<const uint8_t> in);

    /** Counters: keys, postings, pages written/read, corrupt pages. */
    const StatSet &stats() const { return stats_; }

    /** Joins the unified metric namespace as `typed.*`. */
    void bindMetrics(obs::MetricsRegistry *metrics)
    {
        stats_.bind(metrics, "typed.");
    }

    size_t memoryFootprint() const;

  private:
    struct KeyEntry {
        std::vector<uint64_t> pending;        ///< unflushed line numbers
        std::vector<storage::PageId> pages;   ///< posting pages with
                                              ///< records for this key
    };

    /** On-device posting page header (little-endian fields). */
    struct PageHeader {
        uint32_t magic;        ///< kTypedMagic
        uint32_t version;      ///< kTypedVersion
        uint32_t payload_len;  ///< record bytes after the header
        uint32_t crc;          ///< CRC-32 of the payload
    };
    static constexpr uint32_t kTypedMagic = 0x5059544d;  // 'MTYP'
    static constexpr uint32_t kTypedVersion = 1;

    void flushPageBuffer(std::vector<uint8_t> *payload,
                         std::vector<const TypedKey *> *page_keys);

    storage::SsdModel *ssd_;
    std::map<TypedKey, KeyEntry> keys_;
    TypedKey scratch_key_;  ///< extraction buffer reused across lines
    std::vector<PageSpan> page_dir_;
    StatSet stats_;
};

} // namespace mithril::typed

#endif // MITHRIL_TYPED_TYPED_INDEX_H
