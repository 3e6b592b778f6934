/**
 * @file
 * LZAH — "LZ Aligned Header" — the paper's log- and hardware-optimized
 * compression algorithm (Section 5).
 *
 * LZAH derives from LZRW1 but restructures it around a hardware datapath:
 *
 *  - The input is consumed as fixed 16-byte *words* (one word per clock
 *    cycle in hardware), never at sub-word offsets, removing the
 *    variable-amount shifters a byte-granular LZ needs.
 *  - When a word contains a newline, the useful content ends at the
 *    newline and the window realigns to the byte after it; the stored
 *    word is zero-padded past the newline. This recovers compression
 *    lost to word alignment, because log patterns repeat at the same
 *    offsets *within* lines.
 *  - A hash table of recently seen words (16 KB = 1024 x 16 B) turns a
 *    repeated word into a 2-byte table index instead of a 16-byte
 *    literal.
 *  - Header bits (match/literal flags) are collected 128 at a time into
 *    a word-aligned header block per *chunk*, so the decoder reads one
 *    header word and then parses 128 payloads without bit-level
 *    shifting.
 *  - Chunks never span storage pages, and the hash table resets per
 *    page, so every 4 KB page decompresses independently — the property
 *    the index-driven selective-read path relies on.
 *
 * Input restrictions (inherent to the scheme, acceptable for logs): the
 * text must not contain NUL bytes, and '\n' is the line terminator.
 *
 * Two decoders are provided: a fast functional one, and a cycle-counting
 * model (LzahDecompressorModel) that emits exactly one word per modeled
 * cycle, reproducing the deterministic 3.2 GB/s @ 200 MHz bound of
 * Section 7.3.
 */
#ifndef MITHRIL_COMPRESS_LZAH_H
#define MITHRIL_COMPRESS_LZAH_H

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/compressor.h"

namespace mithril::compress {

/** Datapath word size in bytes; fixed by the hardware design. */
constexpr size_t kLzahWord = 16;

/** Header-payload pairs per chunk: one word of header bits. */
constexpr size_t kLzahChunkItems = 128;

/** Hash table entries (16 KB / 16 B per entry). */
constexpr size_t kLzahTableEntries = 1024;

/** A 16-byte datapath word. */
using Word = std::array<uint8_t, kLzahWord>;

/**
 * Hashes a zero-padded word to a table index.
 *
 * XOR-fold of the four 32-bit lanes with multiplicative mixing — the
 * kind of function that is one LUT level deep per lane in hardware.
 */
uint32_t lzahHash(const Word &w);

/** LZAH codec (whole-buffer framing on top of the page encoder). */
class Lzah : public Compressor
{
  public:
    std::string name() const override { return "LZAH"; }
    Bytes compress(ByteView input) const override;
    Status decompress(ByteView input, Bytes *output) const override;
};

/** Outcome of LzahPageEncoder::addLine. */
enum class AddLineResult {
    kRejected,           ///< line longer than kMaxLineBytes
    kAppended,           ///< line joined the open page
    kSealedAndAppended,  ///< open page sealed; line opened a new page
};

/**
 * Streaming page encoder used by the ingest path.
 *
 * Lines go in; completed 4 KB compressed pages come out. Every page
 * holds a whole number of input lines and decompresses independently.
 */
class LzahPageEncoder
{
  public:
    LzahPageEncoder();

    /**
     * Longest line (excluding terminator) a page can always hold.
     * Lines longer than this are rejected by addLine().
     */
    static constexpr size_t kMaxLineBytes = 3500;

    /**
     * Appends @p line (without '\n'; the terminator is added
     * internally). If the line does not fit in the open page, the page
     * is sealed first and the line starts the next page — the
     * distinction the return value reports, so ingest can attribute
     * tokens to the right page.
     */
    AddLineResult addLine(std::string_view line);

    /** Seals the open page if it has content. */
    void flush();

    /** Completed pages, each exactly storage page sized (4096 B). */
    std::vector<Bytes> &pages() { return pages_; }

    /** Total uncompressed bytes consumed (including '\n' terminators). */
    uint64_t rawBytes() const { return raw_bytes_; }

    /**
     * Exact encoded size of the open page as it would seal now: the
     * page header word, every full chunk, and the open chunk's header
     * word plus its word-aligned payload. Kept current as items are
     * added, so fitting a line costs its own words, not a pass over
     * the page.
     */
    size_t openPageBytes() const;

  private:
    struct PendingItem {
        bool is_match;
        uint16_t index;    // valid when is_match
        Word literal;      // valid when !is_match
    };

    void sealPage();

    /**
     * Encodes one line into pending items, mutating the hash table and
     * the running size. With @p record_undo, overwritten (index, old
     * word) pairs go to undo_ so the caller can roll the table back.
     */
    void encodeLineWords(std::string_view line, bool record_undo);

    std::vector<Word> table_;
    std::vector<PendingItem> items_;      // items of the open page
    uint32_t decompressed_bytes_ = 0;     // padded word bytes in open page
    size_t full_chunk_bytes_ = 0;         // encoded bytes of full chunks
    size_t open_chunk_payload_ = 0;       // payload bytes of open chunk
    std::vector<std::pair<uint32_t, Word>> undo_;  // reused per line
    uint64_t raw_bytes_ = 0;
    std::vector<Bytes> pages_;
};

/**
 * Decodes one compressed page (4 KB buffer from LzahPageEncoder).
 *
 * @param page        the compressed page bytes
 * @param padded      if true, output words keep their zero padding after
 *                    newlines ("line-aligned words"), which is the form
 *                    the hardware tokenizer consumes; if false, padding
 *                    is stripped and the exact original text returns.
 * @param output      decoded bytes are appended
 * @param word_count  if non-null, incremented by the number of words the
 *                    hardware decoder would emit (= modeled cycles).
 */
Status lzahDecodePage(ByteView page, bool padded, Bytes *output,
                      uint64_t *word_count = nullptr);

/**
 * Cheap integrity check of one compressed page without decoding it:
 * header magic, byte/item consistency, and the payload CRC-32 the
 * encoder stamps into the header. Returns kDataLoss on a CRC mismatch
 * (damaged payload), kCorruptData on structural header damage.
 *
 * The query path runs this on every page as it is staged for the
 * accelerator, so a flipped bit is caught (and the read retried)
 * before the filter pipeline ever sees the page.
 */
Status lzahVerifyPage(ByteView page);

/**
 * Cycle-counting decompressor model.
 *
 * In hardware the LZAH decoder emits exactly one 16-byte word per cycle
 * regardless of content (Section 7.3: deterministic 3.2 GB/s at
 * 200 MHz). The model decodes pages functionally while accumulating the
 * cycle count the RTL would take.
 */
class LzahDecompressorModel
{
  public:
    /** Decodes a page in padded (tokenizer-ready) form. */
    Status decodePage(ByteView page, Bytes *output);

    /** Cycles consumed so far (one per emitted word). */
    uint64_t cycles() const { return cycles_; }

    /** Decompressed (padded) bytes emitted so far. */
    uint64_t bytesOut() const { return bytes_out_; }

    void reset() { cycles_ = 0; bytes_out_ = 0; }

  private:
    uint64_t cycles_ = 0;
    uint64_t bytes_out_ = 0;
};

} // namespace mithril::compress

#endif // MITHRIL_COMPRESS_LZAH_H
