#include "compress/lzah.h"

#include <cstddef>
#include <cstring>

#include "common/bits.h"
#include "common/hash.h"
#include "storage/page.h"

namespace mithril::compress {

namespace {

constexpr uint32_t kPageMagic = 0x48415a4c;  // "LZAH"
constexpr size_t kPageBytes = storage::kPageSize;
constexpr size_t kPageHeaderBytes = kLzahWord;

/** Per-page header occupying the first datapath word. */
struct PageHeader {
    uint32_t item_count;
    uint32_t decompressed_bytes;  // padded (word-aligned) form
    uint32_t magic;
    uint32_t crc;                 // CRC-32 of the payload (bytes 16..)
};
static_assert(sizeof(PageHeader) == kPageHeaderBytes);

/** CRC-32 of everything after the header word. The header fields
 *  themselves are covered by the magic and the byte/item consistency
 *  check, so a flip anywhere in the page is detected. */
uint32_t
pagePayloadCrc(ByteView page)
{
    return crc32(page.data() + kPageHeaderBytes,
                 page.size() - kPageHeaderBytes);
}

} // namespace

uint32_t
lzahHash(const Word &w)
{
    // Four 32-bit lanes, one multiplier each, XOR-folded: shallow enough
    // for a single pipeline stage in hardware.
    uint32_t l0, l1, l2, l3;
    std::memcpy(&l0, w.data() + 0, 4);
    std::memcpy(&l1, w.data() + 4, 4);
    std::memcpy(&l2, w.data() + 8, 4);
    std::memcpy(&l3, w.data() + 12, 4);
    uint32_t h = l0 * 2654435761u ^ l1 * 2246822519u ^
                 l2 * 3266489917u ^ l3 * 668265263u;
    h ^= h >> 15;
    h ^= h >> 7;
    return h & (kLzahTableEntries - 1);
}

// --------------------------------------------------------------------------
// LzahPageEncoder

LzahPageEncoder::LzahPageEncoder() : table_(kLzahTableEntries) {}

size_t
LzahPageEncoder::openPageBytes() const
{
    size_t open_chunk = items_.size() % kLzahChunkItems == 0
                            ? 0
                            : kLzahWord + alignUp(open_chunk_payload_,
                                                  kLzahWord);
    return kPageHeaderBytes + full_chunk_bytes_ + open_chunk;
}

void
LzahPageEncoder::encodeLineWords(std::string_view line, bool record_undo)
{
    // The line arrives without its terminator; LZAH encodes it as full
    // 16-byte words with the final word holding the '\n' followed by
    // zero padding (the window realignment of Figure 8).
    size_t pos = 0;
    size_t len = line.size();
    while (true) {
        Word w{};
        size_t remaining = len - pos;
        bool last = remaining < kLzahWord;
        size_t take = last ? remaining : kLzahWord;
        if (take > 0) {
            std::memcpy(w.data(), line.data() + pos, take);
        }
        if (last) {
            w[take] = '\n';
        }
        uint32_t idx = lzahHash(w);
        PendingItem item;
        if (table_[idx] == w) {
            item.is_match = true;
            item.index = static_cast<uint16_t>(idx);
            open_chunk_payload_ += 2;
        } else {
            item.is_match = false;
            item.literal = w;
            if (record_undo) {
                undo_.emplace_back(idx, table_[idx]);
            }
            table_[idx] = w;
            open_chunk_payload_ += kLzahWord;
        }
        items_.push_back(item);
        if (items_.size() % kLzahChunkItems == 0) {
            full_chunk_bytes_ +=
                kLzahWord + alignUp(open_chunk_payload_, kLzahWord);
            open_chunk_payload_ = 0;
        }
        decompressed_bytes_ += kLzahWord;
        pos += take;
        if (last) {
            break;
        }
        if (pos == len) {
            // Length was an exact multiple of the word size: the
            // terminator still needs its own (mostly padding) word.
            len = 0;
            pos = 0;
            line = std::string_view();
        }
    }
}

AddLineResult
LzahPageEncoder::addLine(std::string_view line)
{
    if (line.size() > kMaxLineBytes) {
        return AddLineResult::kRejected;
    }

    // Optimistically encode against the live table, keeping a rollback
    // log in case the line overflows the open page (pages decompress
    // independently, so a sealed page's table state must not leak).
    undo_.clear();
    size_t items_before = items_.size();
    uint32_t bytes_before = decompressed_bytes_;
    size_t full_before = full_chunk_bytes_;
    size_t open_before = open_chunk_payload_;

    encodeLineWords(line, /*record_undo=*/true);

    if (openPageBytes() <= kPageBytes) {
        raw_bytes_ += line.size() + 1;
        return AddLineResult::kAppended;
    }

    // Overflow: roll back, seal, re-encode against the fresh page.
    items_.resize(items_before);
    decompressed_bytes_ = bytes_before;
    full_chunk_bytes_ = full_before;
    open_chunk_payload_ = open_before;
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
        table_[it->first] = it->second;
    }
    sealPage();
    // A fresh page always fits a <= kMaxLineBytes line (see header).
    encodeLineWords(line, /*record_undo=*/false);
    raw_bytes_ += line.size() + 1;
    return AddLineResult::kSealedAndAppended;
}

void
LzahPageEncoder::flush()
{
    if (!items_.empty()) {
        sealPage();
    }
}

void
LzahPageEncoder::sealPage()
{
    if (items_.empty()) {
        table_.assign(kLzahTableEntries, Word{});
        return;
    }
    Bytes page(kPageBytes, 0);
    PageHeader hdr{};
    hdr.item_count = static_cast<uint32_t>(items_.size());
    hdr.decompressed_bytes = decompressed_bytes_;
    hdr.magic = kPageMagic;
    // hdr.crc is patched in after the payload is laid out.
    std::memcpy(page.data(), &hdr, sizeof hdr);

    size_t off = kPageHeaderBytes;
    size_t i = 0;
    while (i < items_.size()) {
        size_t n = std::min(kLzahChunkItems, items_.size() - i);
        // Header word: bit k set => item k of this chunk is a match.
        uint8_t *header = page.data() + off;
        off += kLzahWord;
        for (size_t k = 0; k < n; ++k) {
            if (items_[i + k].is_match) {
                header[k / 8] |= static_cast<uint8_t>(1u << (k % 8));
            }
        }
        for (size_t k = 0; k < n; ++k) {
            const PendingItem &item = items_[i + k];
            if (item.is_match) {
                std::memcpy(page.data() + off, &item.index, 2);
                off += 2;
            } else {
                std::memcpy(page.data() + off, item.literal.data(),
                            kLzahWord);
                off += kLzahWord;
            }
        }
        off = alignUp(off, kLzahWord);
        i += n;
    }
    MITHRIL_ASSERT(off <= kPageBytes);

    hdr.crc = pagePayloadCrc(page);
    std::memcpy(page.data() + offsetof(PageHeader, crc), &hdr.crc, 4);

    pages_.push_back(std::move(page));
    items_.clear();
    decompressed_bytes_ = 0;
    full_chunk_bytes_ = 0;
    open_chunk_payload_ = 0;
    // Page independence: the decoder starts from an empty table.
    table_.assign(kLzahTableEntries, Word{});
}

// --------------------------------------------------------------------------
// Page decoding

Status
lzahVerifyPage(ByteView page)
{
    if (page.size() < kPageHeaderBytes) {
        return Status::corruptData("LZAH page shorter than header");
    }
    PageHeader hdr;
    std::memcpy(&hdr, page.data(), sizeof hdr);
    if (hdr.magic != kPageMagic) {
        return Status::corruptData("LZAH page magic mismatch");
    }
    if (hdr.decompressed_bytes !=
        hdr.item_count * static_cast<uint32_t>(kLzahWord)) {
        return Status::corruptData("LZAH header byte/item mismatch");
    }
    if (hdr.crc != pagePayloadCrc(page)) {
        return Status::dataLoss("LZAH page CRC mismatch");
    }
    return Status::ok();
}

Status
lzahDecodePage(ByteView page, bool padded, Bytes *output,
               uint64_t *word_count)
{
    MITHRIL_RETURN_IF_ERROR(lzahVerifyPage(page));
    PageHeader hdr;
    std::memcpy(&hdr, page.data(), sizeof hdr);

    std::vector<Word> table(kLzahTableEntries);
    size_t off = kPageHeaderBytes;
    uint32_t remaining = hdr.item_count;
    uint64_t words = 0;

    while (remaining > 0) {
        size_t n = std::min<size_t>(kLzahChunkItems, remaining);
        if (off + kLzahWord > page.size()) {
            return Status::corruptData("LZAH chunk header out of bounds");
        }
        const uint8_t *header = page.data() + off;
        off += kLzahWord;
        for (size_t k = 0; k < n; ++k) {
            bool is_match = (header[k / 8] >> (k % 8)) & 1;
            Word w{};
            if (is_match) {
                if (off + 2 > page.size()) {
                    return Status::corruptData("LZAH match payload OOB");
                }
                uint16_t idx;
                std::memcpy(&idx, page.data() + off, 2);
                off += 2;
                if (idx >= kLzahTableEntries) {
                    return Status::corruptData("LZAH table index OOB");
                }
                w = table[idx];
            } else {
                if (off + kLzahWord > page.size()) {
                    return Status::corruptData("LZAH literal payload OOB");
                }
                std::memcpy(w.data(), page.data() + off, kLzahWord);
                off += kLzahWord;
            }
            table[lzahHash(w)] = w;
            ++words;
            if (padded) {
                output->insert(output->end(), w.begin(), w.end());
            } else {
                // Strip the zero padding the encoder added after '\n'.
                size_t useful = kLzahWord;
                for (size_t b = 0; b < kLzahWord; ++b) {
                    if (w[b] == '\n') {
                        useful = b + 1;
                        break;
                    }
                }
                output->insert(output->end(), w.begin(), w.begin() + useful);
            }
        }
        off = alignUp(off, kLzahWord);
        remaining -= static_cast<uint32_t>(n);
    }
    if (word_count != nullptr) {
        *word_count += words;
    }
    return Status::ok();
}

// --------------------------------------------------------------------------
// Whole-buffer codec

Bytes
Lzah::compress(ByteView input) const
{
    LzahPageEncoder encoder;
    std::string_view text = asChars(input.data(), input.size());

    // Lines longer than a page are split into word-aligned fragments,
    // each fed as its own "line". The artificial terminator every
    // fragment gains is recorded as a join point in the frame header
    // and removed on decode.
    constexpr size_t kFragment =
        LzahPageEncoder::kMaxLineBytes / kLzahWord * kLzahWord;

    // Frame: u64 original_size, u8 has_trailing_newline, join-point
    // list (u32 count + u64 offsets), u32 page count, then the pages.
    std::vector<uint64_t> joins;

    size_t pos = 0;
    uint64_t out_off = 0;  // offset in reconstructed (unpadded) stream
    bool trailing_newline = !text.empty() && text.back() == '\n';
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        std::string_view line = (nl == std::string_view::npos)
            ? text.substr(pos)
            : text.substr(pos, nl - pos);
        size_t consumed = line.size() + (nl == std::string_view::npos ? 0 : 1);

        while (line.size() > LzahPageEncoder::kMaxLineBytes) {
            std::string_view frag = line.substr(0, kFragment);
            AddLineResult r = encoder.addLine(frag);
            MITHRIL_ASSERT(r != AddLineResult::kRejected);
            out_off += frag.size() + 1;
            // The artificial '\n' at out_off-1 must be removed on decode.
            joins.push_back(out_off - 1);
            line = line.substr(kFragment);
        }
        AddLineResult r = encoder.addLine(line);
        MITHRIL_ASSERT(r != AddLineResult::kRejected);
        out_off += line.size() + 1;
        pos += consumed;
    }
    encoder.flush();

    Bytes out;
    putLe<uint64_t>(out, input.size());
    putLe<uint8_t>(out, trailing_newline ? 1 : 0);
    putLe<uint32_t>(out, static_cast<uint32_t>(joins.size()));
    for (uint64_t j : joins) {
        putLe<uint64_t>(out, j);
    }
    putLe<uint32_t>(out, static_cast<uint32_t>(encoder.pages().size()));
    for (const Bytes &page : encoder.pages()) {
        out.insert(out.end(), page.begin(), page.end());
    }
    appendCrcTrailer(&out);
    return out;
}

Status
Lzah::decompress(ByteView input, Bytes *output) const
{
    ByteView frame;
    MITHRIL_RETURN_IF_ERROR(stripCrcTrailer(input, &frame));
    input = frame;
    size_t need = 8 + 1 + 4;
    if (input.size() < need) {
        return Status::corruptData("LZAH frame truncated");
    }
    uint64_t original_size = getLe<uint64_t>(input.data());
    if (original_size > kMaxDecodedBytes) {
        return Status::corruptData("LZAH declared size implausible");
    }
    uint8_t trailing_newline = input[8];
    uint32_t join_count = getLe<uint32_t>(input.data() + 9);
    size_t off = 13;
    if (input.size() < off + 8ull * join_count + 4) {
        return Status::corruptData("LZAH frame join list truncated");
    }
    std::vector<uint64_t> joins(join_count);
    for (uint32_t i = 0; i < join_count; ++i) {
        joins[i] = getLe<uint64_t>(input.data() + off);
        off += 8;
    }
    uint32_t page_count = getLe<uint32_t>(input.data() + off);
    off += 4;
    if (input.size() < off + static_cast<size_t>(page_count) * kPageBytes) {
        return Status::corruptData("LZAH frame pages truncated");
    }

    Bytes stream;
    stream.reserve(
        std::min<uint64_t>(original_size + 16, kMaxDecodeReserve));
    for (uint32_t p = 0; p < page_count; ++p) {
        MITHRIL_RETURN_IF_ERROR(lzahDecodePage(
            input.subspan(off, kPageBytes), /*padded=*/false, &stream));
        off += kPageBytes;
    }

    // Remove the artificial newlines inserted at long-line split points.
    if (!joins.empty()) {
        Bytes cleaned;
        cleaned.reserve(stream.size());
        size_t j = 0;
        for (size_t i = 0; i < stream.size(); ++i) {
            if (j < joins.size() && i == joins[j]) {
                ++j;
                continue;
            }
            cleaned.push_back(stream[i]);
        }
        if (j != joins.size()) {
            return Status::corruptData("LZAH join points out of range");
        }
        stream = std::move(cleaned);
    }

    // The encoder always terminates the final line; undo that when the
    // original had no trailing newline.
    if (!trailing_newline && !stream.empty() && stream.back() == '\n') {
        stream.pop_back();
    }
    if (stream.size() != original_size) {
        return Status::corruptData("LZAH decoded size mismatch");
    }
    output->insert(output->end(), stream.begin(), stream.end());
    return Status::ok();
}

// --------------------------------------------------------------------------
// Cycle model

Status
LzahDecompressorModel::decodePage(ByteView page, Bytes *output)
{
    uint64_t words = 0;
    MITHRIL_RETURN_IF_ERROR(
        lzahDecodePage(page, /*padded=*/true, output, &words));
    cycles_ += words;
    bytes_out_ += words * kLzahWord;
    return Status::ok();
}

} // namespace mithril::compress
