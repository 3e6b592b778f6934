/**
 * @file
 * MithriLog — the end-to-end log analytics system (Section 3).
 *
 * Composition: a near-storage SSD model holding LZAH-compressed data
 * pages and index pages, the in-storage inverted index, and the
 * emulated four-pipeline token filter accelerator behind the device's
 * internal link. The public API covers the paper's full flow:
 *
 *   ingest  — lines are packed into independently-decompressible LZAH
 *             pages; each sealed page registers its distinct tokens
 *             with the inverted index;
 *   query   — host software compiles the query into a cuckoo program,
 *             consults the index for candidate pages, streams those
 *             pages through the accelerator over the internal link, and
 *             receives only matching lines over PCIe. Queries the
 *             cuckoo compiler cannot encode fall back to the exact
 *             host evaluator (Section 4.2.1). Every query takes one
 *             pipeline — plan, stage, evaluate, finish (DESIGN.md
 *             §17).
 *
 * Timing discipline: MithriLog-side numbers are *modeled* (SimTime at
 * the paper's platform parameters); QueryResult separates index,
 * storage, and compute time so benches can report the same breakdowns
 * the paper discusses.
 *
 * Thread safety: none — a MithriLog is single-threaded by design and
 * the thread-ownership lint keeps it that way. Concurrent use goes
 * through svc::LogService, which owns one store per shard and
 * serializes all access to each (src/svc/log_service.h).
 */
#ifndef MITHRIL_CORE_MITHRILOG_H
#define MITHRIL_CORE_MITHRILOG_H

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "accel/accelerator.h"
#include "common/simtime.h"
#include "compress/lzah.h"
#include "core/page_token_set.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query.h"
#include "storage/journal.h"
#include "storage/ssd_model.h"
#include "typed/typed_index.h"

namespace mithril::core {

/** Top-level system configuration. */
struct MithriLogConfig {
    storage::SsdConfig ssd{};
    index::IndexConfig index{};
    accel::AccelConfig accel{};
    /** Consult the inverted index during queries (false = full scan). */
    bool use_index = true;
    /**
     * Maintain and consult the typed-field pseudo-indexes (DESIGN.md
     * §15): IP/MAC/hex-id/timestamp keys extracted at ingest into
     * per-type posting lists. False disables both extraction and
     * typed-index pruning; typed queries then run as full scans over
     * the data pages (the bench_typed_query baseline configuration).
     */
    bool use_typed_index = true;
    /**
     * Query planner: skip index traversal when the O(1) entry-counter
     * estimate says the query would touch at least this fraction of
     * the data pages anyway (the paper's own example saw an index
     * reduce reads by only 30% on a common-token query — traversal is
     * then pure overhead). 1.0 disables the planner.
     */
    double planner_scan_threshold = 0.85;
    /** Lines longer than LZAH's page limit are truncated (with the
     *  `core.lines_truncated` counter) instead of rejected. */
    bool truncate_long_lines = true;
    /**
     * Background checkpoint policy: run checkpoint() after every N
     * sealed data pages (0 disables). The trigger sits just past the
     * commit barrier, so the page that tripped it is already
     * acknowledged whatever the checkpoint does; a checkpoint failure
     * is a device death, never a lost ack.
     */
    uint64_t checkpoint_every_pages = 0;
    /**
     * External metric registry / tracer to report into (benches and
     * services aggregating several systems share one). When null the
     * system owns private instances, reachable via metrics()/tracer().
     */
    obs::MetricsRegistry *metrics = nullptr;
    obs::Tracer *tracer = nullptr;
};

/**
 * Structured attribution of one query run — the Table 7 split
 * (index vs. storage vs. compute) plus the page-pruning account, in
 * machine-readable form. SimTime fields are deterministic for a given
 * image + query; wall_seconds is host-measured and is not.
 */
struct QueryBreakdown {
    SimTime index_time;    ///< modeled index traversal
    SimTime storage_time;  ///< modeled data-page streaming
    SimTime compute_time;  ///< modeled accelerator cycles
    SimTime total_time;    ///< index + max(storage, compute) + latency

    uint64_t candidate_pages = 0;   ///< pages the index nominated
    uint64_t pages_scanned = 0;
    uint64_t pages_total = 0;
    /** Pages that produced at least one accepted line. */
    uint64_t pages_with_matches = 0;
    /** Index-nominated pages with no match (probabilistic-index false
     *  positives plus legitimately empty candidates). Zero when the
     *  index was bypassed. */
    uint64_t false_positive_pages = 0;
    uint64_t matched_lines = 0;

    bool used_fallback = false;
    bool planned_full_scan = false;
    /** Index traversal hit unrecoverable damage; the query fell back
     *  to an accelerator full scan instead of trusting an incomplete
     *  candidate set. */
    bool degraded_index_scan = false;
    /** The accelerator path failed on faulted data; the query fell
     *  back to the host software scan over the staged pages. */
    bool degraded_software_scan = false;
    /** Pages unreadable (or CRC-rejected) after the device retry
     *  budget — dropped from the scan, counted, never silently
     *  misparsed. */
    uint64_t pages_dropped = 0;
    /** Device read retries charged during this query (fault plans). */
    uint64_t read_retries = 0;
    /** Typed predicates evaluated in this run (ip:/id:/mac:/time:). */
    uint64_t typed_predicates = 0;
    /** Typed posting pages traversed in-storage for this run. */
    uint64_t typed_index_pages = 0;
    /** Bytes of typed posting pages read — the index side of the
     *  typed-tier byte attribution (vs. bytes_scanned of data). */
    uint64_t typed_index_bytes = 0;
    /** Typed posting-list damage was unrecoverable; the query fell
     *  back to a typed full scan over every data page rather than
     *  trusting an incomplete typed candidate set. */
    bool degraded_typed_scan = false;
    /** Host-side measured time for the whole run (both domains kept,
     *  per the repo's measured-vs-modeled discipline). */
    double wall_seconds = 0.0;

    /** One-line JSON object (keys: phase times in ps, pages, flags). */
    std::string toJson() const;
};

/** End-to-end result of one query (or batch). */
struct QueryResult {
    uint64_t matched_lines = 0;
    std::vector<accel::KeptLine> lines;       ///< when accel.keep_lines
    /** Global (store-local) ingest line numbers parallel to `lines`;
     *  filled by the typed query tier, where match identity must be
     *  byte-comparable against a host oracle. Empty otherwise. */
    std::vector<uint64_t> line_numbers;
    std::vector<uint64_t> matched_per_query;  ///< batched execution

    uint64_t pages_scanned = 0;
    uint64_t pages_total = 0;
    uint64_t bytes_scanned = 0;   ///< decompressed text streamed

    SimTime index_time;    ///< index traversal (storage latency bound)
    SimTime storage_time;  ///< data page reads over the internal link
    SimTime compute_time;  ///< accelerator cycles
    SimTime total_time;    ///< index + max(storage, compute)

    bool used_fallback = false;  ///< software path (compile failure)
    /** Planner skipped index traversal (poor predicted pruning). */
    bool planned_full_scan = false;
    /** Corrupt index forced an accelerator full scan (see breakdown). */
    bool degraded_index_scan = false;
    /** Accelerator fault forced the host software scan. */
    bool degraded_software_scan = false;
    /** Typed posting-list damage forced a typed full scan. */
    bool degraded_typed_scan = false;
    /** Unreadable pages dropped after exhausting device retries. */
    uint64_t pages_dropped = 0;
    double useful_ratio = 0.0;   ///< tokenized-datapath utilization

    /** Structured phase attribution (duplicates the scalar fields
     *  above in reportable form, plus pruning/false-positive data). */
    QueryBreakdown breakdown;

    /** Effective throughput against the original dataset size. */
    double effectiveThroughput(uint64_t dataset_bytes) const
    {
        return throughputBps(dataset_bytes, total_time);
    }
};

/** The MithriLog system. */
class MithriLog
{
  public:
    explicit MithriLog(MithriLogConfig config = MithriLogConfig{});

    // ---- ingest --------------------------------------------------------

    /**
     * Ingests one line (without trailing newline).
     *
     * Durability contract: a line is *acknowledged* once the page
     * holding it seals — data page programmed, commit record journaled,
     * durability barrier passed (see durableLineCount()). Lines still
     * in the open page are durable only after flush()/seal().
     * @retval kInvalidArgument the store was sealed by seal().
     * @retval kUnavailable the device lost power (a fault-plan power
     *         cut); the caller's only move is saveDeviceImage() +
     *         recover() on a fresh system.
     */
    [[nodiscard]] Status ingestLine(std::string_view line);

    /** Ingests newline-separated text. */
    [[nodiscard]] Status ingestText(std::string_view text);

    /**
     * Seals the open page and flushes the index — a repeatable
     * checkpoint (ingest may continue afterwards). On return every
     * ingested line is journaled and crash-durable.
     */
    [[nodiscard]] Status flush();

    /**
     * Terminal durability barrier: flush(), then append the journal's
     * seal record and publish the sealed superblock. Idempotent; after
     * it returns ok the store is immutable (ingestLine fails with
     * kInvalidArgument) and a crash at any later point recovers the
     * complete dataset.
     */
    [[nodiscard]] Status seal();

    /**
     * Storage-lifecycle maintenance point (DESIGN.md §14): flushes
     * pending lines, truncates the journal chain into a snapshot
     * (Journal::checkpoint — bounded mount-time replay), then runs the
     * segment cleaner (cleanSegments — crash-safe space reclamation).
     * Committed data and the acknowledged prefix are exactly preserved;
     * a crash anywhere inside replays either the pre- or the
     * post-checkpoint state. No-op ok on a store that never committed.
     * Allowed on a sealed store (the seal survives in the superblock
     * flag — maintenance on an archived image, not mutation).
     * @retval kFailedPrecondition the store is a read-only recovered
     *         mount; reopen() first.
     * @retval kUnavailable the device died mid-protocol (power cut);
     *         recover() the image on a fresh system.
     */
    [[nodiscard]] Status checkpoint();

    /** checkpoint() calls completed over this journal cursor. */
    uint64_t checkpoints() const { return journal_.checkpoints(); }

    /** Records in the live journal chain since the last checkpoint
     *  (replay tail a crash right now would walk). */
    uint64_t journalChainRecords() const
    {
        return journal_.chainRecords();
    }

    /** Records summarized by the live snapshot (0 when the chain has
     *  never been truncated). */
    uint64_t journalSnapshotRecords() const
    {
        return journal_.snapshotRecords();
    }

    // ---- dataset statistics -------------------------------------------

    uint64_t lineCount() const { return lines_; }
    uint64_t rawBytes() const { return raw_bytes_; }
    uint64_t dataPageCount() const { return data_pages_.size(); }
    uint64_t truncatedLines() const { return truncated_lines_; }

    /** Lines covered by a journaled commit + durability barrier: the
     *  prefix of the ingest stream guaranteed to survive a crash. */
    uint64_t durableLineCount() const { return committed_lines_; }

    /** True after seal(), or after recover() until reopen() clears it
     *  (a freshly recovered store is read-only by default). */
    bool sealed() const { return sealed_; }

    /** True when this store was produced by recover() and has not been
     *  reopen()ed: it is sealed *because* the journal cursor died with
     *  the crashed device, not because the caller chose to seal.
     *  Service layers use this to answer ingest against a recovered
     *  shard with kFailedPrecondition instead of a generic
     *  sealed-store error, and to offer reopen() instead. */
    bool recovered() const { return recovered_; }

    /** Data pages in ingest order (tests and ablations; the journal
     *  owns the device's leading pages, so "page 0" is not data). */
    const std::vector<storage::PageId> &dataPages() const
    {
        return data_pages_;
    }

    /** raw bytes / compressed data page bytes. */
    double compressionRatio() const;

    // ---- query ---------------------------------------------------------

    /** Runs one query end to end. */
    [[nodiscard]] Status run(const query::Query &q, QueryResult *out);

    /** Parses and runs a query text. */
    [[nodiscard]] Status run(std::string_view query_text,
                             QueryResult *out);

    /**
     * Runs a batch concurrently on one accelerator pass (Section 4).
     *
     * Batches carrying typed predicates (ip:/id:/mac:/time:) take the
     * incident-response tier (DESIGN.md §15): typed posting lists are
     * intersected in-storage — alongside the keyword index — to prune
     * the candidate pages, which then cross PCIe to the host matcher.
     * The filter pipelines hash whole tokens and cannot compare CIDR
     * or time ranges, so the typed tier's offload is the pruning; the
     * match set is exact (host-evaluated) and byte-identical to a full
     * scan, with line numbers reported in QueryResult::line_numbers.
     */
    [[nodiscard]] Status runBatch(std::span<const query::Query> queries,
                                  QueryResult *out);

    /**
     * Runs a batch as a full scan, bypassing the index — the Section
     * 7.4.2 configuration isolating filter-engine performance.
     */
    [[nodiscard]] Status runFullScan(
        std::span<const query::Query> queries, QueryResult *out);

    /**
     * Time-bounded query (Section 6.3's snapshot mechanism): candidate
     * pages are additionally restricted to the page range the index's
     * snapshot log maps [t0, t1] to. Timestamps are the values passed
     * to ingest — by default the ingest line sequence number — and the
     * restriction is coarse (snapshot granularity), so the time window
     * may over-approximate but never cuts matching lines inside it.
     */
    [[nodiscard]] Status runTimeRange(const query::Query &q, uint64_t t0,
                                      uint64_t t1, QueryResult *out);

    // ---- persistence ----------------------------------------------------

    /**
     * Writes a device image (all pages, index state, counters) to
     * @p path. Flushes first, so the image is self-contained.
     */
    [[nodiscard]] Status saveImage(const std::string &path);

    /**
     * Restores a device image into this system. Must be called on a
     * freshly constructed MithriLog whose configuration matches the
     * saving one (the index validates its part).
     * @retval kCorruptData unreadable, malformed, or mismatched image.
     */
    [[nodiscard]] Status loadImage(const std::string &path);

    /**
     * Dumps the raw NAND contents (every page, no host-side state) to
     * @p path. Unlike saveImage this works on a device that lost
     * power — it reads the store directly, exactly what pulling the
     * flash out of a dead device would yield. Input for recover().
     */
    [[nodiscard]] Status saveDeviceImage(const std::string &path) const;

    /**
     * Mount-time crash recovery. Loads a raw device image (from
     * saveDeviceImage) into this freshly constructed system, replays
     * the journal, verifies every committed data page against its
     * journaled CRC, discards torn/uncommitted pages (always a clean
     * *prefix* cut: the recovered store is exactly the first
     * durableLineCount() lines of the original ingest stream), and
     * rebuilds the index from the surviving pages. The recovered store
     * is sealed until reopen() makes it writable again. Every step is
     * counted (`recovery.*` metrics) and spanned (`recover.*`); modeled
     * device time accrues into SimTime. A device with no valid
     * superblock (crash before the first commit completed) recovers to
     * a valid empty store.
     */
    [[nodiscard]] Status recover(const std::string &path);

    /**
     * Makes a recovered store writable again: re-opens the journal at
     * the replayed tail under a fresh generation (Journal::reopen) and
     * clears the recovery seal, so ingestLine() resumes through the
     * normal durable commit protocol and the acknowledged prefix keeps
     * growing past the crash. Only valid on a store produced by
     * recover().
     * @retval kFailedPrecondition the store is not recovered, or the
     *         replayed journal carried a seal — seal() is terminal by
     *         design and survives any number of crash/recover cycles.
     * @retval kUnavailable the device died (reopen writes are faultable:
     *         a power cut *during* reopen replays the pre-reopen state).
     */
    [[nodiscard]] Status reopen();

    /** Generation of the newest chain the last recover() replayed
     *  (0 when no valid superblock was found). */
    uint64_t recoveredGeneration() const { return reopen_rr_.generation; }

    /** Generation chains the last recover() replayed — 1 for a
     *  never-reopened store, +1 per reopen in the image's history. */
    uint64_t recoveredGenerations() const
    {
        return reopen_rr_.generations;
    }

    /** Live journal incarnation (0 before the first commit/reopen). */
    uint64_t journalGeneration() const { return journal_.generation(); }

    /** Of the records the last recover() replayed: how many came from
     *  the checkpoint snapshot vs. the live chain tail. Their sum is
     *  the `recovery.records_replayed` counter; the chain share is the
     *  part checkpointing bounds. */
    uint64_t recoveredSnapshotRecords() const
    {
        return reopen_rr_.snapshot_records;
    }
    uint64_t recoveredChainRecords() const
    {
        return reopen_rr_.records - reopen_rr_.snapshot_records;
    }

    // ---- component access (benches, tests, ablations) ------------------

    storage::SsdModel &ssd() { return ssd_; }
    index::InvertedIndex &index() { return *index_; }
    typed::TypedIndex &typedIndex() { return *typed_index_; }
    accel::Accelerator &accelerator() { return accel_; }
    const MithriLogConfig &config() const { return config_; }

    // ---- observability --------------------------------------------------

    /** The unified metric namespace (`ssd.*`, `index.*`, `accel.*`,
     *  `lzah.*`, `core.*`); config-supplied or system-owned. */
    obs::MetricsRegistry &metrics() { return *metrics_; }
    const obs::MetricsRegistry &metrics() const { return *metrics_; }

    /** Span buffer covering the query datapath in both time domains. */
    obs::Tracer &tracer() { return *tracer_; }
    const obs::Tracer &tracer() const { return *tracer_; }

  private:
    /**
     * What the public query entry points vary; everything else about a
     * run follows from the batch and the configuration.
     */
    struct PlanInputs {
        /** Consult the pruners (false: runFullScan's forced scan). */
        bool prune = true;
        /** Let the entry-counter estimate skip keyword index traversal
         *  (runBatch). */
        bool planner = false;
        /** Restrict candidates to the snapshot page range of
         *  [t0, t1] (runTimeRange). */
        bool windowed = false;
        uint64_t t0 = 0;
        uint64_t t1 = 0;
    };

    /** Output of plan(): the pages to stage and how to account them. */
    struct QueryPlan {
        std::vector<storage::PageId> pages;
        /** The batch carries typed predicates: evaluated on the host,
         *  never offloaded to the filter pipelines. */
        bool typed = false;
        /** The keyword index or the time window pruned the pages, so
         *  the false-positive account applies (finishQuery). */
        bool index_pruned = false;
    };

    /**
     * The query pipeline (DESIGN.md §17): plan, stage and
     * evaluate, finish. Owns the whole query lifecycle — the `query`
     * span, the wall clock, and the per-query counters.
     */
    Status runPipeline(std::span<const query::Query> queries,
                       const PlanInputs &in, QueryResult *out);

    /**
     * Nominates the data pages for a batch in one walk over its sets'
     * terms: typed predicates through the typed posting lists and the
     * page directory, positive keywords through the inverted index,
     * then the optional time window. Applies the planner, records the
     * modeled index time (chains overlapped across channels) and the
     * pruning account, and takes the index and typed rungs of the
     * fallback ladder: lost integrity nominates every data page.
     */
    QueryPlan plan(std::span<const query::Query> queries,
                   const PlanInputs &in, QueryResult *out);

    /**
     * Reads @p pages for scanning, verifying each staged page's LZAH
     * CRC. With a fault plan attached the reads go page-at-a-time
     * (faultable, retried); CRC rejections trigger re-reads up to the
     * plan's retry budget. Pages still unreadable are dropped and
     * counted (`out->pages_dropped`), never passed on corrupt.
     * @p storage owns faulted copies; @p views index into it (or
     * zero-copy into the store on the unfaulted path); @p staged_ids
     * receives the page id of each surviving view in order.
     */
    Status stagePages(std::span<const storage::PageId> pages,
                      storage::Link link,
                      std::vector<compress::ByteView> *views,
                      std::vector<compress::Bytes> *storage,
                      QueryResult *out,
                      std::vector<storage::PageId> *staged_ids);

    /**
     * Stages the planned pages and evaluates the batch: on the
     * accelerator when the cuckoo compiler encodes it, otherwise with
     * evaluateOnHost(). Takes the compile and filter-fault rungs of the
     * fallback ladder and sets the path's modeled total_time.
     */
    Status evaluate(const QueryPlan &plan,
                    std::span<const query::Query> queries,
                    QueryResult *out);

    /**
     * The exact host evaluator: decodes each staged view (pages that
     * fail to decode are dropped and counted), matches every line
     * against the batch, and fills match counts and kept lines in
     * global line order. @p view_pages names each view's data page;
     * @p number_lines also fills QueryResult::line_numbers.
     */
    void evaluateOnHost(std::span<const compress::ByteView> views,
                        std::span<const storage::PageId> view_pages,
                        std::span<const query::Query> queries,
                        bool number_lines, QueryResult *out);

    /** Durable page commit: program the data page, journal the commit
     *  record, pass the barrier (ack point), then index the page. Any
     *  failure marks the system dead_ (in-memory state no longer
     *  matches the media). */
    Status sealPendingPage();

    /** One tokenizer pass over @p line: its tokens join the open
     *  page's set and, with use_typed_index, the typed index as line
     *  @p line_no. Shared by ingest and recover()'s index rebuild. */
    void indexLine(std::string_view line, uint64_t line_no);

    /** checkpoint() minus the flush: journal truncation + segment
     *  cleaning. The auto-policy calls this from inside the commit path
     *  (where flush() would recurse); any failure marks dead_. */
    Status runCheckpoint();

    /**
     * Segment cleaner (DESIGN.md §14): migrates live pages out of cold
     * segments (occupancy <= half) into free slots in strictly earlier
     * segments, so drained segments return to the allocator and the
     * physical footprint shrinks. Per page: copy (faultable program),
     * journal a migrate record, barrier, read back and CRC-verify, only
     * then retarget the translation map. Degradation ladder: one
     * rewrite retry per page, then the pass is abandoned (ok — the next
     * checkpoint re-schedules); only a dead device surfaces an error.
     * Never touches acknowledged data: the map points at the old slot
     * until the copy verified.
     */
    Status cleanSegments();

    /** Publishes `storage.segments_live` / `storage.segments_freed`. */
    void updateStorageGauges();

    /** Fills QueryResult::breakdown, closes the query span, and
     *  records the per-query counters. @p index_pruned says whether
     *  the candidate set came from index traversal (false-positive
     *  accounting only applies then); @p retries_before is the
     *  `ssd.read_retries` value at query start (delta attribution). */
    void finishQuery(QueryResult *out, obs::Span *span,
                     double wall_seconds, bool index_pruned,
                     uint64_t retries_before);

    MithriLogConfig config_;
    std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
    std::unique_ptr<obs::Tracer> owned_tracer_;
    obs::MetricsRegistry *metrics_ = nullptr;
    obs::Tracer *tracer_ = nullptr;

    /** Hot-path counters, resolved once (registry refs are stable). */
    struct CoreCounters {
        obs::Counter *lines_ingested = nullptr;
        obs::Counter *lines_truncated = nullptr;
        obs::Counter *pages_sealed = nullptr;
        obs::Counter *lzah_bytes_in = nullptr;
        obs::Counter *lzah_bytes_out = nullptr;
        obs::Counter *queries = nullptr;
        obs::Counter *query_fallbacks = nullptr;
        obs::Counter *planner_full_scans = nullptr;
        obs::Counter *candidate_pages = nullptr;
        obs::Counter *false_positive_pages = nullptr;
        obs::Counter *degraded_index_scans = nullptr;
        obs::Counter *degraded_software_scans = nullptr;
        obs::Counter *typed_queries = nullptr;
        obs::Counter *degraded_typed_scans = nullptr;
        obs::Counter *crc_failed_pages = nullptr;
        obs::Counter *pages_dropped = nullptr;
        obs::Counter *ssd_read_retries = nullptr;
    } counters_;
    /** Per-stage latency histograms (obs/histogram.h), dual-domain
     *  where the stage has a modeled cost. */
    struct CoreStages {
        obs::StageLatency lzah_encode;     ///< per-line encode (wall)
        obs::StageLatency journal_commit;  ///< page commit + barrier
        obs::StageLatency query_compile;   ///< cuckoo compile (wall)
    } stages_;
    storage::SsdModel ssd_;
    storage::Journal journal_;
    std::unique_ptr<index::InvertedIndex> index_;
    /** Typed-field pseudo-indexes (DESIGN.md §15). Always constructed:
     *  its page directory numbers lines for the typed tier even when
     *  use_typed_index is off (extraction is then skipped). */
    std::unique_ptr<typed::TypedIndex> typed_index_;
    accel::Accelerator accel_;

    compress::LzahPageEncoder encoder_;
    /** Distinct tokens of the open page; cleared at each seal. */
    PageTokenSet page_tokens_;
    /** The current line's tokens (reused buffer for typed extraction). */
    std::vector<std::string_view> line_tokens_;
    uint64_t lines_ = 0;
    uint64_t raw_bytes_ = 0;
    uint64_t truncated_lines_ = 0;
    /** Cumulative lines / raw bytes covered by the last durable
     *  commit (the acknowledged prefix). */
    uint64_t committed_lines_ = 0;
    uint64_t committed_raw_ = 0;
    /** seal() ran: the store is immutable. */
    bool sealed_ = false;
    /** recover() produced this store and reopen() has not run yet
     *  (sealed_ is then implied). */
    bool recovered_ = false;
    /** The replayed journal carried a seal: the *original* store was
     *  seal()ed, so reopen() must refuse — seal is terminal. */
    bool journal_sealed_ = false;
    /** Replay summary of the last recover(), kept for reopen(). */
    storage::Journal::ReplayResult reopen_rr_;
    /** Verification cut of the last recover(): global logical records
     *  accepted (the base-link budget a reopen grafts). */
    uint64_t reopen_accepted_ = 0;
    /** A commit failed mid-protocol (power cut or device error): the
     *  in-memory state no longer matches the media, so every mutating
     *  call fails until the image is recovered on a fresh system. */
    bool dead_ = false;
    std::vector<storage::PageId> data_pages_;
};

} // namespace mithril::core

#endif // MITHRIL_CORE_MITHRILOG_H
