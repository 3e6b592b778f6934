#include "core/mithrilog.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>

#include "common/bits.h"
#include "common/hash.h"
#include "common/text.h"
#include "common/wall_timer.h"
#include "obs/json.h"
#include "query/matcher.h"
#include "query/parser.h"

namespace mithril::core {

using storage::Link;
using storage::PageId;

namespace {

/** Narrows @p set (sorted) to its intersection with @p other (sorted);
 *  the first narrowing takes @p other whole. */
template <typename T>
void
narrow(std::optional<std::vector<T>> *set, std::vector<T> other)
{
    if (!set->has_value()) {
        *set = std::move(other);
        return;
    }
    std::vector<T> merged;
    std::set_intersection((*set)->begin(), (*set)->end(), other.begin(),
                          other.end(), std::back_inserter(merged));
    **set = std::move(merged);
}

} // namespace

MithriLog::MithriLog(MithriLogConfig config)
    : config_(config), ssd_(config.ssd, config.metrics), journal_(&ssd_),
      index_(std::make_unique<index::InvertedIndex>(&ssd_, config.index)),
      typed_index_(std::make_unique<typed::TypedIndex>(&ssd_)),
      accel_(config.accel)
{
    if (config_.tracer != nullptr) {
        tracer_ = config_.tracer;
    } else {
        owned_tracer_ = std::make_unique<obs::Tracer>();
        tracer_ = owned_tracer_.get();
    }
    obs::MetricsRegistry *metrics = &ssd_.metrics();
    journal_.bindMetrics(metrics);
    accel_.bindMetrics(metrics);

    counters_.lines_ingested = &metrics->counter("core.lines_ingested");
    counters_.lines_truncated =
        &metrics->counter("core.lines_truncated");
    counters_.pages_sealed = &metrics->counter("core.pages_sealed");
    counters_.lzah_bytes_in = &metrics->counter("lzah.bytes_in");
    counters_.lzah_bytes_out = &metrics->counter("lzah.bytes_out");
    counters_.queries = &metrics->counter("core.queries");
    counters_.query_fallbacks =
        &metrics->counter("core.query_fallbacks");
    counters_.planner_full_scans =
        &metrics->counter("core.planner_full_scans");
    counters_.candidate_pages =
        &metrics->counter("index.candidate_pages");
    counters_.false_positive_pages =
        &metrics->counter("index.false_positive_pages");
    counters_.degraded_index_scans =
        &metrics->counter("core.degraded_index_scans");
    counters_.degraded_software_scans =
        &metrics->counter("core.degraded_software_scans");
    counters_.typed_queries = &metrics->counter("core.typed_queries");
    counters_.degraded_typed_scans =
        &metrics->counter("core.degraded_typed_scans");
    counters_.crc_failed_pages =
        &metrics->counter("core.crc_failed_pages");
    counters_.pages_dropped = &metrics->counter("core.pages_dropped");
    counters_.ssd_read_retries = &metrics->counter("ssd.read_retries");

    stages_.lzah_encode = obs::StageLatency(metrics, "lzah.encode");
    stages_.journal_commit =
        obs::StageLatency(metrics, "journal.commit");
    stages_.query_compile =
        obs::StageLatency(metrics, "query.compile");
}

Status
MithriLog::ingestLine(std::string_view line)
{
    if (sealed_) {
        return Status::invalidArgument("store is sealed");
    }
    if (dead_) {
        return Status::unavailable(
            "device lost power; recover() the image on a fresh system");
    }
    if (line.size() > compress::LzahPageEncoder::kMaxLineBytes) {
        if (!config_.truncate_long_lines) {
            return Status::invalidArgument("line exceeds page limit");
        }
        line = line.substr(0, compress::LzahPageEncoder::kMaxLineBytes);
        ++truncated_lines_;
        counters_.lines_truncated->add();
    }
    obs::StageTimer encode_timer(&stages_.lzah_encode);
    compress::AddLineResult r = encoder_.addLine(line);
    encode_timer.end();
    MITHRIL_ASSERT(r != compress::AddLineResult::kRejected);
    if (r == compress::AddLineResult::kSealedAndAppended) {
        // The sealed page holds the lines before this one; this line
        // opened the next page and its tokens belong there. A commit
        // failure means this line was never acknowledged.
        MITHRIL_RETURN_IF_ERROR(sealPendingPage());
    }
    // `lines_` has not been bumped yet: it is this line's 0-based
    // number.
    indexLine(line, lines_);
    ++lines_;
    raw_bytes_ += line.size() + 1;
    counters_.lines_ingested->add();
    counters_.lzah_bytes_in->add(line.size() + 1);
    return Status::ok();
}

void
MithriLog::indexLine(std::string_view line, uint64_t line_no)
{
    // One tokenizer pass feeds both consumers: the open page's token
    // set and, with it on, typed extraction.
    line_tokens_.clear();
    forEachToken(line, [&](std::string_view tok, uint32_t) {
        page_tokens_.insert(tok);
        line_tokens_.push_back(tok);
        return true;
    });
    if (config_.use_typed_index) {
        typed_index_->addTokens(line_tokens_, line_no);
    }
}

Status
MithriLog::ingestText(std::string_view text)
{
    Status status = Status::ok();
    forEachLine(text, [&](std::string_view line) {
        if (status.isOk()) {
            status = ingestLine(line);
        }
    });
    return status;
}

Status
MithriLog::sealPendingPage()
{
    MITHRIL_ASSERT(!encoder_.pages().empty());
    compress::Bytes page = std::move(encoder_.pages().back());
    encoder_.pages().pop_back();

    // Commit protocol (order is the crash-safety argument):
    //   1. journal layout exists (lazy format on the first commit);
    //   2. program the data page;
    //   3. journal the commit record, whose barrier is the ack point —
    //      a crash before it loses only unacknowledged lines, a crash
    //      after it loses nothing;
    //   4. index the page (unjournaled: the index is rebuilt from
    //      committed data pages at recovery).
    obs::StageTimer commit_timer(&stages_.journal_commit);
    uint64_t commit_start_ps = ssd_.elapsed().ps();
    Status st = Status::ok();
    if (!journal_.formatted()) {
        st = journal_.format();
    }
    PageId id = storage::kInvalidPage;
    if (st.isOk()) {
        id = ssd_.allocate();
        st = ssd_.writePage(id, page);
    }
    if (st.isOk()) {
        st = journal_.appendPageCommit(
            id, crc32(page.data(), page.size()), lines_, raw_bytes_);
    }
    SimTime commit_busy =
        SimTime::picoseconds(ssd_.elapsed().ps() - commit_start_ps);
    commit_timer.setSimDuration(commit_busy);
    commit_timer.end();
    if (!st.isOk()) {
        dead_ = true;
        return st;
    }
    uint64_t first_line = committed_lines_;
    committed_lines_ = lines_;
    committed_raw_ = raw_bytes_;
    data_pages_.push_back(id);

    index_->addPage(id, page_tokens_.sorted(), lines_);
    // Sealed-page directory entry (typed posting hits map back to data
    // pages through it): this page covers [first_line, lines_).
    // Unconditional — line numbering must work with the typed index off
    // (the degraded-scan baseline still reports line numbers).
    typed_index_->notePage(id, first_line, lines_ - first_line);
    page_tokens_.clear();
    counters_.pages_sealed->add();
    counters_.lzah_bytes_out->add(storage::kPageSize);
    if (config_.checkpoint_every_pages > 0 &&
        data_pages_.size() % config_.checkpoint_every_pages == 0) {
        // The page above is already acknowledged (its barrier passed);
        // a failure below is a device death, never a lost ack.
        MITHRIL_RETURN_IF_ERROR(runCheckpoint());
    }
    return Status::ok();
}

Status
MithriLog::flush()
{
    if (dead_) {
        return Status::unavailable(
            "device lost power; recover() the image on a fresh system");
    }
    encoder_.flush();
    if (!encoder_.pages().empty()) {
        MITHRIL_RETURN_IF_ERROR(sealPendingPage());
    }
    index_->flush();
    typed_index_->flush();
    metrics().gauge("lzah.ratio").set(compressionRatio());
    return Status::ok();
}

Status
MithriLog::seal()
{
    if (sealed_) {
        return Status::ok(); // idempotent
    }
    if (dead_) {
        return Status::unavailable(
            "device lost power; recover() the image on a fresh system");
    }
    obs::Span span = tracer_->span("ingest.seal", "core");
    MITHRIL_RETURN_IF_ERROR(flush());
    if (journal_.formatted()) {
        Status st = journal_.appendSeal(lines_, raw_bytes_);
        if (!st.isOk()) {
            dead_ = true;
            return st;
        }
    }
    // An empty store never formatted a journal; sealing it is purely
    // an in-memory transition (recovery of an empty device is a no-op).
    sealed_ = true;
    return Status::ok();
}

Status
MithriLog::checkpoint()
{
    if (recovered_) {
        // A recovered mount is read-only and its journal cursor is not
        // live; reopen() first, then checkpoint the writable store.
        return Status::failedPrecondition(
            "recovered store is read-only; reopen() before checkpoint");
    }
    if (dead_) {
        return Status::unavailable(
            "device lost power; recover() the image on a fresh system");
    }
    // Commit everything the caller has handed over first, so the
    // snapshot covers the full acknowledged prefix at the truncation.
    // A sealed store has nothing pending by construction; checkpoint
    // is still allowed — it is maintenance (bounding mount replay for
    // an archived image), not mutation, and the seal survives it.
    if (!sealed_) {
        MITHRIL_RETURN_IF_ERROR(flush());
    }
    return runCheckpoint();
}

Status
MithriLog::runCheckpoint()
{
    if (!journal_.formatted()) {
        // Nothing was ever committed: no chain to truncate, no segments
        // worth cleaning. Succeeding as a no-op keeps the policy
        // trigger and the CLI path trivially correct on empty stores.
        return Status::ok();
    }
    obs::Span span = tracer_->span("checkpoint", "core");
    obs::Span truncate_span =
        tracer_->span("checkpoint.truncate", "core");
    Status st = journal_.checkpoint(sealed_);
    truncate_span.end();
    if (!st.isOk()) {
        // A cut inside the protocol is crash-safe on the media (replay
        // lands on the old or the new superblock), but the in-memory
        // cursor no longer matches it.
        dead_ = true;
        return st;
    }
    obs::Span clean_span = tracer_->span("checkpoint.clean", "core");
    st = cleanSegments();
    clean_span.end();
    if (!st.isOk()) {
        dead_ = true;
        return st;
    }
    updateStorageGauges();
    span.end();
    return Status::ok();
}

Status
MithriLog::cleanSegments()
{
    storage::PageStore &store = ssd_.store();
    obs::Counter &migrations = metrics().counter("storage.migrations");
    obs::Counter &retries =
        metrics().counter("storage.migration_retries");
    // Highest cold segment first: destinations are strictly below the
    // victim, so a migrated page can never land back in it and every
    // pass monotonically drains the top of the slot array.
    for (uint64_t seg = store.segmentCount(); seg-- > 0;) {
        uint64_t live = store.segmentLive(seg);
        if (live == 0 || live * 2 > storage::kSegmentPages) {
            continue; // hot (or already drained): not worth the copies
        }
        uint64_t seg_base = seg * storage::kSegmentPages;
        for (PageId id = 0; live > 0 && id < store.pageCount(); ++id) {
            uint64_t src_slot = store.physicalSlot(id);
            if (src_slot == storage::kUnmappedSlot ||
                src_slot / storage::kSegmentPages != seg) {
                continue;
            }
            uint64_t dst_slot = 0;
            if (!store.allocatePhysicalBelow(seg_base, &dst_slot)) {
                // No free slot below the victim: this pass cannot shrink
                // the device further. Nothing is half-moved.
                return Status::ok();
            }
            std::span<const uint8_t> src;
            MITHRIL_RETURN_IF_ERROR(store.read(id, &src));
            // Stable copy of intent: the fault plan may tear the
            // program, and the verify must compare against what the
            // cleaner meant to write, not what landed.
            std::vector<uint8_t> copy(src.begin(), src.end());
            uint32_t crc = crc32(copy.data(), copy.size());
            ssd_.chargeOverlappedRead(1, Link::kInternal);
            // Copy -> journal the intent -> barrier -> verify -> remap.
            // The map points at the old slot until the verify passes,
            // so no window in this protocol loses acknowledged data.
            Status st = ssd_.writePhysical(dst_slot, copy);
            if (st.isOk()) {
                st = journal_.appendMigrate(id, crc, src_slot, dst_slot);
            }
            if (!st.isOk()) {
                return st; // power cut: the device is dead
            }
            bool verified = false;
            for (int attempt = 0; attempt < 2 && !verified; ++attempt) {
                if (attempt > 0) {
                    retries.add();
                    MITHRIL_RETURN_IF_ERROR(
                        ssd_.writePhysical(dst_slot, copy));
                }
                std::span<const uint8_t> back;
                MITHRIL_RETURN_IF_ERROR(
                    ssd_.readPhysical(dst_slot, &back));
                verified = crc32(back.data(), back.size()) == crc;
            }
            if (!verified) {
                // Ladder rung 2: abandon the pass. The page stays where
                // it was (live, covered by its journaled CRC); the next
                // checkpoint re-schedules the segment.
                store.freePhysical(dst_slot);
                return Status::ok();
            }
            migrations.add();
            MITHRIL_RETURN_IF_ERROR(store.remap(id, dst_slot));
            --live;
        }
    }
    return Status::ok();
}

void
MithriLog::updateStorageGauges()
{
    const storage::PageStore &store = ssd_.store();
    metrics().gauge("storage.segments_live")
        .set(static_cast<double>(store.segmentsLive()));
    metrics().gauge("storage.segments_freed")
        .set(static_cast<double>(store.segmentsFreed()));
}

double
MithriLog::compressionRatio() const
{
    uint64_t compressed = data_pages_.size() * storage::kPageSize;
    if (compressed == 0) {
        return 0.0;
    }
    return static_cast<double>(raw_bytes_) /
           static_cast<double>(compressed);
}

MithriLog::QueryPlan
MithriLog::plan(std::span<const query::Query> queries,
                const PlanInputs &in, QueryResult *out)
{
    QueryPlan plan;
    plan.pages = data_pages_;
    plan.typed = std::any_of(
        queries.begin(), queries.end(),
        [](const query::Query &q) { return q.hasTypedPredicates(); });
    if (plan.typed) {
        counters_.typed_queries->add(queries.size());
    }
    QueryBreakdown &b = out->breakdown;
    for (const query::Query &q : queries) {
        b.typed_predicates += q.typedPredicateCount();
    }
    if (!in.prune) {
        return plan;
    }

    // Typed batches are nominated by the typed posting lists (with the
    // keyword index alongside), keyword batches by the keyword index.
    bool consult = plan.typed ? config_.use_typed_index : config_.use_index;

    // Planner: skip keyword index traversal when the O(1) entry-counter
    // estimate says it cannot prune enough to pay for itself. A batch
    // needs the union of its sets' candidates; each set's count is
    // bounded by its most selective positive token.
    auto scan_is_cheaper = [&] {
        if (config_.planner_scan_threshold >= 1.0 || data_pages_.empty()) {
            return false;
        }
        uint64_t union_bound = 0;
        for (const query::Query &q : queries) {
            for (const query::IntersectionSet &set : q.sets()) {
                uint64_t set_bound = ~0ull;
                bool has_positive = false;
                for (const query::Term &t : set.terms) {
                    if (!t.negated) {
                        has_positive = true;
                        set_bound = std::min(
                            set_bound, index_->estimatePages(t.token));
                    }
                }
                if (!has_positive) {
                    return true;  // pure-negative set: full scan anyway
                }
                union_bound += set_bound;
                if (union_bound >= data_pages_.size()) {
                    break;
                }
            }
        }
        double fraction = static_cast<double>(std::min<uint64_t>(
                              union_bound, data_pages_.size())) /
                          static_cast<double>(data_pages_.size());
        return fraction >= config_.planner_scan_threshold;
    };
    if (consult && !plan.typed && in.planner && scan_is_cheaper()) {
        out->planned_full_scan = true;
        obs::Span span = tracer_->span("query.plan_full_scan", "core");
        counters_.planner_full_scans->add();
        consult = false;
    }

    if (consult) {
        obs::Span lookup_span = tracer_->span(
            plan.typed ? "query.typed_lookup" : "query.index_lookup",
            "core");
        // Different predicates' index chains are independent, so the
        // device overlaps them across channels: the modeled index time
        // is the slowest single chain plus the residual traffic at
        // kOverlap-way parallelism, not the serial sum the meter
        // records. The device overlaps ~256 outstanding commands;
        // dozens of chains progress concurrently, so residual traffic
        // divides by a deep factor while the slowest chain sets the
        // floor.
        constexpr uint64_t kOverlap = 32;
        SimTime max_lookup;
        uint64_t sum_ps = 0;
        auto timed = [&](auto lookup) {
            ssd_.resetClock();
            auto result = lookup();
            SimTime el = ssd_.elapsed();
            max_lookup = SimTime::max(max_lookup, el);
            sum_ps += el.ps();
            return result;
        };
        bool lost = false;
        bool need_all = false;
        std::vector<PageId> nominated;
        for (const query::Query &q : queries) {
            for (const query::IntersectionSet &set : q.sets()) {
                // Typed predicates: posting lists intersect to a line
                // set, mapped to the data pages holding those lines.
                std::optional<std::vector<uint64_t>> lines;
                std::vector<std::string_view> positives;
                for (const query::Term &t : set.terms) {
                    if (t.isTyped()) {
                        typed::LookupResult lr = timed(
                            [&] { return typed_index_->lookup(t.typed); });
                        b.typed_index_pages += lr.pages_read;
                        b.typed_index_bytes += lr.bytes_read;
                        lost = lost || lr.integrity_lost;
                        narrow(&lines, std::move(lr.lines));
                    } else if (!t.negated) {
                        positives.push_back(t.token);
                    }
                }
                std::optional<std::vector<PageId>> set_pages;
                if (lines) {
                    set_pages = typed_index_->pagesForLines(*lines);
                }
                // Positive keywords: per-token page lists intersect in
                // read order (Section 6.3).
                if (config_.use_index) {
                    for (std::string_view token : positives) {
                        bool token_lost = false;
                        narrow(&set_pages, timed([&] {
                                   return index_->lookup(token,
                                                         &token_lost);
                               }));
                        lost = lost || token_lost;
                        if (set_pages->empty()) {
                            break;
                        }
                    }
                }
                if (!set_pages) {
                    // A pure-negative set can occur anywhere (the
                    // index cannot prune on absence, Section 7.5's slow
                    // cases), as can a keyword set with the keyword
                    // index off.
                    need_all = true;
                } else {
                    nominated.insert(nominated.end(), set_pages->begin(),
                                     set_pages->end());
                }
            }
        }
        out->index_time = SimTime::max(
            max_lookup, SimTime::picoseconds(sum_ps / kOverlap));
        lookup_span.setSimDuration(out->index_time);
        lookup_span.end();
        ssd_.resetClock();

        if (lost) {
            // Damage made the nomination untrustworthy: scan every page
            // rather than silently miss matches. (The lookup traffic
            // already spent stays in the breakdown.)
            if (plan.typed) {
                out->degraded_typed_scan = true;
                counters_.degraded_typed_scans->add();
                obs::Span span =
                    tracer_->span("query.degraded_typed_scan", "core");
            } else {
                out->degraded_index_scan = true;
                counters_.degraded_index_scans->add();
                obs::Span span =
                    tracer_->span("query.degraded_index_scan", "core");
            }
        } else if (!need_all) {
            std::sort(nominated.begin(), nominated.end());
            nominated.erase(
                std::unique(nominated.begin(), nominated.end()),
                nominated.end());
            plan.pages = std::move(nominated);
        }
        // Pruning account. The typed tier counts a nomination only when
        // every set was pruned; the keyword tier counts the pages it
        // handed on, and reports them (with false-positive accounting)
        // only when they are fewer than the store's.
        if (plan.typed) {
            if (!lost && !need_all) {
                b.candidate_pages = plan.pages.size();
                counters_.candidate_pages->add(plan.pages.size());
            }
        } else {
            counters_.candidate_pages->add(plan.pages.size());
            plan.index_pruned =
                !lost && (plan.pages.size() < data_pages_.size() ||
                          data_pages_.empty());
            b.candidate_pages = plan.index_pruned ? plan.pages.size() : 0;
        }
    }

    if (in.windowed) {
        // Section 6.3's snapshot log bounds the window coarsely: it may
        // over-approximate but never cuts a page inside it.
        auto [lo, hi] = index_->pageRangeForTime(in.t0, in.t1);
        size_t before = plan.pages.size();
        std::erase_if(plan.pages,
                      [&](PageId p) { return p < lo || p > hi; });
        plan.index_pruned =
            plan.index_pruned || plan.pages.size() < before;
    }
    return plan;
}

Status
MithriLog::stagePages(std::span<const PageId> pages, Link link,
                      std::vector<compress::ByteView> *views,
                      std::vector<compress::Bytes> *storage,
                      QueryResult *out, std::vector<PageId> *staged_ids)
{
    fault::FaultPlan *plan = ssd_.faultPlan();
    views->reserve(pages.size());
    staged_ids->reserve(pages.size());
    if (plan == nullptr) {
        // Unfaulted hot path: zero-copy views straight out of the
        // store, one bulk overlapped charge. A CRC failure here is
        // persistent damage (no plan means a re-read returns the same
        // bytes), so the page is dropped, not retried.
        for (PageId id : pages) {
            std::span<const uint8_t> view;
            if (!ssd_.store().read(id, &view).isOk() ||
                !compress::lzahVerifyPage(view).isOk()) {
                counters_.crc_failed_pages->add();
                counters_.pages_dropped->add();
                ++out->pages_dropped;
                continue;
            }
            views->push_back(view);
            staged_ids->push_back(id);
        }
        ssd_.chargeOverlappedRead(pages.size(), link);
        return Status::ok();
    }
    // Fault plan attached: page-at-a-time reads so every page passes
    // the injection + retry machinery. A page that reads "cleanly" but
    // fails its LZAH CRC (silent corruption past the device's ECC)
    // spends the same retry budget on re-reads before being dropped.
    unsigned budget = plan->config().max_retries;
    storage->reserve(pages.size());
    for (PageId id : pages) {
        compress::Bytes buf;
        if (!ssd_.readOverlapped(id, link, &buf).isOk()) {
            counters_.pages_dropped->add();
            ++out->pages_dropped;
            continue;
        }
        bool ok = compress::lzahVerifyPage(buf).isOk();
        if (!ok) {
            counters_.crc_failed_pages->add();
        }
        for (unsigned r = 0; !ok && r < budget; ++r) {
            compress::Bytes fresh;
            if (!ssd_.rereadPage(id, link, &fresh).isOk()) {
                break;
            }
            buf = std::move(fresh);
            ok = compress::lzahVerifyPage(buf).isOk();
        }
        if (!ok) {
            counters_.pages_dropped->add();
            ++out->pages_dropped;
            continue;
        }
        storage->push_back(std::move(buf));
        staged_ids->push_back(id);
    }
    for (const compress::Bytes &b : *storage) {
        views->push_back(compress::ByteView(b.data(), b.size()));
    }
    return Status::ok();
}

Status
MithriLog::evaluate(const QueryPlan &plan,
                    std::span<const query::Query> queries, QueryResult *out)
{
    // Fallback ladder, evaluation side (plan() holds the index and
    // typed rungs): a batch the cuckoo compiler cannot encode goes to
    // the host evaluator over every data page; a filter fault goes to
    // the host evaluator over the pages already staged. Typed batches
    // never offload: the filter pipelines hash whole tokens and cannot
    // compare CIDR blocks or time windows, so the typed tier's offload
    // is the pruning (DESIGN.md §15).
    std::span<const PageId> pages = plan.pages;
    bool offload = !plan.typed;
    obs::Span ladder_span;
    if (offload) {
        obs::Span compile_span = tracer_->span("query.compile", "core");
        obs::StageTimer compile_timer(&stages_.query_compile);
        Status compiled = accel_.configure(queries);
        compile_timer.end();
        compile_span.end();
        if (compiled.code() == StatusCode::kCapacityExceeded ||
            compiled.code() == StatusCode::kUnsupported) {
            counters_.query_fallbacks->add();
            ladder_span = tracer_->span("query.fallback", "core");
            out->used_fallback = true;
            pages = data_pages_;
            offload = false;
        } else {
            MITHRIL_RETURN_IF_ERROR(compiled);
        }
    }

    // Offloaded pages stream over the internal link and pipeline
    // behind index traversal and filtering, so the reads are metered
    // (ssd.pages_read, link busy) as overlapped; host-bound pages cross
    // PCIe. The batch-read model bounds the stage from below;
    // retry/backoff charges under a fault plan can push it higher.
    Link link = offload ? Link::kInternal : Link::kExternal;
    obs::Span stream_span;
    if (offload) {
        stream_span = tracer_->span("query.page_stream", "core");
    }
    uint64_t stage_start_ps = ssd_.elapsed().ps();
    std::vector<compress::ByteView> views;
    std::vector<compress::Bytes> staged;
    std::vector<PageId> staged_ids;
    MITHRIL_RETURN_IF_ERROR(
        stagePages(pages, link, &views, &staged, out, &staged_ids));
    SimTime stage_busy =
        SimTime::picoseconds(ssd_.elapsed().ps() - stage_start_ps);
    out->storage_time =
        SimTime::max(ssd_.timeBatchRead(pages.size(), link), stage_busy);

    if (offload) {
        // Streaming and filtering overlap on the device; the spans
        // carry each stage's own modeled cost and the parent query span
        // carries the overlapped total.
        stream_span.setSimDuration(out->storage_time);
        stream_span.end();
        obs::Span filter_span = tracer_->span("query.filter", "core");
        accel::AccelResult ar;
        Status processed =
            accel_.process(views, accel::Mode::kFilter, &ar);
        filter_span.setSimDuration(ar.computeTime(config_.accel.clock_hz));
        filter_span.end();
        if (processed.code() != StatusCode::kCorruptData &&
            processed.code() != StatusCode::kDataLoss) {
            MITHRIL_RETURN_IF_ERROR(processed);
            out->breakdown.pages_with_matches = ar.pages_with_matches;
            out->matched_lines = ar.lines_kept;
            out->lines = std::move(ar.kept);
            out->matched_per_query.assign(
                ar.kept_per_query.begin(),
                ar.kept_per_query.begin() +
                    std::min<size_t>(queries.size(),
                                     ar.kept_per_query.size()));
            out->pages_scanned = pages.size();
            out->pages_total = data_pages_.size();
            out->bytes_scanned = ar.decompressed_bytes;
            out->useful_ratio = ar.usefulRatio();
            // Index traversal, data-page streaming, and the filter
            // pipelines all overlap: the index emits page addresses as
            // it discovers them and the accelerator consumes pages as
            // they arrive (Section 6's "fast enough to saturate the
            // accelerator"). The slowest stage paces the query; one
            // read latency covers the un-overlapped first hop.
            out->compute_time = ar.computeTime(config_.accel.clock_hz);
            out->total_time =
                SimTime::max(out->index_time,
                             SimTime::max(out->storage_time,
                                          out->compute_time)) +
                ssd_.config().read_latency;
            return Status::ok();
        }
        // The filter pipeline choked on damage the page CRCs did not
        // cover: the staged pages re-cross PCIe to the host evaluator
        // rather than failing the query.
        out->degraded_software_scan = true;
        counters_.degraded_software_scans->add();
        ladder_span = tracer_->span("query.degraded_software_scan", "core");
        ssd_.chargeOverlappedRead(views.size(), Link::kExternal);
        out->storage_time = out->storage_time +
                            ssd_.timeBatchRead(views.size(),
                                               Link::kExternal);
    }

    evaluateOnHost(views, staged_ids, queries, plan.typed, out);
    // Host evaluation does not overlap the reads. The compile fallback
    // models the storage side alone (its CPU cost is measured by the
    // benches that exercise it) and charges no first-hop latency.
    out->total_time = out->index_time + out->storage_time;
    if (out->used_fallback) {
        out->pages_scanned = data_pages_.size();
    } else {
        out->total_time = out->total_time + ssd_.config().read_latency;
    }
    ladder_span.setSimDuration(out->storage_time);
    return Status::ok();
}

void
MithriLog::evaluateOnHost(std::span<const compress::ByteView> views,
                          std::span<const PageId> view_pages,
                          std::span<const query::Query> queries,
                          bool number_lines, QueryResult *out)
{
    // First line of each staged page via the sealed-page directory, so
    // every match carries its global ingest line number.
    std::map<PageId, uint64_t> first_line;
    for (const typed::TypedIndex::PageSpan &s :
         typed_index_->pageDirectory()) {
        first_line[s.page] = s.first_line;
    }

    std::vector<query::SoftwareMatcher> matchers;
    matchers.reserve(queries.size());
    for (const query::Query &q : queries) {
        matchers.emplace_back(q);
    }
    out->matched_per_query.assign(queries.size(), 0);

    bool keep = config_.accel.keep_lines || number_lines;
    std::vector<std::pair<uint64_t, accel::KeptLine>> hits;
    for (size_t v = 0; v < views.size(); ++v) {
        // Decode per page so a mid-page decode failure (structural
        // damage past the CRC) drops that page cleanly instead of
        // leaking partial garbage into the results.
        compress::Bytes text;
        if (!compress::lzahDecodePage(views[v], /*padded=*/false, &text)
                 .isOk()) {
            counters_.pages_dropped->add();
            ++out->pages_dropped;
            continue;
        }
        out->bytes_scanned += text.size();
        auto it = first_line.find(view_pages[v]);
        MITHRIL_ASSERT(it != first_line.end());
        uint64_t line_no = it->second;
        uint32_t in_page = 0;
        bool page_matched = false;
        forEachLine(asChars(text), [&](std::string_view line) {
            bool any = false;
            uint64_t mask = 0;
            for (size_t q = 0; q < matchers.size(); ++q) {
                if (matchers[q].matches(line)) {
                    ++out->matched_per_query[q];
                    any = true;
                    if (q < 64) {
                        mask |= 1ull << q;
                    }
                }
            }
            if (any) {
                ++out->matched_lines;
                page_matched = true;
                if (keep) {
                    hits.emplace_back(
                        line_no,
                        accel::KeptLine{config_.accel.keep_lines
                                            ? std::string(line)
                                            : std::string(),
                                        mask, static_cast<uint32_t>(v),
                                        in_page});
                }
            }
            ++line_no;
            ++in_page;
        });
        // Counted as the accelerator counts it, so the false-positive
        // account holds on the host paths too.
        if (page_matched) {
            ++out->breakdown.pages_with_matches;
        }
    }
    // Candidate sets arrive in page-id order, which segment cleaning
    // can decouple from ingest order: sort by global line number so
    // the pruned and full-scan paths report byte-identical results.
    std::sort(hits.begin(), hits.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    out->lines.reserve(hits.size());
    for (auto &[line_no, kept] : hits) {
        if (number_lines) {
            out->line_numbers.push_back(line_no);
        }
        out->lines.push_back(std::move(kept));
    }
    out->pages_scanned = views.size();
    out->pages_total = data_pages_.size();
}

Status
MithriLog::runPipeline(std::span<const query::Query> queries,
                       const PlanInputs &in, QueryResult *out)
{
    *out = QueryResult{};
    if (queries.empty()) {
        return Status::invalidArgument("empty query batch");
    }
    WallTimer wall;
    obs::Span qspan = tracer_->span("query", "core");
    counters_.queries->add(queries.size());
    uint64_t retries_before = counters_.ssd_read_retries->value();
    QueryPlan p = plan(queries, in, out);
    Status st = evaluate(p, queries, out);
    finishQuery(out, &qspan, wall.seconds(), p.index_pruned,
                retries_before);
    return st;
}

Status
MithriLog::runBatch(std::span<const query::Query> queries, QueryResult *out)
{
    return runPipeline(queries, PlanInputs{.planner = true}, out);
}

Status
MithriLog::runFullScan(std::span<const query::Query> queries,
                       QueryResult *out)
{
    return runPipeline(queries, PlanInputs{.prune = false}, out);
}

Status
MithriLog::runTimeRange(const query::Query &q, uint64_t t0, uint64_t t1,
                        QueryResult *out)
{
    if (q.hasTypedPredicates()) {
        // Typed batches carry their window as a time:[t0,t1] predicate;
        // mixing the two mechanisms would double-bound inconsistently.
        *out = QueryResult{};
        return Status::unsupported(
            "typed predicates take run()/runBatch() "
            "(use time:[t0,t1] for the window)");
    }
    return runPipeline(std::span(&q, 1),
                       PlanInputs{.windowed = true, .t0 = t0, .t1 = t1},
                       out);
}

void
MithriLog::finishQuery(QueryResult *out, obs::Span *span,
                       double wall_seconds, bool index_pruned,
                       uint64_t retries_before)
{
    QueryBreakdown &b = out->breakdown;
    b.index_time = out->index_time;
    b.storage_time = out->storage_time;
    b.compute_time = out->compute_time;
    b.total_time = out->total_time;
    b.pages_scanned = out->pages_scanned;
    b.pages_total = out->pages_total;
    b.matched_lines = out->matched_lines;
    b.used_fallback = out->used_fallback;
    b.planned_full_scan = out->planned_full_scan;
    b.degraded_index_scan = out->degraded_index_scan;
    b.degraded_software_scan = out->degraded_software_scan;
    b.degraded_typed_scan = out->degraded_typed_scan;
    b.pages_dropped = out->pages_dropped;
    b.read_retries =
        counters_.ssd_read_retries->value() - retries_before;
    b.wall_seconds = wall_seconds;
    if (index_pruned && !out->used_fallback &&
        b.pages_scanned >= b.pages_with_matches) {
        b.false_positive_pages = b.pages_scanned - b.pages_with_matches;
        counters_.false_positive_pages->add(b.false_positive_pages);
    }
    span->setSimDuration(out->total_time);
    span->end();
}

Status
MithriLog::run(const query::Query &q, QueryResult *out)
{
    return runBatch(std::span(&q, 1), out);
}

Status
MithriLog::run(std::string_view query_text, QueryResult *out)
{
    query::Query q;
    MITHRIL_RETURN_IF_ERROR(query::parseQuery(query_text, &q));
    return run(q, out);
}

namespace {
constexpr uint32_t kImageMagic = 0x474f4c4d;  // "MLOG"
/** v6: a length-prefixed typed-index blob (key directory + sealed-page
 *  directory, DESIGN.md §15) follows the inverted-index blob; typed
 *  posting pages travel in the page dump like index pages. v5:
 *  storage-lifecycle images — the journal cursor is length-prefixed
 *  (it went variable: committed page table + chain/snapshot page lists)
 *  and a freed-logical-id list restores the FTL free list, with freed
 *  ids dumped as zero pages to keep the logical-order dump dense. v4
 *  widened the cursor to 8 words; v3 added the durable-commit state and
 *  the cursor; v2 images predate the journal layout. Older versions are
 *  rejected. */
constexpr uint32_t kImageVersion = 6;

/** Raw device dump header (saveDeviceImage / recover). */
constexpr uint32_t kDeviceMagic = 0x5645444d;  // "MDEV"
constexpr uint32_t kDeviceVersion = 1;
} // namespace

Status
MithriLog::saveImage(const std::string &path)
{
    MITHRIL_RETURN_IF_ERROR(flush());

    std::vector<uint8_t> blob;
    putLe<uint32_t>(blob, kImageMagic);
    putLe<uint32_t>(blob, kImageVersion);
    putLe<uint64_t>(blob, lines_);
    putLe<uint64_t>(blob, raw_bytes_);
    putLe<uint64_t>(blob, truncated_lines_);
    putLe<uint64_t>(blob, committed_lines_);
    putLe<uint64_t>(blob, committed_raw_);
    putLe<uint64_t>(blob, sealed_ ? 1 : 0);
    putLe<uint64_t>(blob, data_pages_.size());
    for (PageId p : data_pages_) {
        putLe<uint64_t>(blob, p);
    }

    // Logical ids the lifecycle layer freed (old journal chains and
    // snapshots): restored as burned ids whose slots rejoin the free
    // list, so post-load allocation order matches the live store's.
    std::vector<PageId> freed;
    for (PageId p = 0; p < ssd_.store().pageCount(); ++p) {
        if (!ssd_.store().contains(p)) {
            freed.push_back(p);
        }
    }
    putLe<uint64_t>(blob, freed.size());
    for (PageId p : freed) {
        putLe<uint64_t>(blob, p);
    }

    std::vector<uint8_t> index_blob;
    index_->serialize(&index_blob);
    putLe<uint64_t>(blob, index_blob.size());
    blob.insert(blob.end(), index_blob.begin(), index_blob.end());

    std::vector<uint8_t> typed_blob;
    typed_index_->serialize(&typed_blob);
    putLe<uint64_t>(blob, typed_blob.size());
    blob.insert(blob.end(), typed_blob.begin(), typed_blob.end());

    std::vector<uint8_t> journal_blob;
    journal_.serialize(&journal_blob);
    putLe<uint64_t>(blob, journal_blob.size());
    blob.insert(blob.end(), journal_blob.begin(), journal_blob.end());

    uint64_t pages = ssd_.store().pageCount();
    putLe<uint64_t>(blob, pages);

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        return Status::invalidArgument("cannot open " + path);
    }
    bool ok = std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
    static const uint8_t kZeroPage[storage::kPageSize] = {};
    for (PageId p = 0; ok && p < pages; ++p) {
        if (!ssd_.store().contains(p)) {
            // Freed id: its slot is gone, but the logical-order dump
            // must stay dense for the positional load below.
            ok = std::fwrite(kZeroPage, 1, sizeof kZeroPage, f) ==
                 sizeof kZeroPage;
            continue;
        }
        std::span<const uint8_t> view;
        ok = ssd_.store().read(p, &view).isOk() &&
             std::fwrite(view.data(), 1, view.size(), f) == view.size();
    }
    if (std::fclose(f) != 0 || !ok) {
        return Status::internal("short write to " + path);
    }
    return Status::ok();
}

Status
MithriLog::loadImage(const std::string &path)
{
    if (lines_ != 0 || ssd_.store().pageCount() != 0) {
        return Status::invalidArgument(
            "loadImage requires a fresh system");
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        return Status::invalidArgument("cannot open " + path);
    }
    std::vector<uint8_t> blob;
    uint8_t chunk[65536];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
        blob.insert(blob.end(), chunk, chunk + n);
    }
    std::fclose(f);

    size_t pos = 0;
    auto need = [&](size_t k) { return pos + k <= blob.size(); };
    auto get64 = [&]() { uint64_t v = getLe<uint64_t>(blob.data() + pos);
                         pos += 8; return v; };
    if (!need(8) || getLe<uint32_t>(blob.data()) != kImageMagic ||
        getLe<uint32_t>(blob.data() + 4) != kImageVersion) {
        return Status::corruptData("bad image header");
    }
    pos = 8;
    if (!need(7 * 8)) {
        return Status::corruptData("image truncated");
    }
    lines_ = get64();
    raw_bytes_ = get64();
    truncated_lines_ = get64();
    committed_lines_ = get64();
    committed_raw_ = get64();
    sealed_ = get64() != 0;
    uint64_t n_data_pages = get64();
    if (!need(n_data_pages * 8 + 8)) {
        return Status::corruptData("image data-page list truncated");
    }
    data_pages_.clear();
    for (uint64_t i = 0; i < n_data_pages; ++i) {
        data_pages_.push_back(get64());
    }
    uint64_t n_freed = get64();
    if (!need(n_freed * 8 + 8)) {
        return Status::corruptData("image free list truncated");
    }
    std::vector<PageId> freed;
    freed.reserve(n_freed);
    for (uint64_t i = 0; i < n_freed; ++i) {
        freed.push_back(get64());
    }
    uint64_t index_size = get64();
    if (!need(index_size + 8)) {
        return Status::corruptData("image index blob truncated");
    }
    std::span<const uint8_t> index_blob(blob.data() + pos, index_size);
    pos += index_size;
    uint64_t typed_size = get64();
    if (!need(typed_size + 8)) {
        return Status::corruptData("image typed blob truncated");
    }
    std::span<const uint8_t> typed_blob(blob.data() + pos, typed_size);
    pos += typed_size;
    // The journal cursor references the current journal page image, so
    // it deserializes only after the pages below are in the store. It
    // is variable-length (committed table + page lists): the prefix
    // says how much to skip now and consume later.
    uint64_t cursor_bytes = get64();
    if (!need(cursor_bytes + 8)) {
        return Status::corruptData("image journal cursor truncated");
    }
    size_t cursor_pos = pos;
    pos += cursor_bytes;
    uint64_t pages = get64();
    if (!need(pages * storage::kPageSize)) {
        return Status::corruptData("image pages truncated");
    }
    for (uint64_t p = 0; p < pages; ++p) {
        PageId id = ssd_.allocate();
        MITHRIL_RETURN_IF_ERROR(ssd_.store().write(
            id, std::span<const uint8_t>(
                    blob.data() + pos + p * storage::kPageSize,
                    storage::kPageSize)));
    }
    // Re-burn the freed ids so the FTL state (free list, occupancy)
    // matches the saving store's.
    for (PageId p : freed) {
        MITHRIL_RETURN_IF_ERROR(ssd_.store().free(p));
    }
    size_t consumed = 0;
    MITHRIL_RETURN_IF_ERROR(journal_.deserialize(
        blob.data() + cursor_pos, cursor_bytes, &consumed));
    if (consumed != cursor_bytes) {
        return Status::corruptData("image journal cursor size mismatch");
    }
    MITHRIL_RETURN_IF_ERROR(index_->deserialize(index_blob));
    MITHRIL_RETURN_IF_ERROR(typed_index_->deserialize(typed_blob));
    updateStorageGauges();
    ssd_.resetClock();
    return Status::ok();
}

Status
MithriLog::saveDeviceImage(const std::string &path) const
{
    std::vector<uint8_t> header;
    putLe<uint32_t>(header, kDeviceMagic);
    putLe<uint32_t>(header, kDeviceVersion);
    uint64_t pages = ssd_.store().pageCount();
    putLe<uint64_t>(header, pages);

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        return Status::invalidArgument("cannot open " + path);
    }
    bool ok =
        std::fwrite(header.data(), 1, header.size(), f) == header.size();
    static const uint8_t kZeroPage[storage::kPageSize] = {};
    for (PageId p = 0; ok && p < pages; ++p) {
        if (!ssd_.store().contains(p)) {
            // Freed id: dumped as a zero page. The raw dump is taken in
            // logical order — the translation map is device metadata,
            // like a real FTL's table — so physical migration and
            // reclamation are invisible to crash recovery; replay never
            // references a freed id, and recover() sweeps the garbage.
            ok = std::fwrite(kZeroPage, 1, sizeof kZeroPage, f) ==
                 sizeof kZeroPage;
            continue;
        }
        std::span<const uint8_t> view;
        ok = ssd_.store().read(p, &view).isOk() &&
             std::fwrite(view.data(), 1, view.size(), f) == view.size();
    }
    if (std::fclose(f) != 0 || !ok) {
        return Status::internal("short write to " + path);
    }
    return Status::ok();
}

Status
MithriLog::recover(const std::string &path)
{
    if (lines_ != 0 || ssd_.store().pageCount() != 0) {
        return Status::invalidArgument("recover requires a fresh system");
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        return Status::invalidArgument("cannot open " + path);
    }
    std::vector<uint8_t> blob;
    uint8_t chunk[65536];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
        blob.insert(blob.end(), chunk, chunk + n);
    }
    std::fclose(f);
    if (blob.size() < 16 ||
        getLe<uint32_t>(blob.data()) != kDeviceMagic ||
        getLe<uint32_t>(blob.data() + 4) != kDeviceVersion) {
        return Status::corruptData("bad device image header");
    }
    uint64_t pages = getLe<uint64_t>(blob.data() + 8);
    if (blob.size() < 16 + pages * storage::kPageSize) {
        return Status::corruptData("device image pages truncated");
    }
    // Host-side restore of the NAND contents: not metered device
    // traffic (the bytes never crossed the modeled links).
    for (uint64_t p = 0; p < pages; ++p) {
        PageId id = ssd_.allocate();
        MITHRIL_RETURN_IF_ERROR(ssd_.store().write(
            id, std::span<const uint8_t>(
                    blob.data() + 16 + p * storage::kPageSize,
                    storage::kPageSize)));
    }
    ssd_.resetClock();

    obs::Span span = tracer_->span("recover", "core");

    // Step 1: replay the journal (metered chained reads).
    obs::Span replay_span = tracer_->span("recover.journal_replay",
                                          "core");
    storage::Journal::ReplayResult rr;
    Status replayed = journal_.replay(&rr);
    replay_span.end();
    MITHRIL_RETURN_IF_ERROR(replayed);

    // Step 2: verify every committed data page against its journaled
    // CRC and decode it. Verification failures (a lying device tore or
    // dropped an acked program) cut the recovered dataset to the
    // longest clean prefix — cumulative line counts only make sense
    // for a prefix, and a mid-stream hole could turn into phantom or
    // missing matches silently.
    obs::Span verify_span = tracer_->span("recover.verify_pages",
                                          "core");
    struct Survivor {
        storage::Journal::CommittedPage cp;
        compress::Bytes text;
    };
    std::vector<Survivor> survivors;
    survivors.reserve(rr.pages.size());
    for (const storage::Journal::CommittedPage &cp : rr.pages) {
        compress::Bytes buf;
        if (!ssd_.readOverlapped(cp.page, Link::kInternal, &buf)
                 .isOk() ||
            crc32(buf.data(), buf.size()) != cp.crc ||
            !compress::lzahVerifyPage(buf).isOk()) {
            break;
        }
        compress::Bytes text;
        if (!compress::lzahDecodePage(buf, /*padded=*/false, &text)
                 .isOk()) {
            break;
        }
        survivors.push_back(Survivor{cp, std::move(text)});
    }
    uint64_t discarded = rr.pages.size() - survivors.size();
    verify_span.end();

    // Step 2b: mark-sweep space reclamation. The journal footprint the
    // replay walked (chain + snapshot pages), the superblock slots, and
    // the surviving data pages are the only pages the recovered store
    // can ever reference. Everything else — the crashed store's index
    // pages, pages freed before the crash, data pages past the
    // verification cut — is garbage the mount reclaims, so the index
    // rebuild below reuses the slots deterministically.
    obs::Span sweep_span = tracer_->span("recover.sweep", "core");
    std::vector<bool> live(ssd_.store().pageCount(), false);
    for (PageId p = 0; p < 2 && p < live.size(); ++p) {
        live[p] = true; // superblock slots
    }
    for (PageId p : rr.chain_pages) {
        live[p] = true;
    }
    for (PageId p : rr.snapshot_pages) {
        live[p] = true;
    }
    for (const Survivor &s : survivors) {
        live[s.cp.page] = true;
    }
    uint64_t swept = 0;
    for (PageId p = 0; p < live.size(); ++p) {
        if (!live[p]) {
            MITHRIL_RETURN_IF_ERROR(ssd_.store().free(p));
            ++swept;
        }
    }
    sweep_span.end();

    // Step 3: rebuild the index from the surviving pages (the index is
    // unjournaled by design; committed data pages are the source of
    // truth).
    obs::Span index_span = tracer_->span("recover.index_rebuild",
                                         "core");
    uint64_t rebuilt_lines = 0;
    for (const Survivor &s : survivors) {
        // The typed index is unjournaled like the keyword index: both
        // are re-extracted from the verified survivors, one tokenizer
        // pass per line as at ingest.
        uint64_t line_no = rebuilt_lines;
        forEachLine(asChars(s.text), [&](std::string_view line) {
            indexLine(line, line_no++);
        });
        // Timestamps are ingest line sequence numbers; the cumulative
        // count at commit time reproduces the original stamps.
        index_->addPage(s.cp.page, page_tokens_.sorted(), s.cp.lines);
        page_tokens_.clear();
        typed_index_->notePage(s.cp.page, rebuilt_lines,
                               s.cp.lines - rebuilt_lines);
        rebuilt_lines = s.cp.lines;
        data_pages_.push_back(s.cp.page);
    }
    index_->flush();
    typed_index_->flush();
    index_span.end();

    if (!survivors.empty()) {
        lines_ = survivors.back().cp.lines;
        raw_bytes_ = survivors.back().cp.raw_bytes;
    }
    committed_lines_ = lines_;
    committed_raw_ = raw_bytes_;
    // A recovered store is read-only until reopen(): the journal cursor
    // died with the device, and only a fresh generation (Journal::
    // reopen) can accept new records. Stash what reopen() needs — the
    // replay summary and the verification cut (the base-link budget).
    sealed_ = true;
    recovered_ = true;
    journal_sealed_ = rr.sealed;
    reopen_accepted_ =
        survivors.empty() ? 0 : survivors.back().cp.record_seq;
    reopen_rr_ = std::move(rr);

    metrics().counter("recovery.journal_pages_replayed")
        .add(reopen_rr_.journal_pages);
    metrics().counter("recovery.records_replayed")
        .add(reopen_rr_.records);
    metrics().counter("recovery.pages_committed")
        .add(reopen_rr_.pages.size());
    metrics().counter("recovery.pages_discarded").add(discarded);
    metrics().counter("recovery.pages_swept").add(swept);
    metrics().counter("recovery.lines_recovered").add(lines_);
    // Total logical records this mount replayed (snapshot + tail): the
    // quantity the checkpoint bounds, exposed for the bounded-replay
    // gates.
    metrics().gauge("recovery.replay_records")
        .set(static_cast<double>(reopen_rr_.records));
    metrics().gauge("journal.generation")
        .set(static_cast<double>(reopen_rr_.generation));
    updateStorageGauges();
    // mithril-lint: allow(adhoc-latency) one-shot mount-time total, not a latency sample
    metrics().counter("recovery.modeled_ps").add(ssd_.elapsed().ps());
    span.end();
    return Status::ok();
}

Status
MithriLog::reopen()
{
    if (dead_) {
        return Status::unavailable(
            "device lost power; recover() the image on a fresh system");
    }
    if (!recovered_) {
        return Status::failedPrecondition(
            "reopen() requires a store produced by recover()");
    }
    if (journal_sealed_) {
        return Status::failedPrecondition(
            "store was sealed; seal is terminal across recovery");
    }
    obs::Span span = tracer_->span("recover.reopen", "core");
    // An empty recovered device (crash before the first commit) has no
    // chain to graft: leave the journal unformatted and let the first
    // commit lay it out lazily, exactly like a fresh store.
    if (ssd_.store().pageCount() > 0) {
        Status st = journal_.reopen(reopen_rr_, reopen_accepted_);
        if (!st.isOk()) {
            // The reopen writes are faultable device programs: a power
            // cut here is a real crash window (the pre-reopen state
            // replays unchanged).
            dead_ = true;
            return st;
        }
    }
    sealed_ = false;
    recovered_ = false;
    // A snapshot-bearing reopen collapses and reclaims the old journal
    // footprint; republish the occupancy it changed.
    updateStorageGauges();
    span.end();
    return Status::ok();
}

std::string
QueryBreakdown::toJson() const
{
    std::string out;
    obs::JsonWriter w(&out);
    w.beginObject();
    w.key("index_ps");
    w.value(static_cast<uint64_t>(index_time.ps()));
    w.key("storage_ps");
    w.value(static_cast<uint64_t>(storage_time.ps()));
    w.key("compute_ps");
    w.value(static_cast<uint64_t>(compute_time.ps()));
    w.key("total_ps");
    w.value(static_cast<uint64_t>(total_time.ps()));
    w.key("candidate_pages");
    w.value(candidate_pages);
    w.key("pages_scanned");
    w.value(pages_scanned);
    w.key("pages_total");
    w.value(pages_total);
    w.key("pages_with_matches");
    w.value(pages_with_matches);
    w.key("false_positive_pages");
    w.value(false_positive_pages);
    w.key("matched_lines");
    w.value(matched_lines);
    w.key("used_fallback");
    w.value(used_fallback);
    w.key("planned_full_scan");
    w.value(planned_full_scan);
    w.key("degraded_index_scan");
    w.value(degraded_index_scan);
    w.key("degraded_software_scan");
    w.value(degraded_software_scan);
    w.key("pages_dropped");
    w.value(pages_dropped);
    w.key("read_retries");
    w.value(read_retries);
    w.key("typed_predicates");
    w.value(typed_predicates);
    w.key("typed_index_pages");
    w.value(typed_index_pages);
    w.key("typed_index_bytes");
    w.value(typed_index_bytes);
    w.key("degraded_typed_scan");
    w.value(degraded_typed_scan);
    w.key("wall_seconds");
    w.value(wall_seconds);
    w.endObject();
    return out;
}

} // namespace mithril::core
