#include "layers.h"

#include <algorithm>
#include <set>

#include "accel/accelerator.h"
#include "common/text.h"
#include "compress/lzah.h"
#include "index/inverted_index.h"
#include "obs/report.h"
#include "query/parser.h"
#include "spans.h"
#include "svc/log_service.h"
#include "typed/predicate.h"
#include "typed/typed_index.h"

namespace perfbench {

using mithril::Status;
using mithril::query::Query;

namespace {

/** Span ids of the replays, apart from the workloads' own ids. */
constexpr uint64_t kIngestReplayId = 1ull << 40;
constexpr uint64_t kQueryReplayId = 2ull << 40;
constexpr uint64_t kTypedReplayId = 3ull << 40;
constexpr uint64_t kSvcReplayId = 4ull << 40;

/** Caps that keep a traced run's replays to a few seconds. */
constexpr uint64_t kIngestReplayBytes = 4ull << 20;
constexpr uint64_t kSvcReplayBytes = 2ull << 20;
constexpr size_t kQueryReplays = 48;
constexpr size_t kSvcReplayQueries = 16;
constexpr size_t kDecodePages = 2048;

/** Typed predicates replayed on corpora without planted evidence: the
 *  generators draw addresses from 10.0.0.0/8, skewed toward low
 *  octets. */
const std::vector<std::string> kDefaultTypedQueries = {
    "ip:10.0.0.0/24", "ip:10.0.0.0/16", "ip:10.0.0.0/8"};

double
mbps(uint64_t bytes, double seconds)
{
    return seconds > 0 ? static_cast<double>(bytes) / 1e6 / seconds : 0.0;
}

/** Ingest-side replays over one slice: the program's own ingest of the
 *  slice, then each layer's public function on the same lines. */
void
replayIngest(Context &ctx, const LayerInputs &in)
{
    const Corpus &c = *in.corpus;
    size_t first = in.replay_first;
    size_t last = std::min(in.replay_last,
                           c.lineAtByte(c.offsets[first] + kIngestReplayBytes));
    std::string_view text = c.span(first, last);
    uint64_t bytes = text.size();
    Spans &spans = ctx.spans;
    uint64_t id = kIngestReplayId;
    Spans::Scope parent = spans.open("layers.ingest", id);

    MithriLog store(storeConfig(in.checkpoint_every_pages));
    double core_s = 0.0;
    {
        Spans::Scope s = spans.open("core.ingest", id);
        Status st = store.ingestText(text);
        if (st.isOk()) {
            st = store.flush();
        }
        core_s = s.end();
        ctx.report.check(st.isOk(), "ingest replay: " + st.toString());
    }

    size_t tokens = 0;
    double tokenize_s = 0.0;
    {
        Spans::Scope s = spans.open("common.tokenize", id);
        for (size_t i = first; i < last; ++i) {
            mithril::forEachToken(c.lines[i], [&](std::string_view, uint32_t) {
                ++tokens;
                return true;
            });
        }
        tokenize_s = s.end();
    }

    double encode_s = 0.0;
    size_t encoded_pages = 0;
    {
        mithril::compress::LzahPageEncoder enc;
        Spans::Scope s = spans.open("compress.encode", id);
        for (size_t i = first; i < last; ++i) {
            enc.addLine(c.lines[i]);
        }
        enc.flush();
        encode_s = s.end();
        encoded_pages = enc.pages().size();
    }

    double extract_s = 0.0;
    {
        mithril::storage::SsdModel ssd;
        mithril::typed::TypedIndex typed(&ssd);
        Spans::Scope s = spans.open("typed.extract", id);
        for (size_t i = first; i < last; ++i) {
            typed.addLine(c.lines[i], i - first);
        }
        extract_s = s.end();
    }

    // Distinct token set of every data page the replay store sealed,
    // built outside the timed span, then one addPage per page.
    const auto &dir = store.typedIndex().pageDirectory();
    std::vector<std::vector<std::string_view>> page_tokens;
    for (const auto &span : dir) {
        std::vector<std::string_view> toks;
        for (uint64_t l = span.first_line;
             l < span.first_line + span.line_count; ++l) {
            mithril::forEachToken(c.lines[first + l],
                                  [&](std::string_view t, uint32_t) {
                                      toks.push_back(t);
                                      return true;
                                  });
        }
        std::sort(toks.begin(), toks.end());
        toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
        page_tokens.push_back(std::move(toks));
    }
    double index_s = 0.0;
    {
        mithril::storage::SsdModel ssd;
        mithril::index::InvertedIndex index(&ssd);
        Spans::Scope s = spans.open("index.add", id);
        for (size_t p = 0; p < dir.size(); ++p) {
            index.addPage(dir[p].page, page_tokens[p],
                          dir[p].first_line + dir[p].line_count);
        }
        index.flush();
        index_s = s.end();
    }
    parent.end();

    ctx.report.note("ingest replay: " + std::to_string(bytes) + " B, " +
                    std::to_string(tokens) + " tokens, " +
                    std::to_string(encoded_pages) + " pages");
    ctx.report.layer("common.tokenize_MBps", mbps(bytes, tokenize_s), "MB/s");
    ctx.report.layer("compress.encode_MBps", mbps(bytes, encode_s), "MB/s");
    ctx.report.layer("typed.extract_MBps", mbps(bytes, extract_s), "MB/s");
    ctx.report.layer("index.add_us",
                      dir.empty() ? 0.0
                                  : index_s * 1e6 /
                                        static_cast<double>(dir.size()),
                      "us");
    ctx.report.layer("core.ingest_self_s",
                      core_s - (tokenize_s + encode_s + extract_s + index_s),
                      "s");
}

/** Decodes the measured store's data pages. */
void
replayDecode(Context &ctx, const LayerInputs &in)
{
    MithriLog &store = *in.store;
    std::vector<std::span<const uint8_t>> pages;
    for (mithril::storage::PageId id : store.dataPages()) {
        std::span<const uint8_t> page;
        if (store.ssd().store().read(id, &page).isOk()) {
            pages.push_back(page);
        }
        if (pages.size() >= kDecodePages) {
            break;
        }
    }
    uint64_t out_bytes = 0;
    mithril::compress::Bytes text;
    Spans::Scope s = ctx.spans.open("compress.decode", kIngestReplayId);
    for (std::span<const uint8_t> page : pages) {
        text.clear();
        if (mithril::compress::lzahDecodePage(page, false, &text).isOk()) {
            out_bytes += text.size();
        }
    }
    double secs = s.end();
    ctx.report.layer("compress.decode_MBps", mbps(out_bytes, secs), "MB/s");
    uint64_t in_b = store.metrics().counterValue("lzah.bytes_in");
    uint64_t out_b = store.metrics().counterValue("lzah.bytes_out");
    ctx.report.layer("compress.ratio",
                      out_b ? static_cast<double>(in_b) /
                                  static_cast<double>(out_b)
                            : 0.0,
                      "ratio");
}

/** Keyword-query replays: parse, compile, index lookup, staging and
 *  filtering of each query, next to the program's own run(). */
void
replayQueries(Context &ctx, const LayerInputs &in)
{
    MithriLog &store = *in.store;
    Spans &spans = ctx.spans;
    std::vector<double> parse_us, compile_us, lookup_us, sim_us, self_ms;
    std::vector<double> useful;
    double filter_s = 0.0;
    uint64_t filter_bytes = 0;
    size_t n = std::min(kQueryReplays, in.keyword_queries.size());
    for (size_t qi = 0; qi < n; ++qi) {
        const Query &q = in.keyword_queries[qi];
        uint64_t id = kQueryReplayId + qi;
        Spans::Scope parent = spans.open("query.replay", id);
        std::string text = q.toString();
        Query parsed;
        {
            Spans::Scope s = spans.open("query.parse", id);
            Status st = mithril::query::parseQuery(text, &parsed);
            parse_us.push_back(s.end() * 1e6);
            (void)st;
        }
        mithril::accel::Accelerator acc(store.config().accel);
        Status compiled = Status::ok();
        {
            Spans::Scope s = spans.open("accel.compile", id);
            compiled = acc.configure(q);
            compile_us.push_back(s.end() * 1e6);
        }
        std::set<mithril::storage::PageId> cand;
        {
            Spans::Scope s = spans.open("index.lookup", id);
            bool all_pages = false;
            for (const auto &set : q.sets()) {
                std::vector<std::string> tokens;
                for (const auto &t : set.terms) {
                    if (!t.negated && !t.isTyped()) {
                        tokens.push_back(t.token);
                    }
                }
                if (tokens.empty()) {
                    all_pages = true;
                    continue;
                }
                for (auto p : store.index().lookupAll(tokens)) {
                    cand.insert(p);
                }
            }
            if (all_pages) {
                cand.insert(store.dataPages().begin(),
                            store.dataPages().end());
            }
            lookup_us.push_back(s.end() * 1e6);
        }
        std::vector<mithril::storage::PageId> ids(cand.begin(), cand.end());
        std::vector<uint8_t> buf;
        double stage_s = 0.0;
        {
            Spans::Scope s = spans.open("storage.stage", id);
            Status st = store.ssd().readBatch(
                ids, mithril::storage::Link::kInternal, &buf);
            stage_s = s.end();
            if (!st.isOk()) {
                buf.clear();
            }
        }
        std::vector<mithril::compress::ByteView> views;
        for (size_t off = 0; off + mithril::storage::kPageSize <= buf.size();
             off += mithril::storage::kPageSize) {
            views.emplace_back(buf.data() + off, mithril::storage::kPageSize);
        }
        double filt = 0.0;
        if (compiled.isOk()) {
            mithril::accel::AccelResult res;
            Spans::Scope s = spans.open("accel.filter", id);
            Status st = acc.process(views, mithril::accel::Mode::kFilter, &res);
            filt = s.end();
            if (st.isOk()) {
                filter_s += filt;
                filter_bytes += res.decompressed_bytes;
                sim_us.push_back(res.computeTime().toSeconds() * 1e6);
                useful.push_back(res.usefulRatio());
            }
        }
        double run_s = 0.0;
        {
            mithril::core::QueryResult r;
            Spans::Scope s = spans.open("core.run", id);
            Status st = store.run(q, &r);
            run_s = s.end();
            (void)st;
        }
        parent.end();
        self_ms.push_back((run_s - (parse_us.back() / 1e6 +
                                    compile_us.back() / 1e6 +
                                    lookup_us.back() / 1e6 + stage_s + filt)) *
                          1e3);
    }
    ctx.report.layer("query.parse_us", median(parse_us), "us");
    ctx.report.layer("accel.compile_us", median(compile_us), "us");
    ctx.report.layer("index.lookup_us", median(lookup_us), "us");
    ctx.report.layer("accel.filter_MBps", mbps(filter_bytes, filter_s),
                      "MB/s");
    ctx.report.layer("accel.filter_sim_us", mean(sim_us), "us");
    ctx.report.layer("accel.useful_ratio", mean(useful), "ratio");
    ctx.report.layer("core.query_self_ms", median(self_ms), "ms");
}

/** Typed replays: predicate lookups on the posting lists, and the
 *  program's typed run of the same text for its pruning account. */
void
replayTyped(Context &ctx, const LayerInputs &in)
{
    MithriLog &store = *in.store;
    const std::vector<std::string> &texts =
        in.typed_queries.empty() ? kDefaultTypedQueries : in.typed_queries;
    std::vector<double> lookup_us, pruned;
    for (size_t qi = 0; qi < texts.size(); ++qi) {
        uint64_t id = kTypedReplayId + qi;
        Spans::Scope parent = ctx.spans.open("typed.replay", id);
        for (std::string_view word :
             mithril::splitTokens(texts[qi])) {
            mithril::typed::Predicate pred;
            if (!mithril::typed::isTypedWord(word) ||
                !mithril::typed::parsePredicate(word, &pred).isOk()) {
                continue;
            }
            Spans::Scope s = ctx.spans.open("typed.lookup", id);
            mithril::typed::LookupResult lr = store.typedIndex().lookup(pred);
            lookup_us.push_back(s.end() * 1e6);
        }
        mithril::core::QueryResult r;
        Spans::Scope s = ctx.spans.open("core.run", id);
        Status st = store.run(texts[qi], &r);
        s.end();
        if (st.isOk() && r.breakdown.pages_total > 0) {
            pruned.push_back(1.0 - static_cast<double>(r.breakdown.pages_scanned) /
                                       static_cast<double>(r.breakdown.pages_total));
        }
    }
    ctx.report.layer("typed.lookup_us", median(lookup_us), "us");
    ctx.report.layer("typed.pruned_ratio", mean(pruned), "ratio");
    ctx.report.layer(
        "typed.index_KB",
        static_cast<double>(store.typedIndex().stats().get("pages_written")) *
            static_cast<double>(mithril::storage::kPageSize) / 1024.0,
        "KB");
}

/** Index, storage and planner figures of the measured phase's first
 *  kModeledRounds rounds (deterministic for a seed). */
void
phaseFigures(Context &ctx, const LayerInputs &in)
{
    std::vector<double> index_us, storage_us;
    double cand = 0, fp = 0;
    uint64_t full_scans = 0;
    std::vector<QuerySample> samples = in.queries->modeledSamples();
    for (const QuerySample &s : samples) {
        index_us.push_back(s.index_us);
        storage_us.push_back(s.storage_us);
        cand += static_cast<double>(s.candidate_pages);
        fp += static_cast<double>(s.false_positive_pages);
        full_scans += s.planned_full_scan ? 1 : 0;
    }
    size_t n = samples.size();
    // Modeled times are means: like query_sim_mean_us, a median would
    // sit on the plateau every index-pruned query shares.
    ctx.report.layer("index.sim_us", mean(index_us), "us");
    ctx.report.layer("index.candidate_pages",
                      n ? cand / static_cast<double>(n) : 0.0, "count");
    ctx.report.layer("index.fp_ratio", cand > 0 ? fp / cand : 0.0, "ratio");
    ctx.report.layer("core.planner_full_scans",
                      static_cast<double>(full_scans), "count");

    MithriLog &store = *in.store;
    ctx.report.layer("storage.pages_written",
                      static_cast<double>(
                          store.ssd().stats().get("pages_written")),
                      "count");
    ctx.report.layer("storage.checkpoints",
                      static_cast<double>(store.checkpoints()), "count");
    ctx.report.layer("storage.migrations",
                      static_cast<double>(store.metrics().counterValue(
                          "storage.migrations")),
                      "count");
    ctx.report.layer("storage.segments_freed",
                      static_cast<double>(
                          store.ssd().store().segmentsFreed()),
                      "count");
    ctx.report.layer("storage.journal_commit_p50_us",
                      stageP50Us(store.metrics(), "journal.commit"), "us");
    ctx.report.layer("storage.read_sim_us", mean(storage_us), "us");
    ctx.report.layer("storage.replay_records", in.replay_records, "count");
}

/** Shards and workers of the replayed LogService: the caller thread
 *  plus three workers fill the 4-core host. */
constexpr size_t kSvcShards = 4;
constexpr size_t kSvcThreads = 3;

/** svc-layer figures of one ingest + fan-out sequence. */
struct SvcFigures {
    double append_s = 0.0;       ///< summed append() call time
    double backpressure_s = 0.0; ///< summed drain() waits after refusals
    uint64_t refusals = 0;       ///< kResourceExhausted answers
    uint64_t lines = 0;          ///< lines accepted
    double queue_wait_p50_us = 0.0;
    std::vector<double> fanout_overhead_ms;  ///< per query
    std::vector<double> imbalance_pct;       ///< per query
};

/** A LogService with the benchmark's shard/worker counts. */
mithril::svc::LogServiceConfig
serviceConfig()
{
    mithril::svc::LogServiceConfig config;
    config.shards = kSvcShards;
    config.threads = kSvcThreads;
    config.shard = storeConfig(0);
    return config;
}

/**
 * Appends corpus lines [first, last) one append() at a time; on
 * kResourceExhausted drains and retries the same line (appendText
 * stops at the first refusal without saying how many lines it took,
 * so a caller cannot resume from it). Returns the first other error.
 */
Status
svcAppend(mithril::svc::LogService &svc, const Corpus &c, size_t first,
          size_t last, SvcFigures *fig, Spans &spans, uint64_t id)
{
    Spans::Scope span = spans.open("svc.append_lines", id);
    for (size_t i = first; i < last; ++i) {
        for (;;) {
            double t0 = nowSeconds();
            Status st = svc.append(c.lines[i]);
            double t1 = nowSeconds();
            fig->append_s += t1 - t0;
            if (st.isOk()) {
                ++fig->lines;
                break;
            }
            if (st.code() != mithril::StatusCode::kResourceExhausted) {
                return st;
            }
            ++fig->refusals;
            svc.drain();
            fig->backpressure_s += nowSeconds() - t1;
        }
    }
    return Status::ok();
}

/** One fan-out query; records its overhead and imbalance into @p fig. */
Status
svcQuery(mithril::svc::LogService &svc, const Query &q,
         mithril::svc::ServiceQueryResult *out, SvcFigures *fig,
         Spans &spans, uint64_t id)
{
    Spans::Scope span = spans.open("svc.query", id);
    Status st = svc.query(q, out);
    if (st.isOk()) {
        double slowest = 0.0;
        for (const auto &b : out->per_shard) {
            slowest = std::max(slowest, b.wall_seconds);
        }
        fig->fanout_overhead_ms.push_back((out->wall_seconds - slowest) * 1e3);
        fig->imbalance_pct.push_back(out->shardImbalancePct());
    }
    return st;
}

void
reportSvc(Context &ctx, const SvcFigures &fig)
{
    ctx.report.layer("svc.append_us",
                      fig.lines ? fig.append_s * 1e6 /
                                      static_cast<double>(fig.lines)
                                : 0.0,
                      "us");
    ctx.report.layer("svc.backpressure_wait_s", fig.backpressure_s, "s");
    ctx.report.layer("svc.refusals", static_cast<double>(fig.refusals),
                     "count");
    ctx.report.layer("svc.queue_wait_p50_us", fig.queue_wait_p50_us, "us");
    ctx.report.layer("svc.fanout_overhead_ms",
                      median(fig.fanout_overhead_ms), "ms");
    ctx.report.layer("svc.shard_imbalance_pct", mean(fig.imbalance_pct),
                      "%");
}

/** svc replay: a service ingests a slice of the workload's corpus and
 *  fans out its first keyword queries. */
SvcFigures
replaySvc(Context &ctx, const LayerInputs &in)
{
    const Corpus &c = *in.corpus;
    size_t first = in.replay_first;
    size_t last = std::min(in.replay_last,
                           c.lineAtByte(c.offsets[first] + kSvcReplayBytes));
    SvcFigures fig;
    mithril::svc::LogService svc(serviceConfig());
    uint64_t id = kSvcReplayId;
    Spans::Scope parent = ctx.spans.open("svc.replay", id);
    Status st = svcAppend(svc, c, first, last, &fig, ctx.spans, id);
    if (st.isOk()) {
        Spans::Scope s = ctx.spans.open("svc.flush", id);
        st = svc.flush();
    }
    ctx.report.check(st.isOk(), "svc replay ingest: " + st.toString());
    size_t n = std::min(kSvcReplayQueries, in.keyword_queries.size());
    for (size_t qi = 0; qi < n && st.isOk(); ++qi) {
        mithril::svc::ServiceQueryResult r;
        st = svcQuery(svc, in.keyword_queries[qi], &r, &fig, ctx.spans,
                      id + 1 + qi);
    }
    fig.queue_wait_p50_us = stageP50Us(svc.metrics(), "svc.queue_wait");
    return fig;
}

} // namespace

void
reportLayers(Context &ctx, const LayerInputs &in)
{
    replayIngest(ctx, in);
    replayDecode(ctx, in);
    replayTyped(ctx, in);
    replayQueries(ctx, in);
    phaseFigures(ctx, in);
    reportSvc(ctx, replaySvc(ctx, in));

    std::string stem = ctx.args.out_dir + "/" + ctx.args.workload + "-" +
                       std::to_string(ctx.args.seed);
    Status st = mithril::obs::writeMetricsJson(in.store->metrics(),
                                               stem + "-registry.json");
    if (st.isOk()) {
        st = mithril::obs::writeChromeTrace(in.store->tracer(),
                                            in.store->metrics(),
                                            stem + "-program-trace.json");
    }
    ctx.report.check(st.isOk(), "writing the registry snapshot: " +
                                    st.toString());
}

} // namespace perfbench
