/**
 * @file
 * `search`: each round builds a store from a BGL2-like corpus (the
 * set-up, never a query sample) and runs the paper's Section 7.1 query
 * library on it through MithriLog::run — every FT-tree template single
 * and the next slice of the random 2-OR and 8-OR union pools — plus
 * runFullScan batches, then dumps and recovers the store, whose result
 * answers a few of the library's queries.
 */
#include <algorithm>
#include <iterator>
#include <memory>

#include "layers.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr uint64_t kCorpusBytes = 4ull << 20;
constexpr size_t kMaxSingles = 64;
/** Pools of random OR unions; each round runs the next slice of each,
 *  so a run's latency figures rest on many unions, not on a few. */
constexpr size_t kPairs = 256;
constexpr size_t kEights = 96;
constexpr size_t kPairsPerRound = 24;
constexpr size_t kEightsPerRound = 8;
/** runFullScan batches per round, each of kBatchSize singles. */
constexpr size_t kFullScanBatches = 2;
constexpr size_t kBatchSize = 4;
/** Library queries re-run (unsampled) on each round's recovered store. */
constexpr size_t kRecoveredQueries = 8;

} // namespace

int
runSearch(Context &ctx)
{
    using mithril::query::Query;
    const Args &args = ctx.args;
    Report &rep = ctx.report;
    Spans &spans = ctx.spans;

    Corpus c = hpcCorpus("BGL2", args.seed, kCorpusBytes);
    QueryLibrary lib =
        templateLibrary(c, args.seed, kMaxSingles, kPairs, kEights);
    std::vector<Query> queries = lib.all();
    std::vector<std::vector<Query>> batches;
    for (size_t b = 0; b < kFullScanBatches; ++b) {
        std::vector<Query> batch;
        for (size_t k = 0; k < kBatchSize && !lib.singles.empty(); ++k) {
            batch.push_back(
                lib.singles[(b * kBatchSize + k) % lib.singles.size()]);
        }
        batches.push_back(std::move(batch));
    }
    rep.check(!lib.singles.empty(), "FT-tree extracted templates");
    RefIndex ref(c);
    std::vector<Digest> want;
    for (const Query &q : queries) {
        want.push_back(digestOf(c, ref.eval(q, c.lines.size())));
    }
    // A full-scan batch keeps each matching line once; per query it
    // reports its own count.
    std::vector<Digest> batch_want;
    std::vector<std::vector<uint64_t>> batch_counts;
    for (const auto &batch : batches) {
        std::vector<uint64_t> counts;
        std::vector<uint64_t> all;
        for (const Query &q : batch) {
            std::vector<uint64_t> lines = ref.eval(q, c.lines.size());
            counts.push_back(lines.size());
            std::vector<uint64_t> merged;
            std::set_union(all.begin(), all.end(), lines.begin(),
                           lines.end(), std::back_inserter(merged));
            all = std::move(merged);
        }
        batch_counts.push_back(counts);
        batch_want.push_back(digestOf(c, all));
    }
    mithril::core::MithriLogConfig config = storeConfig(0);
    rep.note("search: " + std::to_string(c.bytes()) + " B, " +
             std::to_string(c.lines.size()) + " lines, " +
             std::to_string(lib.singles.size()) + " singles, " +
             std::to_string(lib.pairs.size()) + " 2-OR, " +
             std::to_string(lib.eights.size()) + " 8-OR unions");

    std::vector<double> setup;
    Throughput ingest;
    DeviceFigures dev;
    std::unique_ptr<MithriLog> store;
    QueryStats qstats;
    std::vector<double> recover_s, recover_ms, replayed;
    bool wrong = args.wrong_reference;
    double start = nowSeconds();
    for (uint64_t round = 0; moreRounds(start, args, qstats.count());
         ++round) {
        // Set-up: every round builds the store it then queries, so build
        // time and ingest rate are sampled across the whole run (host
        // speed drifts over seconds) instead of once before it. Builds
        // are not query samples.
        double t0 = nowSeconds();
        store = std::make_unique<MithriLog>(config);
        mithril::Status st;
        double i0 = nowSeconds();
        {
            Spans::Scope s = spans.open("core.ingestText", round << 20);
            st = store->ingestText(c.text);
        }
        if (st.isOk()) {
            Spans::Scope s = spans.open("core.flush", round << 20);
            st = store->flush();
        }
        double t1 = nowSeconds();
        setup.push_back(t1 - t0);
        ingest.add(static_cast<double>(c.bytes()), t1 - i0);
        rep.op(st.isOk(), "store build: " + st.toString());
        if (!st.isOk()) {
            return 1;
        }
        if (round == 0) {
            dev = deviceFigures(*store);
            std::string why;
            rep.check(pagesMatchCorpus(*store, c, 0, &why),
                      "stored pages decode to the corpus: " + why);
        }

        for (size_t qi : lib.round(round, lib.singles.size(), kPairsPerRound,
                                   kEightsPerRound)) {
            mithril::core::QueryResult r;
            uint64_t before = pagesRead(*store);
            uint64_t id = (round << 20) + 1 + qi;
            double q0 = nowSeconds();
            {
                Spans::Scope s = spans.open("core.run", id);
                st = store->run(queries[qi], &r);
            }
            double wall = nowSeconds() - q0;
            qstats.add(sampleOf(r.breakdown, wall, pagesRead(*store) - before,
                                round));
            Digest e = maybeWrong(ctx, want[qi], &wrong);
            rep.op(st.isOk() && matches(e, r.matched_lines, r.lines),
                   "query " + queries[qi].toString());
        }
        for (size_t b = 0; b < batches.size(); ++b) {
            mithril::core::QueryResult r;
            uint64_t before = pagesRead(*store);
            uint64_t id = (round << 20) + 1 + queries.size() + b;
            double q0 = nowSeconds();
            {
                Spans::Scope s = spans.open("core.runFullScan", id);
                st = store->runFullScan(batches[b], &r);
            }
            double wall = nowSeconds() - q0;
            qstats.add(sampleOf(r.breakdown, wall, pagesRead(*store) - before,
                                round));
            rep.op(st.isOk() && r.matched_per_query == batch_counts[b] &&
                       digestOfKept(r.lines) == batch_want[b],
                   "full-scan batch " + std::to_string(b));
        }

        // Each round also dumps and recovers the store, so recovery is
        // sampled across the whole run rather than in one burst.
        Recovered rec = dumpAndRecover(*store, imagePath(args, "dump"),
                                       config, spans, (round << 20) + 0xfffff);
        rep.op(rec.status.isOk() &&
                   rec.store->lineCount() == store->durableLineCount(),
               "dump + recover: " + rec.status.toString());
        if (!rec.status.isOk()) {
            break;
        }
        recover_s.push_back(rec.wall_s);
        recover_ms.push_back(rec.sim_ms);
        replayed.push_back(static_cast<double>(rec.replay_records));
        if (round == 0) {
            std::string why;
            rep.check(pagesMatchCorpus(*rec.store, c, 0, &why),
                      "recovered pages equal the corpus: " + why);
        }
        for (size_t qi = 0; qi < kRecoveredQueries && qi < queries.size();
             ++qi) {
            mithril::core::QueryResult r;
            st = rec.store->run(queries[qi], &r);
            rep.op(st.isOk() && matches(want[qi], r.matched_lines, r.lines),
                   "recovered-store query " + queries[qi].toString());
        }
    }

    if (args.trace) {
        LayerInputs in;
        in.corpus = &c;
        in.replay_first = 0;
        in.replay_last = c.lines.size();
        in.store = store.get();
        in.keyword_queries = queries;
        in.queries = &qstats;
        in.replay_records = median(replayed);
        reportLayers(ctx, in);
    }
    reportEndToEnd(rep, setup, ingest, dev, recover_s, recover_ms, qstats);
    return 0;
}

} // namespace perfbench
