/**
 * @file
 * `ingest`: one store bulk-ingests a BGL2-like corpus with typed
 * extraction on and a background checkpoint policy, then ingests an
 * unflushed tail, dumps the device image and recovers it on a fresh
 * store, which answers a slice of the paper's Section 7.1 query
 * library (FT-tree template singles and random 8-OR unions). A round
 * is that whole sequence on a fresh store; rounds repeat for the run
 * length.
 */
#include <map>
#include <memory>

#include "layers.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr uint64_t kCorpusBytes = 8ull << 20;
constexpr uint64_t kTailBytes = 64ull << 10;
constexpr uint64_t kCheckpointEvery = 64;
/** Each round's recovered store answers the next slice of the query
 *  library; kCycleRounds rounds answer every query once, and a run ends
 *  on a whole cycle, so its latency figures rest on whole copies of the
 *  library whatever the number of rounds. The library holds template
 *  singles and 8-OR unions, no 2-OR unions: the median then lies among
 *  the singles, which the corpus sets, and the p95 among the unions.
 *  A few seeded 2-OR draws landing below or above the median moved it
 *  by a fifth from seed to seed. */
constexpr size_t kCycleRounds = 2;
constexpr size_t kSinglesPerRound = 32;
constexpr size_t kEightsPerRound = 4;
constexpr size_t kMaxSingles = kSinglesPerRound * kCycleRounds;
constexpr size_t kEights = kEightsPerRound * kCycleRounds;

} // namespace

int
runIngest(Context &ctx)
{
    const Args &args = ctx.args;
    Report &rep = ctx.report;
    Spans &spans = ctx.spans;

    Corpus c = hpcCorpus("BGL2", args.seed, kCorpusBytes);
    size_t tail_first = c.lineAtByte(c.bytes() - kTailBytes);
    size_t warm_last = c.lineAtByte(kWarmupBytes);
    RefIndex ref(c);
    QueryLibrary lib =
        templateLibrary(c, args.seed, kMaxSingles, 0, kEights);
    std::vector<mithril::query::Query> queries = lib.all();
    rep.check(!lib.singles.empty(), "FT-tree extracted templates");
    mithril::core::MithriLogConfig config = storeConfig(kCheckpointEvery);
    rep.note("ingest: " + std::to_string(c.bytes()) + " B, " +
             std::to_string(c.lines.size()) + " lines, tail from line " +
             std::to_string(tail_first) + ", " +
             std::to_string(lib.singles.size()) + " singles");

    // Set-up: warm the allocator and code paths with a store built from
    // the first MiB.
    std::vector<double> setup;
    for (int i = 0; i < kSetupRuns; ++i) {
        double t0 = nowSeconds();
        MithriLog warm(config);
        mithril::Status st = warm.ingestText(c.span(0, warm_last));
        if (st.isOk()) {
            st = warm.flush();
        }
        setup.push_back(nowSeconds() - t0);
        rep.check(st.isOk(), "warm-up ingest: " + st.toString());
    }

    std::vector<double> recover_s, recover_ms, replayed;
    Throughput ingest;
    QueryStats qstats;
    DeviceFigures dev;
    std::map<uint64_t, std::vector<Digest>> expected;  // by prefix
    bool wrong = args.wrong_reference;
    std::unique_ptr<MithriLog> last_store;
    double start = nowSeconds();
    for (uint64_t round = 0; round % kCycleRounds != 0 ||
                             moreRounds(start, args, qstats.count());
         ++round) {
        auto store = std::make_unique<MithriLog>(config);
        double t0 = nowSeconds();
        mithril::Status st;
        {
            Spans::Scope s = spans.open("core.ingestText", round);
            st = store->ingestText(c.span(0, tail_first));
        }
        if (st.isOk()) {
            Spans::Scope s = spans.open("core.flush", round);
            st = store->flush();
        }
        double t1 = nowSeconds();
        rep.op(st.isOk(), "bulk ingest + flush: " + st.toString());
        ingest.add(static_cast<double>(c.offsets[tail_first]), t1 - t0);
        if (round == 0) {
            dev = deviceFigures(*store);
            std::string why;
            rep.check(pagesMatchCorpus(*store, c, 0, &why),
                      "stored pages decode to the corpus: " + why);
        }
        {
            Spans::Scope s = spans.open("core.ingestText", round);
            st = store->ingestText(c.span(tail_first, c.lines.size()));
        }
        rep.op(st.isOk(), "tail ingest: " + st.toString());

        uint64_t durable = store->durableLineCount();
        Recovered rec = dumpAndRecover(*store, imagePath(args, "dump"),
                                       config, spans, round);
        rep.op(rec.status.isOk(), "dump + recover: " + rec.status.toString());
        if (!rec.status.isOk()) {
            break;
        }
        recover_s.push_back(rec.wall_s);
        recover_ms.push_back(rec.sim_ms);
        replayed.push_back(static_cast<double>(rec.replay_records));
        if (round == 0) {
            rep.check(rec.store->lineCount() == durable,
                      "recovered store holds durableLineCount() lines");
            std::string why;
            rep.check(pagesMatchCorpus(*rec.store, c, 0, &why),
                      "recovered pages equal the corpus prefix: " + why);
        }

        std::vector<Digest> &want = expected[durable];
        if (want.empty()) {
            for (const auto &q : queries) {
                want.push_back(digestOf(c, ref.eval(q, durable)));
            }
        }
        for (size_t qi : lib.round(round, kSinglesPerRound, 0,
                                   kEightsPerRound)) {
            mithril::core::QueryResult r;
            uint64_t before = pagesRead(*rec.store);
            uint64_t id = (round << 20) + 1 + qi;
            double q0 = nowSeconds();
            {
                Spans::Scope s = spans.open("core.run", id);
                st = rec.store->run(queries[qi], &r);
            }
            double wall = nowSeconds() - q0;
            qstats.add(sampleOf(r.breakdown, wall,
                                pagesRead(*rec.store) - before, round));
            Digest e = maybeWrong(ctx, want[qi], &wrong);
            rep.op(st.isOk() && matches(e, r.matched_lines, r.lines),
                   "recovered-store query " + queries[qi].toString());
        }
        last_store = std::move(store);
    }

    if (args.trace) {
        LayerInputs in;
        in.corpus = &c;
        in.replay_first = 0;
        in.replay_last = tail_first;
        in.checkpoint_every_pages = kCheckpointEvery;
        in.store = last_store.get();
        in.keyword_queries = queries;
        in.queries = &qstats;
        in.replay_records = median(replayed);
        reportLayers(ctx, in);
    }
    reportEndToEnd(rep, setup, ingest, dev, recover_s, recover_ms, qstats);
    rep.note("rounds: " + std::to_string(recover_s.size()));
    return 0;
}

} // namespace perfbench
