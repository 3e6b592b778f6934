/**
 * @file
 * `incident`: the loggen incident corpus (a Spirit2 background with
 * planted attacker, session and decoy evidence) is ingested in rounds,
 * each followed by flush() and the typed queries an incident responder
 * asks: exact `ip:`, an `ip:` /26 subnet, `id:`, and `ip:` with a
 * keyword. A pass is every round on a fresh store, then three `time:`
 * window queries (checked against the benchmark's own syslog-header
 * parser and counted as operations, never as latency samples), then a
 * dump and recovery, whose store answers the typed queries again from
 * its rebuilt posting lists. Passes repeat for the run length, so
 * every run attempts whole passes of the same operations.
 */
#include <algorithm>
#include <iterator>
#include <memory>

#include "layers.h"
#include "loggen/incident.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr uint64_t kCorpusBytes = 4ull << 20;
/** Seeds pick the window start among this many lines (about half an
 *  hour of the scenario's clock)... */
constexpr uint64_t kMaxWindowSkip = 4096;
/** ...so the scenario is generated this much longer than the window. */
constexpr uint64_t kWindowSlackBytes = 1ull << 20;
constexpr size_t kRounds = 16;
/** Library sizes of the keyword queries the traced layer replays use. */
constexpr size_t kReplaySingles = 32;
constexpr size_t kReplayUnions = 8;

struct TypedCase {
    std::string text;
    std::vector<uint64_t> lines;  ///< reference over the whole corpus
};

/** Reference lines of a `time:[t0,t1]` window (optionally with one
 *  keyword): lines whose syslog header falls inside the window. */
std::vector<uint64_t>
windowLines(const Corpus &c, const RefIndex &ref, uint64_t t0, uint64_t t1,
            const std::string &keyword)
{
    std::vector<uint64_t> out;
    for (size_t i = 0; i < c.lines.size(); ++i) {
        uint64_t t = 0;
        if (syslogHeaderTime(c.lines[i], &t) && t >= t0 && t <= t1) {
            out.push_back(i);
        }
    }
    if (keyword.empty()) {
        return out;
    }
    const std::vector<uint32_t> &post = ref.postings(keyword);
    return intersect(out, std::vector<uint64_t>(post.begin(), post.end()));
}

std::vector<uint64_t>
below(const std::vector<uint64_t> &lines, uint64_t limit)
{
    std::vector<uint64_t> out;
    for (uint64_t l : lines) {
        if (l < limit) {
            out.push_back(l);
        }
    }
    return out;
}

} // namespace

int
runIncident(Context &ctx)
{
    const Args &args = ctx.args;
    Report &rep = ctx.report;
    Spans &spans = ctx.spans;

    // The scenario keeps its default generator seed, so every run sees
    // the same background templates; the run seed picks which window
    // of the scenario's line stream is ingested, and the ground truth is
    // re-based onto that window.
    mithril::loggen::IncidentSpec spec;
    spec.background_bytes = kCorpusBytes + kWindowSlackBytes;
    mithril::loggen::IncidentGroundTruth full_truth;
    Corpus full =
        makeCorpus(mithril::loggen::generateIncident(spec, &full_truth));
    size_t first = mixSeed(0x1c1d, args.seed) % kMaxWindowSkip;
    size_t last = full.lineAtByte(full.offsets[first] + kCorpusBytes);
    Corpus c = makeCorpus(std::string(full.span(first, last)));
    auto rebase = [&](const std::vector<uint64_t> &lines) {
        std::vector<uint64_t> out;
        for (uint64_t l : lines) {
            if (l >= first && l < last) {
                out.push_back(l - first);
            }
        }
        return out;
    };
    mithril::loggen::IncidentGroundTruth truth;
    truth.attacker_lines = rebase(full_truth.attacker_lines);
    truth.session_lines = rebase(full_truth.session_lines);
    truth.decoy_lines = rebase(full_truth.decoy_lines);
    RefIndex ref(c);
    rep.check(full_truth.total_lines == full.lines.size() &&
                  !truth.attacker_lines.empty(),
              "ground truth covers the corpus");

    std::vector<uint64_t> subnet;
    std::set_union(truth.attacker_lines.begin(), truth.attacker_lines.end(),
                   truth.decoy_lines.begin(), truth.decoy_lines.end(),
                   std::back_inserter(subnet));
    const std::vector<uint32_t> &pw = ref.postings("password");
    std::vector<TypedCase> cases = {
        {"ip:" + spec.attacker_ip, truth.attacker_lines},
        {"ip:192.0.2.64/26", subnet},
        {"id:" + spec.session_id, truth.session_lines},
        {"ip:" + spec.attacker_ip + " & password",
         intersect(truth.attacker_lines,
                   std::vector<uint64_t>(pw.begin(), pw.end()))},
    };
    // Windows on the scenario's clock (year-2000 syslog convention):
    // its background starts on Dec 08 before 23:00, a window skip adds
    // at most about half an hour, and 4 MiB of lines run past Dec 09
    // 02:00, so both windows hold lines for every seed.
    uint64_t w0 = epoch2000(12, 9, 0, 0, 0);
    uint64_t w1 = epoch2000(12, 9, 0, 30, 0);
    uint64_t w2 = epoch2000(12, 9, 1, 0, 0);
    auto window = [](uint64_t lo, uint64_t hi) {
        return "time:[" + std::to_string(lo) + "," + std::to_string(hi) + "]";
    };
    std::vector<TypedCase> windows = {
        {window(w0, w1 - 1), windowLines(c, ref, w0, w1 - 1, "")},
        {window(w1, w2), windowLines(c, ref, w1, w2, "")},
        {window(w1, w2) + " & 2005.12.09",
         windowLines(c, ref, w1, w2, "2005.12.09")},
    };
    for (const TypedCase &w : windows) {
        rep.check(!w.lines.empty(), "reference window is not empty: " + w.text);
    }
    std::vector<size_t> bounds;
    for (size_t r = 0; r <= kRounds; ++r) {
        bounds.push_back(c.lines.size() * r / kRounds);
    }
    mithril::core::MithriLogConfig config = storeConfig(0);
    rep.note("incident: " + std::to_string(c.bytes()) + " B, " +
             std::to_string(c.lines.size()) + " lines, " +
             std::to_string(truth.attacker_lines.size()) + " attacker / " +
             std::to_string(truth.session_lines.size()) + " session / " +
             std::to_string(truth.decoy_lines.size()) + " decoy");

    // Set-up: a store holding the first MiB, built kSetupRuns times.
    std::vector<double> setup;
    size_t warm_last = c.lineAtByte(kWarmupBytes);
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
    double sim_ingest_s = 0.0;
    bool wrong = args.wrong_reference;
    std::unique_ptr<MithriLog> last_store;
    double start = nowSeconds();
    for (uint64_t pass = 0; moreRounds(start, args, qstats.count()); ++pass) {
        auto store = std::make_unique<MithriLog>(config);
        double ingest_s = 0.0;
        double sim_s = 0.0;
        for (size_t r = 0; r < kRounds; ++r) {
            uint64_t id = (pass << 20) + (r << 8);
            double sim0 = store->ssd().elapsed().toSeconds();
            double t0 = nowSeconds();
            mithril::Status st;
            {
                Spans::Scope s = spans.open("core.ingestText", id);
                st = store->ingestText(c.span(bounds[r], bounds[r + 1]));
            }
            if (st.isOk()) {
                Spans::Scope s = spans.open("core.flush", id);
                st = store->flush();
            }
            ingest_s += nowSeconds() - t0;
            sim_s += store->ssd().elapsed().toSeconds() - sim0;
            rep.op(st.isOk(), "round ingest + flush: " + st.toString());

            for (size_t k = 0; k < cases.size(); ++k) {
                mithril::core::QueryResult r2;
                uint64_t before = pagesRead(*store);
                double q0 = nowSeconds();
                {
                    Spans::Scope s = spans.open("core.run", id + 1 + k);
                    st = store->run(cases[k].text, &r2);
                }
                double wall = nowSeconds() - q0;
                qstats.add(sampleOf(r2.breakdown, wall,
                                    pagesRead(*store) - before, pass));
                std::vector<uint64_t> want = below(cases[k].lines,
                                                   bounds[r + 1]);
                Digest e = maybeWrong(ctx, digestOf(c, want), &wrong);
                rep.op(st.isOk() && r2.line_numbers == want &&
                           matches(e, r2.matched_lines, r2.lines),
                       "typed query " + cases[k].text);
            }
        }
        ingest.add(static_cast<double>(c.bytes()),
                   ingest_s);
        if (pass == 0) {
            dev = deviceFigures(*store);
            sim_ingest_s = sim_s;
            std::string why;
            rep.check(pagesMatchCorpus(*store, c, 0, &why),
                      "stored pages decode to the corpus: " + why);
        }

        // Time windows: after the measured queries, never sampled.
        for (size_t k = 0; k < windows.size(); ++k) {
            mithril::core::QueryResult r2;
            mithril::Status st;
            {
                Spans::Scope s = spans.open("core.run", (pass << 20) + 0xf0000 + k);
                st = store->run(windows[k].text, &r2);
            }
            rep.op(st.isOk() && r2.line_numbers == windows[k].lines,
                   "window query " + windows[k].text + " returned " +
                       std::to_string(r2.matched_lines) + " lines, reference " +
                       std::to_string(windows[k].lines.size()));
        }

        uint64_t durable = store->durableLineCount();
        Recovered rec = dumpAndRecover(*store, imagePath(args, "dump"),
                                       config, spans, pass << 20);
        rep.op(rec.status.isOk() && rec.store->lineCount() == durable,
               "dump + recover: " + rec.status.toString());
        if (!rec.status.isOk()) {
            break;
        }
        recover_s.push_back(rec.wall_s);
        recover_ms.push_back(rec.sim_ms);
        replayed.push_back(static_cast<double>(rec.replay_records));
        if (pass == 0) {
            std::string why;
            rep.check(pagesMatchCorpus(*rec.store, c, 0, &why),
                      "recovered pages equal the corpus: " + why);
        }
        // The recovered store rebuilt its typed posting lists; its
        // answers must agree with the reference over the durable prefix.
        // Operations, never latency samples.
        for (const TypedCase &tc : cases) {
            mithril::core::QueryResult r2;
            mithril::Status st = rec.store->run(tc.text, &r2);
            std::vector<uint64_t> want = below(tc.lines, durable);
            rep.op(st.isOk() && r2.line_numbers == want &&
                       matches(digestOf(c, want), r2.matched_lines, r2.lines),
                   "recovered-store typed query " + tc.text);
        }
        last_store = std::move(store);
    }

    if (args.trace) {
        LayerInputs in;
        in.corpus = &c;
        in.replay_first = 0;
        in.replay_last = c.lines.size();
        in.store = last_store.get();
        in.keyword_queries = templateLibrary(c, args.seed, kReplaySingles,
                                             kReplayUnions, kReplayUnions)
                                 .all();
        for (const TypedCase &tc : cases) {
            in.typed_queries.push_back(tc.text);
        }
        in.queries = &qstats;
        in.replay_records = median(replayed);
        reportLayers(ctx, in);
    }
    dev.ingest_sim_mbps = static_cast<double>(c.bytes()) / 1e6 / sim_ingest_s;
    reportEndToEnd(rep, setup, ingest, dev, recover_s, recover_ms, qstats);
    rep.note("passes: " + std::to_string(recover_s.size()));
    return 0;
}

} // namespace perfbench
