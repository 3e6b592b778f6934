/**
 * @file
 * Per-layer metrics for traced runs.
 *
 * A layer is timed by calling its public function from the benchmark
 * on the workload's own inputs (a "replay"), or read from the
 * program's registry and stage histograms, or taken from the query
 * breakdowns of the measured phase. Every replay is recorded as a span;
 * the spans of one replayed query or ingest slice share an id, and
 * self times are span minus child spans.
 *
 * Every traced run prints every per-layer metric. A layer a workload's
 * measured phase does not exercise (svc, which no gated workload
 * runs; typed lookups on keyword corpora) is replayed on that
 * workload's inputs, so the number is still a measurement.
 */
#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <string>
#include <vector>

#include "bench.h"
#include "corpus.h"
#include "query/query.h"
#include "store.h"

namespace perfbench {

/** What the layer report needs from a workload. */
struct LayerInputs {
    const Corpus *corpus = nullptr;
    /** Lines replayed through the ingest-side layers. */
    size_t replay_first = 0;
    size_t replay_last = 0;
    /** Checkpoint policy of the workload's stores. */
    uint64_t checkpoint_every_pages = 0;
    /** The measured store after its phase (registry, pages, index). */
    MithriLog *store = nullptr;
    /** Keyword queries of the workload (parse/compile/lookup/filter
     *  replays); typed query texts for the typed replays. */
    std::vector<mithril::query::Query> keyword_queries;
    std::vector<std::string> typed_queries;
    /** Timed samples of the measured phase. */
    const QueryStats *queries = nullptr;
    /** Journal records the workload's recoveries replayed (median). */
    double replay_records = 0.0;
};

/** Prints every per-layer metric into the report and writes the
 *  program's registry snapshot and span buffer next to the spans. */
void reportLayers(Context &ctx, const LayerInputs &in);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
