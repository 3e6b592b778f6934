/**
 * @file
 * Metrics fingerprints: every modeled number a fixed workload leaves
 * in the metrics registry.
 *
 * The device counters are what Table 7's index/storage/compute split
 * and the benchmark's write and read volumes are built on, so a change
 * to how components report must leave every value where it was. Each
 * case runs a fixed workload on a store that owns its registry and
 * digests the registry by name: every counter and gauge, and the
 * (count, sum) of every histogram, whichever snapshot section holds
 * it. Names fed by the host clock (`*.wall_ns`, `*_wall_*`) are left
 * out; everything else is modeled and deterministic. A counter that no
 * event bumped is left out as well: it reads 0 whether or not a
 * component registered it up front.
 *
 * The BGL2 case ingests with typed extraction and checkpoints, runs a
 * keyword query library (singles, unions, a full-scan batch, a time
 * range), dumps the device with saveDeviceImage() and recovers the
 * dump into a fresh store, which runs the library again. The incident
 * case runs the typed queries of the incident scenario.
 *
 * A mismatch means a reported value moved. When that is the point of a
 * change, record the new digest and say why in EXPERIMENTS.md.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/text.h"
#include "core/mithrilog.h"
#include "loggen/incident.h"
#include "loggen/log_generator.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "testutil/scratch_path.h"

namespace mithril::core {
namespace {

MithriLogConfig
ingestConfig()
{
    MithriLogConfig config;
    config.use_typed_index = true;
    config.accel.keep_lines = true;
    config.checkpoint_every_pages = 64;
    config.index.snapshot_leaf_interval = 2;
    return config;
}

bool
wallDerived(const std::string &name)
{
    return name.find("wall") != std::string::npos;
}

/** One line per reported value, sorted by name within each kind. */
std::string
metricsText(const obs::MetricsRegistry &registry)
{
    obs::MetricsSnapshot snap = registry.snapshot();
    std::string text;
    for (const auto &[name, value] : snap.counters) {
        if (value != 0 && !wallDerived(name)) {
            text += strprintf("counter %s %llu\n", name.c_str(),
                              static_cast<unsigned long long>(value));
        }
    }
    for (const auto &[name, value] : snap.gauges) {
        if (!wallDerived(name)) {
            text += strprintf("gauge %s %.17g\n", name.c_str(), value);
        }
    }
    std::map<std::string, std::pair<uint64_t, uint64_t>> histograms;
    for (const auto &[name, h] : snap.quantile_histograms) {
        histograms[name] = {h.count, h.sum};
    }
    for (const auto &[name, cs] : histograms) {
        if (cs.first != 0 && !wallDerived(name)) {
            text += strprintf("histogram %s %llu %llu\n", name.c_str(),
                              static_cast<unsigned long long>(cs.first),
                              static_cast<unsigned long long>(cs.second));
        }
    }
    return text;
}

std::string
digest(const obs::MetricsRegistry &registry)
{
    std::string text = metricsText(registry);
    size_t lines = 0;
    for (char c : text) {
        lines += c == '\n';
    }
    return strprintf("%zu:0x%016llx", lines,
                     static_cast<unsigned long long>(
                         hash64(text.data(), text.size())));
}

/** The device view and the registry agree on what the device did. */
void
expectDeviceCountersAgree(MithriLog &store)
{
    for (const char *n : {"pages_read", "pages_written", "bytes_written"}) {
        EXPECT_EQ(store.ssd().stats().get(n),
                  store.metrics().counterValue(std::string("ssd.") + n))
            << n;
    }
}

void
runAll(MithriLog &store, const std::vector<std::string> &texts)
{
    for (const std::string &text : texts) {
        QueryResult r;
        EXPECT_TRUE(store.run(text, &r).isOk()) << text;
    }
}

void
runKeywordLibrary(MithriLog &store)
{
    runAll(store, {"TLB & refused", "lustre & timeout", "0xf0c7b709",
                   "RAS & ERROR", "KERNEL & !FATAL",
                   "parity | interrupt",
                   "cache | TLB | ciod | parity | lustre | refused | "
                   "timeout | APP"});
    std::vector<query::Query> batch(2);
    ASSERT_TRUE(query::parseQuery("KERNEL & FATAL", &batch[0]).isOk());
    ASSERT_TRUE(query::parseQuery("parity", &batch[1]).isOk());
    QueryResult r;
    EXPECT_TRUE(store.runBatch(batch, &r).isOk());
    EXPECT_TRUE(store.runFullScan(batch, &r).isOk());
    uint64_t lines = store.lineCount();
    EXPECT_TRUE(
        store.runTimeRange(batch[0], lines / 4, lines / 2, &r).isOk());
}

class MetricsFingerprintTest : public ::testing::Test
{
  protected:
    void TearDown() override { std::remove(image_.c_str()); }

    std::string image_;
};

TEST_F(MetricsFingerprintTest, Bgl2IngestQueryRecover)
{
    image_ = testutil::scratchPath("metrics_fingerprint");
    std::string text =
        loggen::LogGenerator(loggen::datasetByName("BGL2"))
            .generate(1 << 20);
    std::string ingested;
    {
        MithriLog store(ingestConfig());
        ASSERT_TRUE(store.ingestText(text).isOk());
        ASSERT_TRUE(store.flush().isOk());
        runKeywordLibrary(store);
        ASSERT_TRUE(store.saveDeviceImage(image_).isOk());
        expectDeviceCountersAgree(store);
        ingested = digest(store.metrics());
    }
    MithriLog mounted(ingestConfig());
    ASSERT_TRUE(mounted.recover(image_).isOk());
    runKeywordLibrary(mounted);
    expectDeviceCountersAgree(mounted);
    std::string recovered = digest(mounted.metrics());
    std::printf("ingested %s; recovered %s\n", ingested.c_str(),
                recovered.c_str());
    EXPECT_EQ(ingested, "53:0x847bd0a5f483d7cd");
    EXPECT_EQ(recovered, "49:0x757dd541de09ad85");
}

TEST_F(MetricsFingerprintTest, IncidentTypedQueries)
{
    loggen::IncidentSpec spec;
    spec.background_bytes = 512 << 10;
    loggen::IncidentGroundTruth truth;
    std::string text = loggen::generateIncident(spec, &truth);

    MithriLog store(ingestConfig());
    ASSERT_TRUE(store.ingestText(text).isOk());
    ASSERT_TRUE(store.flush().isOk());
    runAll(store, {"ip:" + spec.attacker_ip, "ip:192.0.2.64/26",
                   "id:" + spec.session_id,
                   "ip:" + spec.attacker_ip + " & password"});
    std::vector<query::Query> batch(2);
    ASSERT_TRUE(query::parseQuery("ip:" + spec.attacker_ip, &batch[0])
                    .isOk());
    ASSERT_TRUE(query::parseQuery("id:" + spec.session_id, &batch[1])
                    .isOk());
    QueryResult r;
    EXPECT_TRUE(store.runFullScan(batch, &r).isOk());
    expectDeviceCountersAgree(store);
    std::string d = digest(store.metrics());
    std::printf("incident %s\n", d.c_str());
    EXPECT_EQ(d, "38:0x3f5161a7bf4bc4e3");
}

} // namespace
} // namespace mithril::core
