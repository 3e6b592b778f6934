#include "obs/metrics.h"

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/report.h"

namespace mithril::obs {
namespace {

TEST(MetricsRegistry, CounterBasics)
{
    MetricsRegistry m;
    Counter &c = m.counter("core.lines_ingested");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name resolves to the same counter.
    EXPECT_EQ(&m.counter("core.lines_ingested"), &c);
    EXPECT_EQ(m.counterValue("core.lines_ingested"), 42u);
    EXPECT_EQ(m.counterValue("no.such"), 0u);
}

// The concurrent-increment stress test lives with the other
// cross-thread obs tests in tests/svc/histogram_concurrency_test.cc,
// where the TSan tier covers it.

TEST(MetricsRegistry, Labels)
{
    MetricsRegistry m;
    m.counter("ssd.link_busy_ps", {{"link", "internal"}}).add(10);
    m.counter("ssd.link_busy_ps", {{"link", "external"}}).add(20);
    EXPECT_EQ(m.counterValue("ssd.link_busy_ps{link=internal}"), 10u);
    EXPECT_EQ(m.counterValue("ssd.link_busy_ps{link=external}"), 20u);
}

TEST(MetricsRegistry, Gauge)
{
    MetricsRegistry m;
    Gauge &g = m.gauge("lzah.ratio");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.set(3.0);
    MetricsSnapshot snap = m.snapshot();
    EXPECT_DOUBLE_EQ(snap.gauges.at("lzah.ratio"), 3.0);
}

TEST(MetricsRegistry, CounterViewReadsPrefixedCounters)
{
    MetricsRegistry m;
    CounterView ssd(m, "ssd.");
    EXPECT_EQ(ssd.get("pages_read"), 0u);
    m.counter("ssd.pages_read").add(3);
    m.counter("index.pages_read").add(7);
    // Reads go to the registry: no copy to fall behind.
    EXPECT_EQ(ssd.get("pages_read"), 3u);
    m.counter("ssd.pages_read").add(2);
    EXPECT_EQ(ssd.get("pages_read"), 5u);
    EXPECT_EQ(CounterView(m, "index.").get("pages_read"), 7u);
}

TEST(MetricsRegistry, SnapshotJsonIsValid)
{
    MetricsRegistry m;
    m.counter("a.count").add(1);
    m.counter("b.count", {{"k", "v"}}).add(2);
    m.gauge("c.ratio").set(0.5);
    m.quantileHistogram("d.sizes").record(100);
    std::string json = metricsToJson(m);
    std::string err;
    EXPECT_TRUE(jsonValid(json, &err)) << err << "\n" << json;
    EXPECT_NE(json.find("\"a.count\""), std::string::npos);
    EXPECT_NE(json.find("\"d.sizes\""), std::string::npos);
}

TEST(JsonWriter, EscapesAndNesting)
{
    std::string out;
    JsonWriter w(&out);
    w.beginObject();
    w.key("text");
    w.value("line\n\"quoted\"\t\\");
    w.key("list");
    w.beginArray();
    w.value(static_cast<uint64_t>(1));
    w.value(-2.5);
    w.value(true);
    w.endArray();
    w.endObject();
    std::string err;
    EXPECT_TRUE(jsonValid(out, &err)) << err << "\n" << out;
    EXPECT_NE(out.find("\\n"), std::string::npos);
    EXPECT_NE(out.find("\\\""), std::string::npos);
}

TEST(JsonValid, RejectsMalformed)
{
    EXPECT_TRUE(jsonValid("{\"a\": [1, 2.5e3, null, \"x\"]}"));
    EXPECT_FALSE(jsonValid(""));
    EXPECT_FALSE(jsonValid("{"));
    EXPECT_FALSE(jsonValid("{\"a\":}"));
    EXPECT_FALSE(jsonValid("{\"a\": 1,}"));
    EXPECT_FALSE(jsonValid("{\"a\": 1} extra"));
    EXPECT_FALSE(jsonValid("{'a': 1}"));
}

TEST(JsonRecord, BenchLineFormat)
{
    JsonRecord rec("my_bench");
    rec.field("dataset", "BGL2")
        .field("value", 1.5)
        .field("count", static_cast<uint64_t>(7))
        .field("ok", true);
    std::string json = rec.json();
    std::string err;
    EXPECT_TRUE(jsonValid(json, &err)) << err << "\n" << json;
    EXPECT_NE(json.find("\"bench\":\"my_bench\""), std::string::npos);
}

} // namespace
} // namespace mithril::obs
