/**
 * @file
 * obs::Histogram: quantiles against an exact sorted oracle across
 * adversarial distributions, the exact count/min/max/mean summary,
 * merge algebra (associative and commutative), empty/single-sample
 * edges, and the bucket-mapping boundary behavior the error bound
 * rests on.
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/histogram.h"
#include "obs/metrics.h"

namespace mithril::obs {
namespace {

/** Exact oracle: the same rank convention the histogram documents —
 *  the ceil(q*n)-th smallest sample (clamped to [1, n]). */
uint64_t
oracleQuantile(std::vector<uint64_t> sorted, double q)
{
    if (sorted.empty()) {
        return 0;
    }
    std::sort(sorted.begin(), sorted.end());
    auto rank = static_cast<uint64_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(sorted.size()))));
    rank = std::min<uint64_t>(rank, sorted.size());
    return sorted[rank - 1];
}

void
fill(Histogram *h, const std::vector<uint64_t> &values)
{
    for (uint64_t v : values) {
        h->record(v);
    }
}

/** The histogram must report exactly the oracle sample's bucket lower
 *  bound, which in turn must sit within the 1/kSubCount relative
 *  error bound of the oracle value. */
void
expectQuantilesMatchOracle(const std::vector<uint64_t> &values)
{
    Histogram h;
    fill(&h, values);
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        uint64_t exact = oracleQuantile(values, q);
        uint64_t reported = h.quantile(q);
        EXPECT_EQ(reported,
                  Histogram::bucketLo(Histogram::indexFor(exact)))
            << "q=" << q << " exact=" << exact;
        EXPECT_LE(reported, exact) << "q=" << q;
        if (exact >= Histogram::kSubCount) {
            // Bucket width is value/32 at worst.
            EXPECT_LE(exact - reported, exact / Histogram::kSubCount)
                << "q=" << q << " exact=" << exact;
        } else {
            EXPECT_EQ(reported, exact) << "linear region is exact";
        }
    }
}

TEST(Histogram, QuantilesMatchOracleOnConstantDistribution)
{
    expectQuantilesMatchOracle(std::vector<uint64_t>(1000, 42));
    expectQuantilesMatchOracle(std::vector<uint64_t>(7, 123456789));
}

TEST(Histogram, QuantilesMatchOracleOnUniformDistribution)
{
    Rng rng(11);
    std::vector<uint64_t> values;
    for (int i = 0; i < 5000; ++i) {
        values.push_back(rng.below(1u << 20));
    }
    expectQuantilesMatchOracle(values);
}

TEST(Histogram, QuantilesMatchOracleOnBimodalDistribution)
{
    // Fast path ~1us, slow path ~1s: five orders of magnitude apart,
    // with the slow mode exactly in the p99 region.
    Rng rng(12);
    std::vector<uint64_t> values;
    for (int i = 0; i < 2000; ++i) {
        bool slow = rng.chance(0.015);
        uint64_t base = slow ? 1'000'000'000'000ull : 1'000'000ull;
        values.push_back(base + rng.below(base / 10));
    }
    expectQuantilesMatchOracle(values);
}

TEST(Histogram, QuantilesMatchOracleOnHeavyTail)
{
    // Powers of two up to 2^50 with geometric weights: every quantile
    // lands near a bucket-scheme breakpoint.
    Rng rng(13);
    std::vector<uint64_t> values;
    for (int i = 0; i < 4000; ++i) {
        uint64_t shift = rng.skewedBelow(50, 3.0);
        values.push_back((1ull << shift) + rng.below((1ull << shift) / 2 + 1));
    }
    expectQuantilesMatchOracle(values);
}

TEST(Histogram, QuantilesMatchOracleOnPowerOfTwoEdges)
{
    std::vector<uint64_t> values;
    for (uint32_t exp = 0; exp < 62; ++exp) {
        uint64_t v = 1ull << exp;
        values.push_back(v);
        values.push_back(v - 1);
        values.push_back(v + 1);
    }
    expectQuantilesMatchOracle(values);
}

TEST(Histogram, EmptyHistogramReportsZeros)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0u);
    Quantiles q = h.quantiles();
    EXPECT_EQ(q.p50, 0u);
    EXPECT_EQ(q.p999, 0u);
}

/** The running summary of a sample stream (count/min/max/mean) is
 *  kept exactly, independent of the bucket resolution. */
TEST(DistributionTest, TracksSummary)
{
    Histogram d;
    EXPECT_EQ(d.count(), 0u);
    d.record(3);
    d.record(1);
    d.record(2);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_EQ(d.min(), 1u);
    EXPECT_EQ(d.max(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
}

TEST(Histogram, SingleSampleDominatesEveryQuantile)
{
    Histogram h;
    h.record(777777);
    uint64_t lo = Histogram::bucketLo(Histogram::indexFor(777777));
    for (double q : {0.0, 0.5, 0.99, 1.0}) {
        EXPECT_EQ(h.quantile(q), lo);
    }
    EXPECT_EQ(h.min(), 777777u);
    EXPECT_EQ(h.max(), 777777u);
    EXPECT_EQ(h.sum(), 777777u);
}

TEST(Histogram, QuantilesBatchAgreesWithSingleCalls)
{
    Rng rng(14);
    Histogram h;
    for (int i = 0; i < 3000; ++i) {
        h.record(rng.below(1ull << 40));
    }
    Quantiles q = h.quantiles();
    EXPECT_EQ(q.p50, h.quantile(0.50));
    EXPECT_EQ(q.p90, h.quantile(0.90));
    EXPECT_EQ(q.p99, h.quantile(0.99));
    EXPECT_EQ(q.p999, h.quantile(0.999));
    EXPECT_LE(q.p50, q.p90);
    EXPECT_LE(q.p90, q.p99);
    EXPECT_LE(q.p99, q.p999);
}

void
expectSame(const Histogram &a, const Histogram &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
        ASSERT_EQ(a.bucketCount(i), b.bucketCount(i)) << "bucket " << i;
    }
}

std::vector<uint64_t>
randomValues(uint64_t seed, size_t n, uint64_t bound)
{
    Rng rng(seed);
    std::vector<uint64_t> out;
    for (size_t i = 0; i < n; ++i) {
        out.push_back(rng.below(bound));
    }
    return out;
}

TEST(Histogram, MergeIsAssociative)
{
    auto va = randomValues(21, 500, 1ull << 30);
    auto vb = randomValues(22, 300, 1u << 10);
    auto vc = randomValues(23, 700, ~0ull);

    // (A + B) + C
    Histogram left, hb, hc;
    fill(&left, va);
    fill(&hb, vb);
    fill(&hc, vc);
    left.merge(hb);
    left.merge(hc);

    // A + (B + C)
    Histogram right, hbc;
    fill(&right, va);
    fill(&hbc, vb);
    Histogram hc2;
    fill(&hc2, vc);
    hbc.merge(hc2);
    right.merge(hbc);

    expectSame(left, right);
}

TEST(Histogram, MergeIsCommutative)
{
    auto va = randomValues(31, 400, 1ull << 44);
    auto vb = randomValues(32, 600, 1u << 16);

    Histogram ab, a2, ba, b2;
    fill(&ab, va);
    fill(&a2, va);
    fill(&ba, vb);
    fill(&b2, vb);
    Histogram tmp_b;
    fill(&tmp_b, vb);
    ab.merge(tmp_b);
    Histogram tmp_a;
    fill(&tmp_a, va);
    ba.merge(tmp_a);

    expectSame(ab, ba);
}

TEST(Histogram, MergeWithEmptyIsIdentity)
{
    auto va = randomValues(41, 250, 1ull << 33);
    Histogram h, reference, empty;
    fill(&h, va);
    fill(&reference, va);
    h.merge(empty);
    expectSame(h, reference);
    // And empty absorbing a populated histogram equals it.
    Histogram h2;
    h2.merge(reference);
    expectSame(h2, reference);
}

TEST(Histogram, MergedQuantilesEqualUnionQuantiles)
{
    auto va = randomValues(51, 800, 1ull << 28);
    auto vb = randomValues(52, 800, 1ull << 36);
    Histogram ha, hb, hu;
    fill(&ha, va);
    fill(&hb, vb);
    std::vector<uint64_t> all = va;
    all.insert(all.end(), vb.begin(), vb.end());
    fill(&hu, all);
    ha.merge(hb);
    expectSame(ha, hu);
    Quantiles merged = ha.quantiles(), direct = hu.quantiles();
    EXPECT_EQ(merged.p50, direct.p50);
    EXPECT_EQ(merged.p999, direct.p999);
}

TEST(Histogram, BucketMappingIsMonotoneAndTight)
{
    // The linear region maps one-to-one.
    for (uint64_t v = 0; v < Histogram::kSubCount; ++v) {
        EXPECT_EQ(Histogram::indexFor(v), v);
        EXPECT_EQ(Histogram::bucketLo(v), v);
    }
    // Every bucket's lower bound maps back to that bucket, and
    // boundary values fall on the right side of the edge.
    std::vector<uint64_t> probes;
    for (uint32_t exp = 5; exp < 63; ++exp) {
        probes.push_back(1ull << exp);
        probes.push_back((1ull << exp) - 1);
        probes.push_back((1ull << exp) + (1ull << (exp - 5)));
    }
    probes.push_back(~0ull);
    for (uint64_t v : probes) {
        size_t idx = Histogram::indexFor(v);
        ASSERT_LT(idx, Histogram::kBuckets) << v;
        EXPECT_LE(Histogram::bucketLo(idx), v) << v;
        EXPECT_EQ(Histogram::indexFor(Histogram::bucketLo(idx)), idx)
            << v;
        if (idx + 1 < Histogram::kBuckets &&
            Histogram::indexFor(~0ull) != idx) {
            EXPECT_LT(v, Histogram::bucketLo(idx + 1)) << v;
        }
    }
}

TEST(StageLatency, RecordsBothDomainsThroughRegistry)
{
    MetricsRegistry metrics;
    StageLatency stage(&metrics, "unit.stage");
    stage.recordWallNs(1500);
    stage.recordSim(SimTime::microseconds(3));
    stage.recordSim(SimTime::microseconds(5));
    EXPECT_EQ(metrics.quantileHistogram("unit.stage.wall_ns").count(),
              1u);
    Histogram &sim = metrics.quantileHistogram("unit.stage.sim_ps");
    EXPECT_EQ(sim.count(), 2u);
    EXPECT_EQ(sim.min(), SimTime::microseconds(3).ps());
    EXPECT_EQ(sim.max(), SimTime::microseconds(5).ps());
}

TEST(StageLatency, InertDefaultDropsSamples)
{
    StageLatency stage;
    stage.recordWallNs(1);  // must not crash
    stage.recordSim(SimTime::microseconds(1));
    EXPECT_EQ(stage.wallNs(), nullptr);
    EXPECT_EQ(stage.simPs(), nullptr);
}

TEST(StageTimer, RecordsOnEndOnceWithOptionalSimDomain)
{
    MetricsRegistry metrics;
    StageLatency stage(&metrics, "unit.timer");
    {
        StageTimer t(&stage);
        t.setSimDuration(SimTime::microseconds(7));
        t.end();
        t.end();  // idempotent
    }
    EXPECT_EQ(metrics.quantileHistogram("unit.timer.wall_ns").count(),
              1u);
    EXPECT_EQ(metrics.quantileHistogram("unit.timer.sim_ps").count(),
              1u);
    {
        StageTimer wall_only(&stage);  // destructor records wall only
    }
    EXPECT_EQ(metrics.quantileHistogram("unit.timer.wall_ns").count(),
              2u);
    EXPECT_EQ(metrics.quantileHistogram("unit.timer.sim_ps").count(),
              1u);
}

TEST(MetricsSnapshotWithQuantiles, CarriesBucketsAndQuantiles)
{
    MetricsRegistry metrics;
    Histogram &h = metrics.quantileHistogram("snap.sim_ps");
    for (uint64_t v : {10ull, 100ull, 1000ull, 100000ull}) {
        h.record(v);
    }
    MetricsSnapshot snap = metrics.snapshot();
    auto it = snap.quantile_histograms.find("snap.sim_ps");
    ASSERT_NE(it, snap.quantile_histograms.end());
    EXPECT_EQ(it->second.count, 4u);
    EXPECT_EQ(it->second.min, 10u);
    EXPECT_EQ(it->second.max, 100000u);
    uint64_t bucket_total = 0;
    uint64_t prev_lo = 0;
    bool first = true;
    for (const auto &[lo, n] : it->second.buckets) {
        EXPECT_TRUE(first || lo > prev_lo) << "bucket bounds sorted";
        first = false;
        prev_lo = lo;
        bucket_total += n;
    }
    EXPECT_EQ(bucket_total, it->second.count);
    EXPECT_LE(it->second.quantiles.p50, it->second.quantiles.p999);
}

} // namespace
} // namespace mithril::obs
