#include "common/stats.h"

#include <gtest/gtest.h>

namespace mithril {
namespace {

TEST(HistogramTest, BucketsValues)
{
    Histogram h({1.0, 2.0, 4.0});
    h.record(0.5);   // < 1
    h.record(1.0);   // [1,2)
    h.record(1.9);   // [1,2)
    h.record(3.0);   // [2,4)
    h.record(100.0); // >= 4
    ASSERT_EQ(h.buckets(), 4u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(HistogramTest, RenderContainsBars)
{
    Histogram h({1.0});
    h.record(0.0);
    h.record(5.0);
    std::string out = h.render(10);
    EXPECT_NE(out.find('#'), std::string::npos);
    EXPECT_NE(out.find("< 1"), std::string::npos);
}

} // namespace
} // namespace mithril
