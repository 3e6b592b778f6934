/**
 * @file
 * PageTokenSet: the open page's distinct-token set must hand the index
 * exactly what a std::set<std::string> would, in the same order, since
 * the index's two-hash balancing depends on the order tokens arrive.
 */
#include "core/page_token_set.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"

namespace mithril::core {
namespace {

std::vector<std::string>
asStrings(std::span<const std::string_view> views)
{
    return {views.begin(), views.end()};
}

std::vector<std::string>
asStrings(const std::set<std::string> &set)
{
    return {set.begin(), set.end()};
}

TEST(PageTokenSetTest, EmitsSetOrderAndDropsDuplicates)
{
    // Mixed lengths, shared prefixes, bytes above 0x7f and punctuation:
    // the cases where a naive comparison would order differently from
    // std::string.
    std::vector<std::string> tokens = {
        "RAS", "KERNEL", "INFO", "RAS", "R", "RA", "RAS:", "ras",
        "\xc3\xa9t\xc3\xa9", "0x1f", "10.1.2.3", "KERNEL", "", "~", "!",
        "R02-M1-N0", "R02-M1", "INFO",
    };
    PageTokenSet set;
    std::set<std::string> reference;
    for (const std::string &t : tokens) {
        EXPECT_EQ(set.insert(t), reference.insert(t).second) << t;
    }
    EXPECT_EQ(set.size(), reference.size());
    EXPECT_EQ(asStrings(set.sorted()), asStrings(reference));
}

TEST(PageTokenSetTest, GrowsPastInitialCapacity)
{
    PageTokenSet set;
    size_t initial = set.capacity();
    std::set<std::string> reference;
    Rng rng(5);
    for (int i = 0; i < 5000; ++i) {
        std::string t = "tok" + std::to_string(rng.below(3000));
        EXPECT_EQ(set.insert(t), reference.insert(t).second);
    }
    EXPECT_GT(set.capacity(), initial);
    EXPECT_LE(set.size() * 2, set.capacity());
    EXPECT_EQ(asStrings(set.sorted()), asStrings(reference));
}

TEST(PageTokenSetTest, ReusableAfterClear)
{
    PageTokenSet set;
    for (int page = 0; page < 50; ++page) {
        std::set<std::string> reference;
        for (int i = 0; i < 40 + page; ++i) {
            std::string t = "p" + std::to_string((i * 7 + page) % 33);
            EXPECT_EQ(set.insert(t), reference.insert(t).second);
        }
        ASSERT_EQ(asStrings(set.sorted()), asStrings(reference))
            << "page " << page;
        size_t capacity = set.capacity();
        set.clear();
        EXPECT_EQ(set.size(), 0u);
        EXPECT_TRUE(set.sorted().empty());
        // Memory stays: the next page reuses the grown table.
        EXPECT_EQ(set.capacity(), capacity);
        // A token of the previous page is new again.
        EXPECT_TRUE(set.insert("p0"));
        set.clear();
    }
}

} // namespace
} // namespace mithril::core
