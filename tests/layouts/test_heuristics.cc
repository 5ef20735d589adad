/**
 * @file
 * Tests for the layout-exploration heuristics of Section VI-B.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "layouts/heuristics.hh"
#include "support/random.hh"

using namespace mosaic;
using namespace mosaic::layouts;
using alloc::PageSize;

namespace
{

constexpr Bytes poolSize = 128_MiB;
constexpr VirtAddr poolBase = 4_GiB;

/** A miss profile with a hot stripe at [hot_start, hot_start+len). */
trace::MissProfile
profileWithHotStripe(Bytes hot_start, Bytes hot_len)
{
    trace::MemoryTrace trace;
    Rng rng(55);
    for (int i = 0; i < 60000; ++i) {
        bool hot = rng.nextBounded(10) < 9;
        Bytes offset = hot ? hot_start + rng.nextBounded(hot_len)
                           : rng.nextBounded(poolSize);
        trace.add(poolBase + offset, 1, false);
    }
    return trace::MissProfile(trace, poolBase, poolSize);
}

} // namespace

TEST(GrowingWindow, ProducesNPlusOneLayouts)
{
    auto layouts = growingWindowLayouts(poolSize, 8);
    ASSERT_EQ(layouts.size(), 9u);
    EXPECT_EQ(layouts.front().name, "grow-0");
    EXPECT_EQ(layouts.back().name, "grow-8");
}

TEST(GrowingWindow, CoverageGrowsMonotonically)
{
    auto layouts = growingWindowLayouts(poolSize, 8);
    double previous = -1.0;
    for (const auto &named : layouts) {
        double coverage = named.layout.hugeCoverage();
        EXPECT_GE(coverage, previous);
        previous = coverage;
    }
    EXPECT_DOUBLE_EQ(layouts.front().layout.hugeCoverage(), 0.0);
    EXPECT_GT(layouts.back().layout.hugeCoverage(), 0.99);
}

TEST(GrowingWindow, WindowsStartAtZero)
{
    auto layouts = growingWindowLayouts(poolSize, 4);
    for (std::size_t i = 1; i < layouts.size(); ++i) {
        ASSERT_EQ(layouts[i].layout.regions().size(), 1u);
        EXPECT_EQ(layouts[i].layout.regions()[0].start, 0u);
    }
}

TEST(RandomWindow, DeterministicPerSeed)
{
    auto a = randomWindowLayouts(poolSize, 8, 42);
    auto b = randomWindowLayouts(poolSize, 8, 42);
    auto c = randomWindowLayouts(poolSize, 8, 43);
    ASSERT_EQ(a.size(), 9u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].layout, b[i].layout);
    bool any_different = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_different |= !(a[i].layout == c[i].layout);
    EXPECT_TRUE(any_different);
}

TEST(RandomWindow, WindowsWithinPool)
{
    auto layouts = randomWindowLayouts(poolSize, 8, 7);
    for (const auto &named : layouts) {
        for (const auto &region : named.layout.regions()) {
            EXPECT_LE(region.end(), named.layout.poolSize());
            EXPECT_EQ(region.pageSize, PageSize::Page2M);
        }
    }
}

TEST(SlidingWindow, FirstLayoutCoversHotRegion)
{
    auto profile = profileWithHotStripe(32_MiB, 16_MiB);
    auto layouts = slidingWindowLayouts(poolSize, profile, 0.8, 8);
    ASSERT_EQ(layouts.size(), 9u);

    auto hot = profile.findHotRegion(0.8);
    ASSERT_EQ(layouts[0].layout.regions().size(), 1u);
    const auto &window = layouts[0].layout.regions()[0];
    EXPECT_LE(window.start, hot.start);
    EXPECT_GE(window.end(), hot.end());
}

TEST(SlidingWindow, LastLayoutMissesHotRegion)
{
    auto profile = profileWithHotStripe(32_MiB, 16_MiB);
    auto layouts = slidingWindowLayouts(poolSize, profile, 0.6, 8);
    auto hot = profile.findHotRegion(0.6);

    const auto &last = layouts.back().layout;
    if (!last.regions().empty()) {
        const auto &window = last.regions()[0];
        // Overlap with the hot region must be (near) zero.
        Bytes overlap_start = std::max(window.start, hot.start);
        Bytes overlap_end = std::min(window.end(), hot.end());
        Bytes overlap =
            overlap_end > overlap_start ? overlap_end - overlap_start : 0;
        EXPECT_LE(overlap, 2_MiB);
    }
}

TEST(SlidingWindow, OverlapShrinksMonotonically)
{
    auto profile = profileWithHotStripe(64_MiB, 16_MiB);
    auto layouts = slidingWindowLayouts(poolSize, profile, 0.4, 8);
    auto hot = profile.findHotRegion(0.4);

    Bytes previous = ~Bytes(0);
    for (const auto &named : layouts) {
        Bytes overlap = 0;
        for (const auto &window : named.layout.regions()) {
            Bytes lo = std::max(window.start, hot.start);
            Bytes hi = std::min(window.end(), hot.end());
            overlap += hi > lo ? hi - lo : 0;
        }
        EXPECT_LE(overlap, previous);
        previous = overlap;
    }
}

TEST(SlidingWindow, SlideDirectionDependsOnHotPosition)
{
    // Hot region at the bottom: windows slide up (toward high addrs).
    auto low_profile = profileWithHotStripe(4_MiB, 16_MiB);
    auto low_layouts = slidingWindowLayouts(poolSize, low_profile, 0.6, 8);
    EXPECT_GE(low_layouts.back().layout.regions()[0].start,
              low_layouts.front().layout.regions()[0].start);

    // Hot region at the top: windows slide down.
    auto high_profile = profileWithHotStripe(104_MiB, 16_MiB);
    auto high_layouts =
        slidingWindowLayouts(poolSize, high_profile, 0.6, 8);
    EXPECT_LE(high_layouts.back().layout.regions()[0].start,
              high_layouts.front().layout.regions()[0].start);
}

TEST(SlidingWindow, FallsBackWithoutMisses)
{
    trace::MemoryTrace empty;
    empty.add(8_GiB, 1, false); // outside the pool
    trace::MissProfile profile(empty, poolBase, poolSize);
    auto layouts = slidingWindowLayouts(poolSize, profile, 0.4, 8);
    EXPECT_EQ(layouts.size(), 9u);
}

TEST(PaperCampaign, FiftyFourLayouts)
{
    auto profile = profileWithHotStripe(32_MiB, 16_MiB);
    auto layouts = paperCampaignLayouts(poolSize, profile);
    ASSERT_EQ(layouts.size(), 54u);

    // 9 growing + 9 random + 36 sliding, with unique names.
    std::set<std::string> names;
    for (const auto &named : layouts)
        EXPECT_TRUE(names.insert(named.name).second) << named.name;
    EXPECT_EQ(std::count_if(layouts.begin(), layouts.end(),
                            [](const NamedLayout &named) {
                                return named.name.rfind("slide", 0) == 0;
                            }),
              36);
}

TEST(PaperCampaign, NamesAreTheStructuralList)
{
    // Both a profiled pool and one with no misses (the sliding
    // fallback) name their layouts exactly as the trace-free list does.
    auto profile = profileWithHotStripe(32_MiB, 16_MiB);
    trace::MemoryTrace empty;
    trace::MissProfile cold(empty, poolBase, poolSize);
    for (const auto *used : {&profile, &cold}) {
        auto layouts = paperCampaignLayouts(poolSize, *used);
        std::vector<std::string> names;
        for (const auto &named : layouts)
            names.push_back(named.name);
        EXPECT_EQ(names, paperCampaignLayoutNames());
    }
}

TEST(PaperCampaign, IncludesUniformEndpoints)
{
    auto profile = profileWithHotStripe(32_MiB, 16_MiB);
    auto layouts = paperCampaignLayouts(poolSize, profile);
    EXPECT_DOUBLE_EQ(layouts[0].layout.hugeCoverage(), 0.0); // all-4KB
    EXPECT_GT(layouts[8].layout.hugeCoverage(), 0.99);       // all-2MB
}

TEST(UniformLayouts, NamesAndCoverage)
{
    auto huge = uniformLayout(poolSize, PageSize::Page1G);
    EXPECT_EQ(huge.name, "all-1GB");
    EXPECT_GT(huge.layout.hugeCoverage(), 0.99);
    auto small = uniformLayout(poolSize, PageSize::Page4K);
    EXPECT_EQ(small.name, "all-4KB");
    EXPECT_DOUBLE_EQ(small.layout.hugeCoverage(), 0.0);
}

TEST(PaperCampaign, CoverageDiversity)
{
    // The 54 layouts must produce a spread of hugepage coverages, not
    // cluster at the endpoints (that is their whole purpose).
    auto profile = profileWithHotStripe(32_MiB, 16_MiB);
    auto layouts = paperCampaignLayouts(poolSize, profile);
    int mid = 0;
    for (const auto &named : layouts) {
        double coverage = named.layout.hugeCoverage();
        if (coverage > 0.05 && coverage < 0.95)
            ++mid;
    }
    EXPECT_GE(mid, 20);
}
