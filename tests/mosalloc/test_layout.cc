/**
 * @file
 * Tests for page sizes and mosaic layouts.
 */

#include <gtest/gtest.h>

#include "mosalloc/layout.hh"

using namespace mosaic;
using namespace mosaic::alloc;

TEST(PageSize, BytesAndShifts)
{
    EXPECT_EQ(pageBytes(PageSize::Page4K), 4_KiB);
    EXPECT_EQ(pageBytes(PageSize::Page2M), 2_MiB);
    EXPECT_EQ(pageBytes(PageSize::Page1G), 1_GiB);
    EXPECT_EQ(pageShift(PageSize::Page4K), 12u);
    EXPECT_EQ(pageShift(PageSize::Page2M), 21u);
    EXPECT_EQ(pageShift(PageSize::Page1G), 30u);
}

TEST(PageSize, NamesAndRoundTrip)
{
    EXPECT_EQ(pageSizeName(PageSize::Page2M), "2MB");
    EXPECT_EQ(pageSizeFromBytes(4_KiB), PageSize::Page4K);
    EXPECT_EQ(pageSizeFromBytes(1_GiB), PageSize::Page1G);
    EXPECT_THROW(pageSizeFromBytes(8_KiB), std::runtime_error);
}

TEST(MosaicLayout, DefaultIsAll4k)
{
    MosaicLayout layout(10_MiB);
    EXPECT_EQ(layout.poolSize(), 10_MiB);
    EXPECT_TRUE(layout.regions().empty());
    EXPECT_EQ(layout.pageSizeAt(0), PageSize::Page4K);
    EXPECT_EQ(layout.pageSizeAt(10_MiB - 1), PageSize::Page4K);
    EXPECT_DOUBLE_EQ(layout.hugeCoverage(), 0.0);
}

TEST(MosaicLayout, UniformPadsPool)
{
    MosaicLayout layout = MosaicLayout::uniform(3_MiB, PageSize::Page2M);
    EXPECT_EQ(layout.poolSize(), 4_MiB);
    EXPECT_EQ(layout.pageSizeAt(0), PageSize::Page2M);
    EXPECT_EQ(layout.pageSizeAt(4_MiB - 1), PageSize::Page2M);
    EXPECT_DOUBLE_EQ(layout.hugeCoverage(), 1.0);
}

TEST(MosaicLayout, WindowAlignmentGrowsOutward)
{
    // Window [3MiB, 3MiB + 1MiB) must align to [2MiB, 4MiB) for 2MB
    // pages.
    MosaicLayout layout =
        MosaicLayout::withWindow(16_MiB, 3_MiB, 1_MiB, PageSize::Page2M);
    ASSERT_EQ(layout.regions().size(), 1u);
    EXPECT_EQ(layout.regions()[0].start, 2_MiB);
    EXPECT_EQ(layout.regions()[0].length, 2_MiB);
    EXPECT_EQ(layout.pageSizeAt(2_MiB), PageSize::Page2M);
    EXPECT_EQ(layout.pageSizeAt(2_MiB - 1), PageSize::Page4K);
    EXPECT_EQ(layout.pageSizeAt(4_MiB), PageSize::Page4K);
}

TEST(MosaicLayout, EmptyWindowIsAll4k)
{
    MosaicLayout layout =
        MosaicLayout::withWindow(16_MiB, 4_MiB, 0, PageSize::Page2M);
    EXPECT_TRUE(layout.regions().empty());
}

TEST(MosaicLayout, PageBaseAt)
{
    MosaicLayout layout =
        MosaicLayout::withWindow(16_MiB, 2_MiB, 2_MiB, PageSize::Page2M);
    EXPECT_EQ(layout.pageBaseAt(3_MiB), 2_MiB);
    EXPECT_EQ(layout.pageBaseAt(5_MiB + 123), 5_MiB);
    EXPECT_EQ(layout.pageBaseAt(4_KiB + 17), 4_KiB);
}

TEST(MosaicLayout, RejectsMisalignedRegions)
{
    EXPECT_THROW(MosaicLayout(16_MiB,
                              {MosaicRegion{4_KiB, 2_MiB,
                                            PageSize::Page2M}}),
                 std::logic_error);
    EXPECT_THROW(MosaicLayout(16_MiB,
                              {MosaicRegion{0, 1_MiB, PageSize::Page2M}}),
                 std::logic_error);
}

TEST(MosaicLayout, RejectsOverlaps)
{
    EXPECT_THROW(
        MosaicLayout(16_MiB,
                     {MosaicRegion{0, 4_MiB, PageSize::Page2M},
                      MosaicRegion{2_MiB, 2_MiB, PageSize::Page2M}}),
        std::logic_error);
}

TEST(MosaicLayout, SortsRegions)
{
    MosaicLayout layout(16_MiB,
                        {MosaicRegion{8_MiB, 2_MiB, PageSize::Page2M},
                         MosaicRegion{2_MiB, 2_MiB, PageSize::Page2M}});
    ASSERT_EQ(layout.regions().size(), 2u);
    EXPECT_LT(layout.regions()[0].start, layout.regions()[1].start);
}

TEST(MosaicLayout, PageCountsAccountForWholePool)
{
    MosaicLayout layout(8_MiB,
                        {MosaicRegion{2_MiB, 4_MiB, PageSize::Page2M}});
    auto counts = layout.pageCounts();
    EXPECT_EQ(counts[static_cast<std::size_t>(PageSize::Page2M)], 2u);
    EXPECT_EQ(counts[static_cast<std::size_t>(PageSize::Page4K)],
              (8_MiB - 4_MiB) / 4_KiB);
    EXPECT_EQ(counts[static_cast<std::size_t>(PageSize::Page1G)], 0u);
}

TEST(MosaicLayout, EnumeratePagesCoversPoolExactly)
{
    MosaicLayout layout(8_MiB,
                        {MosaicRegion{2_MiB, 2_MiB, PageSize::Page2M}});
    auto pages = layout.enumeratePages();
    Bytes cursor = 0;
    for (const auto &[offset, size] : pages) {
        EXPECT_EQ(offset, cursor);
        cursor += pageBytes(size);
    }
    EXPECT_EQ(cursor, 8_MiB);
}

TEST(MosaicLayout, MixedThreeSizes)
{
    MosaicLayout layout(2_GiB,
                        {MosaicRegion{0, 1_GiB, PageSize::Page1G},
                         MosaicRegion{1_GiB, 512_MiB, PageSize::Page2M}});
    EXPECT_EQ(layout.pageSizeAt(512_MiB), PageSize::Page1G);
    EXPECT_EQ(layout.pageSizeAt(1_GiB + 1), PageSize::Page2M);
    EXPECT_EQ(layout.pageSizeAt(2_GiB - 1), PageSize::Page4K);
    EXPECT_NEAR(layout.hugeCoverage(), 0.75, 1e-12);
}

TEST(MosaicLayout, ConfigStringRoundTrip)
{
    MosaicLayout layout(16_MiB,
                        {MosaicRegion{2_MiB, 4_MiB, PageSize::Page2M}});
    std::string text = layout.toConfigString();
    MosaicLayout parsed = MosaicLayout::fromConfigString(0, text).value();
    EXPECT_EQ(parsed, layout);
}

TEST(MosaicLayout, ConfigStringAll4k)
{
    MosaicLayout layout(4_MiB);
    MosaicLayout parsed =
        MosaicLayout::fromConfigString(0, layout.toConfigString()).value();
    EXPECT_EQ(parsed, layout);
}

TEST(MosaicLayout, ConfigStringErrorsNameTheBadField)
{
    struct Probe
    {
        const char *text;
        const char *field;
    };
    for (const Probe &probe :
         {Probe{"garbage", "<pool size>;<regions>"},
          Probe{"x;", "pool size \"x\""},
          Probe{"16777216;0:2097152", "region \"0:2097152\""},
          Probe{"16777216;-1:2097152:2097152", "region start \"-1\""},
          Probe{"16777216;0:2M:2097152", "region length \"2M\""},
          Probe{"16777216;0:2097152:8192", "region page size \"8192\""},
          Probe{"16777216;0:4096:4096", "implicit background"},
          Probe{"16777216;4096:2097152:2097152", "start not aligned"},
          Probe{"16777216;0:4096:2097152", "not a multiple of 2MB"},
          Probe{"16777216;0:4194304:2097152,2097152:2097152:2097152",
                "overlaps"},
          Probe{"16777216;16777216:2097152:2097152", "runs past"}}) {
        SCOPED_TRACE(probe.text);
        auto parsed = MosaicLayout::fromConfigString(0, probe.text);
        ASSERT_FALSE(parsed.ok());
        EXPECT_EQ(parsed.error().category(), ErrorCategory::Config);
        EXPECT_NE(parsed.error().message().find(probe.field),
                  std::string::npos)
            << parsed.error().message();
    }
}

TEST(MosaicLayout, PageSizeAtOutOfRangePanics)
{
    MosaicLayout layout(4_MiB);
    EXPECT_THROW(layout.pageSizeAt(4_MiB), std::logic_error);
}
