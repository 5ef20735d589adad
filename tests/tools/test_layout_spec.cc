/**
 * @file
 * mosaic_run's --layout grammar: each malformed, misaligned or
 * out-of-range spec exits 2 through the tools' unwrapOrDie with a
 * message naming the bad field; valid specs build the same layouts
 * the MosaicLayout factories do.
 */

#include <gtest/gtest.h>

#include "tools/cli_common.hh"
#include "tools/layout_spec.hh"

using namespace mosaic;
using alloc::MosaicLayout;
using alloc::MosaicRegion;
using alloc::PageSize;

namespace
{

constexpr Bytes kPool = 8_GiB;

/** Die like mosaic_run does on a bad spec. */
void
parseOrDie(const std::string &spec)
{
    (void)cli::unwrapOrDie("mosaic_run", cli::parseLayoutSpec(spec, kPool));
}

} // namespace

TEST(LayoutSpecProbe, ConfigGarbageNamesThePoolSizeField)
{
    EXPECT_EXIT(parseOrDie("config:garbage"), ::testing::ExitedWithCode(2),
                "config error: layout config \"garbage\": expected "
                "<pool size>;<regions>");
}

TEST(LayoutSpecProbe, EmptyConfigNamesThePoolSizeField)
{
    EXPECT_EXIT(parseOrDie("config:"), ::testing::ExitedWithCode(2),
                "config error: layout config \"\": expected "
                "<pool size>;<regions>");
}

TEST(LayoutSpecProbe, ConfigWithoutPoolSizeNamesThePoolSizeField)
{
    EXPECT_EXIT(parseOrDie("config:4KB:0:1"), ::testing::ExitedWithCode(2),
                "config error: layout config \"4KB:0:1\": expected "
                "<pool size>;<regions>");
}

TEST(LayoutSpecProbe, NegativeWindowStartNamesTheStart)
{
    EXPECT_EXIT(parseOrDie("window:-1:2MiB"), ::testing::ExitedWithCode(2),
                "config error: window start \"-1\" is negative");
}

TEST(LayoutSpecProbe, WindowPastThePoolNamesTheStart)
{
    EXPECT_EXIT(parseOrDie("window:99GiB:2MiB"),
                ::testing::ExitedWithCode(2),
                "config error: window start \"99GiB\" plus length "
                "\"2MiB\" runs past the 8589934592-byte pool");
}

TEST(LayoutSpecProbe, UnalignedWindowNamesTheStart)
{
    EXPECT_EXIT(parseOrDie("window:1:3"), ::testing::ExitedWithCode(2),
                "config error: window start \"1\" is not 2MiB aligned");
}

TEST(LayoutSpec, OtherBadFieldsAreConfigErrors)
{
    // Config strings past the pool size are the spec's job; the rest
    // of their grammar is MosaicLayout's (tests/mosalloc).
    for (const char *spec :
         {"window:0:3", "window:0", "window:2MiB:1XB", "window:0.5:2MiB",
          "window:nan:2MiB", "window:8GiB:2MiB", "window:0:10GiB",
          "config:16777216;8589934592:1073741824:1073741824",
          "config:16777216;0:8591982592:2097152",
          "config:0;18446744073709551615:2097152:2097152", "all-3MB"}) {
        SCOPED_TRACE(spec);
        auto parsed = cli::parseLayoutSpec(spec, kPool);
        ASSERT_FALSE(parsed.ok());
        EXPECT_EQ(parsed.error().category(), ErrorCategory::Config);
    }
}

TEST(LayoutSpec, ValidSpecsBuildTheFactoryLayouts)
{
    EXPECT_EQ(cli::parseLayoutSpec("all-4KB", kPool).value(),
              MosaicLayout(kPool));
    EXPECT_EQ(cli::parseLayoutSpec("all-2MB", kPool).value(),
              MosaicLayout::uniform(kPool, PageSize::Page2M));
    EXPECT_EQ(cli::parseLayoutSpec("all-1GB", kPool).value(),
              MosaicLayout::uniform(kPool, PageSize::Page1G));
    EXPECT_EQ(cli::parseLayoutSpec("window:0:64MiB", kPool).value(),
              MosaicLayout::withWindow(kPool, 0, 64_MiB,
                                       PageSize::Page2M));
    EXPECT_EQ(cli::parseLayoutSpec("window:6GiB:2G", kPool).value(),
              MosaicLayout::withWindow(kPool, 6_GiB, 2_GiB,
                                       PageSize::Page2M));
    EXPECT_EQ(cli::parseLayoutSpec("window:2MiB:0", kPool).value(),
              MosaicLayout(kPool));
    const MosaicLayout mixed(
        kPool, {MosaicRegion{0, 1_GiB, PageSize::Page1G},
                MosaicRegion{1_GiB, 4_MiB, PageSize::Page2M}});
    EXPECT_EQ(cli::parseLayoutSpec("config:" + mixed.toConfigString(),
                                   kPool)
                  .value(),
              mixed);
}
