/**
 * @file
 * Tests for the command-line argument parser shared by the tools.
 */

#include <gtest/gtest.h>

#include "tools/cli_common.hh"
#include "vm/replacement.hh"

using namespace mosaic::cli;

namespace
{

Args
parse(std::vector<const char *> words)
{
    words.insert(words.begin(), "prog");
    return parseArgs(static_cast<int>(words.size()),
                     const_cast<char **>(words.data()));
}

} // namespace

TEST(Cli, KeyValuePairs)
{
    Args args = parse({"--workload", "spec06/mcf", "--platform",
                       "Haswell"});
    EXPECT_TRUE(args.has("workload"));
    EXPECT_EQ(args.get("workload"), "spec06/mcf");
    EXPECT_EQ(args.get("platform"), "Haswell");
    EXPECT_FALSE(args.has("layout"));
}

TEST(Cli, FlagsWithoutValues)
{
    Args args = parse({"--csv", "--workload", "gups/8GB"});
    EXPECT_TRUE(args.has("csv"));
    EXPECT_EQ(args.get("csv"), "true");
    EXPECT_EQ(args.get("workload"), "gups/8GB");
}

TEST(Cli, TrailingFlag)
{
    Args args = parse({"--workload", "gups/8GB", "--stats"});
    EXPECT_TRUE(args.has("stats"));
}

TEST(Cli, PositionalArguments)
{
    Args args = parse({"first", "--key", "value", "second"});
    ASSERT_EQ(args.positional.size(), 2u);
    EXPECT_EQ(args.positional[0], "first");
    EXPECT_EQ(args.positional[1], "second");
}

TEST(Cli, DefaultsWhenMissing)
{
    Args args = parse({});
    EXPECT_EQ(args.get("layout", "all-4KB"), "all-4KB");
    EXPECT_TRUE(args.positional.empty());
}

TEST(Cli, RepeatedKeyLastWins)
{
    Args args = parse({"--out", "a.csv", "--out", "b.csv"});
    EXPECT_EQ(args.get("out"), "b.csv");
}

TEST(CliNumeric, AcceptsPlainUnsigned)
{
    auto value = parseUnsignedValue("jobs", "8");
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(value.value(), 8u);
}

TEST(CliNumeric, RejectsTrailingGarbage)
{
    // std::stoul would silently parse "4x" as 4; the structured
    // parser must refuse with a Numeric error naming the option.
    auto value = parseUnsignedValue("jobs", "4x");
    ASSERT_FALSE(value.ok());
    EXPECT_EQ(value.error().category(),
              mosaic::ErrorCategory::Numeric);
    EXPECT_NE(value.error().str().find("--jobs"), std::string::npos);
}

TEST(CliNumeric, RejectsNegative)
{
    // std::stoul wraps "-1" to 2^64-1; the parser must reject it.
    auto value = parseUnsignedValue("shard", "-1");
    ASSERT_FALSE(value.ok());
    EXPECT_EQ(value.error().category(),
              mosaic::ErrorCategory::Numeric);
}

TEST(CliNumeric, RejectsOutOfRange)
{
    auto low = parseUnsignedValue("jobs", "0", 1, 4096);
    ASSERT_FALSE(low.ok());
    EXPECT_EQ(low.error().category(), mosaic::ErrorCategory::Numeric);
    auto high = parseUnsignedValue("jobs", "5000", 1, 4096);
    ASSERT_FALSE(high.ok());
    EXPECT_NE(high.error().str().find("out of range"),
              std::string::npos);
}

TEST(CliNumeric, RejectsBareFlagValue)
{
    // "--jobs" with no value parses as the flag sentinel "true",
    // which must fail numeric parsing instead of becoming 0.
    auto value = parseUnsignedValue("jobs", "true");
    ASSERT_FALSE(value.ok());
}

TEST(CliNumeric, DoubleAcceptsDecimalAndTrimsSpace)
{
    auto value = parseDoubleValue("cell-timeout", " 2.5 ");
    ASSERT_TRUE(value.ok());
    EXPECT_DOUBLE_EQ(value.value(), 2.5);
}

TEST(CliNumeric, DoubleRejectsGarbageInfinityAndEmpty)
{
    EXPECT_FALSE(parseDoubleValue("cell-timeout", "1.5s").ok());
    EXPECT_FALSE(parseDoubleValue("cell-timeout", "inf").ok());
    EXPECT_FALSE(parseDoubleValue("cell-timeout", "nan").ok());
    EXPECT_FALSE(parseDoubleValue("cell-timeout", "").ok());
    EXPECT_FALSE(parseDoubleValue("cell-timeout", "1e500").ok());
}

TEST(CliNumeric, DoubleEnforcesRange)
{
    auto value = parseDoubleValue("cell-timeout", "-3", 0.0, 86400.0);
    ASSERT_FALSE(value.ok());
    EXPECT_EQ(value.error().category(),
              mosaic::ErrorCategory::Numeric);
}

// The OS-layer flags (--mem-frames, --replacement, --swap-cost) go
// through the same structured parsers as every other option; these
// tests pin the exact rejection behaviour mosaic_campaign relies on
// (unwrapOrDie turns any of these errors into exit 2).

TEST(CliOsFlags, MemFramesAcceptsZeroAndBounds)
{
    // 0 is the unbounded-mode sentinel and must parse, not error.
    auto off = parseUnsignedValue("mem-frames", "0", 0, 1ull << 28);
    ASSERT_TRUE(off.ok());
    EXPECT_EQ(off.value(), 0u);
    auto bounded =
        parseUnsignedValue("mem-frames", "4096", 0, 1ull << 28);
    ASSERT_TRUE(bounded.ok());
    EXPECT_EQ(bounded.value(), 4096u);
}

TEST(CliOsFlags, MemFramesRejectsGarbageNegativeAndHuge)
{
    for (const char *bad : {"4k", "-1", "true", "", " ", "0x10"}) {
        auto value =
            parseUnsignedValue("mem-frames", bad, 0, 1ull << 28);
        ASSERT_FALSE(value.ok()) << "accepted: " << bad;
        EXPECT_EQ(value.error().category(),
                  mosaic::ErrorCategory::Numeric);
        EXPECT_NE(value.error().str().find("--mem-frames"),
                  std::string::npos);
    }
    // More frames than the 1TiB simulated physical address space can
    // back must be refused at the CLI, not deep in the frame pool.
    auto huge = parseUnsignedValue("mem-frames", "536870912", 0,
                                   1ull << 28);
    ASSERT_FALSE(huge.ok());
    EXPECT_NE(huge.error().str().find("out of range"),
              std::string::npos);
}

TEST(CliOsFlags, SwapCostRejectsGarbage)
{
    auto ok = parseUnsignedValue("swap-cost", "12345", 0, 1ull << 32);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 12345u);
    for (const char *bad : {"2000 cycles", "-5", "1e6"}) {
        auto value =
            parseUnsignedValue("swap-cost", bad, 0, 1ull << 32);
        ASSERT_FALSE(value.ok()) << "accepted: " << bad;
        EXPECT_EQ(value.error().category(),
                  mosaic::ErrorCategory::Numeric);
    }
}

TEST(CliOsFlags, ReplacementParsesExactLowercaseNamesOnly)
{
    auto lru = mosaic::vm::parseReplacementPolicy("lru");
    ASSERT_TRUE(lru.ok());
    EXPECT_EQ(lru.value(), mosaic::vm::ReplacementPolicyKind::Lru);
    for (const char *bad : {"LRU", "Fifo", "random", "lru ", ""}) {
        auto value = mosaic::vm::parseReplacementPolicy(bad);
        ASSERT_FALSE(value.ok()) << "accepted: " << bad;
        EXPECT_EQ(value.error().category(),
                  mosaic::ErrorCategory::Config);
    }
}

TEST(CliNumeric, OptionHelpersUseFallback)
{
    Args args = parse({"--jobs", "12"});
    auto jobs = unsignedOption(args, "jobs", 1, 1, 4096);
    ASSERT_TRUE(jobs.ok());
    EXPECT_EQ(jobs.value(), 12u);
    auto missing = unsignedOption(args, "checkpoint-every", 4, 1, 64);
    ASSERT_TRUE(missing.ok());
    EXPECT_EQ(missing.value(), 4u);
    auto timeout = doubleOption(args, "cell-timeout", 0.0, 0.0);
    ASSERT_TRUE(timeout.ok());
    EXPECT_DOUBLE_EQ(timeout.value(), 0.0);
}
