/**
 * @file
 * Tests for the set-associative cache and the memory hierarchy.
 */

#include <gtest/gtest.h>

#include "memhier/cache.hh"
#include "memhier/hierarchy.hh"

using namespace mosaic;
using namespace mosaic::mem;

namespace
{

CacheConfig
tinyCache(Bytes capacity = 4_KiB, unsigned ways = 2)
{
    return CacheConfig{"tiny", capacity, ways, 64};
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache cache(tinyCache());
    EXPECT_FALSE(cache.access(0x1000, Requester::Program));
    EXPECT_TRUE(cache.access(0x1000, Requester::Program));
    EXPECT_TRUE(cache.access(0x1038, Requester::Program)); // same line
    EXPECT_FALSE(cache.access(0x1040, Requester::Program)); // next line
}

TEST(Cache, GeometryDerivation)
{
    Cache cache(Cache(CacheConfig{"c", 32_KiB, 8, 64}));
    EXPECT_EQ(cache.numSets(), 64u); // 32KiB / 64B / 8 ways
}

TEST(Cache, LruEvictionOrder)
{
    // 2-way cache: fill a set with A and B, touch A, insert C — B (the
    // LRU way) must be evicted, A must survive.
    Cache cache(tinyCache(4_KiB, 2)); // 32 sets
    PhysAddr a = 0x0;
    PhysAddr b = a + 32 * 64;     // same set, different tag
    PhysAddr c = a + 2 * 32 * 64; // same set, third tag
    cache.access(a, Requester::Program);
    cache.access(b, Requester::Program);
    cache.access(a, Requester::Program); // refresh A
    cache.access(c, Requester::Program); // evicts B
    EXPECT_TRUE(cache.probe(a));
    EXPECT_FALSE(cache.probe(b));
    EXPECT_TRUE(cache.probe(c));
}

TEST(Cache, ProbeDoesNotMutate)
{
    Cache cache(tinyCache());
    EXPECT_FALSE(cache.probe(0x2000));
    EXPECT_FALSE(cache.access(0x2000, Requester::Program));
    auto misses_before = cache.stats().totalMisses();
    cache.probe(0x9000);
    EXPECT_EQ(cache.stats().totalMisses(), misses_before);
}

TEST(Cache, PerRequesterStats)
{
    Cache cache(tinyCache());
    cache.access(0x1000, Requester::Program);
    cache.access(0x1000, Requester::Walker);
    cache.access(0x1000, Requester::Walker);
    const auto &stats = cache.stats();
    EXPECT_EQ(stats.misses[0], 1u);
    EXPECT_EQ(stats.hits[1], 2u);
    EXPECT_EQ(stats.accesses(Requester::Walker), 2u);
    EXPECT_EQ(stats.totalAccesses(), 3u);
}

TEST(Cache, FlushInvalidatesKeepsStats)
{
    Cache cache(tinyCache());
    cache.access(0x1000, Requester::Program);
    cache.flush();
    EXPECT_FALSE(cache.probe(0x1000));
    EXPECT_EQ(cache.stats().totalAccesses(), 1u);
}

TEST(Cache, WalkerLinesEvictProgramLines)
{
    // The pollution mechanism: walker fills push program data out.
    Cache cache(tinyCache(4_KiB, 2));
    PhysAddr prog1 = 0x0;
    PhysAddr walk1 = prog1 + 32 * 64;
    PhysAddr walk2 = prog1 + 2 * 32 * 64;
    cache.access(prog1, Requester::Program);
    cache.access(walk1, Requester::Walker);
    cache.access(walk2, Requester::Walker);
    EXPECT_FALSE(cache.probe(prog1));
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache(CacheConfig{"bad", 4_KiB + 64, 2, 64}),
                 std::logic_error);
    EXPECT_THROW(Cache(CacheConfig{"bad", 4_KiB, 2, 48}),
                 std::logic_error);
}

TEST(Hierarchy, DefaultConfigConstructs)
{
    // Every default level must have a power-of-two set count.
    MemoryHierarchy hierarchy{HierarchyConfig{}};
    EXPECT_EQ(hierarchy.l3().config().capacity, 1_MiB);
    auto first = hierarchy.access(0x100000, Requester::Program);
    EXPECT_EQ(first.servedBy, ServedBy::Dram);
}

TEST(Hierarchy, LatencyPerLevel)
{
    HierarchyConfig config;
    config.l1 = {"L1", 4_KiB, 2, 64};
    config.l2 = {"L2", 16_KiB, 4, 64};
    config.l3 = {"L3", 64_KiB, 8, 64};
    MemoryHierarchy hierarchy(config);

    auto first = hierarchy.access(0x100000, Requester::Program);
    EXPECT_EQ(first.servedBy, ServedBy::Dram);
    EXPECT_EQ(first.latency, config.latencies.dram);

    auto second = hierarchy.access(0x100000, Requester::Program);
    EXPECT_EQ(second.servedBy, ServedBy::L1);
    EXPECT_EQ(second.latency, config.latencies.l1);
}

TEST(Hierarchy, MissAllocatesInAllLevels)
{
    HierarchyConfig config;
    config.l1 = {"L1", 4_KiB, 2, 64};
    config.l2 = {"L2", 16_KiB, 4, 64};
    config.l3 = {"L3", 64_KiB, 8, 64};
    MemoryHierarchy hierarchy(config);
    hierarchy.access(0x5000, Requester::Program);
    EXPECT_TRUE(hierarchy.l1().probe(0x5000));
    EXPECT_TRUE(hierarchy.l2().probe(0x5000));
    EXPECT_TRUE(hierarchy.l3().probe(0x5000));
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    HierarchyConfig config;
    config.l1 = {"L1", 128, 1, 64}; // 2 sets, 1 way: tiny
    config.l2 = {"L2", 16_KiB, 4, 64};
    config.l3 = {"L3", 64_KiB, 8, 64};
    MemoryHierarchy hierarchy(config);
    hierarchy.access(0x0000, Requester::Program);
    hierarchy.access(0x0080, Requester::Program); // evicts 0x0 from L1
    auto result = hierarchy.access(0x0000, Requester::Program);
    EXPECT_EQ(result.servedBy, ServedBy::L2);
}

TEST(Hierarchy, FlushAndClearStats)
{
    HierarchyConfig config;
    config.l1 = {"L1", 4_KiB, 2, 64};
    config.l2 = {"L2", 16_KiB, 4, 64};
    config.l3 = {"L3", 64_KiB, 8, 64};
    MemoryHierarchy hierarchy(config);
    hierarchy.access(0x100, Requester::Program);
    hierarchy.flush();
    hierarchy.clearStats();
    EXPECT_FALSE(hierarchy.l1().probe(0x100));
    EXPECT_EQ(hierarchy.l1().stats().totalAccesses(), 0u);
}
