/**
 * @file
 * Tests for the MMU facade and its PMU-style H/M/C accounting.
 */

#include <gtest/gtest.h>

#include "memhier/hierarchy.hh"
#include "vm/mmu.hh"

using namespace mosaic;
using namespace mosaic::vm;
using alloc::PageSize;

namespace
{

struct MmuFixture
{
    explicit MmuFixture(unsigned walkers = 1)
        : table(mem), hierarchy(hierConfig())
    {
        MmuConfig config;
        config.numWalkers = walkers;
        mmu = std::make_unique<Mmu>(table, hierarchy, config);
    }

    static mem::HierarchyConfig
    hierConfig()
    {
        mem::HierarchyConfig config;
        config.l1 = {"L1", 4_KiB, 2, 64};
        config.l2 = {"L2", 32_KiB, 4, 64};
        config.l3 = {"L3", 256_KiB, 8, 64};
        return config;
    }

    FramePool mem;
    PageTable table;
    mem::MemoryHierarchy hierarchy;
    std::unique_ptr<Mmu> mmu;
};

constexpr VirtAddr base = 0x4000000000ULL;

} // namespace

TEST(Mmu, FirstAccessWalksThenHits)
{
    MmuFixture fixture;
    fixture.table.map(base, PageSize::Page4K, 0x80000000ULL);

    auto first = fixture.mmu->translate(base + 8, 0);
    EXPECT_EQ(first.outcome, TlbOutcome::Miss);
    EXPECT_GT(first.latency, 0u);
    EXPECT_EQ(first.physAddr, 0x80000008ULL);
    EXPECT_EQ(fixture.mmu->counters().m, 1u);
    EXPECT_GT(fixture.mmu->counters().c, 0u);

    auto second = fixture.mmu->translate(base + 16, 100000);
    EXPECT_EQ(second.outcome, TlbOutcome::L1Hit);
    EXPECT_EQ(second.latency, 0u);
    EXPECT_EQ(second.physAddr, 0x80000010ULL);
}

TEST(Mmu, L2HitCostsSevenCycles)
{
    MmuFixture fixture;
    // Map enough pages to overflow the 64-entry L1 but not the L2.
    for (std::uint64_t i = 0; i < 256; ++i)
        fixture.table.map(base + i * 4_KiB, PageSize::Page4K,
                          0x80000000ULL + i * 4_KiB);
    for (std::uint64_t i = 0; i < 256; ++i)
        fixture.mmu->translate(base + i * 4_KiB, i * 1000);

    auto result = fixture.mmu->translate(base, 10000000);
    EXPECT_EQ(result.outcome, TlbOutcome::L2Hit);
    EXPECT_EQ(result.latency, 7u);
    EXPECT_EQ(fixture.mmu->counters().h, 1u);
}

TEST(Mmu, CountersSumToAccesses)
{
    MmuFixture fixture;
    for (std::uint64_t i = 0; i < 512; ++i)
        fixture.table.map(base + i * 4_KiB, PageSize::Page4K,
                          0x80000000ULL + i * 4_KiB);
    const std::uint64_t n = 5000;
    for (std::uint64_t i = 0; i < n; ++i)
        fixture.mmu->translate(base + (i % 512) * 4_KiB, i * 10);
    const auto &counters = fixture.mmu->counters();
    EXPECT_EQ(counters.l1Hits + counters.h + counters.m, n);
}

TEST(Mmu, UnmappedAccessPanics)
{
    MmuFixture fixture;
    EXPECT_THROW(fixture.mmu->translate(0x123456000ULL, 0),
                 std::logic_error);
}

TEST(Mmu, FlushForgetsTranslations)
{
    MmuFixture fixture;
    fixture.table.map(base, PageSize::Page4K, 0x80000000ULL);
    fixture.mmu->translate(base, 0);
    fixture.mmu->flush();
    auto result = fixture.mmu->translate(base, 100000);
    EXPECT_EQ(result.outcome, TlbOutcome::Miss);
    EXPECT_EQ(fixture.mmu->counters().m, 2u);
}

TEST(Mmu, StagedAndFullTranslationsAgreeWhenInterleaved)
{
    // Regression test for the staged-translation memo aliasing hazard:
    // the replay kernel stages peekTranslate() results a chunk ahead of
    // the retire loop, so a staged {physAddr, pageSize} can be consumed
    // at a different `now` — and interleaved with other full
    // translate() calls that advance time and recycle the same memo
    // slots. Two MMUs over one page table replay the same access
    // stream, one through translate(), one through
    // peek-then-translateStaged with a deliberately stale staging
    // distance and a second stream hammering aliasing granules in
    // between; every event and every counter must be bit-identical.
    MmuFixture plain, staged;
    // Map both fixtures' tables identically: mixed 4K/2M pages so the
    // staged path carries both page sizes.
    auto mapBoth = [&](VirtAddr vaddr, PageSize size, PhysAddr paddr) {
        plain.table.map(vaddr, size, paddr);
        staged.table.map(vaddr, size, paddr);
    };
    for (std::uint64_t i = 0; i < 128; ++i)
        mapBoth(base + i * 4_KiB, PageSize::Page4K,
                0x80000000ULL + i * 4_KiB);
    mapBoth(base + 1_GiB, PageSize::Page2M, 0xc0000000ULL);

    // Access stream: strides that wrap the 128-page window (TLB
    // evictions), repeated granules (memo hits), and the 2M page
    // (different size class through the same staged plumbing).
    std::vector<VirtAddr> stream;
    for (std::uint64_t i = 0; i < 4000; ++i) {
        switch (i % 5) {
          case 0:
            stream.push_back(base + (i * 7 % 128) * 4_KiB + (i % 4096));
            break;
          case 1:
            stream.push_back(base + (i % 128) * 4_KiB);
            break;
          case 2:
            stream.push_back(base + 1_GiB + (i * 64 % 2_MiB));
            break;
          default:
            stream.push_back(base + (i * 31 % 128) * 4_KiB);
        }
    }

    constexpr std::size_t kStageAhead = 16;
    std::vector<Mmu::StagedXlate> pending(kStageAhead);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        // Stage kStageAhead addresses in a burst, as the kernel does,
        // then retire them one by one at later timestamps.
        if (i % kStageAhead == 0) {
            for (std::size_t j = i;
                 j < std::min(i + kStageAhead, stream.size()); ++j)
                pending[j - i] = staged.mmu->peekTranslate(stream[j]);
        }
        Cycles now = static_cast<Cycles>(i * 37);
        auto full = plain.mmu->translate(stream[i], now);
        const Mmu::StagedXlate &stage = pending[i % kStageAhead];
        auto lazy = staged.mmu->translateStaged(
            stream[i], stage.physAddr, stage.pageSize, now);
        ASSERT_EQ(full.physAddr, lazy.physAddr) << "at access " << i;
        ASSERT_EQ(full.outcome, lazy.outcome) << "at access " << i;
        ASSERT_EQ(full.latency, lazy.latency) << "at access " << i;
        ASSERT_EQ(full.pageSize, lazy.pageSize) << "at access " << i;
    }
    EXPECT_EQ(plain.mmu->counters().l1Hits,
              staged.mmu->counters().l1Hits);
    EXPECT_EQ(plain.mmu->counters().h, staged.mmu->counters().h);
    EXPECT_EQ(plain.mmu->counters().m, staged.mmu->counters().m);
    EXPECT_EQ(plain.mmu->counters().c, staged.mmu->counters().c);
}

TEST(Mmu, WalkCyclesAccumulateAcrossWalkers)
{
    // With 2 walkers and back-to-back misses, C grows by the full walk
    // latency of each walk even though they overlap in time.
    MmuFixture fixture(2);
    fixture.table.map(base, PageSize::Page4K, 0x80000000ULL);
    fixture.table.map(base + 1_GiB, PageSize::Page4K, 0x80002000ULL);
    auto e1 = fixture.mmu->translate(base, 0);
    auto e2 = fixture.mmu->translate(base + 1_GiB, 0);
    EXPECT_EQ(e2.queueCycles, 0u);
    EXPECT_EQ(fixture.mmu->counters().c, e1.latency + e2.latency);
}
