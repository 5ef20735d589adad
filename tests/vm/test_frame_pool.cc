/**
 * @file
 * FramePool tests: the unbounded bump allocator contract (address
 * identity with the pre-refactor PhysMem), exhaustion as structured
 * ResourceErrors, and the bounded demand-paging mode — fault/eviction
 * accounting, shootdown ordering, dirty writeback, LIFO frame reuse,
 * and cross-tenant contention — plus the page lookup against a
 * sorted-page binary-search oracle, and the paged MMU path against
 * the live page table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cpu/platform.hh"
#include "memhier/hierarchy.hh"
#include "mosalloc/mosalloc.hh"
#include "support/error.hh"
#include "support/random.hh"
#include "vm/frame_pool.hh"
#include "vm/mmu.hh"
#include "vm/page_table.hh"

using namespace mosaic;
using namespace mosaic::vm;
using alloc::MosaicLayout;
using alloc::MosaicRegion;
using alloc::Mosalloc;
using alloc::MosallocConfig;
using alloc::PageSize;
using alloc::PoolAddresses;

namespace
{

/** A tiny pool mix: 256 heap pages, 256 anon pages, 16 file pages. */
MosallocConfig
tinyConfig()
{
    MosallocConfig config;
    config.heapLayout = MosaicLayout(1_MiB);
    config.anonLayout = MosaicLayout(1_MiB);
    config.filePoolSize = 64_KiB;
    return config;
}

struct RecordingSink : ShootdownSink
{
    std::vector<std::pair<VirtAddr, PageSize>> events;

    void
    shootdown(VirtAddr vbase, PageSize size) override
    {
        events.emplace_back(vbase, size);
    }
};

OsConfig
boundedConfig(std::uint64_t frames,
              ReplacementPolicyKind policy = ReplacementPolicyKind::Fifo)
{
    OsConfig os;
    os.memFrames = frames;
    os.policy = policy;
    os.majorFaultCycles = 2000;
    os.writebackCycles = 800;
    return os;
}

/** One registered address space over @p pool for the tiny config. */
struct TestTenant
{
    explicit TestTenant(FramePool &pool)
        : allocator(tinyConfig()), table(pool),
          id(pool.registerTenant(table, sink))
    {
        pool.addTenantPages(id, allocator);
    }

    Mosalloc allocator;
    PageTable table;
    RecordingSink sink;
    FramePool::TenantId id;
};

} // namespace

// ---------------------------------------------------------------------
// Unbounded mode (the safety rail: exactly the old bump allocator)
// ---------------------------------------------------------------------

TEST(FramePoolUnbounded, ConfiguredUnboundedMatchesDefaultPool)
{
    FramePool legacy;                  // pre-refactor default ctor
    FramePool configured(OsConfig{});  // memFrames == 0
    EXPECT_FALSE(configured.paged());
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(legacy.allocPageTableNode(),
                  configured.allocPageTableNode());
    }
    for (auto size : {PageSize::Page4K, PageSize::Page2M,
                      PageSize::Page4K, PageSize::Page1G,
                      PageSize::Page2M}) {
        EXPECT_EQ(legacy.allocDataFrame(size),
                  configured.allocDataFrame(size));
    }
    EXPECT_EQ(legacy.dataBytesAllocated(),
              configured.dataBytesAllocated());
}

TEST(FramePoolUnbounded, PageTableRegionExhaustionIsResourceError)
{
    FramePool pool;
    const std::uint64_t capacity = FramePool::pageTableRegion / 4_KiB;
    for (std::uint64_t i = 0; i < capacity; ++i)
        pool.allocPageTableNode();
    EXPECT_THROW(pool.allocPageTableNode(), ResourceError);
    EXPECT_EQ(pool.numPageTableNodes(), capacity);
}

TEST(FramePoolUnbounded, PhysicalExhaustionIsResourceError)
{
    FramePool pool;
    // 1GiB frames against the 1TiB ceiling: the first GiB is the
    // page-table region, leaving 1023 data frames.
    for (int i = 0; i < 1023; ++i)
        pool.allocDataFrame(PageSize::Page1G);
    EXPECT_THROW(pool.allocDataFrame(PageSize::Page1G), ResourceError);
    EXPECT_THROW(pool.allocDataFrame(PageSize::Page4K), ResourceError);
}

// ---------------------------------------------------------------------
// Bounded mode: fault accounting and eviction mechanics
// ---------------------------------------------------------------------

TEST(FramePoolBounded, FirstTouchIsMajorFaultSecondIsFree)
{
    FramePool pool(boundedConfig(16));
    TestTenant tenant(pool);
    const VirtAddr heap = PoolAddresses::heapBase;

    auto first = pool.touch(tenant.id, heap + 100, false);
    EXPECT_TRUE(first.majorFault);
    EXPECT_EQ(first.swapCycles, 2000u);
    EXPECT_EQ(first.evictions, 0u);
    EXPECT_EQ(pool.majorFaults(), 1u);
    EXPECT_TRUE(tenant.table.translate(heap + 100).valid);

    // Same page, different offset: resident, zero cost.
    auto second = pool.touch(tenant.id, heap + 200, false);
    EXPECT_FALSE(second.majorFault);
    EXPECT_EQ(second.swapCycles, 0u);
    EXPECT_EQ(pool.majorFaults(), 1u);
    EXPECT_EQ(pool.residentBytes(), 4_KiB);
}

TEST(FramePoolBounded, EvictionUnmapsShootsDownAndRecyclesLifo)
{
    FramePool pool(boundedConfig(2)); // room for two 4KB pages
    TestTenant tenant(pool);
    const VirtAddr heap = PoolAddresses::heapBase;

    pool.touch(tenant.id, heap, false);
    pool.touch(tenant.id, heap + 4_KiB, false);
    const PhysAddr frame_a = tenant.table.translate(heap).physAddr;
    EXPECT_EQ(pool.residentBytes(), 8_KiB);

    // Third page: FIFO evicts the first. Clean page, no writeback.
    auto outcome = pool.touch(tenant.id, heap + 8_KiB, false);
    EXPECT_TRUE(outcome.majorFault);
    EXPECT_EQ(outcome.evictions, 1u);
    EXPECT_EQ(outcome.writebacks, 0u);
    EXPECT_EQ(outcome.swapCycles, 2000u);
    EXPECT_FALSE(tenant.table.translate(heap).valid);
    ASSERT_EQ(tenant.sink.events.size(), 1u);
    EXPECT_EQ(tenant.sink.events[0].first, heap);
    EXPECT_EQ(tenant.sink.events[0].second, PageSize::Page4K);

    // The victim's frame is reused for the newcomer (LIFO free list).
    EXPECT_EQ(tenant.table.translate(heap + 8_KiB).physAddr, frame_a);
    EXPECT_EQ(pool.evictions(), 1u);
    EXPECT_EQ(pool.residentBytes(), 8_KiB);
}

TEST(FramePoolBounded, DirtyEvictionChargesWriteback)
{
    FramePool pool(boundedConfig(1));
    TestTenant tenant(pool);
    const VirtAddr heap = PoolAddresses::heapBase;

    pool.touch(tenant.id, heap, true); // write: marks dirty
    auto outcome = pool.touch(tenant.id, heap + 4_KiB, false);
    EXPECT_EQ(outcome.writebacks, 1u);
    EXPECT_EQ(outcome.swapCycles, 2000u + 800u);
    EXPECT_EQ(pool.writebacks(), 1u);

    // The clean newcomer's eviction charges no writeback.
    outcome = pool.touch(tenant.id, heap, false);
    EXPECT_EQ(outcome.writebacks, 0u);
    EXPECT_EQ(outcome.swapCycles, 2000u);

    // A read-write sequence on a resident page re-dirties it.
    pool.touch(tenant.id, heap + 100, true);
    outcome = pool.touch(tenant.id, heap + 4_KiB, false);
    EXPECT_EQ(outcome.writebacks, 1u);
}

TEST(FramePoolBounded, BudgetTooSmallForOnePageIsResourceError)
{
    // One 4KB frame of budget cannot hold a 2MB page.
    FramePool pool(boundedConfig(1));
    MosallocConfig config = tinyConfig();
    config.heapLayout = MosaicLayout(
        2_MiB, {MosaicRegion{0, 2_MiB, PageSize::Page2M}});
    Mosalloc allocator(config);
    PageTable table(pool);
    RecordingSink sink;
    auto id = pool.registerTenant(table, sink);
    EXPECT_THROW(pool.addTenantPages(id, allocator), ResourceError);
}

TEST(FramePoolBounded, MixedPageSizesEvictUntilRoom)
{
    // Budget of one 2MB page (512 frames). Touch 4KB pages, then a
    // 2MB page: every small page must be evicted to make room.
    FramePool pool(boundedConfig(512));
    MosallocConfig config = tinyConfig();
    config.heapLayout = MosaicLayout(
        4_MiB, {MosaicRegion{2_MiB, 2_MiB, PageSize::Page2M}});
    Mosalloc allocator(config);
    PageTable table(pool);
    RecordingSink sink;
    auto id = pool.registerTenant(table, sink);
    pool.addTenantPages(id, allocator);

    const VirtAddr heap = PoolAddresses::heapBase;
    for (int i = 0; i < 3; ++i)
        pool.touch(id, heap + i * 4_KiB, false);
    EXPECT_EQ(pool.residentBytes(), 12_KiB);

    auto outcome = pool.touch(id, heap + 2_MiB, false);
    EXPECT_EQ(outcome.evictions, 3u);
    EXPECT_EQ(pool.residentBytes(), 2_MiB);
    EXPECT_TRUE(table.translate(heap + 2_MiB).valid);
    EXPECT_FALSE(table.translate(heap).valid);
}

TEST(FramePoolBounded, LruKeepsTouchedPageResident)
{
    FramePool pool(boundedConfig(2, ReplacementPolicyKind::Lru));
    TestTenant tenant(pool);
    const VirtAddr heap = PoolAddresses::heapBase;

    pool.touch(tenant.id, heap, false);
    pool.touch(tenant.id, heap + 4_KiB, false);
    pool.touch(tenant.id, heap, false); // refresh the older page
    pool.touch(tenant.id, heap + 8_KiB, false);
    // LRU evicted page 1, not page 0.
    EXPECT_TRUE(tenant.table.translate(heap).valid);
    EXPECT_FALSE(tenant.table.translate(heap + 4_KiB).valid);
}

// ---------------------------------------------------------------------
// Multi-tenant contention
// ---------------------------------------------------------------------

TEST(FramePoolBounded, EvictionMayVictimizeAnotherTenant)
{
    FramePool pool(boundedConfig(2));
    TestTenant first(pool);
    TestTenant second(pool);
    const VirtAddr heap = PoolAddresses::heapBase;

    pool.touch(first.id, heap, false);
    pool.touch(first.id, heap + 4_KiB, false);

    // The second tenant's fault steals the first tenant's oldest
    // frame; the shootdown must land on the *owner's* sink.
    auto outcome = pool.touch(second.id, heap, false);
    EXPECT_TRUE(outcome.majorFault);
    EXPECT_EQ(outcome.evictions, 1u);
    ASSERT_EQ(first.sink.events.size(), 1u);
    EXPECT_EQ(first.sink.events[0].first, heap);
    EXPECT_TRUE(second.sink.events.empty());
    EXPECT_FALSE(first.table.translate(heap).valid);
    EXPECT_TRUE(second.table.translate(heap).valid);
    EXPECT_TRUE(first.table.translate(heap + 4_KiB).valid);
}

TEST(FramePoolBounded, TenantsHaveIndependentPageTables)
{
    FramePool pool(boundedConfig(8));
    TestTenant first(pool);
    TestTenant second(pool);
    const VirtAddr heap = PoolAddresses::heapBase;

    pool.touch(first.id, heap, false);
    pool.touch(second.id, heap, false);
    // Same virtual page in both spaces, but distinct physical frames.
    const auto t1 = first.table.translate(heap);
    const auto t2 = second.table.translate(heap);
    ASSERT_TRUE(t1.valid);
    ASSERT_TRUE(t2.valid);
    EXPECT_NE(t1.physAddr, t2.physAddr);
    EXPECT_EQ(pool.majorFaults(), 2u);
    EXPECT_EQ(pool.residentBytes(), 8_KiB);
}

// ---------------------------------------------------------------------
// Page lookup: the run index against the sorted-page oracle
// ---------------------------------------------------------------------

namespace
{

/**
 * A random mosaic over roughly 64MiB (plus, half the time, a leading
 * 1GB page): alternating stretches of 4KB background and 2MB regions,
 * so runs of every size start and end at every kind of neighbour.
 */
MosaicLayout
randomMixedLayout(Rng &rng)
{
    std::vector<MosaicRegion> regions;
    Bytes cursor = 0;
    if (rng.nextBounded(2) == 0) {
        regions.push_back(MosaicRegion{0, 1_GiB, PageSize::Page1G});
        cursor = 1_GiB;
    }
    const Bytes end = cursor + 64_MiB;
    while (cursor < end) {
        // A 4KB stretch (possibly empty), then a 2MB region.
        cursor += rng.nextBounded(700) * 4_KiB;
        const Bytes start = alignUp(cursor, 2_MiB);
        const Bytes length = (1 + rng.nextBounded(4)) * 2_MiB;
        regions.push_back(MosaicRegion{start, length, PageSize::Page2M});
        cursor = start + length;
    }
    return MosaicLayout(cursor + rng.nextBounded(300) * 4_KiB,
                        std::move(regions));
}

MosallocConfig
randomMixedConfig(Rng &rng)
{
    MosallocConfig config;
    config.heapLayout = randomMixedLayout(rng);
    config.anonLayout = randomMixedLayout(rng);
    config.filePoolSize = (1 + rng.nextBounded(64)) * 4_KiB;
    return config;
}

/** The pre-run-index lookup: binary search over pages sorted by base. */
struct PageOracle
{
    explicit PageOracle(const Mosalloc &allocator)
        : pages(allocator.pageMappings())
    {
        std::sort(pages.begin(), pages.end(),
                  [](const alloc::PageMapping &a,
                     const alloc::PageMapping &b) {
                      return a.virtBase < b.virtBase;
                  });
    }

    /** The page covering @p vaddr, or nullptr when none does. */
    const alloc::PageMapping *
    find(VirtAddr vaddr) const
    {
        auto it = std::upper_bound(
            pages.begin(), pages.end(), vaddr,
            [](VirtAddr addr, const alloc::PageMapping &page) {
                return addr < page.virtBase;
            });
        if (it == pages.begin())
            return nullptr;
        const alloc::PageMapping &page = *(it - 1);
        if (vaddr - page.virtBase >= alloc::pageBytes(page.pageSize))
            return nullptr;
        return &page;
    }

    std::vector<alloc::PageMapping> pages;
};

/** A tenant over a random mixed config, with its oracle. */
struct MixedTenant
{
    MixedTenant(FramePool &pool, Rng &rng)
        : config(randomMixedConfig(rng)), allocator(config), table(pool),
          id(pool.registerTenant(table, sink)), oracle(allocator)
    {
        pool.addTenantPages(id, allocator);
    }

    MosallocConfig config;
    Mosalloc allocator;
    PageTable table;
    RecordingSink sink;
    FramePool::TenantId id;
    PageOracle oracle;
};

/** touch() must land on the oracle's page: same size, and the frame
 *  it returns is the one the live table maps that page to. */
void
expectTouchMatchesOracle(FramePool &pool, MixedTenant &tenant,
                         VirtAddr vaddr)
{
    const alloc::PageMapping *page = tenant.oracle.find(vaddr);
    ASSERT_NE(page, nullptr) << vaddr;
    auto outcome = pool.touch(tenant.id, vaddr, false);
    ASSERT_EQ(outcome.pageSize, page->pageSize) << vaddr;
    const Translation xlate = tenant.table.translate(vaddr);
    ASSERT_TRUE(xlate.valid) << vaddr;
    ASSERT_EQ(xlate.pageSize, page->pageSize) << vaddr;
    ASSERT_EQ(xlate.physAddr, outcome.frame + (vaddr - page->virtBase))
        << vaddr;
}

} // namespace

TEST(FramePoolLookup, RunIndexMatchesSortedPageOracle)
{
    for (std::uint64_t seed : {1, 2, 3, 4}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        // Room for every declared page: nothing is evicted, so each
        // looked-up page stays mapped for the check.
        FramePool pool(boundedConfig(4_GiB / 4_KiB * 4));
        MixedTenant first(pool, rng);
        MixedTenant second(pool, rng);

        // The first and last byte of every page (so of every run),
        // alternating tenants so the per-tenant memo keeps switching.
        const std::size_t most = std::max(first.oracle.pages.size(),
                                          second.oracle.pages.size());
        for (std::size_t i = 0; i < most; ++i) {
            for (MixedTenant *tenant : {&first, &second}) {
                if (i >= tenant->oracle.pages.size())
                    continue;
                const alloc::PageMapping &page = tenant->oracle.pages[i];
                const Bytes bytes = alloc::pageBytes(page.pageSize);
                expectTouchMatchesOracle(pool, *tenant, page.virtBase);
                expectTouchMatchesOracle(pool, *tenant,
                                         page.virtBase + bytes - 1);
            }
        }
        // Random addresses inside random pages, in random order.
        for (int i = 0; i < 20000; ++i) {
            MixedTenant &tenant = rng.nextBounded(2) ? first : second;
            const alloc::PageMapping &page =
                tenant.oracle.pages[rng.nextBounded(
                    tenant.oracle.pages.size())];
            expectTouchMatchesOracle(
                pool, tenant,
                page.virtBase +
                    rng.nextBounded(alloc::pageBytes(page.pageSize)));
        }
        // Addresses no page covers: one byte past each pool, right
        // after a lookup of the pool's last byte has warmed the memo
        // with the run that ends there, and one below the first pool.
        const VirtAddr ends[] = {
            PoolAddresses::heapBase + first.config.heapLayout.poolSize(),
            PoolAddresses::anonBase + first.config.anonLayout.poolSize(),
            PoolAddresses::fileBase + first.config.filePoolSize};
        for (VirtAddr end : ends) {
            expectTouchMatchesOracle(pool, first, end - 1);
            ASSERT_EQ(first.oracle.find(end), nullptr);
            EXPECT_THROW(pool.touch(first.id, end, false),
                         std::logic_error);
        }
        EXPECT_THROW(pool.touch(first.id, PoolAddresses::heapBase - 1,
                                false),
                     std::logic_error);
    }
}

/**
 * The paged MMU path takes its frame from the page record and only
 * descends the live table on a full TLB miss; under eviction churn it
 * must still agree with a fresh descent of that table on every access.
 */
TEST(FramePoolLookup, PagedTranslationMatchesLivePageTable)
{
    const cpu::PlatformSpec platform = cpu::broadwell();
    for (auto policy :
         {ReplacementPolicyKind::Fifo, ReplacementPolicyKind::Lru,
          ReplacementPolicyKind::Clock}) {
        SCOPED_TRACE(replacementPolicyName(policy));
        Rng rng(17);
        // One 1GB frame plus 8MiB: the 1GB page and the small pages
        // keep pushing each other out.
        FramePool pool(boundedConfig((1_GiB + 8_MiB) / 4_KiB, policy));
        MosallocConfig config = randomMixedConfig(rng);
        config.heapLayout = MosaicLayout(
            1_GiB + 32_MiB,
            {MosaicRegion{0, 1_GiB, PageSize::Page1G},
             MosaicRegion{1_GiB + 8_MiB, 8_MiB, PageSize::Page2M}});
        Mosalloc allocator(config);
        PageTable table(pool);
        mem::MemoryHierarchy hierarchy(platform.hierarchy);
        Mmu mmu(table, hierarchy, platform.mmu);
        auto tenant = pool.registerTenant(table, mmu);
        mmu.attachPager(pool, tenant);
        pool.addTenantPages(tenant, allocator);
        const PageOracle oracle(allocator);

        Cycles now = 0;
        VirtAddr vaddr = PoolAddresses::heapBase;
        for (int i = 0; i < 60000; ++i) {
            // Mostly short strides (TLB hits), sometimes a jump to a
            // random declared page (faults, misses, evictions).
            if (rng.nextBounded(8) == 0) {
                const alloc::PageMapping &page =
                    oracle.pages[rng.nextBounded(oracle.pages.size())];
                vaddr = page.virtBase +
                        rng.nextBounded(alloc::pageBytes(page.pageSize));
            } else {
                const VirtAddr next = vaddr + rng.nextBounded(256) * 64;
                if (oracle.find(next))
                    vaddr = next;
            }
            const TranslationEvent event =
                mmu.translatePaged(vaddr, rng.nextBounded(4) == 0, now);
            now += 1 + event.latency;
            const Translation live = table.translate(vaddr);
            ASSERT_TRUE(live.valid) << i;
            ASSERT_EQ(event.physAddr, live.physAddr) << i;
            ASSERT_EQ(event.pageSize, live.pageSize) << i;
        }
        EXPECT_GT(pool.evictions(), 1000u);
        EXPECT_GT(mmu.counters().m, 0u);
        EXPECT_GT(mmu.counters().l1Hits, 0u);
    }
}
