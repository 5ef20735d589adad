/**
 * @file
 * Tests for the out-of-order core timing model: determinism, latency
 * hiding, walker queueing, and the C-vs-R relationships the paper's
 * models depend on.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "cpu/system.hh"
#include "support/random.hh"

using namespace mosaic;
using namespace mosaic::cpu;

namespace
{

/** Small platform for core-model tests. */
PlatformSpec
testPlatform(unsigned walkers = 1)
{
    PlatformSpec spec = sandyBridge();
    spec.mmu.numWalkers = walkers;
    return spec;
}

alloc::MosallocConfig
poolConfig(Bytes heap, alloc::PageSize size = alloc::PageSize::Page4K)
{
    alloc::MosallocConfig config;
    config.heapLayout = alloc::MosaicLayout::uniform(heap, size);
    config.anonLayout = alloc::MosaicLayout(2_MiB);
    config.filePoolSize = 1_MiB;
    return config;
}

/** Sequential streaming trace over the heap pool. */
trace::MemoryTrace
streamTrace(Bytes span, unsigned gap, std::size_t refs)
{
    trace::MemoryTrace trace;
    VirtAddr base = alloc::PoolAddresses::heapBase;
    for (std::size_t i = 0; i < refs; ++i)
        trace.add(base + (i * 64) % span, gap, false);
    return trace;
}

/** Random-access trace over the heap pool. */
trace::MemoryTrace
randomTrace(Bytes span, unsigned gap, std::size_t refs,
            std::uint64_t seed = 7)
{
    trace::MemoryTrace trace;
    Rng rng(seed);
    VirtAddr base = alloc::PoolAddresses::heapBase;
    for (std::size_t i = 0; i < refs; ++i)
        trace.add(base + alignDown(rng.nextBounded(span), 8), gap, false);
    return trace;
}

} // namespace

TEST(CoreModel, DeterministicAcrossRuns)
{
    auto trace = randomTrace(32_MiB, 4, 20000);
    auto r1 = simulateRun(testPlatform(), poolConfig(32_MiB), trace);
    auto r2 = simulateRun(testPlatform(), poolConfig(32_MiB), trace);
    EXPECT_EQ(r1.runtimeCycles, r2.runtimeCycles);
    EXPECT_EQ(r1.walkCycles, r2.walkCycles);
    EXPECT_EQ(r1.tlbMisses, r2.tlbMisses);
    EXPECT_EQ(r1.tlbHitsL2, r2.tlbHitsL2);
}

TEST(CoreModel, RuntimeAtLeastPureWork)
{
    auto trace = streamTrace(64_KiB, 4, 10000);
    auto result = simulateRun(testPlatform(), poolConfig(2_MiB), trace);
    double min_work = testPlatform().core.baseCpi *
                      static_cast<double>(result.instructions);
    EXPECT_GE(static_cast<double>(result.runtimeCycles), min_work);
}

TEST(CoreModel, CacheResidentStreamRunsNearPeak)
{
    // A tiny working set: everything L1-hits after warmup, so runtime
    // approaches baseCpi * instructions.
    auto trace = streamTrace(8_KiB, 4, 50000);
    auto result = simulateRun(testPlatform(), poolConfig(2_MiB), trace);
    double work = testPlatform().core.baseCpi *
                  static_cast<double>(result.instructions);
    EXPECT_LT(static_cast<double>(result.runtimeCycles), work * 1.2);
}

TEST(CoreModel, TlbMissesSlowExecutionDown)
{
    auto trace = randomTrace(128_MiB, 4, 30000);
    auto r4k = simulateRun(testPlatform(), poolConfig(128_MiB), trace);
    auto r1g = simulateRun(
        testPlatform(),
        poolConfig(128_MiB, alloc::PageSize::Page1G), trace);
    EXPECT_GT(r4k.tlbMisses, r1g.tlbMisses * 10);
    EXPECT_GT(r4k.runtimeCycles, r1g.runtimeCycles);
    EXPECT_GT(r4k.walkCycles, r1g.walkCycles);
}

TEST(CoreModel, SparseMissesAreHidden)
{
    // With huge instruction gaps between references, even DRAM-bound
    // walks hide behind independent work: runtime ≈ pure work.
    auto trace = randomTrace(128_MiB, 2000, 3000);
    auto result =
        simulateRun(testPlatform(), poolConfig(128_MiB), trace);
    double work = testPlatform().core.baseCpi *
                  static_cast<double>(result.instructions);
    EXPECT_LT(static_cast<double>(result.runtimeCycles), work * 1.05);
    EXPECT_GT(result.walkCycles, 0u);
}

TEST(CoreModel, DenseMissesExposeWalkLatency)
{
    // Back-to-back misses cannot hide: runtime carries the walks.
    auto trace = randomTrace(128_MiB, 1, 30000);
    auto result =
        simulateRun(testPlatform(), poolConfig(128_MiB), trace);
    double work = testPlatform().core.baseCpi *
                  static_cast<double>(result.instructions);
    EXPECT_GT(static_cast<double>(result.runtimeCycles), work * 3.0);
}

TEST(CoreModel, SecondWalkerSpeedsUpDenseMisses)
{
    auto trace = randomTrace(256_MiB, 1, 40000);
    auto one = simulateRun(testPlatform(1), poolConfig(256_MiB), trace);
    auto two = simulateRun(testPlatform(2), poolConfig(256_MiB), trace);
    // Same misses, same walk cycles, but less queueing and less time.
    EXPECT_EQ(one.tlbMisses, two.tlbMisses);
    EXPECT_LT(two.runtimeCycles, one.runtimeCycles);
    EXPECT_LT(two.walkerQueueCycles, one.walkerQueueCycles);
}

TEST(CoreModel, TwoWalkersCanPushWalkCyclesAboveRuntime)
{
    // The Broadwell gups effect (Section VI-D): C counts both walkers'
    // busy cycles, so dense misses drive C past R and the Basu model's
    // ideal-runtime estimate negative.
    PlatformSpec spec = broadwell();
    auto trace = randomTrace(512_MiB, 0, 60000, 11);
    auto result = simulateRun(spec, poolConfig(512_MiB), trace);
    EXPECT_GT(result.walkCycles + result.tlbHitsL2 * 7,
              result.runtimeCycles);
}

TEST(CoreModel, CountersMirrorMmuAndCaches)
{
    auto trace = randomTrace(64_MiB, 3, 20000);
    auto result = simulateRun(testPlatform(), poolConfig(64_MiB), trace);
    EXPECT_EQ(result.memoryRefs, trace.size());
    EXPECT_EQ(result.instructions, trace.totalInstructions());
    EXPECT_EQ(result.l1TlbHits + result.tlbHitsL2 + result.tlbMisses,
              trace.size());
    EXPECT_EQ(result.progL1dLoads, trace.size());
    // Walker loads only exist because of misses.
    EXPECT_GT(result.walkL1dLoads, 0u);
    EXPECT_GE(result.walkL1dLoads, result.tlbMisses);
}

TEST(CoreModel, PollutionVisibleInWalkerLoads)
{
    // 4KB pages cause walker cache traffic; 1GB pages nearly none.
    auto trace = randomTrace(128_MiB, 3, 30000);
    auto r4k = simulateRun(testPlatform(), poolConfig(128_MiB), trace);
    auto r1g = simulateRun(
        testPlatform(),
        poolConfig(128_MiB, alloc::PageSize::Page1G), trace);
    EXPECT_GT(r4k.walkL1dLoads, 100 * std::max<std::uint64_t>(
                                          r1g.walkL1dLoads, 1));
}

TEST(CoreModel, RejectsBadParams)
{
    CoreParams params;
    params.baseCpi = 0.0;
    EXPECT_THROW(CoreModel{params}, std::logic_error);
    CoreParams params2;
    params2.maxOutstanding = 0;
    EXPECT_THROW(CoreModel{params2}, std::logic_error);
}

TEST(CoreModel, DependentChainsExposeLatency)
{
    // The same addresses, once as independent refs and once as a
    // pointer-chase chain: the chain cannot overlap its misses, so it
    // must run substantially slower.
    Bytes span = 64_MiB;
    VirtAddr base = alloc::PoolAddresses::heapBase;
    Rng rng(31);
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 20000; ++i)
        addrs.push_back(base + alignDown(rng.nextBounded(span), 8));

    trace::MemoryTrace independent, chained;
    for (VirtAddr addr : addrs) {
        independent.add(addr, 2, false);
        chained.add(addr, 2, false, true);
    }
    auto free_run =
        simulateRun(testPlatform(), poolConfig(span), independent);
    auto chain_run =
        simulateRun(testPlatform(), poolConfig(span), chained);
    EXPECT_EQ(free_run.tlbMisses, chain_run.tlbMisses);
    EXPECT_GT(chain_run.runtimeCycles,
              free_run.runtimeCycles * 3 / 2);
}

TEST(CoreModel, DependenceFlagSurvivesTraceCount)
{
    trace::MemoryTrace trace;
    trace.add(0x1000, 1, false);
    trace.add(0x2000, 1, false, true);
    trace.add(0x3000, 1, true);
    EXPECT_EQ(trace.numDependent(), 1u);
    EXPECT_FALSE(trace.records()[0].dependsOnPrev);
    EXPECT_TRUE(trace.records()[1].dependsOnPrev);
}

TEST(CoreModel, DependentChainStillBenefitsFromTlbHits)
{
    // Even a fully dependent chain speeds up when translation misses
    // vanish (the latency adds per step).
    Bytes span = 64_MiB;
    VirtAddr base = alloc::PoolAddresses::heapBase;
    Rng rng(37);
    trace::MemoryTrace chained;
    for (int i = 0; i < 20000; ++i)
        chained.add(base + alignDown(rng.nextBounded(span), 8), 2,
                    false, true);
    auto r4k = simulateRun(testPlatform(), poolConfig(span), chained);
    auto r1g = simulateRun(
        testPlatform(),
        poolConfig(span, alloc::PageSize::Page1G), chained);
    EXPECT_GT(r4k.runtimeCycles, r1g.runtimeCycles * 11 / 10);
}

namespace
{

/** A freshly built machine, constructed outside any deadline window. */
struct LaneMachine
{
    vm::FramePool phys;
    vm::PageTable table;
    mem::MemoryHierarchy hierarchy;
    vm::Mmu mmu;

    LaneMachine(const PlatformSpec &spec,
                const alloc::Mosalloc &allocator)
        : table(phys), hierarchy(spec.hierarchy),
          mmu(table, hierarchy, spec.mmu)
    {
        table.populate(allocator);
    }
};

} // namespace

TEST(CoreModel, DeadlineFiresPartwayThroughARun)
{
    // The watchdog is checked once per replay chunk (1024 records),
    // not only before the replay starts, so a deadline that expires
    // mid-run fires within one chunk. 256 chunks of cold-TLB records
    // over 32 MiB take far longer than a millisecond to replay.
    auto trace = randomTrace(32_MiB, 4, 256 * 1024);
    PlatformSpec spec = testPlatform();
    alloc::Mosalloc allocator(poolConfig(32_MiB));
    LaneMachine machine(spec, allocator);

    // The deadline starts ticking only here, after machine
    // construction, so the window covers replay alone.
    CoreModel core(spec.core);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(1);
    EXPECT_THROW(core.run(trace, machine.mmu, machine.hierarchy,
                          deadline),
                 TimeoutError);
}

TEST(CoreModel, ExpiredDeadlineThrowsBeforeSimulating)
{
    auto trace = randomTrace(2_MiB, 4, 4096);
    PlatformSpec spec = testPlatform();
    alloc::Mosalloc allocator(poolConfig(2_MiB));
    LaneMachine machine(spec, allocator);
    CoreModel core(spec.core);
    auto expired = std::chrono::steady_clock::now() -
                   std::chrono::seconds(1);
    EXPECT_THROW(core.run(trace, machine.mmu, machine.hierarchy,
                          expired),
                 TimeoutError);
}
