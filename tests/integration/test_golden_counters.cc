/**
 * @file
 * Golden-counter regression suite.
 *
 * Replay hot-path optimizations must never change simulated semantics:
 * for a fixed synthetic trace, the PMU readout (R, H, M, C) must stay
 * bit-identical on every modelled platform and layout. The goldens
 * below were captured from the unoptimized replay path; any divergence
 * means an "optimization" silently changed the simulation.
 *
 * To recapture after an *intentional* semantic change (and only then),
 * run with MOSAIC_GOLDEN_PRINT=1 and paste the printed rows:
 *
 *   MOSAIC_GOLDEN_PRINT=1 ./tests/test_integration \
 *       --gtest_filter='GoldenCounters.*'
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cpu/platform.hh"
#include "cpu/system.hh"
#include "mosalloc/mosalloc.hh"
#include "support/simd.hh"
#include "trace/synth.hh"
#include "vm/frame_pool.hh"

using namespace mosaic;

namespace
{

constexpr Bytes kFootprint = 48_MiB;
constexpr Bytes kPool = 1_GiB;
constexpr std::uint64_t kRecords = 150000;

/**
 * A 2GiB heap mixing every page size across the footprint: 2MB pages
 * up to 16MiB below the 1GiB mark, then 8MiB of 4KB pages, 8MiB of
 * 2MB pages, and one 1GB page above it. The footprint is placed to
 * straddle the mark (see kMixPad), so a replay touches all three.
 */
constexpr Bytes kMixPool = 2_GiB;
constexpr Bytes kMixPad = 1_GiB - kFootprint / 2;

/** The layout grid: uniform 4K/2M/1G, a mixed 2MB window, and the
 *  three-size "mix" heap of the paged goldens. */
alloc::MosaicLayout
layoutByName(const std::string &name)
{
    if (name == "all4k")
        return alloc::MosaicLayout(kPool);
    if (name == "all2m")
        return alloc::MosaicLayout::uniform(kPool, alloc::PageSize::Page2M);
    if (name == "all1g")
        return alloc::MosaicLayout::uniform(kPool, alloc::PageSize::Page1G);
    if (name == "win2m")
        return alloc::MosaicLayout::withWindow(kPool, 0, 24_MiB,
                                               alloc::PageSize::Page2M);
    if (name == "mix") {
        using alloc::MosaicRegion;
        using alloc::PageSize;
        return alloc::MosaicLayout(
            kMixPool,
            {MosaicRegion{0, 1_GiB - 16_MiB, PageSize::Page2M},
             MosaicRegion{1_GiB - 8_MiB, 8_MiB, PageSize::Page2M},
             MosaicRegion{1_GiB, 1_GiB, PageSize::Page1G}});
    }
    ADD_FAILURE() << "unknown layout " << name;
    return alloc::MosaicLayout(kPool);
}

/** Phase mix of the synthetic trace (percentages, summing to 100). */
struct TraceMix
{
    unsigned seq, hot, rand, chase;
};

/** The default mix makeSynthTrace uses when not overridden. */
constexpr TraceMix kDefaultMix{60, 22, 12, 6};

/** The (alloc config, trace) pair one golden cell replays. */
struct CellInput
{
    alloc::MosallocConfig config;
    trace::MemoryTrace trace;
};

CellInput
makeCellInput(const std::string &layout_name,
              const TraceMix &mix = kDefaultMix,
              std::uint64_t records = kRecords)
{
    CellInput input;
    input.config.heapLayout = layoutByName(layout_name);
    input.config.anonLayout = alloc::MosaicLayout(16_MiB);
    alloc::Mosalloc allocator(input.config);
    if (layout_name == "mix")
        allocator.malloc(kMixPad);
    VirtAddr base = allocator.malloc(kFootprint);

    trace::SynthTraceParams synth;
    synth.records = records;
    synth.base = base;
    synth.footprint = kFootprint;
    synth.seqPct = mix.seq;
    synth.hotPct = mix.hot;
    synth.randPct = mix.rand;
    synth.chasePct = mix.chase;
    input.trace = trace::makeSynthTrace(synth);
    return input;
}

cpu::RunResult
runCell(const std::string &platform_name,
        const std::string &layout_name,
        const TraceMix &mix = kDefaultMix,
        std::uint64_t records = kRecords)
{
    CellInput input = makeCellInput(layout_name, mix, records);
    alloc::Mosalloc allocator(input.config);
    allocator.malloc(kFootprint);
    cpu::System system(cpu::platformByName(platform_name), allocator);
    return system.run(input.trace);
}

cpu::RunResult
runPagedCell(const std::string &platform_name,
             const std::string &layout_name, std::uint64_t frames,
             vm::ReplacementPolicyKind policy)
{
    CellInput input = makeCellInput(layout_name);
    vm::OsConfig os;
    os.memFrames = frames;
    os.policy = policy;
    return cpu::simulateRun(cpu::platformByName(platform_name),
                            input.config, input.trace, os);
}

/** Full PMU + cache-load readout equality (not just R/H/M/C). */
void
expectSameCounters(const cpu::RunResult &a, const cpu::RunResult &b)
{
    EXPECT_EQ(a.runtimeCycles, b.runtimeCycles);
    EXPECT_EQ(a.l1TlbHits, b.l1TlbHits);
    EXPECT_EQ(a.tlbHitsL2, b.tlbHitsL2);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
    EXPECT_EQ(a.walkCycles, b.walkCycles);
    EXPECT_EQ(a.walkerQueueCycles, b.walkerQueueCycles);
    EXPECT_EQ(a.progL1dLoads, b.progL1dLoads);
    EXPECT_EQ(a.progL2Loads, b.progL2Loads);
    EXPECT_EQ(a.progL3Loads, b.progL3Loads);
    EXPECT_EQ(a.progDramLoads, b.progDramLoads);
    EXPECT_EQ(a.walkL1dLoads, b.walkL1dLoads);
    EXPECT_EQ(a.walkL2Loads, b.walkL2Loads);
    EXPECT_EQ(a.walkL3Loads, b.walkL3Loads);
    EXPECT_EQ(a.walkDramLoads, b.walkDramLoads);
    EXPECT_EQ(a.swapCycles, b.swapCycles);
    EXPECT_EQ(a.majorFaults, b.majorFaults);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.writebacks, b.writebacks);
}

/** Restore the ambient SIMD tier even when an assertion bails out. */
struct TierGuard
{
    simd::Tier saved = simd::activeTier();
    ~TierGuard() { simd::setTier(saved); }
};

struct Golden
{
    const char *platform;
    const char *layout;
    std::uint64_t r;
    std::uint64_t h;
    std::uint64_t m;
    std::uint64_t c;
};

constexpr const char *kLayouts[] = {"all4k", "all2m", "all1g", "win2m"};

// Captured from the pre-optimization replay path (see file comment).
constexpr Golden kGolden[] = {
    // clang-format off
    {"SandyBridge", "all4k", 4272958ULL, 15243ULL, 43615ULL, 1782620ULL},
    {"SandyBridge", "all2m", 3055553ULL, 0ULL, 24ULL, 1084ULL},
    {"SandyBridge", "all1g", 3054748ULL, 0ULL, 1ULL, 400ULL},
    {"SandyBridge", "win2m", 3399314ULL, 970ULL, 12559ULL, 819498ULL},
    {"IvyBridge", "all4k", 4272958ULL, 15243ULL, 43615ULL, 1782620ULL},
    {"IvyBridge", "all2m", 3055553ULL, 0ULL, 24ULL, 1084ULL},
    {"IvyBridge", "all1g", 3054748ULL, 0ULL, 1ULL, 400ULL},
    {"IvyBridge", "win2m", 3399314ULL, 970ULL, 12559ULL, 819498ULL},
    {"Haswell", "all4k", 3900850ULL, 26307ULL, 32551ULL, 1240380ULL},
    {"Haswell", "all2m", 3094601ULL, 0ULL, 24ULL, 1134ULL},
    {"Haswell", "all1g", 3093754ULL, 0ULL, 1ULL, 420ULL},
    {"Haswell", "win2m", 3340386ULL, 2028ULL, 11501ULL, 559782ULL},
    {"Broadwell", "all4k", 2325387ULL, 31716ULL, 27142ULL, 1111750ULL},
    {"Broadwell", "all2m", 2040898ULL, 0ULL, 24ULL, 934ULL},
    {"Broadwell", "all1g", 2040385ULL, 0ULL, 1ULL, 340ULL},
    {"Broadwell", "win2m", 2135822ULL, 3002ULL, 10527ULL, 481614ULL},
    {"Skylake", "all4k", 2318275ULL, 31716ULL, 27142ULL, 1111750ULL},
    {"Skylake", "all2m", 2022736ULL, 0ULL, 24ULL, 934ULL},
    {"Skylake", "all1g", 2022227ULL, 0ULL, 1ULL, 340ULL},
    {"Skylake", "win2m", 2117094ULL, 3002ULL, 10527ULL, 481614ULL},
    // clang-format on
};

} // namespace

TEST(GoldenCounters, CountersBitIdenticalOnEveryPlatform)
{
    if (std::getenv("MOSAIC_GOLDEN_PRINT")) {
        for (const auto &platform : cpu::allPlatforms()) {
            for (const char *layout : kLayouts) {
                auto res = runCell(platform.name, layout);
                std::printf("    {\"%s\", \"%s\", %lluULL, %lluULL, "
                            "%lluULL, %lluULL},\n",
                            platform.name.c_str(), layout,
                            static_cast<unsigned long long>(
                                res.runtimeCycles),
                            static_cast<unsigned long long>(res.tlbHitsL2),
                            static_cast<unsigned long long>(res.tlbMisses),
                            static_cast<unsigned long long>(
                                res.walkCycles));
            }
        }
        GTEST_SKIP() << "golden print mode: no assertions";
    }

    ASSERT_GT(std::size(kGolden), 0u)
        << "golden table is empty; capture with MOSAIC_GOLDEN_PRINT=1";
    for (const auto &golden : kGolden) {
        SCOPED_TRACE(std::string(golden.platform) + "/" + golden.layout);
        auto res = runCell(golden.platform, golden.layout);
        EXPECT_EQ(res.runtimeCycles, golden.r);
        EXPECT_EQ(res.tlbHitsL2, golden.h);
        EXPECT_EQ(res.tlbMisses, golden.m);
        EXPECT_EQ(res.walkCycles, golden.c);
    }
}

/**
 * Kernel-independence of the simulated counters: the vectorized scans
 * (AVX2/SSE2) and the forced-scalar fallback must produce a
 * bit-identical full readout. Runs trace mixes that stress the two
 * access patterns most sensitive to the SIMD paths — GUPS-heavy
 * (random updates: TLB misses, walks, cache evictions dominate) and
 * chase-heavy (dependent loads: the ROB/issue interlocks dominate) —
 * across every layout of the grid.
 */
TEST(GoldenCounters, SimdAndScalarKernelsBitIdenticalOnSkewedTraces)
{
    struct Flavor
    {
        const char *name;
        TraceMix mix;
    };
    constexpr Flavor kFlavors[] = {
        {"gups-heavy", {10, 10, 70, 10}},
        {"chase-heavy", {10, 20, 10, 60}},
    };
    // One pre-Haswell and one post-Broadwell platform cover both L2-TLB
    // organisations without rerunning the whole 5-platform grid twice.
    constexpr const char *kPlatforms[] = {"SandyBridge", "Skylake"};
    constexpr std::uint64_t kSkewedRecords = 100000;

    TierGuard guard;
    if (guard.saved == simd::Tier::Scalar) {
        // Still a valid run (the scalar kernel against itself checks
        // determinism), but say so in the log.
        std::printf("note: build/runtime tier is scalar; this "
                    "exercises determinism only\n");
    }
    for (const auto &flavor : kFlavors) {
        for (const char *platform : kPlatforms) {
            for (const char *layout : kLayouts) {
                SCOPED_TRACE(std::string(flavor.name) + "/" + platform +
                             "/" + layout);
                simd::setTier(guard.saved);
                auto vectorized = runCell(platform, layout, flavor.mix,
                                          kSkewedRecords);
                simd::setTier(simd::Tier::Scalar);
                auto scalar = runCell(platform, layout, flavor.mix,
                                      kSkewedRecords);
                expectSameCounters(vectorized, scalar);
            }
        }
    }
}

/**
 * The OS-layer safety rail at integration level: running through the
 * OsConfig overload with the default (unbounded) config must be
 * bit-identical — over the *full* readout — to the classic System::run
 * path, with zero swap accounting.
 */
TEST(GoldenCounters, UnboundedOsConfigMatchesLegacyRun)
{
    for (const char *platform : {"SandyBridge", "Skylake"}) {
        for (const char *layout : {"all4k", "win2m"}) {
            SCOPED_TRACE(std::string(platform) + "/" + layout);
            auto legacy = runCell(platform, layout);
            CellInput input = makeCellInput(layout);
            auto unbounded = cpu::simulateRun(
                cpu::platformByName(platform), input.config, input.trace,
                vm::OsConfig{});
            expectSameCounters(legacy, unbounded);
            EXPECT_EQ(unbounded.swapCycles, 0u);
            EXPECT_EQ(unbounded.majorFaults, 0u);
            EXPECT_EQ(unbounded.evictions, 0u);
        }
    }
}

struct PagedGolden
{
    const char *platform;
    const char *layout;
    std::uint64_t frames;
    vm::ReplacementPolicyKind policy;
    std::uint64_t r;
    std::uint64_t h;
    std::uint64_t m;
    std::uint64_t c;
    std::uint64_t s;
};

// One 1GB frame plus 8MiB: the "mix" heap's 1GB page fits, but then
// only 8MiB is left for the 24MiB of smaller pages below it.
constexpr std::uint64_t kMixFrames = (1_GiB + 8_MiB) / 4_KiB;

// A 16MiB frame budget against the 48MiB footprint: steady demand
// paging on every cell; the "mix" rows use kMixFrames. Captured like
// the resident goldens, with MOSAIC_GOLDEN_PRINT=1 (the paged rows
// print after the resident table).
constexpr PagedGolden kPagedGolden[] = {
    // clang-format off
    {"SandyBridge", "all4k", 4096, vm::ReplacementPolicyKind::Fifo, 48927333ULL, 14968ULL, 43897ULL, 1784468ULL, 46053200ULL},
    {"SandyBridge", "win2m", 4096, vm::ReplacementPolicyKind::Fifo, 45308914ULL, 1ULL, 20678ULL, 852024ULL, 42518400ULL},
    {"SandyBridge", "all4k", 4096, vm::ReplacementPolicyKind::Lru, 43261331ULL, 15243ULL, 43615ULL, 1782136ULL, 40252800ULL},
    {"SandyBridge", "all4k", 4096, vm::ReplacementPolicyKind::Clock, 43713021ULL, 15233ULL, 43625ULL, 1790500ULL, 40702800ULL},
    {"Skylake", "all4k", 4096, vm::ReplacementPolicyKind::Fifo, 47878372ULL, 30199ULL, 28666ULL, 1118100ULL, 46053200ULL},
    {"Skylake", "win2m", 4096, vm::ReplacementPolicyKind::Fifo, 44356461ULL, 1ULL, 20678ULL, 580248ULL, 42518400ULL},
    {"Broadwell", "win2m", 4096, vm::ReplacementPolicyKind::Lru, 40268491ULL, 0ULL, 19234ULL, 573430ULL, 38469600ULL},
    {"Broadwell", "win2m", 4096, vm::ReplacementPolicyKind::Clock, 40224252ULL, 0ULL, 19240ULL, 573940ULL, 38482400ULL},
    {"Broadwell", "mix", kMixFrames, vm::ReplacementPolicyKind::Fifo, 33599882ULL, 0ULL, 14650ULL, 223486ULL, 31768000ULL},
    {"Broadwell", "mix", kMixFrames, vm::ReplacementPolicyKind::Lru, 22802324ULL, 0ULL, 10463ULL, 206786ULL, 21042800ULL},
    {"Broadwell", "mix", kMixFrames, vm::ReplacementPolicyKind::Clock, 23592699ULL, 0ULL, 10795ULL, 208228ULL, 21709200ULL},
    // clang-format on
};

/**
 * Paging-mode goldens: for a fixed bounded pool the full (R, H, M, C,
 * S) readout is part of the pinned simulation semantics, exactly like
 * the resident-mode table above.
 */
TEST(GoldenCounters, PagedCountersBitIdentical)
{
    if (std::getenv("MOSAIC_GOLDEN_PRINT")) {
        for (const auto &golden : kPagedGolden) {
            auto res = runPagedCell(golden.platform, golden.layout,
                                    golden.frames, golden.policy);
            std::printf(
                "    {\"%s\", \"%s\", %llu, "
                "vm::ReplacementPolicyKind::%s, %lluULL, %lluULL, "
                "%lluULL, %lluULL, %lluULL},\n",
                golden.platform, golden.layout,
                static_cast<unsigned long long>(golden.frames),
                golden.policy == vm::ReplacementPolicyKind::Fifo ? "Fifo"
                : golden.policy == vm::ReplacementPolicyKind::Lru
                    ? "Lru"
                    : "Clock",
                static_cast<unsigned long long>(res.runtimeCycles),
                static_cast<unsigned long long>(res.tlbHitsL2),
                static_cast<unsigned long long>(res.tlbMisses),
                static_cast<unsigned long long>(res.walkCycles),
                static_cast<unsigned long long>(res.swapCycles));
        }
        GTEST_SKIP() << "golden print mode: no assertions";
    }

    for (const auto &golden : kPagedGolden) {
        SCOPED_TRACE(std::string(golden.platform) + "/" + golden.layout +
                     "/" + vm::replacementPolicyName(golden.policy));
        auto res = runPagedCell(golden.platform, golden.layout,
                                golden.frames, golden.policy);
        EXPECT_EQ(res.runtimeCycles, golden.r);
        EXPECT_EQ(res.tlbHitsL2, golden.h);
        EXPECT_EQ(res.tlbMisses, golden.m);
        EXPECT_EQ(res.walkCycles, golden.c);
        EXPECT_EQ(res.swapCycles, golden.s);
        EXPECT_GT(res.majorFaults, 0u);
        EXPECT_GT(res.evictions, 0u);
    }
}

/** The "mix" paged rows pin all three page sizes only if the trace
 *  actually lands in each of them. */
TEST(GoldenCounters, MixLayoutTraceTouchesEveryPageSize)
{
    CellInput input = makeCellInput("mix");
    const alloc::MosaicLayout &layout = input.config.heapLayout;
    std::array<std::uint64_t, alloc::numPageSizes> hits{};
    for (const auto &record : input.trace.records()) {
        ASSERT_GE(record.vaddr, alloc::PoolAddresses::heapBase);
        Bytes offset = record.vaddr - alloc::PoolAddresses::heapBase;
        ASSERT_LT(offset, layout.poolSize());
        ++hits[static_cast<std::size_t>(layout.pageSizeAt(offset))];
    }
    for (std::uint64_t count : hits)
        EXPECT_GT(count, 0u);
}

TEST(GoldenCounters, SynthTraceIsDeterministic)
{
    trace::SynthTraceParams params;
    params.records = 5000;
    params.base = 0x4000000000ULL;
    params.footprint = 8_MiB;
    auto a = trace::makeSynthTrace(params);
    auto b = trace::makeSynthTrace(params);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.records()[i].vaddr, b.records()[i].vaddr) << i;
        ASSERT_EQ(a.records()[i].gap, b.records()[i].gap) << i;
        ASSERT_EQ(a.records()[i].isWrite, b.records()[i].isWrite) << i;
        ASSERT_EQ(a.records()[i].dependsOnPrev,
                  b.records()[i].dependsOnPrev)
            << i;
    }
}
