/**
 * @file
 * Sampled-replay properties on the paper grid: the degenerate-coverage
 * exactness rail, measured accuracy/speedup on skewed traces, warmup
 * convergence, and plan determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cpu/platform.hh"
#include "cpu/system.hh"
#include "mosalloc/mosalloc.hh"
#include "sampling/sampled_run.hh"
#include "trace/synth.hh"

using namespace mosaic;
using namespace mosaic::sampling;

namespace
{

constexpr Bytes kFootprint = 48_MiB;
constexpr Bytes kPool = 1_GiB;

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
    ADD_FAILURE() << "unknown layout " << name;
    return alloc::MosaicLayout(kPool);
}

constexpr const char *kLayouts[] = {"all4k", "all2m", "all1g", "win2m"};

struct TraceMix
{
    const char *name;
    unsigned seq, hot, rand, chase;
};

// The two SIMD-kernel stress mixes from the golden suite: GUPS-heavy
// (TLB misses/walks dominate) and chase-heavy (dependent loads).
constexpr TraceMix kGupsHeavy{"gups-heavy", 10, 10, 70, 10};
constexpr TraceMix kChaseHeavy{"chase-heavy", 10, 20, 10, 60};

struct CellInput
{
    alloc::MosallocConfig config;
    trace::MemoryTrace trace;
};

CellInput
makeCellInput(const std::string &layout_name, const TraceMix &mix,
              std::uint64_t records)
{
    CellInput input;
    input.config.heapLayout = layoutByName(layout_name);
    input.config.anonLayout = alloc::MosaicLayout(16_MiB);
    alloc::Mosalloc allocator(input.config);
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

void
expectSameCounters(const cpu::RunResult &a, const cpu::RunResult &b)
{
    EXPECT_EQ(a.runtimeCycles, b.runtimeCycles);
    EXPECT_EQ(a.tlbHitsL2, b.tlbHitsL2);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
    EXPECT_EQ(a.walkCycles, b.walkCycles);
    EXPECT_EQ(a.swapCycles, b.swapCycles);
    EXPECT_EQ(a.majorFaults, b.majorFaults);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.memoryRefs, b.memoryRefs);
    EXPECT_EQ(a.l1TlbHits, b.l1TlbHits);
    EXPECT_EQ(a.walkerQueueCycles, b.walkerQueueCycles);
    EXPECT_EQ(a.progL1dLoads, b.progL1dLoads);
    EXPECT_EQ(a.progL2Loads, b.progL2Loads);
    EXPECT_EQ(a.progL3Loads, b.progL3Loads);
    EXPECT_EQ(a.progDramLoads, b.progDramLoads);
    EXPECT_EQ(a.walkL1dLoads, b.walkL1dLoads);
    EXPECT_EQ(a.walkL2Loads, b.walkL2Loads);
    EXPECT_EQ(a.walkL3Loads, b.walkL3Loads);
    EXPECT_EQ(a.walkDramLoads, b.walkDramLoads);
}

/** Relative error vs the full-replay reference; tiny references are
 *  compared on an absolute floor so 0-vs-3 noise cannot divide by
 *  (near) zero. */
double
relErr(std::uint64_t estimate, std::uint64_t full)
{
    const double floor = 1000.0;
    const double denom =
        std::max(static_cast<double>(full), floor);
    const double diff = estimate > full
                            ? static_cast<double>(estimate - full)
                            : static_cast<double>(full - estimate);
    return diff / denom;
}

} // namespace

/**
 * The exactness property: K = num intervals degenerates to full
 * replay — every interval is its own singleton cluster, segments tile
 * the trace contiguously with empty warmups, and the extrapolated
 * "estimate" is the full-replay readout bit for bit, with a zero
 * error bound. Pinned on both skewed mixes across all 4 paper
 * layouts.
 */
TEST(SampledReplay, DegenerateCoverageIsBitIdenticalToFullReplay)
{
    constexpr std::uint64_t kRecords = 60000;
    for (const TraceMix &mix : {kGupsHeavy, kChaseHeavy}) {
        for (const char *layout : kLayouts) {
            SCOPED_TRACE(std::string(mix.name) + "/" + layout);
            CellInput input = makeCellInput(layout, mix, kRecords);

            SamplingConfig config;
            config.mode = SampleMode::Interval;
            config.intervalRecords = 8192;
            config.clusters = 1u << 20; // clamps to the interval count
            config.warmupRecords = 4096; // irrelevant: segments chain

            SamplePlan plan = buildSamplePlan(input.trace, config);
            ASSERT_EQ(plan.clusters.size(), plan.intervals.size());
            EXPECT_EQ(plan.recordsReplayed, input.trace.size());

            auto sampled = simulateSampled(
                cpu::skylake(), input.config, input.trace, plan);
            auto full = cpu::simulateRun(cpu::skylake(), input.config,
                                         input.trace);
            expectSameCounters(sampled.estimate, full);
            EXPECT_EQ(sampled.estErr, 0.0);
            EXPECT_EQ(sampled.recordsReplayed, input.trace.size());
        }
    }
}

/** The same exactness rail in demand-paging mode: warmups and
 *  measures drive the live page table and frame pool, and contiguous
 *  coverage still telescopes to the paged full replay bit for bit
 *  (including S). */
TEST(SampledReplay, DegenerateCoverageIsBitIdenticalPaged)
{
    CellInput input = makeCellInput("all4k", kGupsHeavy, 40000);
    vm::OsConfig os;
    os.memFrames = 4096;
    os.policy = vm::ReplacementPolicyKind::Lru;

    SamplingConfig config;
    config.mode = SampleMode::Interval;
    config.intervalRecords = 4096;
    config.clusters = 1u << 20;

    SamplePlan plan = buildSamplePlan(input.trace, config);
    auto sampled = simulateSampled(cpu::sandyBridge(), input.config,
                                   input.trace, plan, os);
    auto full = cpu::simulateRun(cpu::sandyBridge(), input.config,
                                 input.trace, os);
    expectSameCounters(sampled.estimate, full);
    EXPECT_GT(sampled.estimate.swapCycles, 0u);
}

/**
 * The payoff property the CI accuracy gate scales up: on both skewed
 * mixes across the 4 paper layouts, replaying a fraction of the
 * records lands within 5% on R and 10% on H/M/C of the full replay.
 */
TEST(SampledReplay, AccuracyWithinBoundsAcrossPaperGrid)
{
    constexpr std::uint64_t kRecords = 120000;
    for (const TraceMix &mix : {kGupsHeavy, kChaseHeavy}) {
        for (const char *layout : kLayouts) {
            SCOPED_TRACE(std::string(mix.name) + "/" + layout);
            CellInput input = makeCellInput(layout, mix, kRecords);

            SamplingConfig config;
            config.mode = SampleMode::Interval;
            config.intervalRecords = 4096;
            config.clusters = 8;
            config.warmupRecords = 1024;

            SamplePlan plan = buildSamplePlan(input.trace, config);
            // Real savings: at most a third of the trace replayed.
            EXPECT_LT(plan.recordsReplayed, input.trace.size() / 3);

            auto sampled = simulateSampled(
                cpu::skylake(), input.config, input.trace, plan);
            auto full = cpu::simulateRun(cpu::skylake(), input.config,
                                         input.trace);
            EXPECT_LT(relErr(sampled.estimate.runtimeCycles,
                             full.runtimeCycles),
                      0.05)
                << "R " << sampled.estimate.runtimeCycles << " vs "
                << full.runtimeCycles;
            EXPECT_LT(
                relErr(sampled.estimate.tlbHitsL2, full.tlbHitsL2),
                0.10)
                << "H " << sampled.estimate.tlbHitsL2 << " vs "
                << full.tlbHitsL2;
            EXPECT_LT(
                relErr(sampled.estimate.tlbMisses, full.tlbMisses),
                0.10)
                << "M " << sampled.estimate.tlbMisses << " vs "
                << full.tlbMisses;
            EXPECT_LT(
                relErr(sampled.estimate.walkCycles, full.walkCycles),
                0.10)
                << "C " << sampled.estimate.walkCycles << " vs "
                << full.walkCycles;
        }
    }
}

/**
 * Warmup convergence on the chase-heavy trace: a longer warmup prefix
 * hands the measured region a more faithful machine state, so the
 * worst-case counter error shrinks (monotonically, modulo a small
 * tolerance for counters already at the noise floor) as the warmup
 * grows — and the longest warmup must beat none at all.
 */
TEST(SampledReplay, WarmupSweepErrorShrinksOnChaseHeavy)
{
    constexpr std::uint64_t kRecords = 120000;
    CellInput input = makeCellInput("all4k", kChaseHeavy, kRecords);
    auto full =
        cpu::simulateRun(cpu::skylake(), input.config, input.trace);

    constexpr std::uint64_t kWarmups[] = {0, 256, 1024, 4096};
    std::vector<double> errs;
    for (std::uint64_t warmup : kWarmups) {
        SamplingConfig config;
        config.mode = SampleMode::Interval;
        config.intervalRecords = 4096;
        config.clusters = 4;
        config.warmupRecords = warmup;
        SamplePlan plan = buildSamplePlan(input.trace, config);
        auto sampled = simulateSampled(cpu::skylake(), input.config,
                                       input.trace, plan);
        errs.push_back(std::max(
            {relErr(sampled.estimate.runtimeCycles, full.runtimeCycles),
             relErr(sampled.estimate.tlbMisses, full.tlbMisses),
             relErr(sampled.estimate.walkCycles, full.walkCycles)}));
    }
    for (std::size_t i = 1; i < errs.size(); ++i) {
        EXPECT_LE(errs[i], errs[i - 1] * 1.05 + 1e-4)
            << "warmup " << kWarmups[i] << " regressed vs "
            << kWarmups[i - 1];
    }
    EXPECT_LT(errs.back(), errs.front());
}

/** Plans and estimates are pure functions of their inputs: two
 *  derivations agree bit for bit (what lets every campaign worker,
 *  and shard derive the plan independently). */
TEST(SampledReplay, PlanAndEstimateAreDeterministic)
{
    CellInput input = makeCellInput("win2m", kGupsHeavy, 50000);
    SamplingConfig config;
    config.mode = SampleMode::Interval;
    config.intervalRecords = 4096;
    config.clusters = 6;
    config.warmupRecords = 512;

    SamplePlan a = buildSamplePlan(input.trace, config);
    SamplePlan b = buildSamplePlan(input.trace, config);
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (std::size_t i = 0; i < a.segments.size(); ++i) {
        EXPECT_EQ(a.segments[i].warmupBegin, b.segments[i].warmupBegin);
        EXPECT_EQ(a.segments[i].measureBegin,
                  b.segments[i].measureBegin);
        EXPECT_EQ(a.segments[i].end, b.segments[i].end);
        EXPECT_EQ(a.segmentCluster[i], b.segmentCluster[i]);
    }

    auto ra = simulateSampled(cpu::haswell(), input.config, input.trace,
                              a);
    auto rb = simulateSampled(cpu::haswell(), input.config, input.trace,
                              b);
    expectSameCounters(ra.estimate, rb.estimate);
    EXPECT_EQ(ra.estErr, rb.estErr);
    EXPECT_EQ(ra.recordsReplayed, rb.recordsReplayed);
}

/** Segment bookkeeping invariants every plan must satisfy. */
TEST(SampledReplay, PlanSegmentsAreSortedDisjointAndWarmed)
{
    CellInput input = makeCellInput("all4k", kChaseHeavy, 100000);
    SamplingConfig config;
    config.mode = SampleMode::Interval;
    config.intervalRecords = 4096;
    config.clusters = 5;
    config.warmupRecords = 2048;

    SamplePlan plan = buildSamplePlan(input.trace, config);
    ASSERT_EQ(plan.segments.size(), plan.clusters.size());
    std::uint64_t prev_end = 0;
    std::uint64_t replayed = 0;
    for (const auto &seg : plan.segments) {
        EXPECT_GE(seg.warmupBegin, prev_end);
        EXPECT_LE(seg.warmupBegin, seg.measureBegin);
        EXPECT_LT(seg.measureBegin, seg.end);
        EXPECT_LE(seg.end, input.trace.size());
        // Warmup is the configured prefix unless clamped by the
        // previous segment or the trace start.
        EXPECT_LE(seg.measureBegin - seg.warmupBegin,
                  config.warmupRecords);
        replayed += seg.end - seg.warmupBegin;
        prev_end = seg.end;
    }
    EXPECT_EQ(replayed, plan.recordsReplayed);

    // Cluster weights account for every interval exactly once.
    std::uint64_t weighted = 0;
    for (const auto &cluster : plan.clusters)
        weighted += cluster.memberRecords;
    EXPECT_EQ(weighted, input.trace.size());
}
