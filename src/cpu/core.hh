/**
 * @file
 * Trace-driven out-of-order core timing model.
 *
 * The model follows the interval-simulation school: instructions retire
 * in order at a base rate, memory operations complete asynchronously,
 * and retirement stalls only when a completion is later than the retire
 * stream reaches it. A bounded number of memory operations may be
 * outstanding (the MSHR/ROB proxy), so:
 *
 *  - sparse TLB misses hide almost entirely behind independent work
 *    (the paper's "CPUs may become increasingly effective in
 *    alleviating TLB misses when miss frequency drops", Section I);
 *  - dense misses expose walk latency and queue on the finite hardware
 *    walkers, making runtime superlinear in walk cycles;
 *  - with two walkers, concurrent walks retire at twice the walk
 *    throughput while the C counter sums both walkers' busy cycles, so
 *    C can exceed R (the Broadwell gups effect, Section VI-D).
 */

#ifndef MOSAIC_CPU_CORE_HH
#define MOSAIC_CPU_CORE_HH

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "memhier/hierarchy.hh"
#include "support/types.hh"
#include "trace/trace.hh"
#include "vm/mmu.hh"

namespace mosaic::cpu
{

/** Core pipeline parameters. */
struct CoreParams
{
    /** Cycles per retired instruction when nothing stalls
     *  (superscalar: below 1). */
    double baseCpi = 0.45;

    /** Maximum memory operations outstanding (the MSHR count). */
    unsigned maxOutstanding = 10;

    /**
     * Reorder-buffer depth in instructions: operation i may not issue
     * before the instruction robInstructions older than it retires.
     * This bounds how far execution runs ahead of retirement and hence
     * how much latency independent work can hide.
     */
    unsigned robInstructions = 168;
};

/** Everything one simulated execution produced (the PMU readout). */
struct RunResult
{
    // The paper's four headline metrics (Table 2).
    Cycles runtimeCycles = 0; ///< R
    std::uint64_t tlbHitsL2 = 0; ///< H
    std::uint64_t tlbMisses = 0; ///< M
    Cycles walkCycles = 0; ///< C

    /** The OS layer's swap accounting (S; zero in unbounded mode). */
    Cycles swapCycles = 0;
    std::uint64_t majorFaults = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

    Insts instructions = 0;
    std::uint64_t memoryRefs = 0;
    std::uint64_t l1TlbHits = 0;
    Cycles walkerQueueCycles = 0;

    // Cache-load breakdown for Table 7 (program vs page walker).
    std::uint64_t progL1dLoads = 0;
    std::uint64_t progL2Loads = 0;
    std::uint64_t progL3Loads = 0;
    std::uint64_t progDramLoads = 0;
    std::uint64_t walkL1dLoads = 0;
    std::uint64_t walkL2Loads = 0;
    std::uint64_t walkL3Loads = 0;
    std::uint64_t walkDramLoads = 0;
};

/**
 * One measured slice of a sampled replay (record indexes into the
 * trace, [warmupBegin, end) replayed in order):
 *
 *   [warmupBegin, measureBegin)  warmup — replayed to heat the TLBs,
 *                                caches, and (in paged mode) the frame
 *                                pool, excluded from the readout;
 *   [measureBegin, end)          measured — its counter *deltas* are
 *                                the segment's result.
 *
 * Records between one segment's end and the next segment's
 * warmupBegin are skipped entirely — that skip is where sampling's
 * speedup comes from. Segments must be sorted, non-overlapping, and
 * satisfy warmupBegin <= measureBegin < end <= trace size.
 */
struct SampledSegment
{
    std::uint64_t warmupBegin = 0;
    std::uint64_t measureBegin = 0;
    std::uint64_t end = 0;
};

/**
 * The retire-stream timing engine.
 */
class CoreModel
{
  public:
    explicit CoreModel(const CoreParams &params);

    /**
     * Replay @p trace through @p mmu and @p hierarchy.
     *
     * The MMU and hierarchy must be freshly constructed (or flushed)
     * per run; counters are read back into the RunResult.
     *
     * @p deadline is a cooperative watchdog: it is checked once per
     * replay chunk (~1k records, negligible cost) and, once passed,
     * the run throws TimeoutError. The default never expires.
     */
    RunResult run(const trace::MemoryTrace &trace, vm::Mmu &mmu,
                  mem::MemoryHierarchy &hierarchy,
                  std::chrono::steady_clock::time_point deadline =
                      std::chrono::steady_clock::time_point::max());

    /**
     * Sampled (partial) replay: drive only the given segments of
     * @p trace through one machine, in segment order, skipping every
     * record outside them. Returns one *delta* RunResult per segment
     * — the counters the measured region [measureBegin, end) added on
     * top of the machine state its warmup left behind. Warmup records
     * are replayed through the full timing model but excluded from
     * the deltas; skipped records cost nothing.
     *
     * Exactness property (the sampling property tests pin this): when
     * the segments tile the whole trace contiguously with no warmup
     * (segment i is [b_i, b_i, b_{i+1})), the per-segment deltas sum
     * — counter by counter, including R — to exactly the RunResult
     * run() produces, because every boundary snapshot is integral
     * (runtimeCycles snapshots llround(retireClock), all other
     * counters are integer totals) and integer deltas telescope.
     *
     * @p deadline is the same cooperative watchdog as run()'s.
     */
    std::vector<RunResult> runSampled(
        const trace::MemoryTrace &trace,
        std::span<const SampledSegment> segments, vm::Mmu &mmu,
        mem::MemoryHierarchy &hierarchy,
        std::chrono::steady_clock::time_point deadline =
            std::chrono::steady_clock::time_point::max());

    /** One tenant of an interleaved multi-tenant replay: its own
     *  trace and its own machine (whose MMU must be in paged mode,
     *  attached to the *shared* frame pool the tenants contend on). */
    struct TenantLane
    {
        const trace::MemoryTrace *trace = nullptr;
        vm::Mmu *mmu = nullptr;
        mem::MemoryHierarchy *hierarchy = nullptr;
    };

    /**
     * Multi-tenant interference replay: drive every tenant's trace
     * through its own machine, round-robin interleaved at replay-chunk
     * granularity (~1k records per turn), so their demand faults
     * contend for the shared frame pool in a fixed, deterministic
     * order. Tenants whose traces are longer keep running alone after
     * shorter ones finish. Returns one RunResult per tenant, in lane
     * order.
     */
    std::vector<RunResult> runInterleaved(
        std::span<const TenantLane> lanes,
        std::chrono::steady_clock::time_point deadline =
            std::chrono::steady_clock::time_point::max());

    const CoreParams &params() const { return params_; }

  private:
    CoreParams params_;
};

} // namespace mosaic::cpu

#endif // MOSAIC_CPU_CORE_HH
