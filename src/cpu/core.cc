#include "cpu/core.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/error.hh"
#include "support/logging.hh"

namespace mosaic::cpu
{

CoreModel::CoreModel(const CoreParams &params)
    : params_(params)
{
    mosaic_assert(params.baseCpi > 0.0, "baseCpi must be positive");
    mosaic_assert(params.maxOutstanding >= 1, "need >= 1 outstanding op");
    mosaic_assert(params.robInstructions >= 1, "need a nonempty ROB");
}

namespace
{

/** Records replayed per chunk: the staging buffers, the watchdog
 *  cadence and the tenant interleaving turn are all one chunk. */
constexpr std::size_t kChunkRecords = 1024;

/**
 * Sliding history of (instruction index, retire time) pairs used to
 * enforce the ROB constraint: an operation enters execution only after
 * the instruction robInstructions older than it has retired.
 *
 * Backed by a fixed power-of-two ring: each record retires at least
 * one instruction, so at most robInstructions entries are ever live
 * between the drain point and the push point.
 */
class RetireHistory
{
  public:
    explicit RetireHistory(unsigned rob_instructions)
    {
        std::size_t capacity = 2;
        while (capacity < rob_instructions + 2u)
            capacity <<= 1;
        mask_ = capacity - 1;
        entries_.resize(capacity);
    }

    void
    push(std::uint64_t inst_index, double retire_time)
    {
        mosaic_assert(tail_ - head_ <= mask_,
                      "retire history ring overflow");
        entries_[tail_ & mask_] = {inst_index, retire_time};
        ++tail_;
    }

    /** Latest retire time of any instruction <= @p inst_index. */
    double
    retiredBy(std::uint64_t inst_index)
    {
        while (head_ != tail_ &&
               entries_[head_ & mask_].instIndex <= inst_index) {
            lastPassed_ = entries_[head_ & mask_].retireTime;
            ++head_;
        }
        return lastPassed_;
    }

  private:
    struct Entry
    {
        std::uint64_t instIndex;
        double retireTime;
    };

    std::vector<Entry> entries_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
    double lastPassed_ = 0.0;
};

/**
 * Cooperative watchdog check, shared by every replay entry point.
 * Called once per chunk — a time query every ~1k simulated records —
 * so the hot record loop stays branch-free of clock reads. The
 * overshoot bound past an expired deadline is therefore one chunk of
 * cold walks (kChunkRecords records).
 */
inline void
checkDeadline(std::chrono::steady_clock::time_point deadline)
{
    if (deadline != std::chrono::steady_clock::time_point::max() &&
        std::chrono::steady_clock::now() > deadline) {
        throw TimeoutError("replay exceeded its watchdog deadline");
    }
}

/** One chunk of the trace, read in place by the replay kernels. */
struct RecordChunk
{
    const trace::TraceRecord *recs;
    std::size_t count;

    std::size_t size() const { return count; }
    VirtAddr vaddrAt(std::size_t i) const { return recs[i].vaddr; }
    std::uint64_t
    instsAt(std::size_t i) const
    {
        return static_cast<std::uint64_t>(recs[i].gap) + 1;
    }
    bool dependsAt(std::size_t i) const { return recs[i].dependsOnPrev; }
    bool writeAt(std::size_t i) const { return recs[i].isWrite; }
};

/**
 * Per-lane replay engine: the machine references, staging buffers, and
 * timing-model state of one simulated platform/mosaic cell, plus the
 * per-chunk stage/retire kernels. run() and runSampled() drive one of
 * these, runInterleaved() one per tenant; all of them share one
 * per-record update sequence.
 */
struct LaneEngine
{
    vm::Mmu &mmu;
    mem::MemoryHierarchy &hierarchy;
    const CoreParams &params;
    const Cycles l1Latency;

    double workClock = 0.0;   // pure-work (fetch/execute) clock
    double retireClock = 0.0; // in-order retirement clock
    double prevCompletion = 0.0;
    std::uint64_t instIndex = 0;

    // MSHR bound: completion times of the last maxOutstanding memory
    // operations; a new one may not issue before the oldest completed.
    std::size_t ring = 0;
    std::vector<double> outstanding;

    // ROB bound: retire times of recent references, queried by
    // instruction age.
    RetireHistory history;

    // Per-chunk staging buffers: the data line, leaf page-table entry
    // and page size each record will touch, derived by the pure
    // software translation before any simulated state advances.
    std::vector<PhysAddr> stagedData;
    std::vector<PhysAddr> stagedEntry;
    std::vector<alloc::PageSize> stagedSize;

    /** How far ahead of the current record to software-prefetch the
     *  simulated cache-set metadata. The address stream is known in
     *  advance and software translation is pure, so this is host-side
     *  only: no simulated structure sees a staged address early. */
    static constexpr std::size_t kPrefetchAhead = 16;

    LaneEngine(vm::Mmu &mmu_ref, mem::MemoryHierarchy &hier,
               const CoreParams &core_params)
        : mmu(mmu_ref),
          hierarchy(hier),
          params(core_params),
          l1Latency(hier.config().latencies.l1),
          outstanding(core_params.maxOutstanding, 0.0),
          history(core_params.robInstructions),
          stagedData(kChunkRecords),
          stagedEntry(kChunkRecords),
          stagedSize(kChunkRecords)
    {
    }

    /**
     * Stage one chunk's translations in one pure pass. The iterations
     * are independent (unlike the timing loop), so the host pipelines
     * the memo misses, and the timing loop then finds every slot warm.
     */
    inline void
    stageChunk(const RecordChunk &src)
    {
        const std::size_t n = src.size();
        PhysAddr *staged_data = stagedData.data();
        PhysAddr *staged_entry = stagedEntry.data();
        alloc::PageSize *staged_size = stagedSize.data();
        for (std::size_t i = 0; i < n; ++i) {
            if (i + 8 < n)
                mmu.prefetchXlate(src.vaddrAt(i + 8));
            const vm::Mmu::StagedXlate xlate =
                mmu.peekTranslate(src.vaddrAt(i));
            staged_data[i] = xlate.physAddr;
            staged_entry[i] = xlate.leafEntry;
            staged_size[i] = xlate.pageSize;
        }
    }

    /**
     * Retire one staged chunk through the timing model. The per-record
     * sequence is the paper's single-core model: work advances the
     * clock, the MSHR ring and ROB history bound issue, translation
     * and the data access bound completion, retirement is in-order.
     *
     * @tparam Paged demand-paging mode: translations come from the
     *         MMU's paged path (authoritative against the live page
     *         table, possibly faulting) instead of the staged arrays;
     *         no chunk is staged, no prefetch hints run. The
     *         `Paged == false` instantiation is exactly the
     *         pre-OS-layer kernel, so the unbounded hot loop carries
     *         no paging branches — the safety rail the golden
     *         counters and the bench ratchet enforce.
     */
    template <bool Paged>
    inline void
    retireChunk(const RecordChunk &src)
    {
        const double base_cpi = params.baseCpi;
        const unsigned rob_instructions = params.robInstructions;
        const std::size_t n = src.size();
        const PhysAddr *staged_data = stagedData.data();
        const PhysAddr *staged_entry = stagedEntry.data();
        const alloc::PageSize *staged_size = stagedSize.data();

        for (std::size_t i = 0; i < n; ++i) {
            if (!Paged && i + kPrefetchAhead < n) {
                // Hint the sets the record will scan: its data line,
                // and the leaf page-table entry a TLB miss would read
                // through the same hierarchy. The entry hint is only
                // worth its issue slots for 4KB pages — the split L1
                // TLBs cover the whole footprint at 2MB/1GB, so walks
                // there are too rare to pay for per-record prefetch
                // traffic. (Prefetch hints never touch simulated
                // state, so the filter cannot change a counter.)
                hierarchy.prefetchSets(staged_data[i + kPrefetchAhead]);
                if (staged_size[i + kPrefetchAhead] ==
                    alloc::PageSize::Page4K)
                    hierarchy.prefetchSets(
                        staged_entry[i + kPrefetchAhead]);
            }

            const VirtAddr vaddr = src.vaddrAt(i);

            std::uint64_t insts = src.instsAt(i);
            double work = base_cpi * static_cast<double>(insts);
            workClock += work;
            instIndex += insts;

            // The ROB admits this operation once the instruction
            // robInstructions before it has retired.
            double rob_ready =
                instIndex > rob_instructions
                    ? history.retiredBy(instIndex - rob_instructions)
                    : 0.0;
            double issue =
                std::max({workClock, outstanding[ring], rob_ready});
            // Pointer-chase step: the address comes from the previous
            // reference's data, so it cannot issue until that
            // completes.
            if (src.dependsAt(i))
                issue = std::max(issue, prevCompletion);

            // Address translation (TLB lookup, possibly a hardware
            // walk), from the staged software translation — or, in
            // paged mode, through the demand-fault path against the
            // live page table.
            vm::TranslationEvent xlat;
            if constexpr (Paged) {
                xlat = mmu.translatePaged(vaddr, src.writeAt(i),
                                          static_cast<Cycles>(issue));
                if (xlat.swapStall > 0) {
                    // A major fault traps to the OS and services the
                    // page synchronously: nothing younger issues until
                    // it completes, so the whole stall lands in R
                    // serially (this is what makes S an additive
                    // runtime component, see models::makeMosmodelSwap).
                    workClock =
                        issue + static_cast<double>(xlat.swapStall);
                }
            } else {
                xlat = mmu.translateStaged(vaddr, staged_data[i],
                                           staged_size[i],
                                           static_cast<Cycles>(issue));
            }
            double xlat_done =
                issue +
                static_cast<double>(xlat.queueCycles + xlat.latency);

            // The data access depends on the translation; latency
            // beyond a pipelined L1 hit is exposed to the completion
            // time.
            auto data = hierarchy.access(xlat.physAddr,
                                         mem::Requester::Program);
            double data_extra =
                data.latency > l1Latency
                    ? static_cast<double>(data.latency - l1Latency)
                    : 0.0;
            double completion = xlat_done + data_extra;

            outstanding[ring] = completion;
            if (++ring == outstanding.size())
                ring = 0;
            prevCompletion = completion;

            // Retirement is in order: it progresses by the work amount
            // and may not pass the operation's completion.
            retireClock = std::max(retireClock + work, completion);
            history.push(instIndex, retireClock);
        }
    }

    /**
     * Replay @p records [from, to) chunk by chunk, checking
     * @p deadline before each chunk. Unbounded machines stage each
     * chunk's translations first; paged ones translate live.
     */
    void
    replayRange(const trace::TraceRecord *records, std::uint64_t from,
                std::uint64_t to,
                std::chrono::steady_clock::time_point deadline)
    {
        const bool paged = mmu.paged();
        for (std::uint64_t base = from; base < to;
             base += kChunkRecords) {
            checkDeadline(deadline);
            RecordChunk src{records + base,
                            static_cast<std::size_t>(
                                std::min<std::uint64_t>(kChunkRecords,
                                                        to - base))};
            if (paged) {
                retireChunk<true>(src);
            } else {
                stageChunk(src);
                retireChunk<false>(src);
            }
        }
    }
};

/**
 * Integral counter snapshot of a lane. Every field is an integer —
 * runtimeCycles is llround(retireClock) — so per-segment deltas
 * telescope exactly: summing the deltas of contiguous segments
 * reproduces run()'s readout bit for bit (the degenerate-coverage
 * property the sampling tests pin). A default snapshot is all zeros,
 * the state of a fresh machine, so run() and runInterleaved() read a
 * whole replay out as the delta from BoundarySnapshot{}.
 */
struct BoundarySnapshot
{
    Cycles runtimeCycles = 0;
    vm::MmuCounters mmu;
    mem::CacheStats l1, l2, l3;
};

BoundarySnapshot
takeSnapshot(const LaneEngine &lane)
{
    BoundarySnapshot snap;
    snap.runtimeCycles =
        static_cast<Cycles>(std::llround(lane.retireClock));
    snap.mmu = lane.mmu.counters();
    snap.l1 = lane.hierarchy.l1().stats();
    snap.l2 = lane.hierarchy.l2().stats();
    snap.l3 = lane.hierarchy.l3().stats();
    return snap;
}

/** The measured region's delta readout between two snapshots. */
RunResult
deltaReadout(const BoundarySnapshot &before, const BoundarySnapshot &after,
             Insts instructions, std::uint64_t memory_refs)
{
    RunResult result;
    result.runtimeCycles = after.runtimeCycles - before.runtimeCycles;
    result.instructions = instructions;
    result.memoryRefs = memory_refs;

    result.tlbHitsL2 = after.mmu.h - before.mmu.h;
    result.tlbMisses = after.mmu.m - before.mmu.m;
    result.walkCycles = after.mmu.c - before.mmu.c;
    result.swapCycles = after.mmu.s - before.mmu.s;
    result.majorFaults = after.mmu.majorFaults - before.mmu.majorFaults;
    result.evictions = after.mmu.evictions - before.mmu.evictions;
    result.writebacks = after.mmu.writebacks - before.mmu.writebacks;
    result.l1TlbHits = after.mmu.l1Hits - before.mmu.l1Hits;
    result.walkerQueueCycles =
        after.mmu.queueCycles - before.mmu.queueCycles;

    auto prog = mem::Requester::Program;
    auto walk = mem::Requester::Walker;
    auto prog_i = static_cast<std::size_t>(prog);
    auto walk_i = static_cast<std::size_t>(walk);
    result.progL1dLoads = after.l1.accesses(prog) - before.l1.accesses(prog);
    result.progL2Loads = after.l2.accesses(prog) - before.l2.accesses(prog);
    result.progL3Loads = after.l3.accesses(prog) - before.l3.accesses(prog);
    result.progDramLoads = after.l3.misses[prog_i] - before.l3.misses[prog_i];
    result.walkL1dLoads = after.l1.accesses(walk) - before.l1.accesses(walk);
    result.walkL2Loads = after.l2.accesses(walk) - before.l2.accesses(walk);
    result.walkL3Loads = after.l3.accesses(walk) - before.l3.accesses(walk);
    result.walkDramLoads = after.l3.misses[walk_i] - before.l3.misses[walk_i];
    return result;
}

} // namespace

RunResult
CoreModel::run(const trace::MemoryTrace &trace, vm::Mmu &mmu,
               mem::MemoryHierarchy &hierarchy,
               std::chrono::steady_clock::time_point deadline)
{
    LaneEngine lane(mmu, hierarchy, params_);
    lane.replayRange(trace.records().data(), 0, trace.size(), deadline);
    return deltaReadout(BoundarySnapshot{}, takeSnapshot(lane),
                        trace.totalInstructions(), trace.size());
}

std::vector<RunResult>
CoreModel::runSampled(const trace::MemoryTrace &trace,
                      std::span<const SampledSegment> segments,
                      vm::Mmu &mmu, mem::MemoryHierarchy &hierarchy,
                      std::chrono::steady_clock::time_point deadline)
{
    LaneEngine lane(mmu, hierarchy, params_);

    const trace::TraceRecord *records = trace.records().data();
    const std::size_t total = trace.size();

    // Chunk partitioning cannot change a counter (staging is pure,
    // prefetch hints never touch simulated state), so chunks that
    // start at segment edges instead of multiples of kChunkRecords
    // are safe.
    std::vector<RunResult> results;
    results.reserve(segments.size());
    std::uint64_t prev_end = 0;
    for (const SampledSegment &seg : segments) {
        mosaic_assert(seg.warmupBegin >= prev_end,
                      "sampled segments must be sorted and disjoint");
        mosaic_assert(seg.warmupBegin <= seg.measureBegin &&
                          seg.measureBegin < seg.end && seg.end <= total,
                      "sampled segment out of range");
        prev_end = seg.end;

        lane.replayRange(records, seg.warmupBegin, seg.measureBegin,
                         deadline);
        const BoundarySnapshot before = takeSnapshot(lane);
        lane.replayRange(records, seg.measureBegin, seg.end, deadline);
        const BoundarySnapshot after = takeSnapshot(lane);

        Insts insts = 0;
        for (std::uint64_t i = seg.measureBegin; i < seg.end; ++i)
            insts += static_cast<Insts>(records[i].gap) + 1;
        results.push_back(deltaReadout(before, after, insts,
                                       seg.end - seg.measureBegin));
    }
    return results;
}

std::vector<RunResult>
CoreModel::runInterleaved(std::span<const TenantLane> lanes,
                          std::chrono::steady_clock::time_point deadline)
{
    const std::size_t num_lanes = lanes.size();

    std::vector<LaneEngine> states;
    states.reserve(num_lanes);
    for (const TenantLane &lane : lanes) {
        mosaic_assert(lane.trace && lane.mmu && lane.hierarchy,
                      "tenant lane without a trace or machine");
        mosaic_assert(lane.mmu->paged(),
                      "interleaved replay requires paged-mode MMUs "
                      "sharing one frame pool");
        states.emplace_back(*lane.mmu, *lane.hierarchy, params_);
    }

    // Round-robin at chunk granularity: tenant 0's chunk k, tenant
    // 1's chunk k, ..., then chunk k+1. The interleaving order — and
    // therefore every fault, eviction, and shootdown on the shared
    // pool — is a pure function of the traces and the lane order, so
    // the result is deterministic regardless of campaign jobs count.
    std::vector<std::size_t> cursor(num_lanes, 0);
    bool any_left = true;
    while (any_left) {
        any_left = false;
        for (std::size_t t = 0; t < num_lanes; ++t) {
            const trace::MemoryTrace &trace = *lanes[t].trace;
            const std::size_t total = trace.size();
            if (cursor[t] >= total)
                continue;
            checkDeadline(deadline);
            RecordChunk src{trace.records().data() + cursor[t],
                            std::min(kChunkRecords, total - cursor[t])};
            states[t].retireChunk<true>(src);
            cursor[t] += src.size();
            any_left = any_left || cursor[t] < total;
        }
    }

    std::vector<RunResult> results;
    results.reserve(num_lanes);
    for (std::size_t t = 0; t < num_lanes; ++t) {
        const trace::MemoryTrace &trace = *lanes[t].trace;
        results.push_back(deltaReadout(BoundarySnapshot{},
                                       takeSnapshot(states[t]),
                                       trace.totalInstructions(),
                                       trace.size()));
    }
    return results;
}

} // namespace mosaic::cpu
