#include "vm/mmu.hh"

namespace mosaic::vm
{

Mmu::Mmu(const PageTable &page_table, mem::MemoryHierarchy &hierarchy,
         const MmuConfig &config)
    : pageTable_(page_table),
      config_(config),
      tlb_(config.l1Tlb, config.l2Tlb),
      walker_(page_table, hierarchy, config.pwc, config.numWalkers),
      xlateCache_(kXlateCacheSize)
{
}

TranslationEvent
Mmu::translateCold(VirtAddr vaddr, PhysAddr staged_phys,
                   alloc::PageSize size, TlbOutcome outcome, Cycles now)
{
    TranslationEvent event;
    event.physAddr = staged_phys;
    event.pageSize = size;
    event.outcome = outcome;
    if (outcome == TlbOutcome::L2Hit) {
        ++counters_.h;
        event.latency = config_.l2TlbHitLatency;
        return event;
    }

    // Full miss: the walker needs the entry chain, which neither the
    // staged arrays, the packed memo nor a page record carry.
    // Re-derive it from the page table instead of trusting the caller
    // — a staging pass may since have recycled the memo slot, and a
    // paged frame must agree with the live table. The guard asserts
    // the caller's values still describe this vaddr. All radix indices
    // use address bits >= 12, so the granule base walks the same
    // entry chain.
    Translation xlate =
        pageTable_.translateWith(descentCursor_, (vaddr >> 12) << 12);
    mosaic_assert(xlate.valid, "access to unmapped address ", vaddr);
    mosaic_assert(xlate.physAddr + (vaddr & 0xfff) == staged_phys &&
                      xlate.pageSize == size,
                  "stale staged translation for vaddr ", vaddr);
    WalkResult walk = walker_.walk(xlate, vaddr, now);
    tlb_.fill(vaddr, size);
    ++counters_.m;
    counters_.c += walk.walkCycles;
    counters_.queueCycles += walk.queueCycles;
    event.latency = walk.walkCycles;
    event.queueCycles = walk.queueCycles;
    return event;
}

TranslationEvent
Mmu::translatePaged(VirtAddr vaddr, bool is_write, Cycles now)
{
    mosaic_assert(pager_, "translatePaged without an attached pager");
    FramePool::FaultOutcome fault =
        pager_->touch(pagerTenant_, vaddr, is_write);
    counters_.s += fault.swapCycles;
    counters_.majorFaults += fault.majorFault ? 1 : 0;
    counters_.evictions += fault.evictions;
    counters_.writebacks += fault.writebacks;

    // The page record's frame is the translation. The swap stall
    // serializes the access: TLB/walk latency accrues after the fault
    // is serviced.
    const PhysAddr phys =
        fault.frame + (vaddr & (alloc::pageBytes(fault.pageSize) - 1));
    TranslationEvent event = translateStaged(
        vaddr, phys, fault.pageSize, now + fault.swapCycles);
    event.latency += fault.swapCycles;
    event.swapStall = fault.swapCycles;
    return event;
}

void
Mmu::refillXlate(std::uint64_t granule, XlateEntry &slot)
{
    // All radix indices use address bits >= 12, so the granule base
    // translates through the same entry chain as any address inside
    // it; only the low 12 bits of physAddr differ.
    Translation fresh =
        pageTable_.translateWith(descentCursor_, granule << 12);
    mosaic_assert(fresh.valid, "access to unmapped granule ",
                  granule << 12);
    slot.tag = (granule << 2) |
               static_cast<std::uint64_t>(fresh.pageSize);
    slot.physBase = fresh.physAddr;
    slot.leafEntry = fresh.entryAddrs[fresh.depth - 1];
}

void
Mmu::flush()
{
    // Architectural state only: the translation memo caches a pure
    // function of the page table and survives flushes by design.
    tlb_.flush();
    walker_.flushPwcs();
}

} // namespace mosaic::vm
