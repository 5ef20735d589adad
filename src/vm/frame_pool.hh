/**
 * @file
 * Simulated physical memory as an OS-managed frame pool.
 *
 * This subsystem grew out of the old `PhysMem` bump allocator, which
 * baked the paper's residency assumption into the whole stack: every
 * page got a frame at setup and kept it forever. The FramePool keeps
 * that behaviour as its *unbounded* mode (`memFrames == 0`, the
 * default — bit-identical addresses and golden counters), and adds a
 * *bounded* mode that models what the OS does when physical memory is
 * scarce: demand paging over a fixed frame budget, a pluggable
 * replacement policy (FIFO/LRU/Clock), dirty-page writeback, and a
 * swap-cost model that charges major-fault/writeback cycles into the
 * S counter reported next to the paper's (H, M, C).
 *
 * No data is stored; the pool only hands out distinct, suitably
 * aligned physical addresses so cache indexing and page-table-entry
 * placement behave like on a real machine. Page-table nodes live in a
 * dedicated low region; data frames are carved above it. Evicted data
 * frames return to a per-page-size free list and are reused in LIFO
 * order (deterministic, and it keeps the touched physical footprint
 * compact).
 *
 * touch() returns the resident page's frame: that is the paged MMU's
 * translation (see DESIGN.md, "OS layer", for the run index).
 *
 * Multi-tenant: several address spaces (page table + MMU each) may
 * register with one pool and contend for its frames. An eviction may
 * therefore victimize *another* tenant's page; the pool edits the
 * owning tenant's page table and shoots down its TLB through the
 * registered sink.
 */

#ifndef MOSAIC_VM_FRAME_POOL_HH
#define MOSAIC_VM_FRAME_POOL_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "mosalloc/page_size.hh"
#include "support/types.hh"
#include "vm/replacement.hh"

namespace mosaic::alloc
{
class Mosalloc;
}

namespace mosaic::vm
{

class PageTable;

/** OS-level memory-management knobs (the `--mem-frames`,
 *  `--replacement`, `--swap-cost`, `--writeback-cost` flags). */
struct OsConfig
{
    /** Frame budget in 4KB frames; 0 = unbounded (residency assumed,
     *  the pre-refactor behaviour). */
    std::uint64_t memFrames = 0;

    ReplacementPolicyKind policy = ReplacementPolicyKind::Fifo;

    /** Cycles charged into S per major fault (page brought in from
     *  the backing store). */
    Cycles majorFaultCycles = 2000;

    /** Additional cycles charged into S when an evicted page is dirty
     *  and must be written back first. */
    Cycles writebackCycles = 800;

    bool paged() const { return memFrames != 0; }
};

/** Per-tenant TLB shootdown hook: an eviction must invalidate the
 *  owning tenant's cached translations before the frame is reused. */
class ShootdownSink
{
  public:
    virtual ~ShootdownSink() = default;
    virtual void shootdown(VirtAddr vbase, alloc::PageSize size) = 0;
};

class FramePool
{
  public:
    /** Physical region where page-table nodes are placed. */
    static constexpr PhysAddr pageTableBase = 0x0;

    /** Size reserved for page-table nodes. */
    static constexpr Bytes pageTableRegion = 1_GiB;

    /** Data frames start here (1 GiB aligned for 1GB frames). */
    static constexpr PhysAddr dataBase = pageTableBase + pageTableRegion;

    /** Ceiling on every simulated physical address (see
     *  kMaxSimPhysAddr: the cache model's 32-bit tags rely on it). */
    static constexpr PhysAddr maxPhysAddr = kMaxSimPhysAddr;

    using TenantId = std::uint32_t;

    /** The resident page's frame, and what making it resident cost
     *  (all zero when it already was). */
    struct FaultOutcome
    {
        PhysAddr frame = 0; ///< physical base of the page's frame
        alloc::PageSize pageSize = alloc::PageSize::Page4K;
        Cycles swapCycles = 0;
        bool majorFault = false;
        std::uint32_t evictions = 0;
        std::uint32_t writebacks = 0;
    };

    /** Unbounded pool: the pre-refactor bump allocator. */
    FramePool() = default;

    explicit FramePool(const OsConfig &os);

    bool paged() const { return os_.paged(); }

    /**
     * Allocate one 4KB frame for a page-table node.
     * @return the node's physical base address.
     * @throws ResourceError when the page-table region is exhausted.
     */
    PhysAddr allocPageTableNode();

    /**
     * Allocate a data frame of the given page size, naturally aligned.
     * In bounded mode prefers a recycled frame of the same size.
     * @return the frame's physical base address.
     * @throws ResourceError when the physical address space is
     *         exhausted.
     */
    PhysAddr allocDataFrame(alloc::PageSize size);

    std::uint64_t numPageTableNodes() const { return ptNodes_; }
    Bytes dataBytesAllocated() const { return dataCursor_; }

    // ------------------------------------------------------------------
    // Bounded (demand-paging) interface. Only valid when paged().
    // ------------------------------------------------------------------

    /**
     * Register an address space with the pool. The pool edits @p pt
     * on faults/evictions and invalidates translations via @p sink;
     * both must outlive the pool's use.
     */
    TenantId registerTenant(PageTable &pt, ShootdownSink &sink);

    /**
     * Declare every page of @p allocator's layout for @p tenant (once
     * per tenant), all initially non-resident (first touch takes a
     * major fault).
     * @throws ResourceError if the budget cannot hold even one page
     *         of some declared size.
     */
    void addTenantPages(TenantId tenant,
                        const alloc::Mosalloc &allocator);

    /**
     * Ensure the page covering @p vaddr is resident, evicting victims
     * chosen by the replacement policy as needed; marks the page
     * dirty on a write. Returns the page's frame and size, and the S
     * charge for this access.
     */
    FaultOutcome touch(TenantId tenant, VirtAddr vaddr, bool is_write);

    Bytes budgetBytes() const { return os_.memFrames * 4_KiB; }
    Bytes residentBytes() const { return residentBytes_; }
    std::uint64_t majorFaults() const { return majorFaults_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t writebacks() const { return writebacks_; }

  private:
    struct Page
    {
        VirtAddr vbase = 0;
        PhysAddr phys = 0;
        TenantId tenant = 0;
        alloc::PageSize size = alloc::PageSize::Page4K;
        bool resident = false;
        bool dirty = false;
    };

    /** Adjacent same-size pages with consecutive ids: vaddr in
     *  [begin, end) lies in page firstId + ((vaddr - begin) >> shift).
     *  A layout is a few hundred runs; they never change. */
    struct PageRun
    {
        VirtAddr begin = 0;
        VirtAddr end = 0;
        std::uint32_t firstId = 0;
        unsigned shift = 12;
    };

    struct Tenant
    {
        PageTable *pageTable = nullptr;
        ShootdownSink *sink = nullptr;

        /** Declared pages as runs, sorted by begin. */
        std::vector<PageRun> runs;

        /** Copy of the last lookup's run (locality memo). */
        PageRun lastRun;
    };

    std::uint32_t findPage(TenantId tenant, VirtAddr vaddr);
    void evict(std::uint32_t victim_id, FaultOutcome &out);

    OsConfig os_;
    std::unique_ptr<ReplacementPolicy> policy_;
    std::vector<Page> pages_;
    std::vector<Tenant> tenants_;
    std::array<std::vector<PhysAddr>, alloc::numPageSizes> freeFrames_;
    Bytes residentBytes_ = 0;
    std::uint64_t majorFaults_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t writebacks_ = 0;

    std::uint64_t ptNodes_ = 0;
    Bytes dataCursor_ = 0;
};

} // namespace mosaic::vm

#endif // MOSAIC_VM_FRAME_POOL_HH
