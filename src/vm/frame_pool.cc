#include "vm/frame_pool.hh"

#include <algorithm>
#include <string>

#include "mosalloc/mosalloc.hh"
#include "support/error.hh"
#include "support/logging.hh"
#include "vm/page_table.hh"

namespace mosaic::vm
{

FramePool::FramePool(const OsConfig &os)
    : os_(os)
{
    if (os_.paged())
        policy_ = makeReplacementPolicy(os_.policy);
}

PhysAddr
FramePool::allocPageTableNode()
{
    PhysAddr addr = pageTableBase + ptNodes_ * 4_KiB;
    if (addr + 4_KiB > pageTableBase + pageTableRegion)
        throw ResourceError("page-table region exhausted after " +
                            std::to_string(ptNodes_) + " nodes");
    ++ptNodes_;
    return addr;
}

PhysAddr
FramePool::allocDataFrame(alloc::PageSize size)
{
    auto &recycled = freeFrames_[static_cast<std::size_t>(size)];
    if (!recycled.empty()) {
        PhysAddr addr = recycled.back();
        recycled.pop_back();
        return addr;
    }
    Bytes frame = alloc::pageBytes(size);
    Bytes cursor = alignUp(dataCursor_, frame);
    PhysAddr addr = dataBase + cursor;
    if (addr + frame > maxPhysAddr)
        throw ResourceError(
            "simulated physical memory exhausted: allocating a " +
            std::string(alloc::pageSizeName(size)) + " frame at " +
            std::to_string(addr) + " exceeds maxPhysAddr");
    dataCursor_ = cursor + frame;
    return addr;
}

FramePool::TenantId
FramePool::registerTenant(PageTable &pt, ShootdownSink &sink)
{
    mosaic_assert(os_.paged(),
                  "registerTenant on an unbounded frame pool");
    Tenant tenant;
    tenant.pageTable = &pt;
    tenant.sink = &sink;
    tenants_.push_back(tenant);
    return static_cast<TenantId>(tenants_.size() - 1);
}

void
FramePool::addTenantPages(TenantId tenant_id,
                          const alloc::Mosalloc &allocator)
{
    mosaic_assert(tenant_id < tenants_.size(), "unknown tenant ",
                  tenant_id);
    Tenant &tenant = tenants_[tenant_id];
    mosaic_assert(tenant.runs.empty(), "tenant ", tenant_id,
                  " declared its pages twice");
    for (const auto &mapping : allocator.pageMappings()) {
        const Bytes bytes = alloc::pageBytes(mapping.pageSize);
        if (bytes > budgetBytes())
            throw ResourceError(
                "frame pool of " + std::to_string(os_.memFrames) +
                " frames cannot hold one " +
                std::string(alloc::pageSizeName(mapping.pageSize)) +
                " page");
        Page page;
        page.vbase = mapping.virtBase;
        page.tenant = tenant_id;
        page.size = mapping.pageSize;
        pages_.push_back(page);
        // Ids follow enumeration order, so a page that continues the
        // last run (adjacent, same size) extends it.
        const unsigned shift = alloc::pageShift(mapping.pageSize);
        if (!tenant.runs.empty() && tenant.runs.back().shift == shift &&
            tenant.runs.back().end == mapping.virtBase) {
            tenant.runs.back().end += bytes;
            continue;
        }
        tenant.runs.push_back(PageRun{
            mapping.virtBase, mapping.virtBase + bytes,
            static_cast<std::uint32_t>(pages_.size() - 1), shift});
    }
    std::sort(tenant.runs.begin(), tenant.runs.end(),
              [](const PageRun &a, const PageRun &b) {
                  return a.begin < b.begin;
              });
}

std::uint32_t
FramePool::findPage(TenantId tenant_id, VirtAddr vaddr)
{
    Tenant &tenant = tenants_[tenant_id];
    // One unsigned compare tests begin <= vaddr < end.
    if (vaddr - tenant.lastRun.begin >=
        tenant.lastRun.end - tenant.lastRun.begin) [[unlikely]] {
        auto it = std::upper_bound(
            tenant.runs.begin(), tenant.runs.end(), vaddr,
            [](VirtAddr addr, const PageRun &run) {
                return addr < run.begin;
            });
        mosaic_assert(it != tenant.runs.begin() && vaddr < (it - 1)->end,
                      "access to undeclared address ", vaddr);
        tenant.lastRun = *(it - 1);
    }
    const PageRun &run = tenant.lastRun;
    return run.firstId +
           static_cast<std::uint32_t>((vaddr - run.begin) >> run.shift);
}

void
FramePool::evict(std::uint32_t victim_id, FaultOutcome &out)
{
    Page &victim = pages_[victim_id];
    mosaic_assert(victim.resident, "evicting a non-resident page");
    Tenant &owner = tenants_[victim.tenant];

    // Shootdown ordering: unmap the leaf entry first, then invalidate
    // the owner's TLBs, and only then recycle the frame — no window
    // where a cached translation could still name a reused frame.
    // The page-walk caches need no invalidation: they hold only
    // non-leaf entries, and intermediate nodes are never freed (see
    // DESIGN.md, "OS layer").
    owner.pageTable->unmap(victim.vbase, victim.size);
    owner.sink->shootdown(victim.vbase, victim.size);
    if (victim.dirty) {
        out.swapCycles += os_.writebackCycles;
        ++out.writebacks;
        ++writebacks_;
        victim.dirty = false;
    }
    freeFrames_[static_cast<std::size_t>(victim.size)].push_back(
        victim.phys);
    victim.resident = false;
    residentBytes_ -= alloc::pageBytes(victim.size);
    ++out.evictions;
    ++evictions_;
}

FramePool::FaultOutcome
FramePool::touch(TenantId tenant_id, VirtAddr vaddr, bool is_write)
{
    FaultOutcome out;
    std::uint32_t id = findPage(tenant_id, vaddr);
    Page &page = pages_[id];
    out.pageSize = page.size;
    if (page.resident) {
        if (is_write)
            page.dirty = true;
        policy_->touch(id);
        out.frame = page.phys;
        return out;
    }

    Bytes need = alloc::pageBytes(page.size);
    // addTenantPages rejected pages larger than the whole budget, so
    // the eviction loop below always terminates with room to spare.
    while (residentBytes_ + need > budgetBytes())
        evict(policy_->victim(), out);

    page.phys = allocDataFrame(page.size);
    tenants_[page.tenant].pageTable->map(page.vbase, page.size,
                                         page.phys);
    page.resident = true;
    page.dirty = is_write;
    residentBytes_ += need;
    policy_->insert(id);
    out.frame = page.phys;
    out.majorFault = true;
    out.swapCycles += os_.majorFaultCycles;
    ++majorFaults_;
    return out;
}

} // namespace mosaic::vm
