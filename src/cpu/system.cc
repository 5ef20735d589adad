#include "cpu/system.hh"

#include <stdexcept>

#include "support/fault_injector.hh"
#include "support/metrics.hh"

namespace mosaic::cpu
{

namespace
{

/** Per-replay counter totals, published once per finished run (and
 *  once per tenant of an interleaved run). */
void
publishReplayCounters(MetricsRegistry &registry,
                      const trace::MemoryTrace &trace,
                      const RunResult &result)
{
    registry.add("replay/records", trace.size());
    registry.add("replay/prog_l1_loads", result.progL1dLoads);
    registry.add("replay/prog_l2_loads", result.progL2Loads);
    registry.add("replay/prog_l3_loads", result.progL3Loads);
    registry.add("replay/prog_dram_loads", result.progDramLoads);
    registry.add("replay/walk_l1_loads", result.walkL1dLoads);
    registry.add("replay/walk_l2_loads", result.walkL2Loads);
    registry.add("replay/walk_l3_loads", result.walkL3Loads);
    registry.add("replay/walk_dram_loads", result.walkDramLoads);
    registry.add("replay/tlb_misses", result.tlbMisses);
    registry.add("replay/walk_cycles", result.walkCycles);
}

} // namespace

System::System(const PlatformSpec &platform,
               const alloc::Mosalloc &allocator,
               const SimContext &context)
    : System(platform, allocator, vm::OsConfig{}, context)
{
}

System::System(const PlatformSpec &platform,
               const alloc::Mosalloc &allocator,
               const vm::OsConfig &os, const SimContext &context)
    : platform_(platform), context_(context), core_(platform.core)
{
    framePool_ = std::make_unique<vm::FramePool>(os);
    pageTable_ = std::make_unique<vm::PageTable>(*framePool_);
    finishMachine(allocator, *framePool_);
}

System::System(const PlatformSpec &platform,
               const alloc::Mosalloc &allocator, vm::FramePool &pool,
               const SimContext &context)
    : platform_(platform), context_(context), core_(platform.core)
{
    mosaic_assert(pool.paged(),
                  "shared-pool System requires a bounded frame pool");
    pageTable_ = std::make_unique<vm::PageTable>(pool);
    finishMachine(allocator, pool);
}

void
System::finishMachine(const alloc::Mosalloc &allocator,
                      vm::FramePool &pool)
{
    hierarchy_ = std::make_unique<mem::MemoryHierarchy>(platform_.hierarchy);
    mmu_ = std::make_unique<vm::Mmu>(*pageTable_, *hierarchy_,
                                     platform_.mmu);
    if (pool.paged()) {
        // Demand paging: declare the layout's pages (all non-resident)
        // instead of populating the table — first touch faults.
        vm::FramePool::TenantId tenant = pool.registerTenant(*pageTable_,
                                                             *mmu_);
        mmu_->attachPager(pool, tenant);
        pool.addTenantPages(tenant, allocator);
    } else {
        pageTable_->populate(allocator);
    }
}

RunResult
System::run(const trace::MemoryTrace &trace)
{
    // One registry update per replay, never per record: the inner loop
    // stays untouched, so the instrumented build holds the
    // BENCH_replay.json throughput baseline and the golden counters.
    MetricsRegistry &registry = context_.metrics();
    ScopedTimer timer(registry, "replay/run");
    RunResult result =
        core_.run(trace, *mmu_, *hierarchy_, context_.deadline());
    timer.stop();

    publishReplayCounters(registry, trace, result);
    return result;
}

std::vector<RunResult>
System::runSampled(const trace::MemoryTrace &trace,
                   std::span<const SampledSegment> segments)
{
    MetricsRegistry &registry = context_.metrics();
    ScopedTimer timer(registry, "replay/sampled_pass");
    std::vector<RunResult> deltas = core_.runSampled(
        trace, segments, *mmu_, *hierarchy_, context_.deadline());
    timer.stop();

    std::uint64_t replayed = 0;
    for (const SampledSegment &seg : segments)
        replayed += seg.end - seg.warmupBegin;
    registry.add("replay/sampled_passes");
    registry.add("replay/sampled_segments", segments.size());
    registry.add("replay/sampled_records_replayed", replayed);
    registry.add("replay/sampled_records_skipped",
                 trace.size() - replayed);
    return deltas;
}

RunResult
simulateRun(const PlatformSpec &platform,
            const alloc::MosallocConfig &alloc_config,
            const trace::MemoryTrace &trace)
{
    return simulateRun(platform, alloc_config, trace, globalSimContext());
}

RunResult
simulateRun(const PlatformSpec &platform,
            const alloc::MosallocConfig &alloc_config,
            const trace::MemoryTrace &trace, const SimContext &context)
{
    return simulateRun(platform, alloc_config, trace, vm::OsConfig{},
                       context);
}

RunResult
simulateRun(const PlatformSpec &platform,
            const alloc::MosallocConfig &alloc_config,
            const trace::MemoryTrace &trace, const vm::OsConfig &os,
            const SimContext &context)
{
    if (context.faults().shouldFail(FaultSite::SimLane))
        throw std::runtime_error("injected sim-lane fault");
    alloc::Mosalloc allocator(alloc_config);
    System system(platform, allocator, os, context);
    return system.run(trace);
}

std::vector<RunResult>
simulateRunTenants(const PlatformSpec &platform,
                   std::span<const alloc::MosallocConfig> alloc_configs,
                   std::span<const trace::MemoryTrace *const> traces,
                   const vm::OsConfig &os, const SimContext &context)
{
    mosaic_assert(alloc_configs.size() == traces.size(),
                  "tenant configs and traces must be parallel");
    mosaic_assert(os.paged(),
                  "multi-tenant replay requires a bounded frame pool");
    MetricsRegistry &registry = context.metrics();
    if (context.faults().shouldFail(FaultSite::SimLane))
        throw std::runtime_error("injected sim-lane fault");

    // One shared pool; tenants register in config order, which fixes
    // their ids and hence the deterministic interleaving order.
    vm::FramePool pool(os);
    std::vector<std::unique_ptr<alloc::Mosalloc>> allocators;
    std::vector<std::unique_ptr<System>> systems;
    std::vector<CoreModel::TenantLane> lanes;
    for (std::size_t i = 0; i < alloc_configs.size(); ++i) {
        allocators.push_back(
            std::make_unique<alloc::Mosalloc>(alloc_configs[i]));
        systems.push_back(std::make_unique<System>(
            platform, *allocators.back(), pool, context));
        lanes.push_back({traces[i], systems.back()->mmu_.get(),
                         systems.back()->hierarchy_.get()});
    }

    CoreModel core(platform.core);
    ScopedTimer pass_timer(registry, "replay/tenant_pass");
    std::vector<RunResult> results =
        core.runInterleaved(lanes, context.deadline());
    pass_timer.stop();

    for (std::size_t i = 0; i < results.size(); ++i)
        publishReplayCounters(registry, *traces[i], results[i]);
    registry.add("replay/tenant_passes");
    registry.add("replay/tenant_lane_runs", lanes.size());
    return results;
}

} // namespace mosaic::cpu
