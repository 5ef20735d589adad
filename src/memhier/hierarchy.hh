/**
 * @file
 * The L1d -> L2 -> L3 -> DRAM memory hierarchy.
 *
 * Both program data references and page-table-walker references flow
 * through the same caches (matching real hardware, where walker lines
 * occupy L1d/L2/L3 and evict warm program data — the pollution effect
 * the paper measures in Table 7).
 */

#ifndef MOSAIC_MEMHIER_HIERARCHY_HH
#define MOSAIC_MEMHIER_HIERARCHY_HH

#include <cstdint>

#include "memhier/cache.hh"
#include "memhier/prefetcher.hh"
#include "support/types.hh"

namespace mosaic::mem
{

/** Latency (cycles) charged per level where an access is served. */
struct HierarchyLatencies
{
    Cycles l1 = 4;
    Cycles l2 = 12;
    Cycles l3 = 40;
    Cycles dram = 220;
};

/**
 * Geometry + latencies of the whole hierarchy. The defaults are the
 * per-core L1d/L2 of every modelled part and SandyBridge's L3 scaled
 * 1/16 (15 MiB -> 1 MiB, like the trace footprints; see DESIGN.md),
 * which keeps every level's set count a power of two.
 */
struct HierarchyConfig
{
    CacheConfig l1{"L1d", 32_KiB, 8, 64};
    CacheConfig l2{"L2", 256_KiB, 8, 64};
    CacheConfig l3{"L3", 1_MiB, 16, 64};
    HierarchyLatencies latencies;

    /** Optional L2 stream prefetcher (off by default). */
    PrefetcherConfig prefetcher;
};

/** Which level served an access. */
enum class ServedBy : std::uint8_t
{
    L1 = 0,
    L2 = 1,
    L3 = 2,
    Dram = 3,
};

/** Outcome of one hierarchy access. */
struct AccessResult
{
    Cycles latency;
    ServedBy servedBy;
};

/**
 * Three inclusive-ish cache levels backed by fixed-latency DRAM.
 *
 * A miss at level N allocates in level N and probes level N+1, so a
 * line touched once becomes resident in all levels (matching the
 * mostly-inclusive behaviour of the modelled Intel parts).
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig &config);

    /** Access @p addr on behalf of @p requester. */
    inline AccessResult access(PhysAddr addr, Requester requester);

    /**
     * Host-side prefetch of the set metadata @p addr will touch.
     * Simulated state is untouched; see Cache::prefetchSet. With
     * 4-byte tags the L1/L2 arrays are a few tens of KB and stay
     * host-resident; only the L3 array is large enough to be worth
     * hinting (extra prefetches cost issue slots and can evict
     * useful lines, so fewer is faster here).
     */
    void
    prefetchSets(PhysAddr addr) const
    {
        l2_.prefetchSet(addr);
        l3_.prefetchSet(addr);
    }

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const Cache &l3() const { return l3_; }

    const HierarchyConfig &config() const { return config_; }

    /** Invalidate all cache contents (stats are kept). */
    void flush();

    /** Zero all per-level statistics. */
    void clearStats();

    const StreamPrefetcher &prefetcher() const { return prefetcher_; }

  private:
    HierarchyConfig config_;
    Cache l1_;
    Cache l2_;
    Cache l3_;
    StreamPrefetcher prefetcher_;
};

// Header-inline: this runs once per program reference and once per
// page-walk entry read in the replay inner loop.
AccessResult
MemoryHierarchy::access(PhysAddr addr, Requester requester)
{
    const auto &lat = config_.latencies;
    if (l1_.access(addr, requester))
        return {lat.l1, ServedBy::L1};

    // L1 misses train the L2 streamer (program traffic only, as on
    // the real parts); prefetch fills land in L2 and L3 for free.
    if (config_.prefetcher.enabled && requester == Requester::Program) {
        for (PhysAddr fill : prefetcher_.observe(addr)) {
            if (!l2_.probe(fill)) {
                l2_.access(fill, Requester::Prefetcher);
                l3_.access(fill, Requester::Prefetcher);
            }
        }
    }

    if (l2_.access(addr, requester))
        return {lat.l2, ServedBy::L2};
    if (l3_.access(addr, requester))
        return {lat.l3, ServedBy::L3};
    return {lat.dram, ServedBy::Dram};
}

} // namespace mosaic::mem

#endif // MOSAIC_MEMHIER_HIERARCHY_HH
