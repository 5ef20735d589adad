/**
 * @file
 * Mosaic layouts: user-specified mixes of page sizes over a pool.
 *
 * A MosaicLayout describes, for one memory pool, which intervals of the
 * pool's offset space are backed by 2MB or 1GB hugepages; everything not
 * covered by an interval falls back to 4KB pages. This mirrors the
 * environment-variable interface of the original Mosalloc library
 * (Section V of the paper) where the user specifies the layout of the
 * brk pool and the anonymous mmap pool.
 */

#ifndef MOSAIC_MOSALLOC_LAYOUT_HH
#define MOSAIC_MOSALLOC_LAYOUT_HH

#include <array>
#include <string>
#include <vector>

#include "mosalloc/page_size.hh"
#include "support/error.hh"
#include "support/types.hh"

namespace mosaic::alloc
{

/** One hugepage interval within a pool's offset space. */
struct MosaicRegion
{
    /** Start offset within the pool; aligned to pageSize. */
    Bytes start = 0;

    /** Length in bytes; a multiple of pageSize. */
    Bytes length = 0;

    /** Backing page size of this interval (2MB or 1GB). */
    PageSize pageSize = PageSize::Page2M;

    Bytes end() const { return start + length; }

    bool operator==(const MosaicRegion &other) const = default;
};

/**
 * A validated mosaic of page sizes covering a pool of a given size.
 *
 * Invariants (checked by validate(), panicked on by accessors):
 *  - regions are sorted by start offset and do not overlap;
 *  - each region's start and length are aligned to its page size;
 *  - every region lies within [0, poolSize).
 */
class MosaicLayout
{
  public:
    /** An all-4KB layout for a pool of @p pool_size bytes. */
    explicit MosaicLayout(Bytes pool_size = 0);

    /**
     * Build a layout with explicit hugepage regions.
     * Regions may be given in any order; they are sorted and validated.
     */
    MosaicLayout(Bytes pool_size, std::vector<MosaicRegion> regions);

    /** An all-@p size layout (pool size is rounded up to one page). */
    static MosaicLayout uniform(Bytes pool_size, PageSize size);

    /**
     * Convenience: one aligned hugepage window over [start, start+len).
     *
     * The window is grown outward to page-size alignment (start rounded
     * down, end rounded up) and clipped to the pool, matching how the
     * layout-exploration heuristics of Section VI-B convert arbitrary
     * byte windows into legal mosaics.
     */
    static MosaicLayout withWindow(Bytes pool_size, Bytes start, Bytes len,
                                   PageSize size);

    Bytes poolSize() const { return poolSize_; }

    const std::vector<MosaicRegion> &regions() const { return regions_; }

    /** @return the page size backing the given pool offset. */
    PageSize pageSizeAt(Bytes offset) const;

    /** @return start offset of the page containing @p offset. */
    Bytes pageBaseAt(Bytes offset) const;

    /** Count of pages of each size needed to back the whole pool. */
    std::array<std::uint64_t, numPageSizes> pageCounts() const;

    /** Fraction of pool bytes backed by hugepages (2MB or 1GB). */
    double hugeCoverage() const;

    /**
     * Enumerate every page in the pool as (offset, size) pairs, in
     * ascending offset order. Used to construct page tables.
     */
    std::vector<std::pair<Bytes, PageSize>> enumeratePages() const;

    /** Serialize to the environment-variable string format. */
    std::string toConfigString() const;

    /**
     * Parse the environment-variable string format. Malformed text and
     * regions that break the invariants above are Config errors naming
     * the bad field, never a panic.
     */
    static Result<MosaicLayout> fromConfigString(Bytes pool_size,
                                                 const std::string &text);

    bool operator==(const MosaicLayout &other) const = default;

  private:
    struct Unchecked
    {
    };

    /** The public constructor without validate(): sorts the regions,
     *  drops empty ones and grows the pool to hold them. */
    MosaicLayout(Unchecked, Bytes pool_size,
                 std::vector<MosaicRegion> regions);

    /** The first invariant @p regions (sorted, non-empty) break over
     *  @p pool_size, as a Config error. */
    static Result<void> checkRegions(Bytes pool_size,
                                     const std::vector<MosaicRegion> &regions);

    void validate() const;

    Bytes poolSize_ = 0;
    std::vector<MosaicRegion> regions_;
};

} // namespace mosaic::alloc

#endif // MOSAIC_MOSALLOC_LAYOUT_HH
