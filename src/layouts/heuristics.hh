/**
 * @file
 * Layout-exploration heuristics (Section VI-B of the paper).
 *
 * Each heuristic produces N+1 mosaic layouts of a pool, where a
 * "window" is a contiguous region backed by 2MB hugepages:
 *
 *  - Growing Window: windows [0, i*S/N) for i = 0..N — from all-4KB to
 *    all-2MB;
 *  - Random Window: windows of random start and length;
 *  - Sliding Window: starts at the workload's TLB-miss hot region
 *    (identified from the miss profile, the PEBS substitute) and
 *    slides away from it in steps of 1/N of the region size, gradually
 *    exposing more of the hot region to 4KB pages.
 *
 * The paper builds 54 layouts per workload: growing (N=8, 9 layouts),
 * random (9), and sliding with X in {20, 40, 60, 80}% (4 x 9 = 36).
 */

#ifndef MOSAIC_LAYOUTS_HEURISTICS_HH
#define MOSAIC_LAYOUTS_HEURISTICS_HH

#include <string>
#include <vector>

#include "mosalloc/layout.hh"
#include "trace/miss_profile.hh"

namespace mosaic::layouts
{

/** A generated layout plus provenance for reporting. */
struct NamedLayout
{
    std::string name; ///< e.g. "grow-3", "rand-7", "slide-40%-2"
    alloc::MosaicLayout layout;
};

/** Growing Window: N+1 layouts from all-4KB to all-2MB. */
std::vector<NamedLayout> growingWindowLayouts(Bytes pool_size,
                                              unsigned n = 8);

/** Random Window: N+1 layouts with random (aligned) windows. */
std::vector<NamedLayout> randomWindowLayouts(Bytes pool_size,
                                             unsigned n = 8,
                                             std::uint64_t seed = 0x9a4d);

/**
 * Sliding Window: N+1 layouts derived from the miss profile.
 *
 * Layout 0 covers the hot region exactly; layout i slides the window
 * by i/N of the region length toward the cold side (low or high
 * addresses depending on where the region sits), so layout N no longer
 * overlaps the hot region at all.
 *
 * @param fraction hot-region miss coverage target X (e.g. 0.4)
 */
std::vector<NamedLayout> slidingWindowLayouts(
    Bytes pool_size, const trace::MissProfile &profile, double fraction,
    unsigned n = 8);

/**
 * Number of layouts paperCampaignLayouts() produces — structural (9 +
 * 9 + 4*9), independent of the workload, so campaign resume can tell
 * a fully-covered (platform, workload) pair from a partial one without
 * generating the trace the layouts are derived from.
 */
constexpr std::size_t numPaperCampaignLayouts = 54;

/**
 * The names paperCampaignLayouts() gives its layouts, in order. Like
 * the count, they do not depend on the trace, so a pair whose trace
 * was never obtained can still name its cells.
 */
std::vector<std::string> paperCampaignLayoutNames();

/**
 * The full 54-layout campaign of the paper: growing (9) + random (9)
 * + sliding at X in {20, 40, 60, 80}% (36).
 */
std::vector<NamedLayout> paperCampaignLayouts(
    Bytes pool_size, const trace::MissProfile &profile,
    std::uint64_t seed = 0x9a4d);

/** The three uniform reference layouts (all-4KB / all-2MB / all-1GB). */
NamedLayout uniformLayout(Bytes pool_size, alloc::PageSize size);

} // namespace mosaic::layouts

#endif // MOSAIC_LAYOUTS_HEURISTICS_HH
