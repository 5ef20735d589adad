#include "layouts/heuristics.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/random.hh"

namespace mosaic::layouts
{

using alloc::MosaicLayout;
using alloc::PageSize;

std::vector<NamedLayout>
growingWindowLayouts(Bytes pool_size, unsigned n)
{
    mosaic_assert(n >= 1, "need at least one step");
    std::vector<NamedLayout> layouts;
    for (unsigned i = 0; i <= n; ++i) {
        Bytes len = pool_size / n * i;
        layouts.push_back(
            {"grow-" + std::to_string(i),
             MosaicLayout::withWindow(pool_size, 0, len,
                                      PageSize::Page2M)});
    }
    return layouts;
}

std::vector<NamedLayout>
randomWindowLayouts(Bytes pool_size, unsigned n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<NamedLayout> layouts;
    for (unsigned i = 0; i <= n; ++i) {
        Bytes start = rng.nextBounded(pool_size);
        Bytes max_len = pool_size - start;
        Bytes len = 1 + rng.nextBounded(max_len);
        layouts.push_back(
            {"rand-" + std::to_string(i),
             MosaicLayout::withWindow(pool_size, start, len,
                                      PageSize::Page2M)});
    }
    return layouts;
}

std::vector<NamedLayout>
slidingWindowLayouts(Bytes pool_size, const trace::MissProfile &profile,
                     double fraction, unsigned n)
{
    auto pct = static_cast<int>(fraction * 100.0 + 0.5);
    std::string prefix = "slide-" + std::to_string(pct) + "%-";

    trace::HotRegion hot = profile.findHotRegion(fraction);
    std::vector<NamedLayout> layouts;
    if (hot.length == 0) {
        // No misses attributed to the pool: fall back to growing
        // windows so the campaign still has 54 layouts.
        auto fallback = growingWindowLayouts(pool_size, n);
        for (unsigned i = 0; i <= n; ++i)
            layouts.push_back({prefix + std::to_string(i),
                               fallback[i].layout});
        return layouts;
    }

    // Slide toward the cold side: away from the pool end the hot
    // region is closest to, so successive windows overlap it less.
    bool slide_down = !profile.hotRegionNearBottom(hot);
    for (unsigned i = 0; i <= n; ++i) {
        Bytes shift = hot.length / n * i;
        Bytes start;
        if (slide_down) {
            start = hot.start >= shift ? hot.start - shift : 0;
        } else {
            start = hot.start + shift;
            if (start + hot.length > pool_size) {
                start = pool_size > hot.length ? pool_size - hot.length
                                               : 0;
            }
        }
        layouts.push_back(
            {prefix + std::to_string(i),
             MosaicLayout::withWindow(pool_size, start, hot.length,
                                      PageSize::Page2M)});
    }
    return layouts;
}

std::vector<std::string>
paperCampaignLayoutNames()
{
    std::vector<std::string> names;
    for (const char *prefix :
         {"grow-", "rand-", "slide-20%-", "slide-40%-", "slide-60%-",
          "slide-80%-"}) {
        for (unsigned i = 0; i <= 8; ++i)
            names.push_back(prefix + std::to_string(i));
    }
    return names;
}

std::vector<NamedLayout>
paperCampaignLayouts(Bytes pool_size, const trace::MissProfile &profile,
                     std::uint64_t seed)
{
    std::vector<NamedLayout> layouts = growingWindowLayouts(pool_size, 8);
    auto random = randomWindowLayouts(pool_size, 8, seed);
    layouts.insert(layouts.end(), random.begin(), random.end());
    for (double fraction : {0.2, 0.4, 0.6, 0.8}) {
        auto sliding = slidingWindowLayouts(pool_size, profile, fraction, 8);
        layouts.insert(layouts.end(), sliding.begin(), sliding.end());
    }
    mosaic_assert(layouts.size() == numPaperCampaignLayouts,
                  "expected ", numPaperCampaignLayouts, " layouts, got ",
                  layouts.size());
    return layouts;
}

NamedLayout
uniformLayout(Bytes pool_size, PageSize size)
{
    return {"all-" + alloc::pageSizeName(size),
            MosaicLayout::uniform(pool_size, size)};
}

} // namespace mosaic::layouts
