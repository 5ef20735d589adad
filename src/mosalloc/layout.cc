#include "mosalloc/layout.hh"

#include <algorithm>
#include <sstream>

#include "support/logging.hh"
#include "support/str.hh"

namespace mosaic::alloc
{

MosaicLayout::MosaicLayout(Bytes pool_size)
    : poolSize_(alignUp(pool_size, 4_KiB))
{
}

MosaicLayout::MosaicLayout(Bytes pool_size, std::vector<MosaicRegion> regions)
    : MosaicLayout(Unchecked{}, pool_size, std::move(regions))
{
    validate();
}

MosaicLayout::MosaicLayout(Unchecked, Bytes pool_size,
                           std::vector<MosaicRegion> regions)
    : poolSize_(alignUp(pool_size, 4_KiB)), regions_(std::move(regions))
{
    std::sort(regions_.begin(), regions_.end(),
              [](const MosaicRegion &a, const MosaicRegion &b) {
                  return a.start < b.start;
              });
    // Drop empty regions, then make sure the pool is large enough to
    // hold every aligned region (layouts may pad the pool).
    std::erase_if(regions_, [](const MosaicRegion &r) {
        return r.length == 0;
    });
    for (const auto &region : regions_)
        poolSize_ = std::max(poolSize_, region.end());
}

MosaicLayout
MosaicLayout::uniform(Bytes pool_size, PageSize size)
{
    Bytes padded = alignUp(pool_size, pageBytes(size));
    if (size == PageSize::Page4K)
        return MosaicLayout(padded);
    return MosaicLayout(padded, {MosaicRegion{0, padded, size}});
}

MosaicLayout
MosaicLayout::withWindow(Bytes pool_size, Bytes start, Bytes len,
                         PageSize size)
{
    if (len == 0 || size == PageSize::Page4K)
        return MosaicLayout(pool_size);
    Bytes page = pageBytes(size);
    Bytes aligned_start = alignDown(start, page);
    Bytes aligned_end = alignUp(start + len, page);
    // Clip to the pool; grow the pool rather than truncate the window
    // only when the window started inside the pool.
    if (aligned_start >= pool_size)
        return MosaicLayout(pool_size);
    aligned_end = std::min(aligned_end, alignUp(pool_size, page));
    return MosaicLayout(pool_size,
                        {MosaicRegion{aligned_start,
                                      aligned_end - aligned_start, size}});
}

Result<void>
MosaicLayout::checkRegions(Bytes pool_size,
                           const std::vector<MosaicRegion> &regions)
{
    if (pool_size != alignDown(pool_size, 4_KiB))
        return configError("pool size " + std::to_string(pool_size) +
                           " is not 4KB aligned");
    Bytes prev_end = 0;
    for (const auto &region : regions) {
        const std::string where =
            "region at " + std::to_string(region.start);
        if (region.pageSize == PageSize::Page4K) {
            return configError(where + ": page size 4KB is the implicit "
                                       "background, not a region");
        }
        const Bytes page = pageBytes(region.pageSize);
        const std::string size_name = pageSizeName(region.pageSize);
        if (region.start % page != 0)
            return configError(where + ": start not aligned to " +
                               size_name);
        if (region.length % page != 0)
            return configError(where + ": length " +
                               std::to_string(region.length) +
                               " not a multiple of " + size_name);
        if (region.start < prev_end)
            return configError(where + ": start overlaps the previous "
                                       "region");
        if (region.end() > pool_size)
            return configError(where + ": end " +
                               std::to_string(region.end()) +
                               " beyond the pool size " +
                               std::to_string(pool_size));
        prev_end = region.end();
    }
    return {};
}

void
MosaicLayout::validate() const
{
    auto checked = checkRegions(poolSize_, regions_);
    mosaic_assert(checked.ok(), checked.ok() ? "" : checked.error().str());
}

PageSize
MosaicLayout::pageSizeAt(Bytes offset) const
{
    mosaic_assert(offset < poolSize_, "offset ", offset, " out of pool ",
                  poolSize_);
    // Binary search over sorted, disjoint regions.
    auto it = std::upper_bound(regions_.begin(), regions_.end(), offset,
                               [](Bytes off, const MosaicRegion &r) {
                                   return off < r.start;
                               });
    if (it != regions_.begin()) {
        const MosaicRegion &candidate = *(it - 1);
        if (offset < candidate.end())
            return candidate.pageSize;
    }
    return PageSize::Page4K;
}

Bytes
MosaicLayout::pageBaseAt(Bytes offset) const
{
    return alignDown(offset, pageBytes(pageSizeAt(offset)));
}

std::array<std::uint64_t, numPageSizes>
MosaicLayout::pageCounts() const
{
    std::array<std::uint64_t, numPageSizes> counts{};
    Bytes cursor = 0;
    for (const auto &region : regions_) {
        counts[static_cast<std::size_t>(PageSize::Page4K)] +=
            (region.start - cursor) / 4_KiB;
        counts[static_cast<std::size_t>(region.pageSize)] +=
            region.length / pageBytes(region.pageSize);
        cursor = region.end();
    }
    counts[static_cast<std::size_t>(PageSize::Page4K)] +=
        (poolSize_ - cursor) / 4_KiB;
    return counts;
}

double
MosaicLayout::hugeCoverage() const
{
    if (poolSize_ == 0)
        return 0.0;
    Bytes huge = 0;
    for (const auto &region : regions_)
        huge += region.length;
    return static_cast<double>(huge) / static_cast<double>(poolSize_);
}

std::vector<std::pair<Bytes, PageSize>>
MosaicLayout::enumeratePages() const
{
    std::vector<std::pair<Bytes, PageSize>> pages;
    auto emit4k = [&](Bytes from, Bytes to) {
        for (Bytes off = from; off < to; off += 4_KiB)
            pages.emplace_back(off, PageSize::Page4K);
    };
    Bytes cursor = 0;
    for (const auto &region : regions_) {
        emit4k(cursor, region.start);
        Bytes page = pageBytes(region.pageSize);
        for (Bytes off = region.start; off < region.end(); off += page)
            pages.emplace_back(off, region.pageSize);
        cursor = region.end();
    }
    emit4k(cursor, poolSize_);
    return pages;
}

std::string
MosaicLayout::toConfigString() const
{
    // Format: "<poolSize>;<start>:<length>:<pagesize>,..."
    std::ostringstream os;
    os << poolSize_ << ";";
    for (std::size_t i = 0; i < regions_.size(); ++i) {
        if (i > 0)
            os << ",";
        os << regions_[i].start << ":" << regions_[i].length << ":"
           << pageBytes(regions_[i].pageSize);
    }
    return os.str();
}

Result<MosaicLayout>
MosaicLayout::fromConfigString(Bytes pool_size, const std::string &text)
{
    // Format: "<poolSize>;<start>:<length>:<pagesize>,..." (bytes).
    auto bad = [&](const std::string &what) {
        return configError("layout config \"" + text + "\": " + what);
    };
    auto field = [](const std::string &raw, std::uint64_t &out) {
        return parseUnsignedFull(trimString(raw), out);
    };
    auto halves = splitString(text, ';');
    if (halves.size() != 2)
        return bad("expected <pool size>;<regions>");
    Bytes declared = 0;
    if (!field(halves[0], declared))
        return bad("pool size \"" + halves[0] +
                   "\" is not an unsigned integer");
    if (pool_size == 0)
        pool_size = declared;

    std::vector<MosaicRegion> regions;
    if (!trimString(halves[1]).empty()) {
        for (const auto &piece : splitString(halves[1], ',')) {
            auto fields = splitString(piece, ':');
            if (fields.size() != 3)
                return bad("region \"" + piece +
                           "\" is not <start>:<length>:<page size>");
            MosaicRegion region;
            std::uint64_t page = 0;
            if (!field(fields[0], region.start))
                return bad("region start \"" + fields[0] +
                           "\" is not an unsigned integer");
            if (!field(fields[1], region.length))
                return bad("region length \"" + fields[1] +
                           "\" is not an unsigned integer");
            if (!field(fields[2], page) ||
                (page != 4_KiB && page != 2_MiB && page != 1_GiB))
                return bad("region page size \"" + fields[2] +
                           "\" is not 4096, 2097152 or 1073741824");
            region.pageSize = pageSizeFromBytes(page);
            // Like uniform() and withWindow(), a region may pad the
            // pool up to its own page size, and no further.
            const Bytes limit = alignUp(pool_size, page);
            if (region.length > limit ||
                region.start > limit - region.length)
                return bad("region at " + std::to_string(region.start) +
                           ": length " + std::to_string(region.length) +
                           " runs past the pool size " +
                           std::to_string(pool_size));
            regions.push_back(region);
        }
    }
    MosaicLayout layout(Unchecked{}, pool_size, std::move(regions));
    if (auto checked = checkRegions(layout.poolSize_, layout.regions_);
        !checked.ok())
        return bad(checked.error().message());
    return layout;
}

} // namespace mosaic::alloc
