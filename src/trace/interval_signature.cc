#include "trace/interval_signature.hh"

#include <unordered_map>

#include "support/logging.hh"
#include "trace/trace_store.hh"

namespace mosaic::trace
{

namespace
{

/** The two record sources, presented identically: extraction
 *  arithmetic is shared, so the materialized and columnar forms
 *  cannot drift apart. */
struct AosSource
{
    const TraceRecord *recs;
    std::size_t count;

    std::size_t size() const { return count; }
    VirtAddr vaddrAt(std::size_t i) const { return recs[i].vaddr; }
    unsigned gapAt(std::size_t i) const { return recs[i].gap; }
    bool writeAt(std::size_t i) const { return recs[i].isWrite; }
    bool dependsAt(std::size_t i) const { return recs[i].dependsOnPrev; }
};

struct SoaSource
{
    const VirtAddr *vaddr;
    const std::uint32_t *meta;
    std::size_t count;

    std::size_t size() const { return count; }
    VirtAddr vaddrAt(std::size_t i) const { return vaddr[i]; }
    unsigned gapAt(std::size_t i) const
    {
        return meta[i] & traceStoreGapMask;
    }
    bool writeAt(std::size_t i) const
    {
        return meta[i] & traceStoreWriteBit;
    }
    bool dependsAt(std::size_t i) const
    {
        return meta[i] & traceStoreDependsBit;
    }
};

/** Bucket of a reuse time in records: floor(log2), capped below the
 *  cold bucket (kReuseBuckets - 1, reserved for first touches). */
inline std::size_t
reuseBucket(std::uint64_t reuse_records)
{
    std::size_t bucket = 0;
    while (reuse_records > 1 &&
           bucket + 2 < IntervalSignature::kReuseBuckets) {
        reuse_records >>= 1;
        ++bucket;
    }
    return bucket;
}

template <class Source>
std::vector<IntervalSignature>
extract(const Source &src, std::uint64_t interval_records)
{
    mosaic_assert(interval_records >= 1,
                  "interval length must be at least one record");

    const std::uint64_t total = src.size();
    std::vector<IntervalSignature> out;
    if (total == 0)
        return out;
    out.reserve(static_cast<std::size_t>(
        (total + interval_records - 1) / interval_records));

    // Global page -> last-touch record index; reuse looks across
    // interval boundaries so signatures carry cross-interval locality.
    std::unordered_map<std::uint64_t, std::uint64_t> last_touch;
    last_touch.reserve(4096);

    constexpr std::size_t kCold = IntervalSignature::kReuseBuckets - 1;

    for (std::uint64_t begin = 0; begin < total;
         begin += interval_records) {
        const std::uint64_t end =
            std::min(begin + interval_records, total);
        IntervalSignature sig;
        sig.begin = begin;
        sig.end = end;

        std::array<std::uint64_t, IntervalSignature::kReuseBuckets>
            buckets{};
        std::uint64_t new_pages = 0;
        std::uint64_t writes = 0;
        std::uint64_t depends = 0;
        std::uint64_t gap_sum = 0;

        for (std::uint64_t i = begin; i < end; ++i) {
            const std::uint64_t page = src.vaddrAt(i) >> 12;
            auto [it, inserted] = last_touch.try_emplace(page, i);
            if (inserted) {
                ++buckets[kCold];
                ++new_pages;
            } else {
                ++buckets[reuseBucket(i - it->second)];
                // Distinct-in-interval: the page is new to *this*
                // interval when its previous touch predates it.
                if (it->second < begin)
                    ++new_pages;
                it->second = i;
            }
            writes += src.writeAt(i) ? 1 : 0;
            depends += src.dependsAt(i) ? 1 : 0;
            gap_sum += src.gapAt(i);
        }

        const double n = static_cast<double>(end - begin);
        sig.distinctPages = new_pages;
        for (std::size_t b = 0; b < IntervalSignature::kReuseBuckets;
             ++b) {
            sig.features[b] = static_cast<double>(buckets[b]) / n;
        }
        std::size_t f = IntervalSignature::kReuseBuckets;
        sig.features[f++] = static_cast<double>(new_pages) / n;
        sig.features[f++] = static_cast<double>(writes) / n;
        sig.features[f++] = static_cast<double>(depends) / n;
        const double mean_gap = static_cast<double>(gap_sum) / n;
        sig.features[f++] =
            mean_gap >= kSignatureGapNorm ? 1.0
                                          : mean_gap / kSignatureGapNorm;
        out.push_back(sig);
    }
    return out;
}

} // namespace

std::vector<IntervalSignature>
extractIntervalSignatures(const MemoryTrace &trace,
                          std::uint64_t interval_records)
{
    return extract(AosSource{trace.records().data(), trace.size()},
                   interval_records);
}

std::vector<IntervalSignature>
extractIntervalSignatures(std::span<const VirtAddr> vaddr,
                          std::span<const std::uint32_t> meta,
                          std::uint64_t interval_records)
{
    mosaic_assert(vaddr.size() == meta.size(),
                  "vaddr and meta columns must be parallel");
    return extract(SoaSource{vaddr.data(), meta.data(), vaddr.size()},
                   interval_records);
}

} // namespace mosaic::trace
