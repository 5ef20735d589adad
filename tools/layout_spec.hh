/**
 * @file
 * The `--layout` spec grammar of mosaic_run: uniform page sizes, one
 * 2MB window, or a MosaicLayout config string. Every malformed,
 * misaligned or out-of-range spec is a Config error naming the bad
 * field, never a panic and never a silently different layout.
 */

#ifndef MOSAIC_TOOLS_LAYOUT_SPEC_HH
#define MOSAIC_TOOLS_LAYOUT_SPEC_HH

#include <cmath>
#include <stdexcept>
#include <string>

#include "mosalloc/layout.hh"
#include "support/error.hh"
#include "support/str.hh"

namespace mosaic::cli
{

/**
 * Parse a "64MiB"-style size (suffixes B, K/KiB, M/MiB, G/GiB) for
 * @p field. Config error naming @p field on a bad number or suffix,
 * or a negative, fractional-byte or out-of-range value.
 */
inline Result<Bytes>
parseSizeSpec(const std::string &field, const std::string &text)
{
    const std::string trimmed = trimString(text);
    auto bad = [&](const std::string &why) {
        return configError(field + " \"" + text + "\" " + why);
    };
    std::size_t pos = 0;
    double value = 0.0;
    try {
        value = std::stod(trimmed, &pos);
    } catch (const std::exception &) {
        return bad("is not a size");
    }
    const std::string suffix = trimString(trimmed.substr(pos));
    double scale = 0.0;
    if (suffix.empty() || suffix == "B")
        scale = 1.0;
    else if (suffix == "KiB" || suffix == "K")
        scale = 1024.0;
    else if (suffix == "MiB" || suffix == "M")
        scale = 1024.0 * 1024;
    else if (suffix == "GiB" || suffix == "G")
        scale = 1024.0 * 1024 * 1024;
    else
        return bad("has an unknown suffix \"" + suffix + "\"");
    const double bytes = value * scale;
    if (!std::isfinite(bytes) || bytes < 0.0)
        return bad("is negative or not finite");
    if (bytes >= 0x1p63 || std::floor(bytes) != bytes)
        return bad("is not a whole number of bytes below 2^63");
    return static_cast<Bytes>(bytes);
}

/**
 * Parse one layout spec over a pool of @p pool_size bytes:
 * `all-4KB`, `all-2MB`, `all-1GB`, `window:<start>:<len>` (one 2MB
 * window; both 2MiB-aligned and inside the pool) or
 * `config:<string>` (MosaicLayout::fromConfigString).
 */
inline Result<alloc::MosaicLayout>
parseLayoutSpec(const std::string &spec, Bytes pool_size)
{
    using alloc::MosaicLayout;
    using alloc::PageSize;
    if (spec == "all-4KB")
        return MosaicLayout(pool_size);
    if (spec == "all-2MB")
        return MosaicLayout::uniform(pool_size, PageSize::Page2M);
    if (spec == "all-1GB")
        return MosaicLayout::uniform(pool_size, PageSize::Page1G);
    if (spec.rfind("window:", 0) == 0) {
        auto fields = splitString(spec.substr(7), ':');
        if (fields.size() != 2)
            return configError("window spec \"" + spec +
                               "\" is not window:<start>:<len>");
        auto start = parseSizeSpec("window start", fields[0]);
        if (!start.ok())
            return start.error();
        auto length = parseSizeSpec("window length", fields[1]);
        if (!length.ok())
            return length.error();
        if (start.value() % 2_MiB != 0)
            return configError("window start \"" + fields[0] +
                               "\" is not 2MiB aligned");
        if (length.value() % 2_MiB != 0)
            return configError("window length \"" + fields[1] +
                               "\" is not a multiple of 2MiB");
        const Bytes limit = alignUp(pool_size, 2_MiB);
        if (length.value() > limit ||
            start.value() > limit - length.value())
            return configError("window start \"" + fields[0] +
                               "\" plus length \"" + fields[1] +
                               "\" runs past the " +
                               std::to_string(pool_size) +
                               "-byte pool");
        return MosaicLayout::withWindow(pool_size, start.value(),
                                        length.value(),
                                        PageSize::Page2M);
    }
    if (spec.rfind("config:", 0) == 0)
        return MosaicLayout::fromConfigString(pool_size, spec.substr(7));
    return configError("unknown layout spec \"" + spec + "\"");
}

} // namespace mosaic::cli

#endif // MOSAIC_TOOLS_LAYOUT_SPEC_HH
