/**
 * @file
 * Columnar, mmap-able, CRC-guarded trace store.
 *
 * The campaign's trace cache. Records are laid out
 * structure-of-arrays on disk — one dense u64 address column and one
 * dense u32 packed gap/flag column (traceStoreGapMask and friends) —
 * behind a versioned superblock. Every persistent byte is verifiable:
 *
 *  - the superblock carries its own CRC32 (a flipped bit in the
 *    metadata is detected before any offset is trusted);
 *  - each column section ends in a footer with a CRC32 over the
 *    section payload, so damage is localized and deterministic to
 *    detect;
 *  - a trailing commit marker echoes the superblock's generation and
 *    record count. Publication is atomic (temp file + fsync + rename,
 *    reusing io_util), and the marker is belt-and-braces on top: a
 *    file that was copied, truncated, or torn by a non-atomic writer
 *    is rejected as "torn commit" on open instead of silently
 *    replaying a prefix.
 *
 * open() maps the file read-only (zero-copy: the columns are consumed
 * in place via spans) and validates superblock, commit marker, and
 * section CRCs before handing out any data. A corrupt or torn store is
 * a recoverable condition: callers quarantine the file (rename to
 * "<path>.corrupt") and regenerate — see quarantineStoreFile() and the
 * campaign's obtainTrace().
 */

#ifndef MOSAIC_TRACE_TRACE_STORE_HH
#define MOSAIC_TRACE_TRACE_STORE_HH

#include <cstdint>
#include <span>
#include <string>

#include "support/error.hh"
#include "support/sim_context.hh"
#include "support/types.hh"
#include "trace/trace.hh"

namespace mosaic::trace
{

/** Magic bytes identifying a mosaic columnar trace store ("MTSC"). */
constexpr std::uint32_t traceStoreMagic = 0x4d545343;
constexpr std::uint32_t traceStoreVersion = 1;

/** Little-endian marker; reads back byte-swapped on big-endian. */
constexpr std::uint32_t traceStoreEndianTag = 0x01020304;

/** Magic of the per-section CRC footer ("SECT"). */
constexpr std::uint32_t traceStoreSectionMagic = 0x53454354;

/** Magic of the trailing commit marker ("CMMT"). */
constexpr std::uint32_t traceStoreCommitMagic = 0x434d4d54;

/** Canonical file extension of store files (includes the dot). */
constexpr const char *traceStoreExtension = ".mtsc";

/** Packed per-record metadata: gap | writeBit | dependsBit. */
constexpr std::uint32_t traceStoreGapMask = 0xffffu;
constexpr std::uint32_t traceStoreWriteBit = 1u << 16;
constexpr std::uint32_t traceStoreDependsBit = 1u << 17;

/**
 * A validated, memory-mapped trace store. Movable, not copyable; the
 * mapping lives until destruction, and the spans returned by vaddr()
 * and meta() point straight into it (zero-copy).
 */
class TraceStore
{
  public:
    /**
     * Map and validate @p path. Errors: Io (open/stat/mmap failed),
     * Corrupt (bad magic/version/endianness, superblock CRC mismatch,
     * torn commit marker, or a section CRC mismatch). A zero-byte file
     * is Corrupt — the shape a crashed non-atomic writer leaves — so
     * callers can treat it like any other quarantinable damage.
     */
    static Result<TraceStore> open(const std::string &path);

    /** As above, publishing metrics and fault hits via @p context. */
    static Result<TraceStore> open(const std::string &path,
                                   const SimContext &context);

    /**
     * Write @p trace to @p path as a store file, atomically: columns
     * and CRCs are staged into "<path>.tmp", fsynced, and renamed over
     * @p path, so a killed writer never publishes a torn store.
     */
    static Result<void> save(const MemoryTrace &trace,
                             const std::string &path);

    /** As above, publishing metrics and fault hits via @p context. */
    static Result<void> save(const MemoryTrace &trace,
                             const std::string &path,
                             const SimContext &context);

    TraceStore(TraceStore &&other) noexcept;
    TraceStore &operator=(TraceStore &&other) noexcept;
    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;
    ~TraceStore();

    /** Records in the store. */
    std::size_t size() const { return numRecords_; }

    /** The address column, one entry per record (mapped, zero-copy). */
    std::span<const VirtAddr> vaddr() const
    {
        return {vaddr_, numRecords_};
    }

    /** The packed gap/flag column (gap | writeBit | dependsBit). */
    std::span<const std::uint32_t> meta() const
    {
        return {meta_, numRecords_};
    }

    /** Generation stamped at save time (echoed by the commit marker). */
    std::uint64_t generation() const { return generation_; }

    /** Materialize a MemoryTrace (bit-identical to the trace saved). */
    MemoryTrace toTrace() const;

  private:
    TraceStore() = default;

    void *mapping_ = nullptr;
    std::size_t mapBytes_ = 0;
    const VirtAddr *vaddr_ = nullptr;
    const std::uint32_t *meta_ = nullptr;
    std::size_t numRecords_ = 0;
    std::uint64_t generation_ = 0;
};

/** @return true if @p path exists and starts with the store magic. */
bool isTraceStoreFile(const std::string &path);

/**
 * Load a store file and materialize the trace in one step: open(),
 * validate, toTrace(). Same error contract as open().
 */
Result<MemoryTrace> loadStoredTrace(const std::string &path,
                                    const SimContext &context);

/**
 * Quarantine a damaged store file: rename it to "<path>.corrupt"
 * (replacing any previous quarantine) so the evidence survives for
 * inspection while the cache slot is free for regeneration. Falls back
 * to removing the file when the rename itself fails. Returns the
 * quarantine path actually used ("" when nothing could be done).
 */
std::string quarantineStoreFile(const std::string &path);

} // namespace mosaic::trace

#endif // MOSAIC_TRACE_TRACE_STORE_HH
