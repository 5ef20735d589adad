/**
 * @file
 * The measurement campaign of Section VI: run every workload on every
 * platform under the 54 exploration layouts plus the all-1GB reference.
 *
 * Traces and layouts are prepared once per workload (they are
 * platform- and layout-independent), then every (platform, workload,
 * layout) cell is simulated by a work-queue scheduler over `jobs`
 * worker threads. Each worker owns a private metrics shard and a
 * SimContext, so the replay hot path never contends on the global
 * registry; shards merge into it — in worker order — when the pool
 * joins. Results land in canonically ordered slots, so the dataset
 * (and the saved CSV) is byte-identical for any worker count. A CSV
 * cache makes the campaign a run-once-per-checkout cost.
 *
 * The campaign is fault-tolerant at (platform, workload, layout) cell
 * granularity: a failing cell records a structured error and the
 * campaign continues, transient I/O failures are retried with capped
 * exponential backoff, completed samples are checkpointed to the CSV
 * cache with atomic writes, and an interrupted campaign resumes from
 * the partial cache, skipping cells already covered.
 */

#ifndef MOSAIC_EXPERIMENTS_CAMPAIGN_HH
#define MOSAIC_EXPERIMENTS_CAMPAIGN_HH

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cpu/platform.hh"
#include "experiments/dataset.hh"
#include "layouts/heuristics.hh"
#include "sampling/sample_plan.hh"
#include "support/error.hh"
#include "support/retry.hh"
#include "support/sim_context.hh"
#include "trace/trace.hh"
#include "vm/frame_pool.hh"
#include "workloads/registry.hh"

namespace mosaic::exp
{

/** What to run. */
struct CampaignConfig
{
    /** Paper labels of the workloads to run (empty = all 19). */
    std::vector<std::string> workloads;

    /** Platforms to run on (empty = the paper's three). */
    std::vector<cpu::PlatformSpec> platforms;

    /**
     * Worker threads for the cell scheduler; 0 picks the hardware
     * concurrency. The dataset produced is bit-identical for any
     * value.
     */
    unsigned jobs = 0;

    /**
     * Constructs workloads by paper label; unset uses the benchmark
     * registry (workloads::makeWorkload). Tests inject synthetic
     * workloads through this seam.
     */
    std::function<std::unique_ptr<workloads::Workload>(
        const std::string &)>
        workloadFactory;

    /** Also run the all-1GB layout (case study / sensitivity test). */
    bool include1g = true;

    /** Print progress lines to stderr. */
    bool verbose = true;

    std::uint64_t seed = 0x9a4d;

    /**
     * Directory for binary trace caches (one columnar .mtsc store per
     * workload — see trace::TraceStore); empty regenerates traces
     * in-memory every run. A corrupt, torn, or zero-byte store is
     * quarantined (renamed "*.corrupt") and regenerated, never fatal.
     */
    std::string traceCacheDir;

    /** Backoff schedule for transient (I/O) failures. */
    RetryPolicy retry;

    /**
     * Checkpoint the dataset to the cache path after this many
     * completed (platform, workload) pairs; 0 saves only at the end.
     * Only applies to loadOrRun()/runReport() with a cache path.
     */
    std::size_t checkpointEvery = 1;

    /**
     * Shard coordinates for multi-process campaigns ("--shard i/N"):
     * this process simulates only the cells the deterministic
     * round-robin partition (exp::shardOwnsCell over the canonical
     * slot order) assigns to shardIndex, and its dataset CSV carries
     * an embedded manifest so mosaic_merge can validate and splice the
     * shards back into the byte-identical canonical dataset.
     * shardCount <= 1 disables sharding.
     */
    unsigned shardIndex = 0;
    unsigned shardCount = 1;

    /**
     * OS-level memory management for every cell. The default
     * (unbounded) config reproduces the classic campaign bit for bit:
     * the dataset CSV keeps the legacy 19-field header and stays
     * byte-identical to a pre-OS-layer run. A bounded config
     * (memFrames > 0) simulates demand paging per cell and extends
     * every CSV row with the S (swap cycles) column.
     */
    vm::OsConfig os;

    /**
     * Multi-tenant interference: when set, every cell replays the
     * primary workload's layout round-robin interleaved against this
     * co-workload (backed with its all-4KB baseline layout) over one
     * *shared* bounded frame pool (cpu::simulateRunTenants), and the
     * recorded (R, H, M, C, S) row is the primary tenant's readout
     * under contention. Requires a bounded `os`; incompatible with
     * sharding (the partition hash does not cover co-tenancy).
     * Deterministic for any jobs count: each cell owns a private
     * shared pool, and the interleave order is fixed by tenant order.
     */
    std::string coWorkload;

    /**
     * Interval-sampled replay ("--sample-mode interval"): every cell
     * replays only one representative interval per behavior cluster
     * (plus warmup) and records the cluster-weighted extrapolated
     * counters, extending every CSV row with the est_err column (the
     * reported error bound). The plan is a pure function of (trace,
     * sampling config) — layout- and platform-independent — so it is
     * built once per workload and the dataset stays byte-identical
     * for any jobs/shard count. The default (mode off) reproduces the
     * full-replay campaign bit for bit. Incompatible with coWorkload
     * (the interleaved tenant engine replays whole traces).
     */
    sampling::SamplingConfig sampling;

    /**
     * Watchdog budget per cell, in seconds; 0 disables it. When the
     * cooperative deadline expires inside the replay loops, the cell
     * fails with a Timeout error and the campaign continues — a hung
     * cell is an isolated failure, never a wedged worker.
     */
    double cellTimeoutSeconds = 0.0;
};

/** One failed campaign cell, with the error that killed it. */
struct CellFailure
{
    std::string platform;
    std::string workload;

    /** Layout name, or "*" when the whole pair failed (trace, config). */
    std::string layout;

    Error error;
};

/** Outcome of a campaign: the samples plus a structured account of
 *  what failed, what was resumed, and what was retried. */
struct CampaignReport
{
    Dataset dataset;
    std::vector<CellFailure> failures;

    /** Cells simulated successfully in this run. */
    std::size_t cellsCompleted = 0;

    /** Cells skipped because the resume cache already covered them. */
    std::size_t cellsResumed = 0;

    /** Transient-failure retries performed (trace cache I/O). */
    std::size_t retriesPerformed = 0;

    /** Mid-campaign checkpoint flushes written. */
    std::size_t checkpointsWritten = 0;

    bool allOk() const { return failures.empty(); }

    /** Multi-line human-readable summary (counts + failed cells). */
    std::string summary() const;
};

/** One simulated cell: exactly one of record/failure is set. */
struct CellOutcome
{
    std::optional<RunRecord> record;
    std::optional<CellFailure> failure;
};

/**
 * The config combinations no cell could survive, checked once for every
 * caller (the runner, runPair and the serve cold fill): sampled replay
 * with a co-workload (the interleaved tenant engine replays whole
 * traces), a co-workload without a bounded frame pool (the interleave
 * needs one shared pool), and a sharded co-workload campaign (the
 * partition hash does not cover co-tenancy). Config errors, never a
 * panic.
 */
Result<void> checkCampaignConfig(const CampaignConfig &config);

/** The interference partner of a co-workload campaign (trace plus
 *  all-4KB baseline); defined in campaign.cc. */
struct CoTenant;

/**
 * Everything the cells of one workload share, built once: the trace,
 * the 54 (+ all-1GB) layouts, the sample plan of a sampled campaign and
 * the co-tenant of a co-workload one. None of it depends on the
 * platform, so one value serves every platform's cells.
 */
struct PreparedWorkload
{
    /** Not owned: the caller keeps the workload alive while its cells
     *  run. */
    const workloads::Workload *workload = nullptr;
    std::shared_ptr<const trace::MemoryTrace> trace;
    std::vector<layouts::NamedLayout> layouts;

    /** Sampled campaigns only (layout- and platform-independent). */
    std::shared_ptr<const sampling::SamplePlan> plan;

    /** Co-workload campaigns only. */
    std::shared_ptr<const CoTenant> co;
};

/**
 * Prepare one workload's cells. The trace comes from @p trace when
 * given (an in-memory cache), else from the configured columnar store
 * cache — retried with config.retry, a damaged store quarantined as
 * "*.corrupt" and regenerated — or fresh generation. The co-tenant is
 * @p co when given, else prepared here when config.coWorkload is set.
 * Transient retries are added to @p retries. Any failure fails the
 * whole (platform, workload) pair. An expired @p context deadline is
 * a Timeout error, checked before the trace is obtained and again
 * before the layouts and sample plan are built.
 */
Result<PreparedWorkload>
prepareWorkload(const workloads::Workload &workload,
                const CampaignConfig &config, std::size_t &retries,
                const SimContext &context,
                std::shared_ptr<const trace::MemoryTrace> trace = nullptr,
                std::shared_ptr<const CoTenant> co = nullptr);

/**
 * Simulate one (platform, workload, layout) cell: full or sampled
 * replay, single-tenant or interleaved against the co-tenant, under
 * config.os. A cellTimeoutSeconds budget tightens @p context's deadline.
 * Failures never throw; they map to one CellFailure each — Resource
 * (the frame budget cannot hold the cell), Timeout (the deadline fired)
 * or Internal (anything else) — and count campaign/cells_failed (plus
 * campaign/cells_timed_out) in @p context's metrics.
 */
CellOutcome simulateCellResult(const cpu::PlatformSpec &platform,
                               const PreparedWorkload &prepared,
                               const layouts::NamedLayout &named,
                               const CampaignConfig &config,
                               const SimContext &context);

/**
 * Runs campaigns and serves cached results.
 */
class CampaignRunner
{
  public:
    explicit CampaignRunner(CampaignConfig config = CampaignConfig());

    /** Run everything (no cache), reporting per-cell failures. */
    CampaignReport runReport();

    /**
     * Resume from @p cache_path if it exists (cells already covered
     * are not recomputed), checkpoint completed pairs back to it
     * atomically, and save the final dataset there.
     */
    CampaignReport runReport(const std::string &cache_path);

    /** Run everything (no cache); warns if any cell failed. */
    Dataset run();

    /**
     * Load @p cache_path if it exists and covers the configured
     * (platform, workload) grid; otherwise resume/run and save.
     */
    Dataset loadOrRun(const std::string &cache_path);

    /**
     * Run one (workload, platform) pair: prepareWorkload() plus one
     * simulateCellResult() per layout, appending records to
     * @p dataset. Layout names in @p done_layouts are skipped
     * (campaign resume). Failing cells are returned, not thrown; a
     * deadline that passes during prep fails every cell as Timeout.
     */
    static std::vector<CellFailure> runPair(
        const workloads::Workload &workload,
        const cpu::PlatformSpec &platform, const CampaignConfig &config,
        Dataset &dataset,
        const std::set<std::string> *done_layouts = nullptr,
        std::size_t *retries = nullptr,
        const SimContext &context = globalSimContext());

    const CampaignConfig &config() const { return config_; }

    /** Scheduler width: config jobs, or hardware concurrency when 0. */
    unsigned effectiveJobs() const;

    /** Cells expected per (platform, workload) pair: 54 (+ all-1GB). */
    std::size_t
    expectedCellsPerPair() const
    {
        return layouts::numPaperCampaignLayouts +
               (config_.include1g ? 1 : 0);
    }

  private:
    CampaignReport runImpl(const std::string *cache_path);

    CampaignConfig config_;
};

/**
 * Filesystem-safe trace-cache file stem for a workload label:
 * sanitized label plus a short hash of the raw label, so distinct
 * labels ("spec06/mcf" vs "spec06_mcf") never share a cache file.
 */
std::string traceCacheStem(const std::string &label);

/** Default cache location used by all bench binaries and examples. */
std::string defaultDatasetPath();

/**
 * Convenience used by every bench binary: full-grid campaign, cached
 * at defaultDatasetPath().
 */
Dataset loadOrRunDefaultCampaign();

} // namespace mosaic::exp

#endif // MOSAIC_EXPERIMENTS_CAMPAIGN_HH
