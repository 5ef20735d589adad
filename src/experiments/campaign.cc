#include "experiments/campaign.hh"

#include <array>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "cpu/system.hh"
#include "experiments/shard.hh"
#include "sampling/sampled_run.hh"
#include "support/io_util.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/retry.hh"
#include "trace/miss_profile.hh"
#include "trace/trace_store.hh"

namespace mosaic::exp
{

std::string
traceCacheStem(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
            c != '_') {
            c = '_';
        }
    }
    // Sanitizing alone collides distinct labels ("spec06/mcf" and
    // "spec06_mcf" both map to "spec06_mcf"), which would let one
    // workload silently replay another's cached trace. A short hash of
    // the raw label keeps the stem unique per label.
    char hash[16];
    std::snprintf(hash, sizeof hash, "-%08x",
                  crc32(label.data(), label.size()));
    return out + hash;
}

/** The interference partner of a co-workload campaign, prepared once:
 *  its trace and its fixed all-4KB baseline layout are shared by every
 *  cell (the exploration variable is the primary tenant's layout). */
struct CoTenant
{
    std::unique_ptr<workloads::Workload> workload;
    std::shared_ptr<const trace::MemoryTrace> trace;
    alloc::MosallocConfig config;
};

namespace
{

/**
 * Produce the workload's trace, preferring the columnar store cache
 * (trace::TraceStore) when configured. Cache damage is recoverable by
 * construction: a store that exists but cannot be loaded — corrupt
 * columns, a torn commit, a zero-byte file, or an unreadable file even
 * after the transient-retry schedule — is quarantined (renamed
 * "*.corrupt") and the trace regenerated; a failed re-save costs only
 * the cache. Observability and fault sites go through @p context, so
 * concurrent workers publish into their own shards.
 */
Result<trace::MemoryTrace>
obtainTrace(const workloads::Workload &workload,
            const CampaignConfig &config, std::size_t &retries,
            const SimContext &context)
{
    MetricsRegistry &registry = context.metrics();
    ScopedTimer timer(registry, "campaign/trace");
    const std::string label = workload.info().label();
    std::string cache_path;
    if (!config.traceCacheDir.empty()) {
        if (auto made = ensureDirectory(config.traceCacheDir);
            !made.ok()) {
            // No usable cache dir: fall through to in-memory traces
            // instead of burning a retry schedule per pair.
            mosaic_warn("trace cache disabled: ", made.error().str());
        } else {
            cache_path = config.traceCacheDir + "/" +
                         traceCacheStem(label) +
                         trace::traceStoreExtension;
        }
    }
    if (!cache_path.empty()) {
        std::ifstream probe(cache_path);
        const bool exists = probe.good();
        probe.close();
        if (exists) {
            std::size_t attempt_retries = 0;
            auto loaded = retryWithBackoff(
                config.retry,
                [&] {
                    return trace::loadStoredTrace(cache_path, context);
                },
                &attempt_retries);
            retries += attempt_retries;
            if (loaded.ok()) {
                registry.add("trace_store/hits");
                return loaded;
            }
            // The file is there but cannot be trusted (zero bytes, CRC
            // mismatch, torn commit, persistent I/O failure): move it
            // aside so the evidence survives for inspection, and
            // regenerate into the now-free slot.
            registry.add("trace_store/quarantined");
            registry.add("trace_store/regens");
            std::string quarantined =
                trace::quarantineStoreFile(cache_path);
            mosaic_warn("trace store for ", label, " unusable (",
                        loaded.error().str(), "); ",
                        quarantined.empty()
                            ? std::string("removed; regenerating")
                            : "quarantined to " + quarantined +
                                  "; regenerating");
        } else {
            registry.add("trace_store/misses");
        }
    }

    trace::MemoryTrace generated;
    try {
        ScopedTimer generate(registry, "campaign/trace/generate");
        generated = workload.generateTrace();
    } catch (const std::exception &e) {
        return Error(ErrorCategory::Internal,
                     std::string("trace generation failed: ") + e.what())
            .withContext("workload " + label);
    }

    if (!cache_path.empty()) {
        std::size_t attempt_retries = 0;
        auto saved = retryWithBackoff(
            config.retry,
            [&] {
                return trace::TraceStore::save(generated, cache_path,
                                               context);
            },
            &attempt_retries);
        retries += attempt_retries;
        if (!saved.ok()) {
            // The cache is an optimization; losing it is not a cell
            // failure.
            registry.add("trace_store/save_failures");
            mosaic_warn("cannot cache trace for ", label, ": ",
                        saved.error().str());
        }
    }
    return generated;
}

/** The 54-layout exploration plus the optional all-1GB reference.
 *  Layouts depend only on (trace, pool, seed) — never the platform —
 *  so one set serves every platform of a workload. */
Result<std::vector<layouts::NamedLayout>>
buildCampaignLayouts(const workloads::Workload &workload,
                     const trace::MemoryTrace &trace,
                     const CampaignConfig &config)
{
    try {
        trace::MissProfile profile(trace, workload.primaryPoolBase(),
                                   workload.primaryPoolSize());
        auto layouts = layouts::paperCampaignLayouts(
            workload.primaryPoolSize(), profile, config.seed);
        if (config.include1g) {
            layouts.push_back(layouts::uniformLayout(
                workload.primaryPoolSize(), alloc::PageSize::Page1G));
        }
        return layouts;
    } catch (const std::exception &e) {
        return Error(ErrorCategory::Internal,
                     std::string("layout construction failed: ") +
                         e.what());
    }
}

/** Construct a workload via the configured factory (tests) or the
 *  benchmark registry (default). May throw; callers map the throw to
 *  a Config-category pair failure. */
std::unique_ptr<workloads::Workload>
makeConfiguredWorkload(const CampaignConfig &config,
                       const std::string &label)
{
    if (config.workloadFactory)
        return config.workloadFactory(label);
    return workloads::makeWorkload(label);
}

/** Build the workload's sampling plan (layout/platform-independent;
 *  one per workload). Construction failures are structured Internal
 *  errors that fail the pair, matching the layout builder. */
Result<sampling::SamplePlan>
buildWorkloadSamplePlan(const trace::MemoryTrace &trace,
                        const CampaignConfig &config,
                        const SimContext &context)
{
    try {
        ScopedTimer timer(context.metrics(), "campaign/sample_plan");
        auto plan = sampling::buildSamplePlan(trace, config.sampling);
        context.metrics().add("campaign/sample_plans");
        context.metrics().add("campaign/sample_plan_records_replayed",
                              plan.recordsReplayed);
        context.metrics().add("campaign/sample_plan_records_total",
                              plan.traceRecords);
        return plan;
    } catch (const std::exception &e) {
        return Error(ErrorCategory::Internal,
                     std::string("sample plan construction failed: ") +
                         e.what());
    }
}

/**
 * One cell's replay: sampled (the plan's segments, extrapolated back
 * to full-run counters), single-tenant on the sequential engine, or —
 * when a co-tenant is present — the primary layout interleaved against
 * the co-workload's baseline over one shared bounded pool. The result
 * is always the primary tenant's readout.
 */
cpu::RunResult
replayCell(const cpu::PlatformSpec &platform,
           const PreparedWorkload &prepared,
           const layouts::NamedLayout &named,
           const CampaignConfig &config, double *est_err,
           const SimContext &context)
{
    const alloc::MosallocConfig primary =
        prepared.workload->makeAllocConfig(named.layout);
    if (prepared.plan) {
        // checkCampaignConfig keeps sampling single-tenant.
        auto estimate = sampling::simulateSampled(
            platform, primary, *prepared.trace, *prepared.plan,
            config.os, context);
        *est_err = estimate.estErr;
        return estimate.estimate;
    }
    if (!prepared.co) {
        return cpu::simulateRun(platform, primary, *prepared.trace,
                                config.os, context);
    }
    const std::array<alloc::MosallocConfig, 2> configs = {
        primary, prepared.co->config};
    const std::array<const trace::MemoryTrace *, 2> traces = {
        prepared.trace.get(), prepared.co->trace.get()};
    return cpu::simulateRunTenants(platform, configs, traces, config.os,
                                   context)[0];
}

/** Prepare config.coWorkload once: its trace and fixed all-4KB
 *  baseline layout are inputs to every cell of every workload.
 *  Construction failures are Config errors; trace failures keep their
 *  category. */
Result<std::shared_ptr<const CoTenant>>
prepareCoTenant(const CampaignConfig &config, std::size_t &retries,
                const SimContext &context)
{
    auto co = std::make_shared<CoTenant>();
    try {
        co->workload = makeConfiguredWorkload(config, config.coWorkload);
    } catch (const std::exception &e) {
        return Error(ErrorCategory::Config,
                     std::string("co-workload construction failed: ") +
                         e.what())
            .withContext("co-workload " + config.coWorkload);
    }
    auto trace_result =
        obtainTrace(*co->workload, config, retries, context);
    if (!trace_result.ok()) {
        return trace_result.error().withContext("co-workload " +
                                                config.coWorkload);
    }
    co->trace = std::make_shared<const trace::MemoryTrace>(
        std::move(trace_result).okOrThrow());
    try {
        auto baseline = layouts::uniformLayout(
            co->workload->primaryPoolSize(), alloc::PageSize::Page4K);
        co->config = co->workload->makeAllocConfig(baseline.layout);
    } catch (const std::exception &e) {
        return Error(ErrorCategory::Config,
                     std::string("co-workload baseline layout "
                                 "failed: ") +
                         e.what())
            .withContext("co-workload " + config.coWorkload);
    }
    return std::shared_ptr<const CoTenant>(std::move(co));
}

} // namespace

Result<void>
checkCampaignConfig(const CampaignConfig &config)
{
    if (config.coWorkload.empty())
        return {};
    if (config.sampling.enabled()) {
        return configError("sampled replay is incompatible with "
                           "co-workload interference");
    }
    if (!config.os.paged()) {
        return configError("co-workload interference requires a "
                           "bounded frame pool (--mem-frames > 0)");
    }
    if (config.shardCount > 1)
        return configError("co-workload campaigns cannot be sharded");
    return {};
}

Result<PreparedWorkload>
prepareWorkload(const workloads::Workload &workload,
                const CampaignConfig &config, std::size_t &retries,
                const SimContext &context,
                std::shared_ptr<const trace::MemoryTrace> trace,
                std::shared_ptr<const CoTenant> co)
{
    // An expired deadline (a serve query's, or runPair's caller's)
    // would fail every cell; stop before building work they would
    // throw away.
    if (context.expired())
        return timeoutError("deadline passed before the trace was "
                            "obtained");
    PreparedWorkload prepared;
    prepared.workload = &workload;
    prepared.trace = std::move(trace);
    if (!prepared.trace) {
        auto obtained = obtainTrace(workload, config, retries, context);
        if (!obtained.ok())
            return obtained.error();
        prepared.trace = std::make_shared<const trace::MemoryTrace>(
            std::move(obtained).okOrThrow());
    }
    prepared.co = std::move(co);
    if (!prepared.co && !config.coWorkload.empty()) {
        auto made = prepareCoTenant(config, retries, context);
        if (!made.ok())
            return made.error();
        prepared.co = std::move(made).okOrThrow();
    }
    if (context.expired())
        return timeoutError("deadline passed before the layouts were "
                            "derived");
    auto layouts_result =
        buildCampaignLayouts(workload, *prepared.trace, config);
    if (!layouts_result.ok())
        return layouts_result.error();
    prepared.layouts = std::move(layouts_result).okOrThrow();
    if (config.sampling.enabled()) {
        auto plan = buildWorkloadSamplePlan(*prepared.trace, config,
                                            context);
        if (!plan.ok())
            return plan.error();
        prepared.plan = std::make_shared<const sampling::SamplePlan>(
            std::move(plan).okOrThrow());
    }
    return prepared;
}

CellOutcome
simulateCellResult(const cpu::PlatformSpec &platform,
                   const PreparedWorkload &prepared,
                   const layouts::NamedLayout &named,
                   const CampaignConfig &config,
                   const SimContext &context)
{
    // Each cell gets one budget; the cooperative deadline is checked
    // inside the replay loops (per chunk), so an expired budget
    // surfaces below as TimeoutError. A caller's earlier deadline (a
    // serve query's) still wins.
    SimContext cell_context = context;
    if (config.cellTimeoutSeconds > 0.0) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(config.cellTimeoutSeconds));
        if (!context.hasDeadline() || deadline < context.deadline())
            cell_context = context.withDeadline(deadline);
    }

    MetricsRegistry &registry = context.metrics();
    const std::string label = prepared.workload->info().label();
    CellOutcome outcome;
    ScopedTimer cell_timer(registry, "campaign/cell");
    try {
        RunRecord record;
        record.platform = platform.name;
        record.workload = label;
        record.layout = named.name;
        record.result = replayCell(platform, prepared, named, config,
                                   &record.estErr, cell_context);
        outcome.record = std::move(record);
        return outcome;
    } catch (const ResourceError &e) {
        // The frame budget cannot hold the cell's pages: an isolated,
        // structured Resource failure — the pool exhaustion analog of
        // a timeout.
        outcome.failure = CellFailure{platform.name, label, named.name,
                                      Error(ErrorCategory::Resource,
                                            e.what())};
    } catch (const TimeoutError &e) {
        // The watchdog fired: a hung cell is an isolated Timeout
        // failure, not a wedged worker.
        registry.add("campaign/cells_timed_out");
        outcome.failure = CellFailure{platform.name, label, named.name,
                                      timeoutError(e.what())};
    } catch (const std::exception &e) {
        // One bad cell must not take down the pair: record it and keep
        // simulating the remaining layouts.
        outcome.failure = CellFailure{platform.name, label, named.name,
                                      Error(ErrorCategory::Internal,
                                            e.what())};
    }
    registry.add("campaign/cells_failed");
    return outcome;
}

std::string
CampaignReport::summary() const
{
    std::string out =
        "campaign: " + std::to_string(cellsCompleted) +
        " cell(s) completed, " + std::to_string(cellsResumed) +
        " resumed from cache, " + std::to_string(retriesPerformed) +
        " transient retries, " + std::to_string(checkpointsWritten) +
        " checkpoints\n";
    if (failures.empty()) {
        out += "campaign: no failed cells\n";
        return out;
    }
    out += "campaign: " + std::to_string(failures.size()) +
           " cell(s) FAILED:\n";
    for (const auto &failure : failures) {
        out += "  " + failure.platform + "/" + failure.workload + "/" +
               failure.layout + ": " + failure.error.str() + "\n";
    }
    return out;
}

CampaignRunner::CampaignRunner(CampaignConfig config)
    : config_(std::move(config))
{
    if (config_.workloads.empty())
        config_.workloads = workloads::workloadLabels();
    if (config_.platforms.empty())
        config_.platforms = cpu::paperPlatforms();
}

unsigned
CampaignRunner::effectiveJobs() const
{
    if (config_.jobs > 0)
        return config_.jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 2;
}

std::vector<CellFailure>
CampaignRunner::runPair(const workloads::Workload &workload,
                        const cpu::PlatformSpec &platform,
                        const CampaignConfig &config, Dataset &dataset,
                        const std::set<std::string> *done_layouts,
                        std::size_t *retries, const SimContext &context)
{
    if (config.os.paged())
        dataset.setSwapColumn(true);
    if (config.sampling.enabled())
        dataset.setEstErrColumn(true);
    auto pairFailure = [&](Error error) {
        return std::vector<CellFailure>{{platform.name,
                                         workload.info().label(), "*",
                                         std::move(error)}};
    };
    if (auto checked = checkCampaignConfig(config); !checked.ok())
        return pairFailure(checked.error());

    std::size_t prep_retries = 0;
    auto prepared =
        prepareWorkload(workload, config, prep_retries, context);
    if (retries)
        *retries += prep_retries;
    std::vector<CellFailure> failures;
    if (!prepared.ok()) {
        if (prepared.error().category() != ErrorCategory::Timeout)
            return pairFailure(prepared.error());
        // The deadline passed during prep: every cell fails as Timeout,
        // counted as simulateCellResult counts a cell's own timeout.
        // The names are structural, so no trace is needed for them.
        std::vector<std::string> names =
            layouts::paperCampaignLayoutNames();
        if (config.include1g)
            names.push_back(layoutAll1g);
        for (const auto &name : names) {
            if (done_layouts && done_layouts->count(name))
                continue;
            context.metrics().add("campaign/cells_timed_out");
            context.metrics().add("campaign/cells_failed");
            failures.push_back({platform.name, workload.info().label(),
                                name, prepared.error()});
        }
        return failures;
    }
    for (const auto &named : prepared.value().layouts) {
        if (done_layouts && done_layouts->count(named.name))
            continue;
        CellOutcome cell = simulateCellResult(platform, prepared.value(),
                                              named, config, context);
        if (cell.record)
            dataset.add(std::move(*cell.record));
        else
            failures.push_back(std::move(*cell.failure));
    }
    return failures;
}

CampaignReport
CampaignRunner::runImpl(const std::string *cache_path)
{
    CampaignReport report;
    const bool swap_column = config_.os.paged();
    if (swap_column)
        report.dataset.setSwapColumn(true);
    const bool sampled = config_.sampling.enabled();
    if (sampled)
        report.dataset.setEstErrColumn(true);

    if (auto checked = checkCampaignConfig(config_); !checked.ok()) {
        report.failures.push_back(
            {"*", config_.coWorkload, "*", checked.error()});
        return report;
    }

    using Key = std::pair<std::string, std::string>;
    std::map<Key, std::set<std::string>> covered;

    // Resumed cells, three ways: the raw cache (row order preserved,
    // for pairs kept wholesale), a keyed index (for splicing resumed
    // cells back into canonical layout positions of partially-done
    // pairs), and a deduplicated base dataset (checkpoint snapshots).
    std::optional<Dataset> resume_data;
    std::map<std::array<std::string, 3>, RunRecord> resumed_records;
    Dataset resumed_base;
    resumed_base.setSwapColumn(swap_column);
    resumed_base.setEstErrColumn(sampled);

    // Resume: fold the (possibly partial, possibly damaged) cache and
    // remember which cells it already covers. The cache may hold
    // duplicate rows (a checkpoint that fired mid-pair on a run that
    // later appended the same pair again); the per-pair done set keeps
    // only the first occurrence of each layout.
    if (cache_path) {
        std::ifstream probe(*cache_path);
        if (probe.good()) {
            probe.close();
            ScopedTimer resume_timer(metrics(), "campaign/resume");
            std::size_t load_retries = 0;
            auto cached = retryWithBackoff(
                config_.retry,
                [&] { return Dataset::loadResult(*cache_path); },
                &load_retries);
            report.retriesPerformed += load_retries;
            if (cached.ok() &&
                (cached.value().swapColumn() != swap_column ||
                 cached.value().estErrColumn() != sampled)) {
                // A cache in a different CSV format holds rows
                // measured under different semantics (OS layer, or
                // full vs sampled replay); splicing them in would mix
                // incommensurable counters.
                mosaic_warn("campaign cache ", *cache_path,
                            " has a different CSV format (swap column ",
                            cached.value().swapColumn() ? "present"
                                                        : "absent",
                            ", est_err column ",
                            cached.value().estErrColumn() ? "present"
                                                          : "absent",
                            "); starting fresh");
            } else if (cached.ok()) {
                resume_data = std::move(cached.value());
                for (const auto &platform : config_.platforms) {
                    for (const auto &label : config_.workloads) {
                        if (!resume_data->has(platform.name, label))
                            continue;
                        auto &done = covered[{platform.name, label}];
                        for (const auto &record :
                             resume_data->runs(platform.name, label)) {
                            if (!done.insert(record.layout).second)
                                continue;
                            resumed_base.add(record);
                            resumed_records.emplace(
                                std::array<std::string, 3>{
                                    platform.name, label, record.layout},
                                record);
                            ++report.cellsResumed;
                        }
                    }
                }
                metrics().add("campaign/cells_resumed",
                              report.cellsResumed);
                if (config_.verbose && report.cellsResumed > 0) {
                    mosaic_inform("campaign: resuming, ",
                                  report.cellsResumed,
                                  " cell(s) already in ", *cache_path);
                }
            } else {
                mosaic_warn("campaign cache ", *cache_path,
                            " unusable (", cached.error().str(),
                            "); starting fresh");
            }
        }
    }

    // The interference partner is prepared once, up front: its trace
    // and baseline layout are inputs to *every* cell, so a co-workload
    // that cannot be built fails the campaign as a whole (one
    // structured Config/Io failure), not cell by cell.
    std::shared_ptr<const CoTenant> co_tenant;
    if (!config_.coWorkload.empty()) {
        std::size_t co_retries = 0;
        auto prepared =
            prepareCoTenant(config_, co_retries, globalSimContext());
        report.retriesPerformed += co_retries;
        if (!prepared.ok()) {
            report.failures.push_back(
                {"*", config_.coWorkload, "*", prepared.error()});
            return report;
        }
        co_tenant = std::move(prepared).okOrThrow();
    }

    // ---- Schedule: one shared state per distinct workload, pairs in
    // grid order. The pair/cell orders fixed here define the canonical
    // result order, independent of how workers interleave. ----

    /** One distinct workload of the grid and its prepared cells. */
    struct WorkloadState
    {
        std::string label;
        std::unique_ptr<workloads::Workload> workload;
        PreparedWorkload prep;
        std::size_t retries = 0;
        std::optional<Error> error;
    };

    struct PairTask
    {
        std::size_t state;
        const cpu::PlatformSpec *platform;
        const std::set<std::string> *done = nullptr;

        /** Open cells; decremented under the progress mutex. */
        std::size_t cellsRemaining = 0;

        /** Position in the deduplicated grid walk — the pair's
         *  coordinate in the shard partition, identical in every
         *  shard of a campaign. */
        std::size_t ordinal = 0;
    };

    const bool sharded = config_.shardCount > 1;
    const std::size_t cells_per_pair = expectedCellsPerPair();
    auto ownsCell = [&](const PairTask &pair, std::size_t layout) {
        return !sharded ||
               shardOwnsCell(config_.shardIndex, config_.shardCount,
                             pair.ordinal, layout, cells_per_pair);
    };

    std::vector<WorkloadState> states;
    std::map<std::string, std::size_t> state_index;
    std::vector<PairTask> pairs;
    std::vector<Key> covered_pairs;
    std::set<Key> scheduled;
    std::size_t grid_ordinal = 0;
    for (const auto &label : config_.workloads) {
        for (const auto &platform : config_.platforms) {
            if (!scheduled.insert({platform.name, label}).second)
                continue; // pair named twice in the grid; run it once
            const std::size_t ordinal = grid_ordinal++;
            if (sharded &&
                shardCellsOfPair(config_.shardIndex, config_.shardCount,
                                 ordinal, cells_per_pair) == 0)
                continue; // the partition gave this pair to others
            auto it = covered.find({platform.name, label});
            const std::set<std::string> *done =
                it == covered.end() ? nullptr : &it->second;
            // A fully covered pair keeps its cached rows without even
            // a trace — but only unsharded: a shard always preps its
            // pairs, because the shard manifest must name the pair's
            // canonical layout order and only the layout builder knows
            // it.
            if (!sharded && done &&
                done->size() >= expectedCellsPerPair()) {
                covered_pairs.push_back({platform.name, label});
                continue;
            }
            auto [state_it, inserted] =
                state_index.try_emplace(label, states.size());
            if (inserted)
                states.push_back({label, nullptr, {}, 0, {}});
            pairs.push_back(
                {state_it->second, &platform, done, 0, ordinal});
        }
    }

    const unsigned jobs = effectiveJobs();
    auto runPool = [](unsigned n, auto &&body) {
        std::vector<std::thread> pool;
        for (unsigned i = 0; i < n; ++i)
            pool.emplace_back(body, i);
        for (auto &thread : pool)
            thread.join();
    };

    // ---- Phase 1: prepare workloads (factory + prepareWorkload) in
    // parallel. Each worker publishes into a private shard. ----
    const unsigned prep_jobs = std::min<unsigned>(
        jobs, std::max<std::size_t>(states.size(), 1));
    std::vector<MetricsRegistry> prep_shards(prep_jobs);
    std::atomic<std::size_t> next_state{0};
    StopWatch campaign_watch;
    runPool(prep_jobs, [&](unsigned worker) {
        SimContext context(prep_shards[worker], faults(), config_.seed,
                           worker);
        while (true) {
            std::size_t index = next_state.fetch_add(1);
            if (index >= states.size())
                return;
            WorkloadState &state = states[index];
            try {
                state.workload =
                    makeConfiguredWorkload(config_, state.label);
            } catch (const std::exception &e) {
                state.error = Error(ErrorCategory::Config, e.what());
                continue;
            }
            auto prepared =
                prepareWorkload(*state.workload, config_, state.retries,
                                context, nullptr, co_tenant);
            if (!prepared.ok()) {
                state.error = prepared.error();
                continue;
            }
            state.prep = std::move(prepared).okOrThrow();
        }
    });

    // ---- Phase 2: simulate every open cell over the worker pool.
    // The cell list (and the slot each result lands in) is in
    // canonical order: pairs in grid order, layouts in builder order —
    // the exact order the old sequential engine produced. ----
    struct Cell
    {
        std::size_t pair;
        std::size_t layout;
    };

    std::vector<Cell> cells;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        PairTask &pair = pairs[p];
        const WorkloadState &state = states[pair.state];
        if (state.error)
            continue; // whole pair failed in prep; reported below
        for (std::size_t li = 0; li < state.prep.layouts.size(); ++li) {
            if (!ownsCell(pair, li))
                continue; // another shard's cell
            if (pair.done && pair.done->count(state.prep.layouts[li].name))
                continue;
            cells.push_back({p, li});
            ++pair.cellsRemaining;
        }
    }
    // Pairs this run resolves: ones with open cells plus ones whose
    // prep failed. Both advance the checkpoint cadence, as in the
    // sequential engine — a failed pair still flushes progress, so a
    // later crash resumes from the freshest state.
    std::size_t failed_pairs = 0;
    std::size_t live_pairs = 0;
    for (const auto &pair : pairs) {
        if (states[pair.state].error)
            ++failed_pairs;
        else if (pair.cellsRemaining > 0)
            ++live_pairs;
    }
    const std::size_t total_pairs = live_pairs + failed_pairs;

    std::vector<CellOutcome> slots(cells.size());
    std::mutex progress_mutex;
    std::atomic<std::size_t> next_cell{0};
    std::size_t cells_done = 0;
    std::size_t pairs_done = 0;
    std::size_t since_checkpoint = 0;

    // Everything that defines the shard partition, hashed: two shard
    // CSVs merge only when these agree.
    std::vector<std::string> platform_names;
    for (const auto &platform : config_.platforms)
        platform_names.push_back(platform.name);
    // The OS configuration changes every cell's counters, so it must
    // be part of the partition identity: shards of a paging campaign
    // never merge with shards of a classic one (or of a paging
    // campaign with different frame budget, policy, or costs). Folding
    // it into the seed reuses the existing hash without changing the
    // manifest format.
    std::uint64_t partition_seed = config_.seed;
    if (config_.os.paged()) {
        const std::string os_tag = detail::concat(
            "os/", config_.os.memFrames, "/",
            vm::replacementPolicyName(config_.os.policy), "/",
            config_.os.majorFaultCycles, "/",
            config_.os.writebackCycles);
        partition_seed ^= (0x6f73ULL << 32) |
                          crc32(os_tag.data(), os_tag.size());
    }
    // Sampled counters are incommensurable with full-replay ones for
    // the same reason, and so are two different sampling configs:
    // fold the sampling tag in exactly like the OS tag.
    if (sampled) {
        const std::string sample_tag = config_.sampling.tag();
        partition_seed ^= (0x73616dULL << 32) |
                          crc32(sample_tag.data(), sample_tag.size());
    }
    const std::uint32_t config_hash = shardConfigHash(
        config_.workloads, platform_names, config_.include1g,
        partition_seed, cells_per_pair, config_.shardCount);
    std::size_t expected_cells = 0;
    for (const auto &pair : pairs) {
        expected_cells +=
            shardCellsOfPair(config_.shardIndex, config_.shardCount,
                             pair.ordinal, cells_per_pair);
    }

    // The embedded manifest appended to every sharded CSV write
    // (checkpoints included, so even a killed shard leaves a valid —
    // merely incomplete — shard file behind for a degraded merge).
    // Canonical layout order per pair comes from the prepped states;
    // pairs whose prep failed contribute no order line and no rows.
    auto makeShardTrailer = [&](const Dataset &snapshot) -> std::string {
        if (!sharded)
            return "";
        std::vector<ShardPairOrder> order;
        for (const auto &pair : pairs) {
            const WorkloadState &state = states[pair.state];
            if (state.error || state.prep.layouts.empty())
                continue;
            ShardPairOrder entry;
            entry.platform = pair.platform->name;
            entry.workload = state.label;
            for (std::size_t li = 0; li < state.prep.layouts.size(); ++li) {
                entry.layouts.push_back(state.prep.layouts[li].name);
                entry.owned.push_back(ownsCell(pair, li));
            }
            order.push_back(std::move(entry));
        }
        ShardManifest manifest;
        manifest.shardIndex = config_.shardIndex;
        manifest.shardCount = config_.shardCount;
        manifest.cells = snapshot.totalRuns();
        manifest.expected = expected_cells;
        manifest.cellsPerPair = cells_per_pair;
        manifest.configHash = config_hash;
        const std::string csv = snapshot.toCsv();
        const std::size_t header_bytes =
            std::string(snapshot.csvHeader()).size() + 1; // + '\n'
        manifest.rowCrc = crc32(csv.data() + header_bytes,
                                csv.size() - header_bytes);
        return formatShardTrailer(manifest, order);
    };

    // Called under progress_mutex. Checkpoint loss is survivable (the
    // final save still happens); warn and continue. The snapshot walks
    // the slots in canonical order, so even a mid-run checkpoint CSV
    // is deterministic given the same set of completed cells.
    auto checkpointLocked = [&]() {
        ScopedTimer checkpoint_timer(metrics(), "campaign/checkpoint");
        Dataset snapshot = resumed_base;
        for (const auto &slot : slots) {
            if (slot.record)
                snapshot.add(*slot.record);
        }
        std::size_t save_retries = 0;
        auto saved = retryWithBackoff(
            config_.retry,
            [&] {
                return snapshot.saveResult(*cache_path,
                                           makeShardTrailer(snapshot));
            },
            &save_retries);
        report.retriesPerformed += save_retries;
        if (saved.ok()) {
            ++report.checkpointsWritten;
            metrics().add("campaign/checkpoints");
        } else {
            mosaic_warn("campaign checkpoint to ", *cache_path,
                        " failed: ", saved.error().str());
        }
    };

    // Account for prep-failed pairs up front (they have no cells to
    // wait for), checkpointing on the same cadence a completed pair
    // would.
    for (std::size_t burned = 0; burned < failed_pairs; ++burned) {
        ++pairs_done;
        if (cache_path && config_.checkpointEvery > 0 &&
            ++since_checkpoint >= config_.checkpointEvery &&
            pairs_done < total_pairs) {
            since_checkpoint = 0;
            checkpointLocked();
        }
    }

    const unsigned cell_jobs = std::min<unsigned>(
        jobs, std::max<std::size_t>(cells.size(), 1));
    std::vector<MetricsRegistry> cell_shards(cell_jobs);
    runPool(cell_jobs, [&](unsigned worker) {
        SimContext context(cell_shards[worker], faults(), config_.seed,
                           worker);
        while (true) {
            std::size_t index = next_cell.fetch_add(1);
            if (index >= cells.size())
                return;
            const Cell &cell = cells[index];
            PairTask &pair = pairs[cell.pair];
            const WorkloadState &state = states[pair.state];

            // Simulate outside any lock: each worker owns its System;
            // the prepared workload is shared immutable.
            CellOutcome outcome = simulateCellResult(
                *pair.platform, state.prep,
                state.prep.layouts[cell.layout], config_, context);

            // Commit under the progress mutex: slot writes, pair
            // accounting, heartbeat composition, checkpoint cadence.
            std::string heartbeat;
            {
                std::lock_guard<std::mutex> lock(progress_mutex);
                slots[index] = std::move(outcome);
                ++cells_done;
                --pair.cellsRemaining;
                if (pair.cellsRemaining == 0) {
                    ++pairs_done;
                    if (config_.verbose) {
                        // Heartbeat: progress plus throughput and ETA,
                        // so a long grid is never a silent black box.
                        double elapsed =
                            campaign_watch.elapsedSeconds();
                        double rate =
                            elapsed > 0.0
                                ? static_cast<double>(cells_done) /
                                      elapsed
                                : 0.0;
                        double eta =
                            rate > 0.0
                                ? static_cast<double>(cells.size() -
                                                      cells_done) /
                                      rate
                                : 0.0;
                        char pace[96];
                        std::snprintf(pace, sizeof pace,
                                      "%.2f cells/sec, ETA %.0fs",
                                      rate, eta);
                        heartbeat = detail::concat(
                            "campaign: ", pairs_done, "/", total_pairs,
                            " pairs done (", pair.platform->name, " ",
                            state.label, ") — ", pace);
                    }
                    if (cache_path && config_.checkpointEvery > 0 &&
                        ++since_checkpoint >= config_.checkpointEvery &&
                        pairs_done < total_pairs) {
                        since_checkpoint = 0;
                        checkpointLocked();
                    }
                }
            }
            // Every worker-side progress line goes through the
            // mutex-protected logging layer, composed as one complete
            // line, so parallel workers never interleave mid-line.
            if (!heartbeat.empty())
                mosaic_inform(heartbeat);
        }
    });

    // ---- Join: merge worker shards into the global registry in
    // worker order (deterministic manifest for any jobs count), then
    // assemble results in canonical slot order. ----
    for (const auto &shard : prep_shards)
        metrics().mergeFrom(shard);
    for (unsigned worker = 0; worker < cell_shards.size(); ++worker) {
        metrics().mergeFrom(cell_shards[worker]);
        // Per-worker phase breakdown for the run manifest: how much
        // cell time each worker absorbed (seconds + cell count).
        metrics().addPhaseStats(
            "campaign/worker/" + std::to_string(worker),
            cell_shards[worker].phase("campaign/cell"));
    }
    metrics().set("campaign/jobs", static_cast<double>(cell_jobs));
    metrics().set("campaign/sampled", sampled ? 1.0 : 0.0);
    if (sharded) {
        metrics().set("campaign/shard_index",
                      static_cast<double>(config_.shardIndex));
        metrics().set("campaign/shard_count",
                      static_cast<double>(config_.shardCount));
        metrics().set("campaign/shard_cells_expected",
                      static_cast<double>(expected_cells));
    }

    std::size_t trace_retries = 0;
    for (const auto &state : states)
        trace_retries += state.retries;
    report.retriesPerformed += trace_retries;
    if (trace_retries > 0)
        metrics().add("campaign/retries", trace_retries);

    // Assemble the dataset pair by pair, each pair's rows in canonical
    // layout order with resumed cells spliced back into their
    // positions — so a resumed run's CSV is byte-identical to an
    // uninterrupted one. The emitted set guards against duplicate keys
    // (a cache with repeated rows, a grid naming a pair twice).
    std::size_t added = 0;
    std::set<std::array<std::string, 3>> emitted;
    auto emitRecord = [&](const RunRecord &record, bool fresh) {
        if (!emitted
                 .insert({record.platform, record.workload,
                          record.layout})
                 .second) {
            return;
        }
        report.dataset.add(record);
        if (fresh)
            ++added;
    };

    // Pairs the cache fully covered, in cached row order (canonical
    // whenever this engine wrote the cache).
    for (const auto &[platform, label] : covered_pairs) {
        for (const auto &record : resume_data->runs(platform, label))
            emitRecord(record, false);
    }

    // Scheduled pairs, in grid order. cells[] was built pair-major
    // with ascending layout indices, so a single cursor walks the
    // slots in lock-step with this loop.
    std::size_t cursor = 0;
    for (const auto &pair : pairs) {
        const WorkloadState &state = states[pair.state];
        if (state.error) {
            // Prep failed: keep whatever the cache held for the pair
            // and report one pair-level failure.
            if (resume_data &&
                resume_data->has(pair.platform->name, state.label)) {
                for (const auto &record :
                     resume_data->runs(pair.platform->name, state.label))
                    emitRecord(record, false);
            }
            report.failures.push_back({pair.platform->name, state.label,
                                       "*", *state.error});
            continue;
        }
        for (std::size_t li = 0; li < state.prep.layouts.size(); ++li) {
            const auto &named = state.prep.layouts[li];
            if (!ownsCell(pair, li))
                continue; // another shard's cell, never a local slot
            if (pair.done && pair.done->count(named.name)) {
                auto it = resumed_records.find(
                    {pair.platform->name, state.label, named.name});
                if (it != resumed_records.end())
                    emitRecord(it->second, false);
                continue;
            }
            CellOutcome &slot = slots[cursor++];
            if (slot.record)
                emitRecord(*slot.record, true);
            else if (slot.failure)
                report.failures.push_back(std::move(*slot.failure));
        }
    }
    report.cellsCompleted += added;
    metrics().add("campaign/cells_completed", added);
    if (!report.failures.empty())
        metrics().add("campaign/failures", report.failures.size());

    if (cache_path) {
        ScopedTimer save_timer(metrics(), "campaign/save");
        std::size_t save_retries = 0;
        auto saved = retryWithBackoff(
            config_.retry,
            [&]() -> Result<void> {
                if (sharded &&
                    faults().shouldFail(FaultSite::ShardWrite))
                    return ioError("injected shard-write fault");
                return report.dataset.saveResult(
                    *cache_path, makeShardTrailer(report.dataset));
            },
            &save_retries);
        report.retriesPerformed += save_retries;
        if (!saved.ok()) {
            report.failures.push_back(
                {"*", "*", "save",
                 saved.error().withContext("final dataset save to " +
                                           *cache_path)});
        } else if (config_.verbose) {
            mosaic_inform("campaign: saved ",
                          report.dataset.totalRuns(), " runs to ",
                          *cache_path);
        }
    }
    return report;
}

CampaignReport
CampaignRunner::runReport()
{
    return runImpl(nullptr);
}

CampaignReport
CampaignRunner::runReport(const std::string &cache_path)
{
    return runImpl(&cache_path);
}

Dataset
CampaignRunner::run()
{
    CampaignReport report = runReport();
    if (!report.allOk())
        mosaic_warn(report.summary());
    return std::move(report.dataset);
}

Dataset
CampaignRunner::loadOrRun(const std::string &cache_path)
{
    std::ifstream probe(cache_path);
    if (probe.good()) {
        probe.close();
        auto cached = Dataset::loadResult(cache_path);
        if (cached.ok() &&
            (cached.value().swapColumn() != config_.os.paged() ||
             cached.value().estErrColumn() !=
                 config_.sampling.enabled())) {
            mosaic_warn("campaign cache ", cache_path,
                        " has a different CSV format (swap column ",
                        cached.value().swapColumn() ? "present"
                                                    : "absent",
                        ", est_err column ",
                        cached.value().estErrColumn() ? "present"
                                                      : "absent",
                        "); re-running");
        } else if (cached.ok()) {
            bool complete = true;
            // Mirror runImpl's grid walk (deduplicated, label-major)
            // so pair ordinals — and with them the per-pair cell
            // quota of a sharded campaign — match the scheduler's.
            const bool sharded = config_.shardCount > 1;
            std::set<std::pair<std::string, std::string>> seen;
            std::size_t ordinal = 0;
            for (const auto &label : config_.workloads) {
                for (const auto &platform : config_.platforms) {
                    if (!seen.insert({platform.name, label}).second)
                        continue;
                    const std::size_t pair_ordinal = ordinal++;
                    const std::size_t want =
                        sharded ? shardCellsOfPair(
                                      config_.shardIndex,
                                      config_.shardCount, pair_ordinal,
                                      expectedCellsPerPair())
                                : expectedCellsPerPair();
                    if (want == 0)
                        continue; // pair fully owned by other shards
                    if (!cached.value().has(platform.name, label)) {
                        complete = false;
                        break;
                    }
                    // Count distinct layouts, not raw rows: a cache
                    // holding duplicate rows but missing layouts must
                    // read as incomplete, or the missing cells would
                    // never be simulated (mirrors the admitted-set
                    // dedup in runImpl).
                    std::set<std::string> distinct;
                    for (const auto &record :
                         cached.value().runs(platform.name, label))
                        distinct.insert(record.layout);
                    if (distinct.size() < want) {
                        complete = false;
                        break;
                    }
                }
                if (!complete)
                    break;
            }
            if (complete) {
                if (config_.verbose) {
                    mosaic_inform("campaign: loaded ",
                                  cached.value().totalRuns(),
                                  " cached runs from ", cache_path);
                }
                return std::move(cached.value());
            }
            mosaic_warn("campaign cache ", cache_path,
                        " is incomplete; resuming the missing cells");
        } else {
            mosaic_warn("campaign cache ", cache_path, " unusable (",
                        cached.error().str(), "); re-running");
        }
    }

    CampaignReport report = runReport(cache_path);
    if (!report.allOk())
        mosaic_warn(report.summary());
    return std::move(report.dataset);
}

std::string
defaultDatasetPath()
{
    if (const char *env = std::getenv("MOSAIC_DATASET"))
        return env;
    return "mosaic_dataset.csv";
}

Dataset
loadOrRunDefaultCampaign()
{
    CampaignRunner runner;
    return runner.loadOrRun(defaultDatasetPath());
}

} // namespace mosaic::exp
