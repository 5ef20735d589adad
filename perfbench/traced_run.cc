/**
 * @file
 * perfbench_trace: the benchmark's traced run.
 *
 * It drives the same pipeline as the untraced runs of the shipped
 * mosaic_campaign and mosaic_serve binaries: a campaign (or a resume
 * over a complete dataset), then the lazy fit of every pair, then
 * warm predictions. It calls each layer's public functions in
 * process and records a span (name, start, end, parent, unit) around
 * every call. A unit is one cell or one query. The spans stay in
 * per-thread memory and are written out at exit. perfbench/run.py
 * turns them into per-layer self times.
 *
 * Usage:
 *   perfbench_trace --csv OUT --spans FILE --summary FILE
 *       [--workloads a,b --platforms X,Y --jobs N
 *        [--sample-mode interval] [--mem-frames N --replacement P]
 *        [--no-1gb]]
 *       [--resume-from CSV]
 *       [--requests FILE --predictions FILE --model NAME]
 *   perfbench_trace --host-tsc
 *
 * Exit codes: 0 ran (cell or query failures are counted in the
 * summary, not fatal), 2 usage error.
 */

#include <x86intrin.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cpu/system.hh"
#include "experiments/dataset.hh"
#include "experiments/report.hh"
#include "layouts/heuristics.hh"
#include "memhier/hierarchy.hh"
#include "mosalloc/mosalloc.hh"
#include "sampling/extrapolate.hh"
#include "sampling/sample_plan.hh"
#include "serve/model_registry.hh"
#include "serve/protocol.hh"
#include "support/metrics.hh"
#include "support/str.hh"
#include "tools/cli_common.hh"
#include "trace/miss_profile.hh"
#include "vm/frame_pool.hh"
#include "vm/mmu.hh"
#include "vm/page_table.hh"
#include "workloads/registry.hh"

using namespace mosaic;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();
std::atomic<std::uint64_t> g_nextSpan{1};

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - g_epoch)
        .count();
}

/** One finished span. `work` counts what the span covered (records
 *  replayed, calls made) so per-unit costs divide by it. */
struct Span
{
    const char *name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t unit = 0;   ///< cell, pair or query id
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint64_t work = 1;
};

/** Records a span into a thread-owned log when it goes out of scope. */
class SpanScope
{
  public:
    SpanScope(std::vector<Span> &log, const char *name,
              std::uint64_t parent, std::uint64_t unit)
        : log_(log)
    {
        span_.name = name;
        span_.id = g_nextSpan.fetch_add(1);
        span_.parent = parent;
        span_.unit = unit;
        span_.start = nowNs();
    }

    ~SpanScope()
    {
        span_.end = nowNs();
        log_.push_back(span_);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint64_t id() const { return span_.id; }
    void setWork(std::uint64_t work) { span_.work = work; }

  private:
    std::vector<Span> &log_;
    Span span_;
};

/** Simulated counters summed over every cell, named after the CSV
 *  columns they must equal. */
struct CounterTotals
{
    std::map<std::string, std::uint64_t> sums;

    void
    add(const cpu::RunResult &r)
    {
        sums["runtime"] += r.runtimeCycles;
        sums["h"] += r.tlbHitsL2;
        sums["m"] += r.tlbMisses;
        sums["c"] += r.walkCycles;
        sums["instructions"] += r.instructions;
        sums["refs"] += r.memoryRefs;
        sums["l1tlbhits"] += r.l1TlbHits;
        sums["queue"] += r.walkerQueueCycles;
        sums["progL1"] += r.progL1dLoads;
        sums["progL2"] += r.progL2Loads;
        sums["progL3"] += r.progL3Loads;
        sums["progDram"] += r.progDramLoads;
        sums["walkL1"] += r.walkL1dLoads;
        sums["walkL2"] += r.walkL2Loads;
        sums["walkL3"] += r.walkL3Loads;
        sums["walkDram"] += r.walkDramLoads;
        sums["s"] += r.swapCycles;
        sums["major_faults"] += r.majorFaults;
        sums["evictions"] += r.evictions;
        sums["writebacks"] += r.writebacks;
    }
};

/** What the campaign stage hands to the summary. */
struct CampaignTotals
{
    CounterTotals counters;
    std::size_t cells = 0;
    std::size_t failedCells = 0;
    std::uint64_t recordsReplayed = 0;
    std::uint64_t recordsTotal = 0;
    Cycles isolatedLatency = 0; ///< summed, so the loop is observable
};

struct GridConfig
{
    std::vector<std::string> workloads;
    std::vector<cpu::PlatformSpec> platforms;
    unsigned jobs = 1;
    bool include1g = true;
    /// mosaic_campaign's layout seed, which the committed dataset and
    /// the reference rows were made with (no option, as in that tool).
    std::uint64_t seed = 0x9a4d;
    vm::OsConfig os;
    sampling::SamplingConfig sampling;
};

/** A workload's layout- and platform-independent inputs. */
struct Prepared
{
    std::unique_ptr<workloads::Workload> workload;
    trace::MemoryTrace trace;
    std::vector<layouts::NamedLayout> layouts;
    std::optional<sampling::SamplePlan> plan;
};

template <typename Body>
void
runPool(unsigned n, Body &&body)
{
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < n; ++i)
        pool.emplace_back(body, i);
    for (auto &thread : pool)
        thread.join();
}

/** Phase 1 of the campaign: trace, miss profile, layouts and sample
 *  plan of every workload, over the worker pool. */
std::vector<Prepared>
prepareWorkloads(const GridConfig &grid,
                 std::vector<std::vector<Span>> &logs,
                 std::uint64_t root)
{
    std::vector<Prepared> prepared(grid.workloads.size());
    std::atomic<std::size_t> next{0};
    const unsigned n = std::min<unsigned>(
        grid.jobs, static_cast<unsigned>(grid.workloads.size()));
    runPool(n, [&](unsigned worker) {
        std::vector<Span> &log = logs[worker];
        for (std::size_t w; (w = next.fetch_add(1)) < prepared.size();) {
            Prepared &prep = prepared[w];
            SpanScope span(log, "prep", root, w);
            prep.workload = workloads::makeWorkload(grid.workloads[w]);
            {
                SpanScope gen(log, "workloads.generate", span.id(), w);
                prep.trace = prep.workload->generateTrace();
                gen.setWork(prep.trace.size());
            }
            std::optional<trace::MissProfile> profile;
            {
                SpanScope s(log, "trace.miss_profile", span.id(), w);
                profile.emplace(prep.trace,
                                prep.workload->primaryPoolBase(),
                                prep.workload->primaryPoolSize());
            }
            {
                SpanScope s(log, "layouts.derive", span.id(), w);
                prep.layouts = layouts::paperCampaignLayouts(
                    prep.workload->primaryPoolSize(), *profile,
                    grid.seed);
                if (grid.include1g) {
                    prep.layouts.push_back(layouts::uniformLayout(
                        prep.workload->primaryPoolSize(),
                        alloc::PageSize::Page1G));
                }
            }
            if (grid.sampling.enabled()) {
                SpanScope s(log, "sampling.plan", span.id(), w);
                prep.plan =
                    sampling::buildSamplePlan(prep.trace, grid.sampling);
            }
        }
    });
    return prepared;
}

/** Replay one workload's address stream through an isolated MMU and,
 *  translated, through an isolated cache hierarchy. Both are built
 *  from the platform's own mmu/hierarchy configs (a default
 *  mem::HierarchyConfig does not construct: its L3 set count is not a
 *  power of two). */
void
isolatedReplay(const cpu::PlatformSpec &platform, const Prepared &prep,
               std::vector<Span> &log, std::uint64_t parent,
               std::uint64_t unit, CampaignTotals &totals)
{
    const auto &named = *std::find_if(
        prep.layouts.begin(), prep.layouts.end(),
        [](const auto &l) { return l.name == exp::layoutAll4k; });
    alloc::Mosalloc allocator(prep.workload->makeAllocConfig(named.layout));
    vm::FramePool pool(vm::OsConfig{});
    vm::PageTable table(pool);
    table.populate(allocator);
    mem::MemoryHierarchy walk_hierarchy(platform.hierarchy);
    vm::Mmu mmu(table, walk_hierarchy, platform.mmu);

    const auto &records = prep.trace.records();
    std::vector<PhysAddr> phys(records.size());
    {
        SpanScope s(log, "vm.translate", parent, unit);
        for (std::size_t i = 0; i < records.size(); ++i)
            phys[i] = mmu.translate(records[i].vaddr, i).physAddr;
        s.setWork(records.size());
    }
    mem::MemoryHierarchy hierarchy(platform.hierarchy);
    {
        SpanScope s(log, "memhier.access", parent, unit);
        for (PhysAddr addr : phys) {
            totals.isolatedLatency +=
                hierarchy.access(addr, mem::Requester::Program).latency;
        }
        s.setWork(phys.size());
    }
}

/** The traced campaign: prep, cells over the pool, CSV save, then the
 *  isolated per-layer replays. */
CampaignTotals
runCampaign(const GridConfig &grid, const std::string &csv_path,
            std::vector<std::vector<Span>> &logs)
{
    CampaignTotals totals;
    std::uint64_t root = 0;
    std::vector<Prepared> prepared;
    struct Cell
    {
        std::size_t workload;
        const cpu::PlatformSpec *platform;
        std::size_t layout;
    };
    std::vector<Cell> cells;
    std::vector<std::optional<exp::RunRecord>> slots;
    std::vector<std::uint64_t> cell_records;
    {
        SpanScope campaign(logs[0], "campaign", 0, 0);
        root = campaign.id();
        prepared = prepareWorkloads(grid, logs, root);

        for (std::size_t w = 0; w < prepared.size(); ++w)
            for (const auto &platform : grid.platforms)
                for (std::size_t l = 0; l < prepared[w].layouts.size(); ++l)
                    cells.push_back({w, &platform, l});
        slots.resize(cells.size());
        cell_records.assign(cells.size(), 0);

        std::atomic<std::size_t> next{0};
        std::vector<MetricsRegistry> shards(grid.jobs);
        runPool(grid.jobs, [&](unsigned worker) {
            std::vector<Span> &log = logs[worker];
            SimContext context(shards[worker], faults(), grid.seed,
                               worker);
            for (std::size_t i; (i = next.fetch_add(1)) < cells.size();) {
                const Cell &cell = cells[i];
                const Prepared &prep = prepared[cell.workload];
                const auto &named = prep.layouts[cell.layout];
                SpanScope span(log, "cell", root, i);
                try {
                    std::optional<alloc::Mosalloc> allocator;
                    {
                        SpanScope s(log, "mosalloc.setup", span.id(), i);
                        allocator.emplace(
                            prep.workload->makeAllocConfig(named.layout));
                    }
                    std::optional<cpu::System> system;
                    {
                        SpanScope s(log, "cpu.build", span.id(), i);
                        system.emplace(*cell.platform, *allocator,
                                       grid.os, context);
                    }
                    exp::RunRecord record;
                    record.platform = cell.platform->name;
                    record.workload = grid.workloads[cell.workload];
                    record.layout = named.name;
                    if (prep.plan) {
                        SpanScope s(log, "sampling.replay", span.id(), i);
                        auto deltas =
                            system->runSampled(prep.trace,
                                               prep.plan->segments);
                        auto estimate = sampling::extrapolate(
                            *prep.plan, deltas, prep.trace);
                        record.result = estimate.estimate;
                        record.estErr = estimate.estErr;
                        cell_records[i] = prep.plan->recordsReplayed;
                        s.setWork(cell_records[i]);
                    } else {
                        SpanScope s(log, "cpu.replay", span.id(), i);
                        record.result = system->run(prep.trace);
                        cell_records[i] = prep.trace.size();
                        s.setWork(cell_records[i]);
                    }
                    slots[i] = std::move(record);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "perfbench_trace: cell %zu: %s\n",
                                 i, e.what());
                }
            }
        });

        SpanScope save(logs[0], "experiments.save", root, 0);
        exp::Dataset dataset;
        dataset.setSwapColumn(grid.os.paged());
        dataset.setEstErrColumn(grid.sampling.enabled());
        for (auto &slot : slots) {
            if (slot)
                dataset.add(*slot);
        }
        auto saved = dataset.saveResult(csv_path);
        if (!saved.ok())
            throw std::runtime_error(saved.error().str());
    }

    for (std::size_t i = 0; i < cells.size(); ++i) {
        ++totals.cells;
        if (!slots[i]) {
            ++totals.failedCells;
            continue;
        }
        totals.counters.add(slots[i]->result);
        totals.recordsReplayed += cell_records[i];
        totals.recordsTotal += prepared[cells[i].workload].trace.size();
    }

    // Isolated layer replays, one per (workload, platform), outside
    // the campaign span so they do not count toward its time.
    std::uint64_t unit = 0;
    SpanScope isolated(logs[0], "isolated", 0, 0);
    for (const auto &prep : prepared) {
        for (const auto &platform : grid.platforms) {
            isolatedReplay(platform, prep, logs[0], isolated.id(),
                           unit++, totals);
        }
    }
    return totals;
}

/** The predict workload's campaign: every cell is already in the
 *  committed dataset, so the stage is a load and a save. */
void
runResume(const std::string &from, const std::string &csv_path,
          std::vector<Span> &log)
{
    SpanScope campaign(log, "campaign", 0, 0);
    std::optional<exp::Dataset> dataset;
    {
        SpanScope s(log, "experiments.load", campaign.id(), 0);
        dataset.emplace(exp::Dataset::loadResult(from).okOrThrow());
        s.setWork(dataset->totalRuns());
    }
    SpanScope s(log, "experiments.save", campaign.id(), 0);
    auto saved = dataset->saveResult(csv_path);
    if (!saved.ok())
        throw std::runtime_error(saved.error().str());
}

/** What the fit and predict stages hand to the summary. */
struct ServeTotals
{
    std::size_t pairs = 0;
    std::size_t queries = 0;
    std::size_t failedQueries = 0;
    std::map<std::string, std::uint64_t> fitCounters;
};

/** Repeat @p body over @p n items, one span per sweep, until at least
 *  @p min_ns passed. */
template <typename Body>
void
timedSweeps(std::vector<Span> &log, const char *name,
            std::uint64_t parent, std::size_t n, std::int64_t min_ns,
            Body &&body)
{
    const std::int64_t until = nowNs() + min_ns;
    std::uint64_t sweep = 0;
    do {
        SpanScope s(log, name, parent, sweep++);
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        s.setWork(n);
    } while (nowNs() < until);
}

ServeTotals
runServe(const std::string &csv_path, const std::string &requests_path,
         const std::string &predictions_path, const std::string &model,
         std::uint64_t seed, std::vector<Span> &log)
{
    ServeTotals totals;
    serve::ModelRegistry::Options options;
    options.allowCold = false;
    options.seed = seed;
    serve::ModelRegistry registry(options);
    {
        SpanScope s(log, "serve.load", 0, 0);
        totals.pairs = registry.loadDataset(csv_path).okOrThrow();
    }
    std::optional<exp::Dataset> dataset;
    {
        SpanScope s(log, "experiments.load", 0, 0);
        dataset.emplace(exp::Dataset::loadResult(csv_path).okOrThrow());
        s.setWork(dataset->totalRuns());
    }

    // Direct model fits, one unit per pair, with the lasso/fit
    // counters they publish.
    static const char *const kFitCounters[] = {
        "lasso/fits", "lasso/iterations", "lasso/nonconverged",
        "fit/degree_fallbacks"};
    std::map<std::string, std::uint64_t> before;
    for (const char *name : kFitCounters)
        before[name] = metrics().counter(name);
    {
        SpanScope models(log, "models", 0, 0);
        std::uint64_t pair = 0;
        for (const auto &platform : dataset->platforms()) {
            for (const auto &workload : dataset->workloads()) {
                if (!dataset->has(platform, workload))
                    continue;
                const models::SampleSet set =
                    dataset->sampleSet(platform, workload);
                models::ModelPtr fitted = exp::makeModelByName(model);
                {
                    SpanScope s(log, "models.fit", models.id(), pair);
                    fitted->fit(set);
                }
                double sink = 0.0;
                timedSweeps(log, "models.predict", models.id(),
                            set.samples.size(), 2'000'000,
                            [&](std::size_t i) {
                                sink += fitted->predict(set.samples[i]);
                            });
                if (!std::isfinite(sink))
                    ++totals.failedQueries;
                ++pair;
            }
        }
    }
    for (const char *name : kFitCounters)
        totals.fitCounters[name] = metrics().counter(name) - before[name];

    std::vector<std::string> lines;
    {
        std::ifstream in(requests_path);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    std::vector<serve::PredictQuery> queries(lines.size());
    std::vector<double> answers(lines.size(), NAN);
    const SimContext &context = globalSimContext();
    {
        // The daemon's first pass, query by query: the first query of
        // each pair fits it inside ModelRegistry::predict.
        SpanScope pass(log, "fit_pass", 0, 0);
        for (std::size_t i = 0; i < lines.size(); ++i) {
            SpanScope query(log, "query", pass.id(), i);
            Result<serve::Request> request = [&] {
                SpanScope s(log, "serve.parse", query.id(), i);
                return serve::parseRequest(lines[i]);
            }();
            if (!request.ok() ||
                request.value().verb != serve::Verb::Predict) {
                ++totals.failedQueries;
                continue;
            }
            queries[i] = request.value().predict;
            SpanScope s(log, "serve.registry_predict", query.id(), i);
            auto predicted = registry.predict(queries[i], context);
            if (predicted.ok())
                answers[i] = predicted.value().predictedCycles;
        }
    }
    totals.queries = lines.size();
    for (double answer : answers) {
        if (!std::isfinite(answer))
            ++totals.failedQueries;
    }

    // Warm per-call costs, in sweeps over every request.
    SpanScope warm(log, "warm", 0, 0);
    std::size_t rejected = 0;
    timedSweeps(log, "warm.serve.parse", warm.id(), lines.size(),
                100'000'000, [&](std::size_t i) {
                    rejected += !serve::parseRequest(lines[i]).ok();
                });
    timedSweeps(log, "warm.serve.registry_predict", warm.id(),
                queries.size(), 100'000'000, [&](std::size_t i) {
                    rejected += !registry.predict(queries[i], context).ok();
                });
    totals.failedQueries += rejected;

    std::FILE *out = std::fopen(predictions_path.c_str(), "w");
    if (!out)
        throw std::runtime_error("cannot write " + predictions_path);
    for (double answer : answers)
        std::fprintf(out, "%.6f\n", answer);
    std::fclose(out);
    return totals;
}

/** TSC ticks per nanosecond, calibrated against steady_clock. */
double
hostTscGhz()
{
    const auto t0 = Clock::now();
    const std::uint64_t c0 = __rdtsc();
    while (Clock::now() - t0 < std::chrono::milliseconds(50)) {
    }
    const std::uint64_t c1 = __rdtsc();
    const double ns = std::chrono::duration<double, std::nano>(
                          Clock::now() - t0)
                          .count();
    return static_cast<double>(c1 - c0) / ns;
}

void
writeSpans(const std::string &path,
           const std::vector<std::vector<Span>> &logs)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        throw std::runtime_error("cannot write " + path);
    std::fprintf(out, "id\tparent\tunit\tname\tstart_ns\tend_ns\twork\n");
    for (const auto &log : logs) {
        for (const Span &s : log) {
            std::fprintf(out, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\t%llu\n",
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<unsigned long long>(s.unit), s.name,
                         static_cast<long long>(s.start),
                         static_cast<long long>(s.end),
                         static_cast<unsigned long long>(s.work));
        }
    }
    std::fclose(out);
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    for (const auto &item : splitString(text, ',')) {
        if (!trimString(item).empty())
            out.push_back(trimString(item));
    }
    return out;
}

int
tracedMain(int argc, char **argv)
{
    const char *tool = "perfbench_trace";
    cli::Args args = cli::parseArgs(argc, argv);
    if (args.has("host-tsc")) {
        std::printf("%.4f\n", hostTscGhz());
        return 0;
    }
    if (!args.has("csv") || !args.has("spans") || !args.has("summary") ||
        args.has("workloads") == args.has("resume-from")) {
        cli::usage("usage: perfbench_trace --csv OUT --spans FILE "
                   "--summary FILE (--workloads a,b ... | "
                   "--resume-from CSV) [--requests FILE "
                   "--predictions FILE --model NAME]\n");
    }

    GridConfig grid;
    grid.jobs = static_cast<unsigned>(cli::unwrapOrDie(
        tool, cli::unsignedOption(args, "jobs", 1, 1, 256)));
    std::vector<std::vector<Span>> logs(grid.jobs);

    std::string summary = "{\n";
    if (args.has("workloads")) {
        grid.workloads = splitList(args.get("workloads"));
        for (const auto &name : splitList(args.get("platforms")))
            grid.platforms.push_back(cpu::platformByName(name));
        grid.include1g = !args.has("no-1gb");
        if (args.get("sample-mode") == "interval")
            grid.sampling.mode = sampling::SampleMode::Interval;
        grid.os.memFrames = cli::unwrapOrDie(
            tool, cli::unsignedOption(args, "mem-frames", 0));
        if (args.has("replacement")) {
            grid.os.policy = cli::unwrapOrDie(
                tool, vm::parseReplacementPolicy(args.get("replacement")));
        }
        CampaignTotals totals = runCampaign(grid, args.get("csv"), logs);
        summary += detail::concat(
            "  \"cells\": ", totals.cells,
            ",\n  \"failed_cells\": ", totals.failedCells,
            ",\n  \"records_replayed\": ", totals.recordsReplayed,
            ",\n  \"records_total\": ", totals.recordsTotal,
            ",\n  \"isolated_latency\": ", totals.isolatedLatency,
            ",\n  \"counters\": {");
        const char *sep = "";
        for (const auto &[name, value] : totals.counters.sums) {
            summary += detail::concat(sep, "\"", name, "\": ", value);
            sep = ", ";
        }
        summary += "},\n";
    } else {
        runResume(args.get("resume-from"), args.get("csv"), logs[0]);
    }

    if (args.has("requests")) {
        ServeTotals totals = runServe(
            args.get("csv"), args.get("requests"),
            args.get("predictions"), args.get("model", "mosmodel"),
            grid.seed, logs[0]);
        summary += detail::concat(
            "  \"pairs\": ", totals.pairs,
            ",\n  \"queries\": ", totals.queries,
            ",\n  \"failed_queries\": ", totals.failedQueries,
            ",\n  \"fit_counters\": {");
        const char *sep = "";
        for (const auto &[name, value] : totals.fitCounters) {
            summary += detail::concat(sep, "\"", name, "\": ", value);
            sep = ", ";
        }
        summary += "},\n";
    }
    summary += "  \"schema\": \"perfbench-trace/1\"\n}\n";

    writeSpans(args.get("spans"), logs);
    std::FILE *out = std::fopen(args.get("summary").c_str(), "w");
    if (!out)
        throw std::runtime_error("cannot write " + args.get("summary"));
    std::fputs(summary.c_str(), out);
    std::fclose(out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::runGuarded("perfbench_trace",
                           [&] { return tracedMain(argc, argv); });
}
