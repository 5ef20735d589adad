/**
 * @file
 * mosaic_run: simulate one (workload, platform, layout) triple and
 * print the PMU readout — the smallest unit of the paper's
 * methodology, scriptable.
 *
 * --layout accepts a comma-separated list of specs; the layouts are
 * simulated in parallel over --jobs worker threads (each worker owns
 * its simulator; the shared trace is immutable) and the rows print in
 * the order given, independent of the worker count. A spec containing
 * "config:" is always one layout (config strings use commas
 * internally).
 *
 * Examples:
 *   mosaic_run --workload spec06/mcf --platform SandyBridge \
 *              --layout all-2MB
 *   mosaic_run --workload gups/8GB --platform Broadwell \
 *              --layout window:0:64MiB --csv
 *   mosaic_run --workload gups/8GB --platform Broadwell \
 *              --layout all-4KB,all-2MB,all-1GB --jobs 3 --csv
 *   mosaic_run --list
 */

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "cpu/stats_report.hh"
#include "cpu/system.hh"
#include "mosalloc/layout.hh"
#include "support/fault_injector.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/sim_context.hh"
#include "support/str.hh"
#include "tools/cli_common.hh"
#include "tools/layout_spec.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mosaic;

constexpr const char *usageText =
    "usage: mosaic_run --workload <label> --platform <name> "
    "--layout <spec>[,<spec>...]\n"
    "                 [--jobs N] [--csv|--stats] [--metrics-out FILE]\n"
    "       mosaic_run --list\n"
    "layout specs:\n"
    "  all-4KB | all-2MB | all-1GB      uniform page size\n"
    "  window:<start>:<len>             one 2MB window, 2MiB-aligned\n"
    "                                   and inside the pool (sizes\n"
    "                                   accept KiB/MiB/GiB suffixes)\n"
    "  config:<string>                  MosaicLayout config string\n"
    "                                   (cannot appear in a comma list)\n"
    "multiple layouts run in parallel over --jobs worker threads\n"
    "(default: hardware concurrency) and print as CSV rows in the\n"
    "order given.\n";

int
runMain(int argc, char **argv)
{
    using namespace mosaic;
    auto args = cli::parseToolArgs(
        "mosaic_run", argc, argv,
        {"workload", "platform", "layout", "jobs", "csv", "stats",
         "list", "metrics-out"},
        usageText);

    if (args.has("list")) {
        std::printf("workloads:\n");
        for (const auto &label : workloads::workloadLabels())
            std::printf("  %s\n", label.c_str());
        std::printf("platforms:\n");
        for (const auto &spec : cpu::allPlatforms())
            std::printf("  %s\n", spec.name.c_str());
        return 0;
    }
    if (!args.has("workload") || !args.has("platform"))
        cli::usage(usageText);

    auto workload = workloads::makeWorkload(args.get("workload"));
    auto platform = cpu::platformByName(args.get("platform"));

    // One spec, or a comma list. "config:" strings embed commas in
    // their region list, so such a value is always a single spec.
    const std::string layout_arg = args.get("layout", "all-4KB");
    std::vector<std::string> specs;
    if (layout_arg.find("config:") != std::string::npos) {
        specs.push_back(layout_arg);
    } else {
        for (const auto &piece : splitString(layout_arg, ',')) {
            if (!trimString(piece).empty())
                specs.push_back(trimString(piece));
        }
    }
    if (specs.empty())
        cli::usage(usageText);

    std::vector<alloc::MosaicLayout> parsed;
    for (const auto &spec : specs) {
        parsed.push_back(cli::unwrapOrDie(
            "mosaic_run",
            cli::parseLayoutSpec(spec, workload->primaryPoolSize())));
    }

    unsigned jobs = 0;
    if (args.has("jobs"))
        jobs = static_cast<unsigned>(cli::unwrapOrDie(
            "mosaic_run",
            cli::parseUnsignedValue("jobs", args.get("jobs"), 1,
                                    4096)));
    if (jobs == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        jobs = hw > 0 ? hw : 2;
    }
    jobs = std::min<unsigned>(
        jobs, static_cast<unsigned>(parsed.size()));

    ScopedTimer total_timer(metrics(), "run/total");
    auto trace = workload->generateTrace();

    // Each worker owns its simulator and metrics shard; the trace is
    // shared immutable. Results land in spec-order slots, so output is
    // identical for any --jobs value.
    std::vector<cpu::RunResult> results(parsed.size());
    std::vector<MetricsRegistry> shards(jobs);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned worker = 0; worker < jobs; ++worker) {
        pool.emplace_back([&, worker] {
            SimContext context(shards[worker], faults(), 0, worker);
            while (true) {
                std::size_t index = next.fetch_add(1);
                if (index >= parsed.size())
                    return;
                results[index] = cpu::simulateRun(
                    platform, workload->makeAllocConfig(parsed[index]),
                    trace, context);
            }
        });
    }
    for (auto &thread : pool)
        thread.join();
    total_timer.stop();
    for (unsigned worker = 0; worker < jobs; ++worker) {
        metrics().mergeFrom(shards[worker]);
        metrics().addPhaseStats("run/worker/" + std::to_string(worker),
                                shards[worker].phase("replay/run"));
    }
    metrics().set("run/jobs", static_cast<double>(jobs));

    RunManifest manifest("mosaic_run");
    manifest.setConfig("workload", args.get("workload"));
    manifest.setConfig("platform", platform.name);
    if (specs.size() == 1)
        manifest.setConfig("layout", specs[0]);
    else
        manifest.setConfig("layouts", specs);
    manifest.setConfig("jobs", static_cast<std::uint64_t>(jobs));
    manifest.setConfig("records",
                       static_cast<std::uint64_t>(trace.size()));
    cli::writeManifestIfRequested(args, manifest);

    if (args.has("stats")) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (specs.size() > 1)
                std::printf("# layout %s\n", specs[i].c_str());
            std::printf("%s", cpu::formatStats(results[i]).c_str());
        }
        return 0;
    }
    if (args.has("csv") || specs.size() > 1) {
        std::printf("workload,platform,layout,R,H,M,C,instructions,"
                    "refs\n");
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto &result = results[i];
            std::printf(
                "%s,%s,%s,%llu,%llu,%llu,%llu,%llu,%llu\n",
                args.get("workload").c_str(), platform.name.c_str(),
                specs[i].c_str(),
                static_cast<unsigned long long>(result.runtimeCycles),
                static_cast<unsigned long long>(result.tlbHitsL2),
                static_cast<unsigned long long>(result.tlbMisses),
                static_cast<unsigned long long>(result.walkCycles),
                static_cast<unsigned long long>(result.instructions),
                static_cast<unsigned long long>(result.memoryRefs));
        }
        return 0;
    }

    const auto &result = results[0];
    std::printf("%s on %s, layout %s\n", args.get("workload").c_str(),
                platform.name.c_str(), specs[0].c_str());
    TextTable table;
    table.addRow({"runtime cycles (R)",
                  std::to_string(result.runtimeCycles)});
    table.addRow({"L2-TLB hits (H)", std::to_string(result.tlbHitsL2)});
    table.addRow({"TLB misses (M)", std::to_string(result.tlbMisses)});
    table.addRow({"walk cycles (C)",
                  std::to_string(result.walkCycles)});
    table.addRow({"instructions", std::to_string(result.instructions)});
    table.addRow({"memory refs", std::to_string(result.memoryRefs)});
    table.addRow({"walker queue cycles",
                  std::to_string(result.walkerQueueCycles)});
    table.addRow({"IPC", formatDouble(
                             static_cast<double>(result.instructions) /
                                 static_cast<double>(
                                     result.runtimeCycles),
                             3)});
    std::printf("%s", table.render().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return mosaic::cli::runGuarded("mosaic_run",
                                   [&] { return runMain(argc, argv); });
}
