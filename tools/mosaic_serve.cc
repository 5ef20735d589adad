/**
 * @file
 * mosaic_serve: the prediction-as-a-service daemon. Loads fitted
 * Mosmodel surfaces from a campaign dataset once, keeps them (and any
 * decoded traces) resident, and answers PREDICT queries over a
 * line-oriented protocol on a loopback TCP port or a Unix-domain
 * socket. Warm (platform, workload) pairs answer from the fitted
 * model in microseconds; unknown pairs fall back to an on-demand
 * simulation whose result is cached for every later query.
 *
 * SIGTERM/SIGINT drain in-flight queries, fold per-worker metric
 * shards, optionally write the --metrics-out manifest, and exit 0.
 */

#include <csignal>
#include <cstdio>
#include <ctime>

#include "sampling/sample_plan.hh"
#include "serve/model_registry.hh"
#include "serve/server.hh"
#include "support/logging.hh"
#include "tools/cli_common.hh"

using namespace mosaic;

namespace
{

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

const char *kUsage =
    "usage: mosaic_serve [--dataset FILE] [--socket PATH | --port N]\n"
    "                    [--jobs N] [--query-timeout SECONDS]\n"
    "                    [--trace-cache DIR] [--seed N] [--no-1gb]\n"
    "                    [--no-cold] [--cold-sampled]\n"
    "                    [--sample-interval N] [--sample-clusters K]\n"
    "                    [--sample-warmup N] [--metrics-out FILE]\n"
    "\n"
    "Serve runtime predictions from fitted Mosmodel surfaces.\n"
    "  --dataset FILE     campaign CSV to preload (repeatable via\n"
    "                     comma-separated paths)\n"
    "  --socket PATH      listen on a Unix-domain socket\n"
    "  --port N           listen on 127.0.0.1:N (default: 0 = pick)\n"
    "  --jobs N           worker threads (default 2)\n"
    "  --query-timeout S  per-query cooperative deadline (default 0 =\n"
    "                     unbounded; cold simulations honor it too)\n"
    "  --trace-cache DIR  columnar trace-store cache for cold paths\n"
    "  --seed N           layout-derivation seed (must match the\n"
    "                     campaign's; default 0x9a4d)\n"
    "  --no-1gb           skip the all-1GB lane on cold simulations\n"
    "  --no-cold          refuse cold simulations (serve only what\n"
    "                     was loaded)\n"
    "  --cold-sampled     answer cold pairs with interval-sampled\n"
    "                     replay (one representative segment set per\n"
    "                     trace) instead of full replay —\n"
    "                     seconds instead of minutes per pair, at the\n"
    "                     sample plan's documented error bound\n"
    "  --sample-interval N  sampled-cold interval length in records\n"
    "                     (default 16384)\n"
    "  --sample-clusters K  sampled-cold cluster count (default 8)\n"
    "  --sample-warmup N  sampled-cold warmup prefix per segment in\n"
    "                     records (default 4096)\n"
    "  --metrics-out FILE write the JSON run manifest on shutdown\n";

} // namespace

int
main(int argc, char **argv)
{
    return cli::runGuarded("mosaic_serve", [&]() -> int {
        cli::Args args = cli::parseArgs(argc, argv);
        if (args.has("help"))
            cli::usage(kUsage);

        serve::ModelRegistry::Options regOptions;
        regOptions.traceCacheDir = args.get("trace-cache");
        regOptions.include1g = !args.has("no-1gb");
        regOptions.allowCold = !args.has("no-cold");
        regOptions.seed = cli::unwrapOrDie(
            "mosaic_serve",
            cli::unsignedOption(args, "seed", 0x9a4d));
        if (args.has("cold-sampled")) {
            regOptions.coldSampling.mode =
                sampling::SampleMode::Interval;
            regOptions.coldSampling.intervalRecords = cli::unwrapOrDie(
                "mosaic_serve",
                cli::unsignedOption(args, "sample-interval", 16384, 1,
                                    1ull << 32));
            regOptions.coldSampling.clusters =
                static_cast<std::uint32_t>(cli::unwrapOrDie(
                    "mosaic_serve",
                    cli::unsignedOption(args, "sample-clusters", 8, 1,
                                        1ull << 20)));
            regOptions.coldSampling.warmupRecords = cli::unwrapOrDie(
                "mosaic_serve",
                cli::unsignedOption(args, "sample-warmup", 4096, 0,
                                    1ull << 32));
        }

        serve::ModelRegistry registry(std::move(regOptions));
        std::size_t loadedPairs = 0;
        if (args.has("dataset")) {
            for (const std::string &path :
                 splitString(args.get("dataset"), ',')) {
                auto loaded = registry.loadDataset(trimString(path));
                if (!loaded.ok()) {
                    std::fprintf(stderr, "mosaic_serve: %s\n",
                                 loaded.error().str().c_str());
                    return 1;
                }
                loadedPairs += loaded.value();
            }
        }

        serve::ServerOptions options;
        options.socketPath = args.get("socket");
        options.port = static_cast<std::uint16_t>(cli::unwrapOrDie(
            "mosaic_serve",
            cli::unsignedOption(args, "port", 0, 0, 65535)));
        options.workers = static_cast<unsigned>(cli::unwrapOrDie(
            "mosaic_serve",
            cli::unsignedOption(args, "jobs", 2, 1, 256)));
        options.queryTimeoutSeconds = cli::unwrapOrDie(
            "mosaic_serve",
            cli::doubleOption(args, "query-timeout", 0.0, 0.0,
                              86400.0));
        options.seed = registry.options().seed;

        // Handlers go in before the socket opens: a stop request that
        // arrives right after the listening line must drain, not kill.
        struct sigaction action = {};
        action.sa_handler = onSignal;
        ::sigaction(SIGTERM, &action, nullptr);
        ::sigaction(SIGINT, &action, nullptr);

        serve::Server server(registry, options);
        auto started = server.start();
        if (!started.ok()) {
            std::fprintf(stderr, "mosaic_serve: %s\n",
                         started.error().str().c_str());
            return 1;
        }

        // Loadgen and the CI smoke job parse this line to find the
        // ephemeral port; flush so a pipe sees it immediately.
        std::printf("mosaic_serve: listening on %s (%zu pairs "
                    "resident, %u workers)\n",
                    server.endpoint().c_str(), loadedPairs,
                    options.workers);
        std::fflush(stdout);

        while (!g_stop) {
            struct timespec nap = {0, 100 * 1000 * 1000};
            ::nanosleep(&nap, nullptr);
        }

        std::fprintf(stderr, "mosaic_serve: draining\n");
        server.stop();

        if (args.has("metrics-out")) {
            RunManifest manifest("mosaic_serve");
            manifest.setConfig("endpoint", server.endpoint());
            manifest.setConfig("jobs",
                               std::uint64_t{options.workers});
            manifest.setConfig("pairs_loaded",
                               std::uint64_t{loadedPairs});
            manifest.setConfig("allow_cold",
                               registry.options().allowCold);
            manifest.setConfig(
                "cold_sampled",
                registry.options().coldSampling.enabled());
            if (registry.options().coldSampling.enabled()) {
                manifest.setConfig(
                    "sample_tag",
                    registry.options().coldSampling.tag());
            }
            auto written = manifest.write(args.get("metrics-out"),
                                          server.centralMetrics());
            if (!written.ok()) {
                std::fprintf(stderr,
                             "warn: cannot write metrics manifest "
                             "%s: %s\n",
                             args.get("metrics-out").c_str(),
                             written.error().str().c_str());
            }
        }
        return 0;
    });
}
