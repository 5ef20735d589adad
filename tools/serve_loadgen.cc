/**
 * @file
 * serve_loadgen: closed-loop load generator for mosaic_serve. Each
 * stage opens N concurrent client connections, issues PREDICT queries
 * back-to-back, and reports predictions/sec plus p50/p99 latency.
 * Writes a "mosaic-serve-bench/1" JSON report gated by
 * check_bench_regression.py.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "support/io_util.hh"
#include "support/metrics.hh"
#include "tools/cli_common.hh"

using namespace mosaic;

namespace
{

const char *kUsage =
    "usage: serve_loadgen (--socket PATH | --port N)\n"
    "                     --platform P --workload W\n"
    "                     [--clients LIST] [--requests N]\n"
    "                     [--model NAME] [--out FILE]\n"
    "\n"
    "Benchmark a running mosaic_serve daemon.\n"
    "  --socket PATH   connect to a Unix-domain socket\n"
    "  --port N        connect to 127.0.0.1:N\n"
    "  --platform P    platform of the PREDICT query (required)\n"
    "  --workload W    workload of the PREDICT query (required)\n"
    "  --clients LIST  comma-separated stage sizes (default 1,8,64)\n"
    "  --requests N    requests per client per stage (default 2000)\n"
    "  --model NAME    model to query (default mosmodel)\n"
    "  --out FILE      write the mosaic-serve-bench/1 JSON report\n";

struct Target
{
    std::string socketPath;
    std::uint16_t port = 0;
};

int
connectTo(const Target &target)
{
    if (!target.socketPath.empty()) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, target.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(target.port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Send the full line; read one '\n'-terminated response. */
bool
roundTrip(int fd, const std::string &request, std::string &response,
          std::string &carry)
{
    std::size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n = ::send(fd, request.data() + sent,
                                 request.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    for (;;) {
        const std::size_t nl = carry.find('\n');
        if (nl != std::string::npos) {
            response = carry.substr(0, nl);
            carry.erase(0, nl + 1);
            return true;
        }
        char chunk[4096];
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return false;
        carry.append(chunk, static_cast<std::size_t>(n));
    }
}

struct StageResult
{
    unsigned clients = 0;
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    double seconds = 0.0;
    double predictionsPerSec = 0.0;
    std::uint64_t p50Usec = 0;
    std::uint64_t p99Usec = 0;
};

std::uint64_t
percentileUsec(std::vector<std::uint64_t> &sorted, double fraction)
{
    if (sorted.empty())
        return 0;
    const std::size_t rank = static_cast<std::size_t>(
        fraction * static_cast<double>(sorted.size() - 1));
    return sorted[rank];
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::runGuarded("serve_loadgen", [&]() -> int {
        cli::Args args = cli::parseToolArgs(
            "serve_loadgen", argc, argv,
            {"socket", "port", "platform", "workload", "clients",
             "requests", "model", "out"},
            kUsage);
        if ((!args.has("socket") && !args.has("port")) ||
            !args.has("platform") || !args.has("workload")) {
            cli::usage(kUsage);
        }

        Target target;
        target.socketPath = args.get("socket");
        if (!args.has("socket")) {
            target.port = static_cast<std::uint16_t>(cli::unwrapOrDie(
                "serve_loadgen",
                cli::parseUnsignedValue("port", args.get("port"), 1,
                                        65535)));
        }
        const std::uint64_t perClient = cli::unwrapOrDie(
            "serve_loadgen",
            cli::unsignedOption(args, "requests", 2000, 1,
                                100000000));

        std::vector<unsigned> stages;
        for (const std::string &word :
             splitString(args.get("clients", "1,8,64"), ',')) {
            stages.push_back(
                static_cast<unsigned>(cli::unwrapOrDie(
                    "serve_loadgen",
                    cli::parseUnsignedValue("clients",
                                            trimString(word), 1,
                                            4096))));
        }

        const std::string query =
            "PREDICT " + args.get("platform") + " " +
            args.get("workload") + " h=1000 m=100 c=50000 model=" +
            args.get("model", "mosmodel") + "\n";

        std::vector<StageResult> results;
        for (unsigned clients : stages) {
            std::vector<std::thread> threads;
            std::vector<std::vector<std::uint64_t>> latencies(clients);
            std::atomic<std::uint64_t> ok{0}, errors{0};

            const auto begin = std::chrono::steady_clock::now();
            for (unsigned c = 0; c < clients; ++c) {
                threads.emplace_back([&, c] {
                    const int fd = connectTo(target);
                    if (fd < 0) {
                        errors.fetch_add(perClient);
                        return;
                    }
                    std::string response, carry;
                    auto &mine = latencies[c];
                    mine.reserve(perClient);
                    for (std::uint64_t i = 0; i < perClient; ++i) {
                        const auto t0 =
                            std::chrono::steady_clock::now();
                        if (!roundTrip(fd, query, response, carry)) {
                            errors.fetch_add(1);
                            break;
                        }
                        const auto t1 =
                            std::chrono::steady_clock::now();
                        if (response.rfind("ok", 0) == 0) {
                            ok.fetch_add(1);
                        } else {
                            errors.fetch_add(1);
                        }
                        mine.push_back(static_cast<std::uint64_t>(
                            std::chrono::duration_cast<
                                std::chrono::microseconds>(t1 - t0)
                                .count()));
                    }
                    ::close(fd);
                });
            }
            for (auto &thread : threads)
                thread.join();
            const double seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - begin)
                    .count();

            std::vector<std::uint64_t> all;
            for (auto &mine : latencies)
                all.insert(all.end(), mine.begin(), mine.end());
            std::sort(all.begin(), all.end());

            StageResult stage;
            stage.clients = clients;
            stage.requests = ok.load();
            stage.errors = errors.load();
            stage.seconds = seconds;
            stage.predictionsPerSec =
                seconds > 0.0
                    ? static_cast<double>(ok.load()) / seconds
                    : 0.0;
            stage.p50Usec = percentileUsec(all, 0.50);
            stage.p99Usec = percentileUsec(all, 0.99);
            results.push_back(stage);

            std::printf("clients=%u requests=%llu errors=%llu "
                        "%.0f predictions/sec p50=%lluus p99=%lluus\n",
                        stage.clients,
                        static_cast<unsigned long long>(
                            stage.requests),
                        static_cast<unsigned long long>(stage.errors),
                        stage.predictionsPerSec,
                        static_cast<unsigned long long>(stage.p50Usec),
                        static_cast<unsigned long long>(
                            stage.p99Usec));
            std::fflush(stdout);
        }

        bool anyOk = false;
        for (const StageResult &stage : results)
            anyOk = anyOk || stage.requests > 0;

        if (args.has("out")) {
            std::ostringstream json;
            json << "{\n  \"schema\": \"mosaic-serve-bench/1\",\n"
                 << "  \"platform\": \""
                 << jsonEscape(args.get("platform")) << "\",\n"
                 << "  \"workload\": \""
                 << jsonEscape(args.get("workload")) << "\",\n"
                 << "  \"stages\": [\n";
            for (std::size_t i = 0; i < results.size(); ++i) {
                const StageResult &stage = results[i];
                json << "    {\"clients\": " << stage.clients
                     << ", \"requests\": " << stage.requests
                     << ", \"errors\": " << stage.errors
                     << ", \"seconds\": "
                     << formatDouble(stage.seconds, 3)
                     << ", \"predictions_per_sec\": "
                     << formatDouble(stage.predictionsPerSec, 1)
                     << ", \"p50_usec\": " << stage.p50Usec
                     << ", \"p99_usec\": " << stage.p99Usec << "}"
                     << (i + 1 < results.size() ? "," : "") << "\n";
            }
            json << "  ]\n}\n";
            auto written =
                writeFileAtomic(args.get("out"), json.str());
            if (!written.ok()) {
                std::fprintf(stderr, "serve_loadgen: %s\n",
                             written.error().str().c_str());
                return 1;
            }
        }
        return anyOk ? 0 : 1;
    });
}
