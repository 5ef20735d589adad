/**
 * @file
 * Tests for the serve ModelRegistry: warm predictions from a loaded
 * campaign dataset, structured rejection of unknown names, and the
 * cold path — on-demand simulation, the interval-sampled cold
 * variant, single-flight dedup, deadline timeouts, and trace-store
 * reuse.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/scratch_dir.hh"
#include "experiments/campaign.hh"
#include "serve/model_registry.hh"
#include "support/random.hh"
#include "support/sim_context.hh"

using namespace mosaic;
using namespace mosaic::serve;

namespace
{

/** Same tiny TLB-sensitive workload the campaign tests use. */
class TinyWorkload : public workloads::Workload
{
  public:
    workloads::WorkloadInfo
    info() const override
    {
        return {"test", "tiny"};
    }

    Bytes heapPoolSize() const override { return 24_MiB; }

    trace::MemoryTrace
    generateTrace() const override
    {
        trace::MemoryTrace trace;
        Rng rng(99);
        VirtAddr base = alloc::PoolAddresses::heapBase;
        for (int i = 0; i < 12000; ++i)
            trace.add(base + alignDown(rng.nextBounded(24_MiB), 8), 2,
                      false);
        return trace;
    }
};

/** Campaign dataset over TinyWorkload, built once per test binary. */
const exp::Dataset &
sharedDataset()
{
    static const exp::Dataset dataset = [] {
        exp::Dataset built;
        exp::CampaignConfig config;
        config.verbose = false;
        TinyWorkload workload;
        exp::CampaignRunner::runPair(workload, cpu::sandyBridge(),
                                     config, built);
        return built;
    }();
    return dataset;
}

ModelRegistry::Options
coldOptions()
{
    ModelRegistry::Options options;
    options.workloadFactory = [](const std::string &label)
        -> std::unique_ptr<workloads::Workload> {
        if (label != "test/tiny")
            throw std::runtime_error("no workload " + label);
        return std::make_unique<TinyWorkload>();
    };
    return options;
}

PredictQuery
tinyQuery()
{
    PredictQuery query;
    query.platform = "SandyBridge";
    query.workload = "test/tiny";
    query.byLayout = true;
    query.layout = "grow-3";
    return query;
}

} // namespace

TEST(ServeRegistry, LoadsDatasetAndPredictsWarm)
{
    test::ScratchDir scratch("serve_registry");
    const std::string csv = scratch.path() + "/campaign.csv";
    sharedDataset().save(csv);

    ModelRegistry registry(ModelRegistry::Options{});
    auto loaded = registry.loadDataset(csv);
    ASSERT_TRUE(loaded.ok()) << loaded.error().str();
    EXPECT_EQ(loaded.value(), 1u);
    EXPECT_TRUE(registry.isResident("SandyBridge", "test/tiny"));

    MetricsRegistry shard;
    SimContext context(shard, faults());
    auto prediction = registry.predict(tinyQuery(), context);
    ASSERT_TRUE(prediction.ok()) << prediction.error().str();
    EXPECT_FALSE(prediction.value().cold);
    EXPECT_TRUE(prediction.value().hasMeasured);
    EXPECT_GT(prediction.value().predictedCycles, 0.0);
    EXPECT_GT(prediction.value().measuredCycles, 0.0);
    EXPECT_EQ(shard.counter("serve/warm_hits"), 1u);
    EXPECT_EQ(shard.counter("serve/model_fits"), 1u);

    // Second query reuses the fitted model.
    auto again = registry.predict(tinyQuery(), context);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(shard.counter("serve/model_fits"), 1u);
    EXPECT_EQ(shard.counter("serve/model_cache_hits"), 1u);
    EXPECT_DOUBLE_EQ(again.value().predictedCycles,
                     prediction.value().predictedCycles);
}

TEST(ServeRegistry, MetricQueriesPredictWithoutMeasuredRuntime)
{
    test::ScratchDir scratch("serve_registry");
    const std::string csv = scratch.path() + "/campaign.csv";
    sharedDataset().save(csv);
    ModelRegistry registry(ModelRegistry::Options{});
    ASSERT_TRUE(registry.loadDataset(csv).ok());

    MetricsRegistry shard;
    SimContext context(shard, faults());
    PredictQuery query = tinyQuery();
    query.byLayout = false;
    query.layout.clear();
    query.h = 1000;
    query.m = 200;
    query.c = 60000;
    auto prediction = registry.predict(query, context);
    ASSERT_TRUE(prediction.ok()) << prediction.error().str();
    EXPECT_FALSE(prediction.value().hasMeasured);
    EXPECT_TRUE(std::isfinite(prediction.value().predictedCycles));
}

TEST(ServeRegistry, UnknownNamesAreConfigErrorsNotAborts)
{
    test::ScratchDir scratch("serve_registry");
    const std::string csv = scratch.path() + "/campaign.csv";
    sharedDataset().save(csv);
    ModelRegistry registry(ModelRegistry::Options{});
    ASSERT_TRUE(registry.loadDataset(csv).ok());

    MetricsRegistry shard;
    SimContext context(shard, faults());

    PredictQuery query = tinyQuery();
    query.model = "no-such-model";
    auto badModel = registry.predict(query, context);
    ASSERT_FALSE(badModel.ok());
    EXPECT_EQ(badModel.error().category(), ErrorCategory::Config);

    query = tinyQuery();
    query.layout = "grow-999";
    auto badLayout = registry.predict(query, context);
    ASSERT_FALSE(badLayout.ok());
    EXPECT_EQ(badLayout.error().category(), ErrorCategory::Config);

    // Unknown platform and workload surface from the cold path.
    ModelRegistry cold(coldOptions());
    query = tinyQuery();
    query.platform = "Cray-1";
    auto badPlatform = cold.predict(query, context);
    ASSERT_FALSE(badPlatform.ok());
    EXPECT_EQ(badPlatform.error().category(), ErrorCategory::Config);

    query = tinyQuery();
    query.workload = "test/unknown";
    auto badWorkload = cold.predict(query, context);
    ASSERT_FALSE(badWorkload.ok());
    EXPECT_EQ(badWorkload.error().category(), ErrorCategory::Config);
}

TEST(ServeRegistry, ColdDisabledRefusesUnknownPairs)
{
    ModelRegistry::Options options = coldOptions();
    options.allowCold = false;
    ModelRegistry registry(std::move(options));
    MetricsRegistry shard;
    SimContext context(shard, faults());
    auto prediction = registry.predict(tinyQuery(), context);
    ASSERT_FALSE(prediction.ok());
    EXPECT_EQ(prediction.error().category(), ErrorCategory::Config);
    EXPECT_NE(prediction.error().message().find("cold"),
              std::string::npos);
}

TEST(ServeRegistry, ColdPathSimulatesCachesAndMatchesTheCampaign)
{
    ModelRegistry registry(coldOptions());
    MetricsRegistry shard;
    SimContext context(shard, faults());

    auto prediction = registry.predict(tinyQuery(), context);
    ASSERT_TRUE(prediction.ok()) << prediction.error().str();
    EXPECT_TRUE(prediction.value().cold);
    EXPECT_EQ(shard.counter("serve/cold_simulations"), 1u);
    EXPECT_TRUE(registry.isResident("SandyBridge", "test/tiny"));

    // The cold surface is the campaign surface: same layouts, same
    // seed, same replay engine — the measured runtime of grow-3 must
    // be bit-identical to the dataset the campaign runner produced.
    const auto &row =
        sharedDataset().findRun("SandyBridge", "test/tiny", "grow-3");
    EXPECT_DOUBLE_EQ(prediction.value().measuredCycles,
                     static_cast<double>(row.result.runtimeCycles));

    // Later queries answer warm from the cached surface.
    auto warm = registry.predict(tinyQuery(), context);
    ASSERT_TRUE(warm.ok());
    EXPECT_FALSE(warm.value().cold);
    EXPECT_EQ(shard.counter("serve/cold_simulations"), 1u);
}

TEST(ServeRegistry, ColdSampledPathEstimatesAndReplaysFewerRecords)
{
    ModelRegistry::Options options = coldOptions();
    options.coldSampling.mode = sampling::SampleMode::Interval;
    options.coldSampling.intervalRecords = 1024; // 12 intervals
    options.coldSampling.clusters = 3;
    options.coldSampling.warmupRecords = 256;
    ModelRegistry registry(std::move(options));
    MetricsRegistry shard;
    SimContext context(shard, faults());

    auto prediction = registry.predict(tinyQuery(), context);
    ASSERT_TRUE(prediction.ok()) << prediction.error().str();
    EXPECT_TRUE(prediction.value().cold);
    EXPECT_EQ(shard.counter("serve/cold_sampled"), 1u);
    EXPECT_TRUE(registry.isResident("SandyBridge", "test/tiny"));

    // Sampled cold lanes replay only the plan's segments: strictly
    // fewer records measured than skipped, across the whole grid.
    const std::uint64_t replayed =
        shard.counter("replay/sampled_records_replayed");
    const std::uint64_t skipped =
        shard.counter("replay/sampled_records_skipped");
    EXPECT_GT(replayed, 0u);
    EXPECT_GT(skipped, replayed);

    // The extrapolated grow-3 runtime approximates the full campaign
    // measurement (loose bound — the plan reports its own estimate).
    const auto &row =
        sharedDataset().findRun("SandyBridge", "test/tiny", "grow-3");
    const double full = static_cast<double>(row.result.runtimeCycles);
    EXPECT_GT(prediction.value().measuredCycles, 0.0);
    EXPECT_NEAR(prediction.value().measuredCycles, full, 0.25 * full);

    // Sampled cold surfaces are deterministic: a second registry with
    // the same knobs lands on the identical estimate.
    ModelRegistry::Options again = coldOptions();
    again.coldSampling.mode = sampling::SampleMode::Interval;
    again.coldSampling.intervalRecords = 1024;
    again.coldSampling.clusters = 3;
    again.coldSampling.warmupRecords = 256;
    ModelRegistry rerun(std::move(again));
    auto repeat = rerun.predict(tinyQuery(), context);
    ASSERT_TRUE(repeat.ok()) << repeat.error().str();
    EXPECT_DOUBLE_EQ(repeat.value().measuredCycles,
                     prediction.value().measuredCycles);
}

TEST(ServeRegistry, ConcurrentColdQueriesDedupToOneSimulation)
{
    ModelRegistry registry(coldOptions());
    MetricsRegistry shard;

    constexpr int kThreads = 8;
    std::atomic<int> armed{0};
    std::atomic<int> okCount{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            SimContext context(shard, faults());
            armed.fetch_add(1);
            while (armed.load() < kThreads) {
            }
            auto prediction = registry.predict(tinyQuery(), context);
            if (prediction.ok())
                okCount.fetch_add(1);
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(okCount.load(), kThreads);
    EXPECT_EQ(shard.counter("serve/cold_simulations"), 1u);
}

TEST(ServeRegistry, ExpiredDeadlineTimesOutTheColdPath)
{
    ModelRegistry registry(coldOptions());
    MetricsRegistry shard;
    SimContext context =
        SimContext(shard, faults())
            .withDeadline(std::chrono::steady_clock::now() -
                          std::chrono::seconds(1));
    auto prediction = registry.predict(tinyQuery(), context);
    ASSERT_FALSE(prediction.ok());
    EXPECT_EQ(prediction.error().category(), ErrorCategory::Timeout);
    EXPECT_EQ(shard.counter("serve/cold_timeouts"), 1u);
    // The failed pair is not cached; a later unbounded query works.
    EXPECT_FALSE(registry.isResident("SandyBridge", "test/tiny"));
    SimContext unbounded(shard, faults());
    EXPECT_TRUE(registry.predict(tinyQuery(), unbounded).ok());
}

TEST(ServeRegistry, TraceCacheDirIsReusedAcrossRegistries)
{
    test::ScratchDir scratch("serve_trace_cache");
    MetricsRegistry shard;
    SimContext context(shard, faults());

    ModelRegistry::Options options = coldOptions();
    options.traceCacheDir = scratch.path();
    ModelRegistry first(std::move(options));
    ASSERT_TRUE(first.predict(tinyQuery(), context).ok());
    EXPECT_EQ(shard.counter("serve/trace_store_hits"), 0u);

    ModelRegistry::Options reuse = coldOptions();
    reuse.traceCacheDir = scratch.path();
    ModelRegistry second(std::move(reuse));
    ASSERT_TRUE(second.predict(tinyQuery(), context).ok());
    EXPECT_EQ(shard.counter("serve/trace_store_hits"), 1u);
}
