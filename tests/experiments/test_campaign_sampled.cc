/**
 * @file
 * Sampled campaigns: the est_err CSV column round-trips, the sampled
 * dataset is byte-identical across jobs/shard scheduling, the
 * resume format guard keeps full-replay and sampled caches apart, and
 * sampling actually replays fewer records than the full campaign.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "common/scratch_dir.hh"
#include "experiments/campaign.hh"
#include "experiments/shard.hh"
#include "support/random.hh"

using namespace mosaic;
using namespace mosaic::exp;

namespace
{

/** Same tiny TLB-sensitive workload the other campaign tests use. */
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

CampaignConfig
sampledConfig()
{
    CampaignConfig config;
    config.verbose = false;
    config.workloads = {"test/tiny"};
    config.workloadFactory =
        [](const std::string &label) -> std::unique_ptr<workloads::Workload> {
        if (label == "test/tiny")
            return std::make_unique<TinyWorkload>();
        throw std::runtime_error("unknown test workload: " + label);
    };
    config.sampling.mode = sampling::SampleMode::Interval;
    config.sampling.intervalRecords = 1024; // 12 intervals over 12000
    config.sampling.clusters = 3;
    config.sampling.warmupRecords = 256;
    return config;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

class CampaignSampledTest : public ::testing::Test
{
  protected:
    test::ScratchDir scratch_;
};

} // namespace

TEST_F(CampaignSampledTest, EmitsEstErrColumnAndRoundTrips)
{
    CampaignConfig config = sampledConfig();
    config.jobs = 2;
    std::string csv = scratch_.file("sampled.csv");
    CampaignReport report = CampaignRunner(config).runReport(csv);
    ASSERT_TRUE(report.allOk()) << report.summary();
    EXPECT_EQ(report.cellsCompleted, 3u * 55u);
    EXPECT_TRUE(report.dataset.estErrColumn());
    EXPECT_STREQ(report.dataset.csvHeader(), datasetCsvHeaderEstErr());

    // The serialized header is the est_err variant and every row
    // parses back with its error bound intact (to the emitter's fixed
    // 6-decimal precision).
    Dataset loaded = Dataset::load(csv);
    EXPECT_TRUE(loaded.estErrColumn());
    EXPECT_EQ(loaded.totalRuns(), report.dataset.totalRuns());
    for (const auto &platform : report.dataset.platforms()) {
        const auto &fresh = report.dataset.runs(platform, "test/tiny");
        const auto &reloaded = loaded.runs(platform, "test/tiny");
        ASSERT_EQ(fresh.size(), reloaded.size());
        for (std::size_t i = 0; i < fresh.size(); ++i) {
            EXPECT_EQ(fresh[i].layout, reloaded[i].layout);
            EXPECT_EQ(fresh[i].result.runtimeCycles,
                      reloaded[i].result.runtimeCycles);
            EXPECT_NEAR(fresh[i].estErr, reloaded[i].estErr, 1e-6);
            EXPECT_GE(reloaded[i].estErr, 0.0);
        }
    }
}

TEST_F(CampaignSampledTest, ByteIdenticalAcrossJobs)
{
    CampaignConfig serial = sampledConfig();
    serial.jobs = 1;
    std::string serial_csv = scratch_.file("jobs1.csv");
    CampaignReport a = CampaignRunner(serial).runReport(serial_csv);
    ASSERT_TRUE(a.allOk()) << a.summary();

    CampaignConfig wide = sampledConfig();
    wide.jobs = 8;
    std::string wide_csv = scratch_.file("jobs8.csv");
    CampaignReport b = CampaignRunner(wide).runReport(wide_csv);
    ASSERT_TRUE(b.allOk()) << b.summary();

    std::string serial_bytes = slurp(serial_csv);
    ASSERT_FALSE(serial_bytes.empty());
    EXPECT_EQ(serial_bytes, slurp(wide_csv));
}

TEST_F(CampaignSampledTest, TwoShardMergeIsByteIdenticalToUnsharded)
{
    CampaignConfig config = sampledConfig();
    config.jobs = 4;
    std::string full_csv = scratch_.file("full.csv");
    CampaignReport full = CampaignRunner(config).runReport(full_csv);
    ASSERT_TRUE(full.allOk()) << full.summary();

    auto runShard = [&](unsigned index, const char *name) {
        CampaignConfig shard_config = config;
        shard_config.shardIndex = index;
        shard_config.shardCount = 2;
        std::string csv = scratch_.file(name);
        CampaignReport report =
            CampaignRunner(shard_config).runReport(csv);
        EXPECT_TRUE(report.allOk()) << report.summary();
        return csv;
    };
    auto a = readShardFile(runShard(0, "shard0.csv"));
    auto b = readShardFile(runShard(1, "shard1.csv"));
    ASSERT_TRUE(a.ok()) << a.error().str();
    ASSERT_TRUE(b.ok()) << b.error().str();
    EXPECT_TRUE(a.value().estErrColumn);
    EXPECT_TRUE(b.value().estErrColumn);

    auto merged = mergeShards({a.value(), b.value()}, false);
    ASSERT_TRUE(merged.ok()) << merged.error().str();
    EXPECT_TRUE(merged.value().missing.empty());
    EXPECT_EQ(merged.value().rowsMerged, 3u * 55u);
    EXPECT_EQ(merged.value().csv, slurp(full_csv));
}

TEST_F(CampaignSampledTest, ResumeFormatGuardKeepsFormatsApart)
{
    // A full-replay cache must not seed a sampled campaign (and the
    // sampled run must still produce the complete sampled dataset).
    CampaignConfig classic = sampledConfig();
    classic.sampling.mode = sampling::SampleMode::Off;
    std::string csv = scratch_.file("cache.csv");
    CampaignReport full = CampaignRunner(classic).runReport(csv);
    ASSERT_TRUE(full.allOk()) << full.summary();
    EXPECT_FALSE(full.dataset.estErrColumn());

    CampaignConfig sampled = sampledConfig();
    CampaignReport resumed = CampaignRunner(sampled).runReport(csv);
    ASSERT_TRUE(resumed.allOk()) << resumed.summary();
    EXPECT_EQ(resumed.cellsResumed, 0u);
    EXPECT_EQ(resumed.cellsCompleted, 3u * 55u);
    Dataset reloaded = Dataset::load(csv);
    EXPECT_TRUE(reloaded.estErrColumn());
}

TEST_F(CampaignSampledTest, SampledRunReplaysFewerRecords)
{
    const std::uint64_t replayed_before = static_cast<std::uint64_t>(
        metrics().counter("replay/sampled_records_replayed"));
    const std::uint64_t skipped_before = static_cast<std::uint64_t>(
        metrics().counter("replay/sampled_records_skipped"));

    CampaignConfig config = sampledConfig();
    config.jobs = 2;
    CampaignReport report = CampaignRunner(config).runReport();
    ASSERT_TRUE(report.allOk()) << report.summary();

    const std::uint64_t replayed =
        static_cast<std::uint64_t>(
            metrics().counter("replay/sampled_records_replayed")) -
        replayed_before;
    const std::uint64_t skipped =
        static_cast<std::uint64_t>(
            metrics().counter("replay/sampled_records_skipped")) -
        skipped_before;
    EXPECT_GT(replayed, 0u);
    EXPECT_GT(skipped, replayed); // most of every trace is skipped
    EXPECT_EQ(metrics().gauge("campaign/sampled"), 1.0);
}

TEST_F(CampaignSampledTest, CoWorkloadIsRejectedAsConfigError)
{
    CampaignConfig config = sampledConfig();
    config.coWorkload = "test/tiny";
    config.os.memFrames = 4096; // co-workload precondition
    CampaignReport report = CampaignRunner(config).runReport();
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].error.category(),
              ErrorCategory::Config);
    EXPECT_EQ(report.cellsCompleted, 0u);
}
