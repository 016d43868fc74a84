#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string>

#include "analysis/artifact.hh"

namespace diablo {
namespace analysis {
namespace {

RunArtifact
sampleArtifact()
{
    RunArtifact a;
    a.workload = "incast";
    a.engine = "seq";
    a.nodes = 12;
    a.elapsed_us = 1500.0;
    a.goodput_mbps = 42.5;
    a.requests_completed = 3;

    LatencyStat lat;
    lat.record(100.0);
    lat.record(200.0);
    a.latencies.emplace_back("iteration_us", LatencyDigest::of(lat));

    auto &g = a.addGroup("network");
    g.counters = {{"switch_drops", 5}, {"forwarded", 1000}};

    RunArtifact::PartitionRow row;
    row.events = 999;
    row.pool_makes = 40;
    row.pool_returns = 40;
    row.pool_recycles = 39;
    row.pool_heap_allocs = 1;
    a.partition_rows.push_back(row);
    a.executed_events = 999;
    return a;
}

TEST(LatencyDigest, OfLatencyStatCarriesPercentilesAndFingerprint)
{
    LatencyStat s;
    for (int i = 1; i <= 100; ++i) {
        s.record(static_cast<double>(i));
    }
    LatencyDigest d = LatencyDigest::of(s);
    EXPECT_EQ(d.count, 100u);
    EXPECT_DOUBLE_EQ(d.min, 1.0);
    EXPECT_DOUBLE_EQ(d.max, 100.0);
    EXPECT_GE(d.p99, d.p50);
    EXPECT_FALSE(d.sketched);
    EXPECT_EQ(d.fingerprint, s.fingerprint());

    LatencyDigest empty = LatencyDigest::of(LatencyStat());
    EXPECT_EQ(empty.count, 0u);
}

TEST(LatencyDigest, OfSampleSetIsOrderSensitive)
{
    SampleSet fwd, rev;
    fwd.record(1.0);
    fwd.record(2.0);
    rev.record(2.0);
    rev.record(1.0);
    EXPECT_NE(LatencyDigest::of(fwd).fingerprint,
              LatencyDigest::of(rev).fingerprint);
    EXPECT_EQ(LatencyDigest::of(fwd).fingerprint,
              LatencyDigest::of(fwd).fingerprint);
}

TEST(RunArtifact, FingerprintIsStableAndSensitive)
{
    RunArtifact a = sampleArtifact();
    const uint64_t base = a.fingerprint();
    EXPECT_EQ(base, sampleArtifact().fingerprint()); // deterministic

    RunArtifact b = sampleArtifact();
    b.requests_completed = 4;
    EXPECT_NE(b.fingerprint(), base);

    RunArtifact c = sampleArtifact();
    c.groups[0].counters[0].second += 1;
    EXPECT_NE(c.fingerprint(), base);

    RunArtifact d = sampleArtifact();
    d.partition_rows[0].pool_makes += 1;
    EXPECT_NE(d.fingerprint(), base);
}

TEST(RunArtifact, FingerprintIgnoresWallClockArtifacts)
{
    RunArtifact a = sampleArtifact();
    const uint64_t base = a.fingerprint();

    // Engine internals and the pool recycle/heap split legitimately
    // differ run-to-run (and single-vs-sharded); they must not fold.
    a.engine = "par";
    a.threads_requested = 8;
    a.workers = 4;
    a.cores = 16;
    a.oversubscribed = true;
    a.quanta = 123;
    a.executed_events += 1000;
    a.partition_rows[0].events += 1000;
    a.partition_rows[0].pool_recycles = 0;
    a.partition_rows[0].pool_heap_allocs = 40;
    a.partition_rows[0].pool_high_water = 40;
    a.telemetry_path = "x.jsonl";
    a.telemetry_samples = 17;
    a.has_mem = true;
    a.peak_rss_mb = 123.0;
    a.config.set("some.key", 1);
    EXPECT_EQ(a.fingerprint(), base);

    // A group explicitly marked non-deterministic is reported only.
    RunArtifact b = sampleArtifact();
    auto &g = b.addGroup("host", /*deterministic=*/false);
    g.counters = {{"cache_misses", 1234567}};
    EXPECT_EQ(b.fingerprint(), base);

    // A sharded run splits the same pool ledger over one row per
    // partition; only the totals fold.
    RunArtifact c = sampleArtifact();
    c.partition_rows.push_back(c.partition_rows[0]);
    c.partition_rows[0].pool_makes = 15;
    c.partition_rows[0].pool_returns = 30;
    c.partition_rows[1].pool_makes = 25;
    c.partition_rows[1].pool_returns = 10;
    EXPECT_EQ(c.fingerprint(), base);
}

TEST(RunArtifact, JsonCarriesEverySection)
{
    RunArtifact a = sampleArtifact();
    a.has_mem = true;
    a.peak_rss_mb = 64.0;
    a.telemetry_path = "run.telemetry.jsonl";
    a.telemetry_period_us = 1000.0;
    a.telemetry_samples = 5;
    a.config.set("incast.servers", 8);
    a.cores = 4;
    a.oversubscribed = false;

    const std::string j = a.toJson();
    for (const char *needle :
         {"\"schema\": 1", "\"workload\": \"incast\"",
          "\"engine\":", "\"name\": \"seq\"", "\"results\":",
          "\"goodput_mbps\": 42.5", "\"requests_completed\": 3",
          "\"latencies\":", "\"iteration_us\":", "\"p99_us\":",
          "\"counters\":", "\"network\":", "\"switch_drops\": 5",
          "\"cores\": 4", "\"oversubscribed\": false",
          "\"partitions\": [", "\"pool_makes\": 40", "\"mem\":",
          "\"telemetry\":", "\"samples\": 5", "\"fingerprint\": \"0x",
          "\"config\":", "\"incast.servers\": \"8\""}) {
        EXPECT_NE(j.find(needle), std::string::npos) << needle;
    }
    // The emitted fingerprint matches the computed one.
    char want[32];
    std::snprintf(want, sizeof(want), "\"0x%016llx\"",
                  static_cast<unsigned long long>(a.fingerprint()));
    EXPECT_NE(j.find(want), std::string::npos);
}

TEST(RunArtifactValidate, AcceptsACompleteWrittenArtifact)
{
    const std::string path =
        testing::TempDir() + "diablo_validate_ok.json";
    RunArtifact a = sampleArtifact();
    a.writeJson(path);

    const RunArtifact::Validation v = RunArtifact::validate(path);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.status, "ok");
    char want[32];
    std::snprintf(want, sizeof(want), "0x%016llx",
                  static_cast<unsigned long long>(a.fingerprint()));
    EXPECT_EQ(v.fingerprint, want);
    std::remove(path.c_str());
}

TEST(RunArtifactValidate, AtomicWriteLeavesNoTempDebris)
{
    const std::string dir = testing::TempDir() + "diablo_atomic_dir";
    ASSERT_TRUE(mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
    const std::string path = dir + "/a.json";
    sampleArtifact().writeJson(path);
    // Overwrite in place: still valid, and the directory holds only
    // the final artifact (the temp name was renamed away).
    sampleArtifact().writeJson(path);
    EXPECT_TRUE(RunArtifact::validate(path).ok);
    DIR *d = opendir(dir.c_str());
    ASSERT_NE(d, nullptr);
    size_t entries = 0;
    while (struct dirent *e = readdir(d)) {
        if (e->d_name[0] != '.') {
            ++entries;
            EXPECT_EQ(std::string(e->d_name), "a.json");
        }
    }
    closedir(d);
    EXPECT_EQ(entries, 1u);
    std::remove(path.c_str());
    rmdir(dir.c_str());
}

TEST(RunArtifactValidate, RejectsInterruptedPartials)
{
    const std::string path =
        testing::TempDir() + "diablo_validate_partial.json";
    RunArtifact a = sampleArtifact();
    a.status = "interrupted";
    a.interrupt_cause = "SIGTERM";
    a.writeJson(path);

    const RunArtifact::Validation v = RunArtifact::validate(path);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.status, "interrupted");
    // The partial still carries its fingerprint-so-far and says why
    // it stopped.
    EXPECT_FALSE(v.fingerprint.empty());
    EXPECT_NE(v.error.find("interrupted"), std::string::npos);
    EXPECT_NE(a.toJson().find("\"interrupt_cause\": \"SIGTERM\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(RunArtifactValidate, RejectsTruncatedDebris)
{
    const std::string path =
        testing::TempDir() + "diablo_validate_trunc.json";
    RunArtifact a = sampleArtifact();
    a.writeJson(path);
    // Chop the file mid-way: simulates a non-atomic writer dying (or
    // a torn copy).  validate must flag it, not mis-parse it.
    const std::string doc = a.toJson();
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(doc.data(), 1, doc.size() / 2, f);
    std::fclose(f);

    const RunArtifact::Validation v = RunArtifact::validate(path);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("not a complete JSON object"),
              std::string::npos)
        << v.error;
    std::remove(path.c_str());
}

TEST(RunArtifactValidate, RejectsMissingFileAndWrongSchema)
{
    const RunArtifact::Validation missing =
        RunArtifact::validate(testing::TempDir() + "diablo_nope.json");
    EXPECT_FALSE(missing.ok);
    EXPECT_NE(missing.error.find("cannot read"), std::string::npos);

    const std::string path =
        testing::TempDir() + "diablo_validate_schema.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\n  \"schema\": 999,\n  \"fingerprint\": \"0x0\"\n}\n",
               f);
    std::fclose(f);
    const RunArtifact::Validation v = RunArtifact::validate(path);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("schema"), std::string::npos) << v.error;
    std::remove(path.c_str());
}

} // namespace
} // namespace analysis
} // namespace diablo
