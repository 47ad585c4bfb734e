/**
 * @file
 * Tests for the harness: reproducibility, histogram integrity,
 * iteration plumbing, and the incidence ordering the incantations
 * induce (Tab. 6's qualitative claims).
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "common/hash.h"
#include "gen/generator.h"
#include "harness/campaign.h"
#include "litmus/library.h"
#include "litmus/parser.h"

namespace gpulitmus::harness {
namespace {

namespace pl = litmus::paperlib;

TEST(Runner, HistogramTotalsMatchIterations)
{
    RunConfig cfg;
    cfg.iterations = 500;
    litmus::Histogram h = run(sim::chip("Titan"), pl::mp(), cfg);
    EXPECT_EQ(h.total(), 500u);
    uint64_t sum = 0;
    for (const auto &[key, count] : h.counts())
        sum += count;
    EXPECT_EQ(sum, 500u);
}

TEST(Runner, MachineReuseAcrossOptionsIsBitIdentical)
{
    // runJob serves every (chip, test) pair from one thread-local
    // compiled machine, re-parameterised per job via setOptions.
    // Interleaving columns and chips must leave each cell
    // bit-identical to what a freshly compiled machine computes.
    RunConfig c16;
    c16.iterations = 3000;
    c16.seed = 12345;
    c16.inc = sim::Incantations::fromColumn(16);
    RunConfig c1 = c16;
    c1.inc = sim::Incantations::fromColumn(1);

    litmus::Histogram first = run(sim::chip("Titan"), pl::mp(), c16);
    // Reconfigure the cached machine (same chip/test, column 1) and
    // touch a second chip and a second test in between.
    run(sim::chip("Titan"), pl::mp(), c1);
    run(sim::chip("GTX5"), pl::mp(), c16);
    run(sim::chip("Titan"), pl::sb(), c16);
    litmus::Histogram again = run(sim::chip("Titan"), pl::mp(), c16);
    EXPECT_EQ(first.counts(), again.counts());
    EXPECT_EQ(first.observed(), again.observed());
}

TEST(Runner, ReproducibleWithSameSeed)
{
    RunConfig cfg;
    cfg.iterations = 2000;
    litmus::Histogram a = run(sim::chip("TesC"), pl::sb(), cfg);
    litmus::Histogram b = run(sim::chip("TesC"), pl::sb(), cfg);
    EXPECT_EQ(a.observed(), b.observed());
    EXPECT_EQ(a.counts(), b.counts());
}

TEST(Runner, DifferentSeedsDiffer)
{
    RunConfig a_cfg, b_cfg;
    a_cfg.iterations = b_cfg.iterations = 5000;
    b_cfg.seed = a_cfg.seed + 1;
    litmus::Histogram a = run(sim::chip("Titan"), pl::sb(), a_cfg);
    litmus::Histogram b = run(sim::chip("Titan"), pl::sb(), b_cfg);
    // Weak counts fluctuate between seeds (they are samples).
    EXPECT_NE(a.counts(), b.counts());
}

TEST(Runner, ObservePer100kNormalises)
{
    RunConfig cfg;
    cfg.iterations = 1000;
    // A test whose condition always holds: final x=1 after one store.
    litmus::Test t = litmus::TestBuilder("always")
                         .global("x", 0)
                         .thread("st.cg [x],1")
                         .intraCta()
                         .exists("x=1")
                         .build();
    EXPECT_EQ(observePer100k(sim::chip("Titan"), t, cfg), 100000u);
}

TEST(Runner, DefaultIterationsFromEnv)
{
    setenv("GPULITMUS_ITERS", "1234", 1);
    EXPECT_EQ(defaultIterations(), 1234u);
    setenv("GPULITMUS_ITERS", "bogus", 1);
    EXPECT_EQ(defaultIterations(), 100000u);
    unsetenv("GPULITMUS_ITERS");
    EXPECT_EQ(defaultIterations(), 100000u);
}

TEST(Runner, MpAllOutcomesAppear)
{
    RunConfig cfg;
    cfg.iterations = 20000;
    litmus::Histogram h = run(sim::chip("Titan"), pl::mp(), cfg);
    // All four r1/r2 combinations should be reachable under stress.
    EXPECT_EQ(h.counts().size(), 4u);
}

TEST(Incantations, StressIsRequiredOnNvidia)
{
    RunConfig with, without;
    with.iterations = without.iterations = 8000;
    with.inc = sim::Incantations::all();
    without.inc = sim::Incantations::all();
    without.inc.memoryStress = false;
    without.inc.bankConflicts = false;
    EXPECT_GT(run(sim::chip("Titan"), pl::sb(), with).observed(), 0u);
    EXPECT_EQ(run(sim::chip("Titan"), pl::sb(), without).observed(),
              0u);
}

TEST(Incantations, AmdWeakWithoutStress)
{
    RunConfig cfg;
    cfg.iterations = 8000;
    cfg.inc = sim::Incantations::none();
    EXPECT_GT(run(sim::chip("HD7970"), pl::lb(), cfg).observed(), 0u);
}

TEST(Incantations, SyncIncreasesInterCtaIncidence)
{
    RunConfig base, sync;
    base.iterations = sync.iterations = 30000;
    base.inc = sim::Incantations::fromColumn(9);  // stress only
    sync.inc = sim::Incantations::fromColumn(11); // stress + sync
    uint64_t without_sync =
        run(sim::chip("Titan"), pl::sb(), base).observed();
    uint64_t with_sync =
        run(sim::chip("Titan"), pl::sb(), sync).observed();
    EXPECT_GT(with_sync, without_sync);
}

TEST(Incantations, BankConflictsNeededForCoRRWithoutStress)
{
    RunConfig bank_rand, rand_only;
    bank_rand.iterations = rand_only.iterations = 20000;
    bank_rand.inc = sim::Incantations::fromColumn(6); // bank + rand
    rand_only.inc = sim::Incantations::fromColumn(2); // rand alone
    EXPECT_GT(
        run(sim::chip("Titan"), pl::coRR(), bank_rand).observed(),
        0u);
    EXPECT_EQ(
        run(sim::chip("Titan"), pl::coRR(), rand_only).observed(),
        0u);
}

TEST(Incantations, BankConflictsDampenInterCtaOnNvidia)
{
    RunConfig c12, c16;
    c12.iterations = c16.iterations = 40000;
    c12.inc = sim::Incantations::fromColumn(12);
    c16.inc = sim::Incantations::fromColumn(16);
    uint64_t without_bank =
        run(sim::chip("Titan"), pl::lb(), c12).observed();
    uint64_t with_bank =
        run(sim::chip("Titan"), pl::lb(), c16).observed();
    EXPECT_GT(without_bank, with_bank);
}

// ---- campaign engine ------------------------------------------------

TEST(Campaign, GridIsRowMajorTestChipColumn)
{
    auto jobs = Campaign()
                    .iterations(100)
                    .test(pl::mp(), "mp")
                    .test(pl::sb(), "sb")
                    .overChips(std::vector<std::string>{"Titan",
                                                        "HD7970"})
                    .overColumns(9, 10)
                    .jobs();
    ASSERT_EQ(jobs.size(), 8u);
    EXPECT_EQ(jobs[0].label, "mp");
    EXPECT_EQ(jobs[0].chip.shortName, "Titan");
    EXPECT_EQ(jobs[0].inc.column(), 9);
    EXPECT_EQ(jobs[1].inc.column(), 10);
    EXPECT_EQ(jobs[2].chip.shortName, "HD7970");
    EXPECT_EQ(jobs[4].label, "sb");
    for (const auto &job : jobs)
        EXPECT_EQ(job.iterations, 100u);
}

TEST(Campaign, OverBackendsIsTheInnermostAxisAndDefaultsToSim)
{
    // Default: every grid job names the simulator.
    for (const auto &job :
         Campaign().iterations(50).test(pl::mp(), "mp").jobs())
        EXPECT_EQ(job.backend, kSimBackend);

    auto jobs = Campaign()
                    .iterations(50)
                    .test(pl::mp(), "mp")
                    .overChips(std::vector<std::string>{"Titan",
                                                        "TesC"})
                    .overBackends({kSimBackend, "ptx"})
                    .jobs();
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(jobs[0].chip.shortName, "Titan");
    EXPECT_EQ(jobs[0].backend, kSimBackend);
    EXPECT_EQ(jobs[1].chip.shortName, "Titan");
    EXPECT_EQ(jobs[1].backend, "ptx");
    EXPECT_EQ(jobs[2].chip.shortName, "TesC");
    EXPECT_EQ(jobs[2].backend, kSimBackend);
    EXPECT_EQ(jobs[3].backend, "ptx");
}

TEST(Campaign, JobKeysDistinguishChipsAndColumns)
{
    RunConfig cfg;
    Job a = Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg);
    Job b = Job::fromConfig(sim::chip("TesC"), pl::mp(), cfg);
    Job c = a;
    c.inc = sim::Incantations::fromColumn(9);
    Job d = a;
    d.seed += 1;
    EXPECT_NE(a.key(), b.key());
    EXPECT_NE(a.key(), c.key());
    EXPECT_NE(a.key(), d.key());
    // Iterations affect the cache identity but not the RNG stream.
    Job e = a;
    e.iterations *= 2;
    EXPECT_EQ(a.key(), e.key());
    EXPECT_EQ(a.derivedSeed(), e.derivedSeed());
    EXPECT_NE(a.cacheKey(), e.cacheKey());
}

TEST(Campaign, DeterministicAcrossThreadCounts)
{
    // The full Tab. 6 grid (16 columns) on two chips: histograms must
    // be bit-identical however the pool shards the jobs.
    auto sweep = [](int threads) {
        EngineOptions opts;
        opts.threads = threads;
        opts.cache = false;
        Engine engine(opts);
        return Campaign()
            .iterations(400)
            .test(pl::mp(), "mp")
            .overChips(std::vector<std::string>{"Titan", "HD7970"})
            .overColumns(1, 16)
            .run(engine);
    };
    auto serial = sweep(1);
    auto parallel = sweep(8);
    ASSERT_EQ(serial.size(), 32u);
    ASSERT_EQ(parallel.size(), 32u);
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].hist.counts(), parallel[i].hist.counts())
            << "cell " << i;
        EXPECT_EQ(serial[i].hist.observed(),
                  parallel[i].hist.observed());
    }
}

TEST(Campaign, WrapperReproducesCampaignHistograms)
{
    // harness::run must be seed-identical to the same cell inside a
    // batched campaign.
    RunConfig cfg;
    cfg.iterations = 1500;
    cfg.inc = sim::Incantations::fromColumn(12);
    litmus::Histogram direct = run(sim::chip("TesC"), pl::sb(), cfg);

    Engine engine;
    auto results =
        engine.run({Job::fromConfig(sim::chip("TesC"), pl::sb(), cfg)});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(direct.counts(), results[0].hist.counts());
    EXPECT_EQ(direct.observed(), results[0].hist.observed());
}

TEST(Campaign, CacheServesRepeatedCells)
{
    RunConfig cfg;
    cfg.iterations = 300;
    Job job = Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg);

    Engine engine;
    // Duplicate cell within one batch: computed once, aliased once.
    // The alias keeps its own identity (label is not part of the
    // cache key) while reusing the computed histogram.
    Job renamed = job;
    renamed.label = "renamed";
    auto batch = engine.run({job, renamed});
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_FALSE(batch[0].fromCache);
    EXPECT_TRUE(batch[1].fromCache);
    EXPECT_EQ(batch[1].label(), "renamed");
    EXPECT_EQ(batch[0].hist.counts(), batch[1].hist.counts());
    EXPECT_EQ(engine.cacheHits(), 1u);
    EXPECT_EQ(engine.cacheSize(), 1u);

    // Same cell in a later run: served from the cache.
    auto again = engine.run({job});
    EXPECT_TRUE(again[0].fromCache);
    EXPECT_EQ(again[0].hist.counts(), batch[0].hist.counts());
    EXPECT_EQ(engine.cacheHits(), 2u);

    // A different cell misses.
    Job other = job;
    other.inc = sim::Incantations::fromColumn(9);
    auto miss = engine.run({other});
    EXPECT_FALSE(miss[0].fromCache);
    EXPECT_EQ(engine.cacheSize(), 2u);

    engine.clearCache();
    EXPECT_EQ(engine.cacheSize(), 0u);
}

TEST(Campaign, CacheCanBeDisabled)
{
    RunConfig cfg;
    cfg.iterations = 200;
    Job job = Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg);
    EngineOptions opts;
    opts.cache = false;
    Engine engine(opts);
    auto batch = engine.run({job, job});
    EXPECT_FALSE(batch[0].fromCache);
    EXPECT_FALSE(batch[1].fromCache);
    EXPECT_EQ(engine.cacheHits(), 0u);
    EXPECT_EQ(engine.cacheSize(), 0u);
    // Still deterministic: both computed the same stream.
    EXPECT_EQ(batch[0].hist.counts(), batch[1].hist.counts());
}

TEST(Campaign, TableSinkShape)
{
    TableSink table("test", TableSink::byLabel(),
                    TableSink::byColumn());
    Engine engine;
    Campaign()
        .iterations(200)
        .test(pl::mp(), "mp")
        .test(pl::sb(), "sb")
        .overColumns(9, 12)
        .run(engine, {&table});
    std::string rendered = table.render().str();
    // Header: corner + the four columns; body: one row per test.
    EXPECT_NE(rendered.find("test"), std::string::npos);
    for (const char *col : {"9", "10", "11", "12"})
        EXPECT_NE(rendered.find(col), std::string::npos);
    EXPECT_NE(rendered.find("mp"), std::string::npos);
    EXPECT_NE(rendered.find("sb"), std::string::npos);
    // 1 header + 1 rule + 2 body rows.
    size_t lines = 0;
    for (char ch : rendered)
        lines += ch == '\n';
    EXPECT_EQ(lines, 4u);
}

TEST(Campaign, JsonSinkShape)
{
    JsonSink json;
    Engine engine;
    auto results = Campaign()
                       .iterations(200)
                       .test(pl::mp(), "mp")
                       .overColumns(15, 16)
                       .run(engine, {&json});
    ASSERT_EQ(json.size(), 2u);
    std::ostringstream os;
    json.writeTo(os);
    std::string doc = os.str();
    EXPECT_EQ(doc.front(), '[');
    for (const char *field :
         {"\"label\":\"mp\"", "\"chip\":\"Titan\"", "\"column\":15",
          "\"column\":16", "\"iterations\":200", "\"obs_per_100k\":",
          "\"counts\":{", "\"cached\":false"})
        EXPECT_NE(doc.find(field), std::string::npos) << field;
    // The JSON mirrors the returned results.
    EXPECT_NE(doc.find("\"observed\":" + std::to_string(
                           results[0].hist.observed())),
              std::string::npos);
}

TEST(Campaign, ProgressCallbackCountsComputedJobs)
{
    size_t calls = 0;
    size_t last_total = 0;
    Engine engine;
    Campaign()
        .iterations(100)
        .test(pl::mp(), "mp")
        .overColumns(1, 4)
        .run(engine, {},
             [&](size_t done, size_t total, const JobResult &) {
                 ++calls;
                 last_total = total;
                 EXPECT_LE(done, total);
             });
    EXPECT_EQ(calls, 4u);
    EXPECT_EQ(last_total, 4u);
}

TEST(Campaign, DefaultJobsFromEnv)
{
    setenv("GPULITMUS_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3);
    setenv("GPULITMUS_JOBS", "bogus", 1);
    EXPECT_GE(defaultJobs(), 1);
    unsetenv("GPULITMUS_JOBS");
    EXPECT_GE(defaultJobs(), 1);
}

// ---- sampler --------------------------------------------------------

litmus::Test
loadCorpus(const std::string &name)
{
    std::string path =
        std::string(GPULITMUS_SOURCE_DIR) + "/litmus-tests/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    auto test = litmus::parseTest(ss.str());
    EXPECT_TRUE(test.has_value()) << path;
    return test ? *test : litmus::Test{};
}

/** Fold everything a histogram reports into a digest. */
void
hashHistogram(Hash128 &h, const litmus::Histogram &hist)
{
    for (const auto &[key, count] : hist.counts()) {
        h.put64(key.size());
        h.putBytes(reinterpret_cast<const uint8_t *>(key.data()),
                   key.size());
        h.put64(count);
    }
    h.put64(hist.observed());
    h.put64(hist.total());
}

sim::MachineOptions
machineOptions(const Job &job)
{
    sim::MachineOptions opts;
    opts.inc = job.inc;
    opts.maxMicroSteps = job.maxMicroSteps;
    return opts;
}

/** What runJob must reproduce: every iteration materialised and
 * recorded, on a freshly compiled machine. */
litmus::Histogram
referenceHistogram(const Job &job)
{
    sim::Machine machine(job.chip, job.test, machineOptions(job));
    Rng rng(job.derivedSeed());
    litmus::Histogram hist(job.test);
    for (uint64_t i = 0; i < job.iterations; ++i)
        hist.record(machine.run(rng));
    return hist;
}

TEST(Sampler, HistogramDigestsArePinned)
{
    // Captured from the per-iteration sampler (every run's final
    // state materialised and recorded) at seed 12345: how runJob
    // tallies iterations may change, the histograms it reports may
    // not.
    const struct
    {
        const char *file;
        uint64_t lo, hi;
    } golden[] = {
        {"F.cta-dWW+Rfe-dev+F.cta-dRR+Fre-dev.litmus",
         0x9d4e95913d652fdaULL, 0x6d71e8c43941cc57ULL},
        {"PodRW+Rfe-cta+PodRW+Rfe-cta.litmus",
         0xb9f87c8e1050ccd7ULL, 0xe7699dda03d2ff30ULL},
        {"PodWR+Fre-cta+PodWR+Fre-cta.litmus",
         0x5ce7783f501c5a08ULL, 0x0026898b4bd28844ULL},
        {"PodWW+Rfe-cta+PodRR+Fre-cta.litmus",
         0x77971f11fc3192a3ULL, 0x965552def334bc41ULL},
        {"PodWW+Wse-cta+PodWW+Wse-cta.litmus",
         0xf03735c0f0ede52dULL, 0xb34b2d4162679106ULL},
        {"PodWW+Wse-dev+PodWR+Fre-dev.litmus",
         0xee367bd757a8e2aaULL, 0x8a242fb4a020b076ULL},
        {"PodWW+Wse-dev+PodWW+Wse-dev.litmus",
         0x21fef41970b6e296ULL, 0x39a08a0f01f7abe9ULL},
        {"Rfe-cta+PosRR+Fre-cta.litmus",
         0xa2f4a9635f51e9acULL, 0x4dafaafd2ff8b584ULL},
        {"Rfe-dev+PosRR+Fre-cta+Wse-dev.litmus",
         0x2039900010cb7bbdULL, 0x453403f5e2c80204ULL},
        {"Wse-dev+Rfe-cta+PosRR+Fre-dev.litmus",
         0x7e6edb881071affbULL, 0x0a1df2699cda4945ULL},
        {"cas-sl.litmus",
         0x213d2cb67f501989ULL, 0x1bb1a514eee54791ULL},
        {"corr-l2-l1.litmus",
         0x016a060f63a9b5d8ULL, 0xbd6ff86177a6c902ULL},
        {"corr.litmus",
         0x2d28f03d37d338d4ULL, 0xb948f9a612c19d1dULL},
        {"lb-membar.ctas.litmus",
         0x44557df0f6d6c109ULL, 0x4c539bcc81856c35ULL},
        {"lb.litmus",
         0x1359daebbd5d5fabULL, 0xa78f4429c326fcefULL},
        {"mp-deps.litmus",
         0x0978b93cf6569300ULL, 0xa76f108ed35790c6ULL},
        {"mp-membar.gl.litmus",
         0x33c4182d8f8cc4fdULL, 0xf75df9d2f59d9e8dULL},
        {"mp-volatile.litmus",
         0xfa1175b725acc10bULL, 0x29407edcfa04a38bULL},
        {"mp.litmus",
         0x45f9e1e77e58846dULL, 0xb57c90b0cede15c4ULL},
        {"sb.litmus",
         0x92c3581bb86476b9ULL, 0x806de9450fb18570ULL},
    };
    for (const auto &g : golden) {
        litmus::Test test = loadCorpus(g.file);
        Hash128 h;
        for (const char *chip : {"Titan", "GTX5", "TesC", "HD7970"}) {
            for (int column : {1, 6, 16}) {
                RunConfig cfg;
                cfg.iterations = 2000;
                cfg.seed = 12345;
                cfg.inc = sim::Incantations::fromColumn(column);
                JobResult r =
                    runJob(Job::fromConfig(sim::chip(chip), test, cfg));
                hashHistogram(h, r.hist);
            }
        }
        Digest128 d = h.digest();
        char got[64];
        std::snprintf(got, sizeof got, "0x%016" PRIx64 ", 0x%016" PRIx64,
                      d.lo, d.hi);
        EXPECT_TRUE(d.lo == g.lo && d.hi == g.hi)
            << g.file << ": got " << got;
    }
}

TEST(Sampler, TallyMatchesPerIterationRecord)
{
    gen::GeneratorOptions gopts;
    gopts.maxTests = 3000;
    auto pool = gen::generate(gen::defaultPool(), gopts);
    ASSERT_EQ(pool.size(), 3000u);
    std::vector<litmus::Test> tests;
    for (size_t i = 0; i < pool.size(); i += 10)
        tests.push_back(std::move(pool[i].test));
    ASSERT_EQ(tests.size(), 300u);

    for (const auto &test : tests) {
        for (const char *chip :
             {"Titan", "GTX5", "TesC", "GTX6", "GTX7", "HD7970"}) {
            for (int column : {1, 16}) {
                RunConfig cfg;
                cfg.iterations = 100;
                cfg.seed = 7;
                cfg.inc = sim::Incantations::fromColumn(column);
                Job job = Job::fromConfig(sim::chip(chip), test, cfg);
                litmus::Histogram ref = referenceHistogram(job);
                JobResult r = runJob(job);
                ASSERT_EQ(r.hist.counts(), ref.counts())
                    << test.name << "@" << chip << " col " << column;
                ASSERT_EQ(r.hist.observed(), ref.observed());
                ASSERT_EQ(r.hist.total(), ref.total());
            }
        }
    }
}

TEST(Sampler, TallyCountsGuardTruncatedRuns)
{
    // T1 spins until it sees T0's flag; a tight guard cuts the spin
    // off in some iterations, and those truncated runs are outcomes
    // like any other.
    litmus::Test spin =
        litmus::TestBuilder("spin")
            .global("x", 0)
            .global("f", 0)
            .thread("st.cg [x],1; st.cg [f],1")
            .thread("LOOP: ld.cg r0,[f]; setp.eq p0,r0,0;"
                    "@p0 bra LOOP; ld.cg r1,[x]")
            .interCta()
            .exists("1:r0=1 /\\ 1:r1=0")
            .build();
    RunConfig cfg;
    cfg.iterations = 2000;
    cfg.seed = 99;
    Job job = Job::fromConfig(sim::chip("Titan"), spin, cfg);
    job.maxMicroSteps = 12;

    sim::Machine machine(job.chip, job.test, machineOptions(job));
    Rng rng(job.derivedSeed());
    uint64_t truncated = 0;
    for (uint64_t i = 0; i < job.iterations; ++i) {
        machine.run(rng);
        truncated += machine.lastRunTruncated();
    }
    EXPECT_GT(truncated, 0u);
    EXPECT_LT(truncated, job.iterations);

    litmus::Histogram ref = referenceHistogram(job);
    JobResult r = runJob(job);
    EXPECT_EQ(r.hist.counts(), ref.counts());
    EXPECT_EQ(r.hist.observed(), ref.observed());
    EXPECT_EQ(r.hist.total(), job.iterations);
}

TEST(Sampler, TallyAddsUpManyOutcomesSharingKeys)
{
    // T1's six reads of a counter T0 bumps 100 times end in thousands
    // of distinct final states, more than one job's tally holds at
    // once, yet the key shows only 1:r1: many digests render each
    // key, and all their runs must land on it.
    litmus::Test counter =
        litmus::TestBuilder("counter")
            .global("x", 0)
            .thread("LOOP: add r1,r1,1; st.cg [x],r1;"
                    "setp.ne p0,r1,100; @p0 bra LOOP")
            .thread("ld.cg r1,[x]; ld.cg r2,[x]; ld.cg r3,[x];"
                    "ld.cg r4,[x]; ld.cg r5,[x]; ld.cg r6,[x]")
            .interCta()
            .exists("1:r1=1")
            .build();
    RunConfig cfg;
    cfg.iterations = 5000;
    cfg.seed = 5;
    cfg.inc = sim::Incantations::fromColumn(16);
    Job job = Job::fromConfig(sim::chip("Titan"), counter, cfg);

    sim::Machine machine(job.chip, job.test, machineOptions(job));
    Rng rng(job.derivedSeed());
    std::set<std::pair<uint64_t, uint64_t>> digests;
    litmus::Histogram ref(job.test);
    for (uint64_t i = 0; i < job.iterations; ++i) {
        ref.record(machine.run(rng));
        Digest128 d = machine.outcomeDigest();
        digests.insert({d.lo, d.hi});
    }
    EXPECT_GT(digests.size(), 2000u);
    EXPECT_LT(ref.counts().size(), 100u);

    JobResult r = runJob(job);
    EXPECT_EQ(r.hist.counts(), ref.counts());
    EXPECT_EQ(r.hist.observed(), ref.observed());
    EXPECT_EQ(r.hist.total(), job.iterations);
}

} // namespace
} // namespace gpulitmus::harness
