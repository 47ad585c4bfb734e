/**
 * @file
 * Tests for the unified eval backend API: backend resolution, the
 * tagged EvalResult of each engine, key/cache semantics of
 * backend-named jobs, the conformance join over the on-disk corpus,
 * and bit-identity of sim-backend campaigns with the PR-1 engine.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cat/models.h"
#include "eval/backend.h"
#include "harness/campaign.h"
#include "litmus/library.h"
#include "litmus/parser.h"
#include "model/checker.h"

#ifndef GPULITMUS_SOURCE_DIR
#define GPULITMUS_SOURCE_DIR "."
#endif

namespace gpulitmus::eval {
namespace {

namespace pl = litmus::paperlib;

const char *kCorpus[] = {
    "corr.litmus",         "mp.litmus",
    "mp-membar.gl.litmus", "sb.litmus",
    "lb.litmus",           "lb-membar.ctas.litmus",
    "mp-volatile.litmus",  "cas-sl.litmus",
    "mp-deps.litmus",      "corr-l2-l1.litmus",
};

litmus::Test
corpusTest(const std::string &name)
{
    std::string path =
        std::string(GPULITMUS_SOURCE_DIR) + "/litmus-tests/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    litmus::ParseError err;
    auto test = litmus::parseTest(ss.str(), &err);
    EXPECT_TRUE(test.has_value()) << name << ": " << err.message;
    return *test;
}

TEST(BackendRegistry, ResolvesEveryBuiltin)
{
    for (const auto &name : builtinBackendNames()) {
        std::string error;
        auto backend = backendByName(name, &error);
        ASSERT_NE(backend, nullptr) << name << ": " << error;
        if (name == "baseline")
            EXPECT_EQ(backend->name(), "baseline");
        else
            EXPECT_EQ(backend->name(), name);
    }
    // Aliases of the Sec. 6 baseline.
    for (const char *alias : {"operational", "sorensen"}) {
        auto backend = backendByName(alias);
        ASSERT_NE(backend, nullptr);
        EXPECT_EQ(backend->name(), "baseline");
    }
}

TEST(BackendRegistry, UnknownNameIsAnErrorListingValidNames)
{
    std::string error;
    EXPECT_EQ(backendByName("bogus", &error), nullptr);
    EXPECT_NE(error.find("unknown backend 'bogus'"),
              std::string::npos);
    for (const auto &name : builtinBackendNames())
        EXPECT_NE(error.find(name), std::string::npos) << name;
}

TEST(BackendRegistry, LoadsModelFromCatFile)
{
    std::string path = "/tmp/gpulitmus_test_model.cat";
    {
        std::ofstream out(path);
        out << cat::models::scSource();
    }
    std::string error;
    auto backend = backendByName(path, &error);
    ASSERT_NE(backend, nullptr) << error;
    auto axiom =
        std::dynamic_pointer_cast<const AxiomBackend>(backend);
    ASSERT_NE(axiom, nullptr);

    // The file model behaves exactly like the built-in it copies.
    EvalJob job;
    job.backend = path;
    job.test = pl::mp();
    auto verdict = backend->evaluate(job).verdict;
    ASSERT_NE(verdict, nullptr);
    model::Verdict builtin =
        model::Checker(cat::models::sc()).check(pl::mp());
    EXPECT_EQ(verdict->allowedKeys, builtin.allowedKeys);
    std::remove(path.c_str());
}

TEST(BackendRegistry, BadCatFileReportsParseError)
{
    std::string path = "/tmp/gpulitmus_bad_model.cat";
    {
        std::ofstream out(path);
        out << "let sc = (((\n";
    }
    std::string error;
    EXPECT_EQ(backendByName(path, &error), nullptr);
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

TEST(SimBackend, MatchesHarnessRunBitForBit)
{
    harness::RunConfig cfg;
    cfg.iterations = 1500;
    litmus::Histogram direct = harness::run(sim::chip("Titan"),
                                            pl::mp(), cfg);

    SimBackend backend;
    EvalResult result = backend.evaluate(
        harness::Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg));
    ASSERT_TRUE(result.hasHist());
    EXPECT_FALSE(result.hasVerdict());
    EXPECT_EQ(result.backend, harness::kSimBackend);
    EXPECT_EQ(result.hist->counts(), direct.counts());
    EXPECT_EQ(result.hist->observed(), direct.observed());
}

TEST(AxiomBackend, MatchesCheckerVerdict)
{
    AxiomBackend backend(cat::models::ptx());
    EvalJob job;
    job.backend = "ptx";
    job.test = pl::lbMembarCtas();
    EvalResult result = backend.evaluate(job);
    ASSERT_TRUE(result.hasVerdict());
    EXPECT_FALSE(result.hasHist());

    model::Verdict direct =
        model::Checker(cat::models::ptx()).check(pl::lbMembarCtas());
    EXPECT_EQ(result.verdict->numCandidates, direct.numCandidates);
    EXPECT_EQ(result.verdict->numAllowed, direct.numAllowed);
    EXPECT_EQ(result.verdict->allowedKeys, direct.allowedKeys);
    EXPECT_EQ(result.verdict->verdict, direct.verdict);
}

TEST(EvalJob, SimKeysUnchangedByBackendRedesign)
{
    // A default job IS a sim job: the backend field must not perturb
    // the PR-1 key/seed derivation.
    harness::RunConfig cfg;
    harness::Job job =
        harness::Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg);
    EXPECT_TRUE(job.isSim());
    harness::Job named = job;
    named.backend = harness::kSimBackend;
    EXPECT_EQ(job.key(), named.key());
    EXPECT_EQ(job.derivedSeed(), named.derivedSeed());
    EXPECT_EQ(job.cacheKey(), named.cacheKey());
}

TEST(EvalJob, GoldenIdentitiesArePinned)
{
    // key() seeds the sim RNG stream and cacheKey() the in-process
    // cache; both feed the store's records. A change to either
    // derivation must fail here, not silently resample every cell.
    harness::RunConfig cfg;
    harness::Job sim =
        harness::Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg);
    harness::Job mc = sim;
    mc.backend = harness::kMcBackend;
    harness::Job ptx = sim;
    ptx.backend = "ptx";

    EXPECT_EQ(sim.key(), 0xb9e32f69e1488715ULL);
    EXPECT_EQ(sim.cacheKey(), 0x3e68682f9b02ad87ULL);
    EXPECT_EQ(sim.derivedSeed(), 0xabd48b109ebb4e10ULL);
    EXPECT_EQ(mc.key(), 0x7811f7bc2678ef5aULL);
    EXPECT_EQ(mc.cacheKey(), 0x629ab6abb8a5712aULL);
    EXPECT_EQ(mc.derivedSeed(), 0xae2bcf56dd535411ULL);
    EXPECT_EQ(ptx.key(), 0x840c0ff03d46e63cULL);
    EXPECT_EQ(ptx.cacheKey(), 0x840c0ff03d46e63cULL);
    EXPECT_EQ(ptx.derivedSeed(), 0x372d31e197727164ULL);
}

TEST(EvalJob, EditedCopyNeverReadsAStaleTest)
{
    harness::RunConfig cfg;
    harness::Job job =
        harness::Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg);
    const uint64_t mp_key = job.cacheKey();
    harness::Job copy = job;
    copy.test = pl::sb();
    EXPECT_NE(copy.cacheKey(), mp_key);
    EXPECT_EQ(job.cacheKey(), mp_key);

    // The same through a shared job, whose test text is memoised:
    // copies and assignments drop the memo.
    auto shared = harness::share(job);
    EXPECT_EQ(shared->cacheKey(), mp_key);
    harness::Job edited = *shared;
    edited.test = pl::sb();
    EXPECT_EQ(edited.cacheKey(), copy.cacheKey());
    harness::Job assigned;
    assigned = *shared;
    assigned.test = pl::sb();
    EXPECT_EQ(assigned.cacheKey(), copy.cacheKey());
    harness::Job moved = std::move(edited);
    EXPECT_EQ(moved.cacheKey(), copy.cacheKey());
}

TEST(EvalJob, SharedJobsReuseAnEqualNeighboursText)
{
    harness::RunConfig cfg;
    harness::Job job =
        harness::Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg);
    auto first = harness::share(job);
    harness::Job other_chip = job;
    other_chip.chip = sim::chip("GTX5");
    auto second = harness::share(other_chip, first.get());
    EXPECT_EQ(second->testText(), first->testText());

    harness::Job other_test = job;
    other_test.test = pl::sb();
    auto third = harness::share(other_test, second.get());
    EXPECT_NE(third->testText(), second->testText());
    EXPECT_EQ(third->testText()->text, pl::sb().str());
    EXPECT_EQ(third->cacheKey(), other_test.cacheKey());
}

TEST(EvalJob, ModelKeysIgnoreSimAxesButNotBackendOrTest)
{
    harness::RunConfig cfg;
    harness::Job job =
        harness::Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg);
    job.backend = "ptx";

    harness::Job other_cell = job;
    other_cell.chip = sim::chip("TesC");
    other_cell.inc = sim::Incantations::fromColumn(3);
    other_cell.iterations *= 2;
    other_cell.seed += 99;
    EXPECT_EQ(job.cacheKey(), other_cell.cacheKey());

    harness::Job other_backend = job;
    other_backend.backend = "rmo";
    EXPECT_NE(job.cacheKey(), other_backend.cacheKey());

    harness::Job other_test = job;
    other_test.test = pl::sb();
    EXPECT_NE(job.cacheKey(), other_test.cacheKey());

    // And the backend id separates model keys from sim keys.
    harness::Job sim_job = job;
    sim_job.backend = harness::kSimBackend;
    EXPECT_NE(job.cacheKey(), sim_job.cacheKey());
}

TEST(EvalEngine, MixedBackendGridJoinsAndDedups)
{
    harness::Campaign campaign;
    campaign.iterations(800)
        .overChips(std::vector<std::string>{"Titan", "TesC"})
        .overBackends({harness::kSimBackend, "ptx"})
        .test(pl::mp(), "mp");

    auto jobs = campaign.jobs();
    ASSERT_EQ(jobs.size(), 4u); // 2 chips x {sim, ptx}
    EXPECT_EQ(jobs[0].backend, harness::kSimBackend);
    EXPECT_EQ(jobs[1].backend, "ptx");

    Engine engine;
    ConformanceSink conformance;
    auto results = engine.run(campaign, {&conformance});
    ASSERT_EQ(results.size(), 4u);

    // The two ptx cells collapse onto one evaluation.
    size_t computed_models = 0;
    for (const auto &r : results) {
        if (r.hasVerdict() && !r.fromCache)
            ++computed_models;
    }
    EXPECT_EQ(computed_models, 1u);

    // Join: one cell per (chip x model).
    auto cells = conformance.cells();
    ASSERT_EQ(cells.size(), 2u);
    for (const auto &cell : cells) {
        EXPECT_EQ(cell.model, "ptx");
        EXPECT_EQ(cell.runs, 800u);
        EXPECT_NE(cell.kind, Conformance::Unsound);
    }
}

TEST(EvalEngine, BaselineAliasesNormaliseAndShareOneEvaluation)
{
    // "operational"/"sorensen" are aliases of "baseline": jobs naming
    // either must dedup onto one evaluation under the resolved name.
    harness::Job a;
    a.backend = "baseline";
    a.test = pl::mp();
    harness::Job b = a;
    b.backend = "operational";

    Engine engine;
    auto results = engine.run({a, b});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].backend, "baseline");
    EXPECT_EQ(results[1].backend, "baseline");
    EXPECT_EQ(results[1].job->backend, "baseline"); // normalised
    EXPECT_FALSE(results[0].fromCache);
    EXPECT_TRUE(results[1].fromCache); // shared, not recomputed
}

TEST(EvalEngine, RejectsUnknownBackend)
{
    harness::Job job;
    job.backend = "no-such-backend";
    job.test = pl::mp();
    Engine engine;
    EXPECT_EXIT(engine.run({job}),
                ::testing::ExitedWithCode(1), "unknown backend");
}

TEST(Conformance, PtxSoundOnCorpusForEveryChipProfile)
{
    // The cross-backend keystone: over the on-disk corpus, the ptx
    // model must never be "unsound" (observed-but-forbidden) on ANY
    // chip profile. AMD chips run what their OpenCL compiler
    // produces; out-of-scope tests (.ca/volatile, Sec. 5.5) are
    // excluded exactly as in the paper.
    harness::RunConfig cfg;
    cfg.iterations = 600;

    harness::Campaign campaign;
    campaign.base(cfg);
    size_t in_scope = 0;
    for (const auto &name : kCorpus) {
        litmus::Test test = corpusTest(name);
        if (!model::inModelScope(test))
            continue;
        ++in_scope;
        for (const auto &chip : sim::resultChips()) {
            auto to_run = compileForChip(test, chip);
            if (!to_run)
                continue; // miscompiled: the paper's "n/a" cells
            harness::Job sim_job =
                harness::Job::fromConfig(chip, *to_run, cfg);
            sim_job.label = std::string(name);
            campaign.add(sim_job);
            harness::Job model_job = sim_job;
            model_job.backend = "ptx";
            campaign.add(std::move(model_job));
        }
    }
    ASSERT_GT(in_scope, 5u);

    Engine engine;
    ConformanceSink conformance;
    engine.run(campaign, {&conformance});

    auto cells = conformance.cells();
    ASSERT_GE(cells.size(), in_scope * 2); // AMD "n/a" cells drop out
    for (const auto &cell : cells) {
        EXPECT_NE(cell.kind, Conformance::Unsound)
            << cell.test << " on " << cell.chip
            << ": observed-but-forbidden '"
            << (cell.violations.empty() ? ""
                                        : cell.violations.front())
            << "'";
    }
    EXPECT_EQ(conformance.unsoundCells(), 0u);
}

TEST(Conformance, FlagsTheSec6BaselineAsUnsound)
{
    // The Sec. 6 counterexample through the new API: inter-CTA
    // lb+membar.ctas is observed on the Titan but forbidden by the
    // operational baseline model.
    harness::Campaign campaign;
    campaign.iterations(30000)
        .overChips(std::vector<std::string>{"Titan"})
        .overBackends({harness::kSimBackend, "baseline", "ptx"})
        .test(pl::lbMembarCtas(), "lb+membar.ctas");

    Engine engine;
    ConformanceSink conformance;
    engine.run(campaign, {&conformance});

    bool baseline_unsound = false;
    for (const auto &cell : conformance.cells()) {
        if (cell.model == "baseline")
            baseline_unsound |= cell.kind == Conformance::Unsound;
        if (cell.model == "ptx") {
            EXPECT_NE(cell.kind, Conformance::Unsound);
        }
    }
    EXPECT_TRUE(baseline_unsound);
    EXPECT_GE(conformance.unsoundCells(), 1u);
}

TEST(Conformance, SinkSummaryAndJsonShape)
{
    harness::Campaign campaign;
    campaign.iterations(500)
        .overChips(std::vector<std::string>{"Titan"})
        .overBackends({harness::kSimBackend, "ptx", "sc"})
        .test(pl::mp(), "mp");
    Engine engine;
    ConformanceSink conformance;
    engine.run(campaign, {&conformance});

    std::string summary = conformance.summary().str();
    EXPECT_NE(summary.find("model"), std::string::npos);
    EXPECT_NE(summary.find("ptx"), std::string::npos);
    EXPECT_NE(summary.find("sc"), std::string::npos);

    std::ostringstream os;
    conformance.writeTo(os);
    std::string doc = os.str();
    EXPECT_EQ(doc.front(), '[');
    for (const char *field :
         {"\"test\":\"mp\"", "\"chip\":\"Titan\"", "\"model\":\"ptx\"",
          "\"model\":\"sc\"", "\"kind\":\"", "\"violations\":"})
        EXPECT_NE(doc.find(field), std::string::npos) << field;
}

/** Every field of a conformance cell on one line. */
std::string
renderCell(const ConformanceCell &cell)
{
    std::string s = cell.test + "|" + cell.chip + "|" +
                    std::to_string(cell.column) + "|" + cell.model +
                    "|" + toString(cell.kind) + "|" +
                    std::to_string(cell.runs) + "|" +
                    (cell.hasExact ? "x" : "-") +
                    (cell.exactComplete ? "c" : "-");
    auto keys = [&s](const char *tag,
                     const std::vector<std::string> &list) {
        s += std::string("|") + tag + ":";
        for (const auto &key : list)
            s += key;
    };
    keys("v", cell.violations);
    keys("u", cell.unobserved);
    keys("n", cell.unreachable);
    keys("i", cell.inconsistent);
    s += "|r:";
    for (const auto &[key, weight] : cell.rare)
        s += key + "=" + std::to_string(weight);
    return s;
}

TEST(Conformance, JoinOrderAndMatchingArePinned)
{
    // Sim+exact, sim-only and exact-only cells; a redelivered cell, a
    // relabelled duplicate and one label naming two tests; a second
    // exploration of an already-joined cell (the first one joins) and
    // one at a column no sim cell has; an out-of-scope test whose
    // refusals must not join. The expected rows are the text-keyed
    // join's output, so the digest-keyed join must reproduce them in
    // the same order.
    auto job = [](const litmus::Test &test, const char *chip,
                  const char *backend, const char *label,
                  uint64_t iterations = 200, int column = 16) {
        harness::Job j;
        j.backend = backend;
        j.chip = sim::chip(chip);
        j.test = test;
        j.inc = sim::Incantations::fromColumn(column);
        j.iterations = iterations;
        j.seed = 0x6c69;
        j.label = label;
        return j;
    };
    const litmus::Test mp = corpusTest("mp.litmus");
    const litmus::Test sb = corpusTest("sb.litmus");
    const litmus::Test lb = corpusTest("lb.litmus");
    const litmus::Test vol = corpusTest("mp-volatile.litmus");
    std::vector<harness::Job> jobs = {
        job(mp, "Titan", "sim", "mp"),
        job(mp, "Titan", "mc", "mp", 1u << 20),
        job(mp, "Titan", "ptx", "mp"),
        job(mp, "Titan", "baseline", "mp"),
        job(sb, "GTX5", "sim", "sb"),
        job(sb, "GTX5", "ptx", "sb"),
        job(lb, "Titan", "mc", "lb", 1u << 20),
        job(lb, "Titan", "sc", "lb"),
        job(lb, "Titan", "ptx", "lb"),
        job(mp, "Titan", "sim", "mp"),
        job(mp, "Titan", "sim", "mp-again"),
        job(sb, "Titan", "sim", "mp"),
        job(mp, "Titan", "mc", "mp", 5),
        job(mp, "GTX5", "mc", "mp", 1u << 20, 3),
        job(vol, "Titan", "sim", "vol"),
        job(vol, "Titan", "ptx", "vol"),
    };
    ConformanceSink sink;
    Engine engine(EngineOptions{2, true});
    engine.run(jobs, {&sink});
    engine.run(jobs, {&sink}); // all cache hits: redelivered cells

    const std::vector<std::string> expected = {
        "mp|Titan|16|baseline|sound|200|xc|v:|u:|n:|i:|r:",
        "mp|Titan|16|ptx|sound|200|xc|v:|u:|n:|i:|r:",
        "sb|GTX5|16|ptx|imprecise|200|--|v:|u:0:r2=0; 1:r2=0;|n:|i:|r:",
        "mp-again|Titan|16|baseline|sound|200|xc|v:|u:|n:|i:|r:",
        "mp-again|Titan|16|ptx|sound|200|xc|v:|u:|n:|i:|r:",
        "mp|Titan|16|ptx|sound|200|--|v:|u:|n:|i:|r:",
        "lb|Titan|16|ptx|sound|0|xc|v:|u:|n:|i:|r:",
        "lb|Titan|16|sc|unsound|0|xc|v:0:r1=1; 1:r1=1;|u:|n:|i:|r:",
        "mp|GTX5|3|baseline|unreachable|0|xc|v:|u:|n:1:r1=1; 1:r2=0;"
        "|i:|r:",
        "mp|GTX5|3|ptx|unreachable|0|xc|v:|u:|n:1:r1=1; 1:r2=0;|i:|r:",
    };
    std::vector<std::string> got;
    for (const auto &cell : sink.cells())
        got.push_back(renderCell(cell));
    EXPECT_EQ(got, expected);
    EXPECT_EQ(sink.soundCells(), 6u);
    EXPECT_EQ(sink.unsoundCells(), 1u);
    EXPECT_EQ(sink.impreciseCells(), 1u);
    EXPECT_EQ(sink.unreachableCells(), 2u);
}

TEST(EvalEngine, JsonSinkTagsBothSides)
{
    harness::Campaign campaign;
    campaign.iterations(300)
        .overChips(std::vector<std::string>{"Titan"})
        .overBackends({harness::kSimBackend, "ptx"})
        .test(pl::sb(), "sb");
    Engine engine;
    JsonSink json;
    engine.run(campaign, {&json});
    ASSERT_EQ(json.size(), 2u);
    std::ostringstream os;
    json.writeTo(os);
    std::string doc = os.str();
    for (const char *field :
         {"\"backend\":\"sim\"", "\"backend\":\"ptx\"",
          "\"counts\":{", "\"candidates\":", "\"allowed_outcomes\":"})
        EXPECT_NE(doc.find(field), std::string::npos) << field;
}

TEST(EvalEngine, SimCampaignBitIdenticalToPr1ApiAt1And8Threads)
{
    // The acceptance bar of the redesign: a sim-only sweep through
    // the eval engine is bit-identical to the PR-1 harness::Engine,
    // at any thread count, over the whole on-disk corpus.
    std::vector<litmus::Test> tests;
    for (const auto &name : kCorpus)
        tests.push_back(corpusTest(name));

    auto build = [&]() {
        harness::Campaign campaign;
        campaign.iterations(400)
            .overChips(std::vector<std::string>{"Titan", "HD7970"})
            .overColumns(9, 12)
            .overTests(tests);
        return campaign;
    };

    for (int threads : {1, 8}) {
        harness::EngineOptions hopts;
        hopts.threads = threads;
        hopts.cache = false;
        harness::Engine pr1(hopts);
        auto expected = build().run(pr1);

        EngineOptions eopts;
        eopts.threads = threads;
        eopts.cache = false;
        Engine unified(eopts);
        auto actual = unified.run(build());

        ASSERT_EQ(expected.size(), actual.size());
        for (size_t i = 0; i < expected.size(); ++i) {
            ASSERT_TRUE(actual[i].hasHist());
            EXPECT_EQ(expected[i].hist.counts(),
                      actual[i].hist->counts())
                << "cell " << i << " at " << threads << " threads";
            EXPECT_EQ(expected[i].observedPer100k,
                      actual[i].observedPer100k);
        }
    }
}

} // namespace
} // namespace gpulitmus::eval
