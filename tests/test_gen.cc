/**
 * @file
 * Tests for the diy-style generator: edge naming, cycle synthesis of
 * the classic idioms, well-formedness of everything generated, and
 * model verdicts on generated fence variants. Golden digests pin
 * every byte the generator emits, and a reference enumeration (the
 * original string-rotation dedup) checks the index-based one.
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <set>

#include "axiom/enumerate.h"
#include "cat/models.h"
#include "common/hash.h"
#include "gen/generator.h"
#include "litmus/parser.h"
#include "model/checker.h"

namespace gpulitmus::gen {
namespace {

Edge
rfe(ScopeAnn s = ScopeAnn::InterCta)
{
    Edge e;
    e.type = Edge::Type::Rfe;
    e.from = Dir::W;
    e.to = Dir::R;
    e.sameLoc = true;
    e.scope = s;
    return e;
}

Edge
fre(ScopeAnn s = ScopeAnn::InterCta)
{
    Edge e;
    e.type = Edge::Type::Fre;
    e.from = Dir::R;
    e.to = Dir::W;
    e.sameLoc = true;
    e.scope = s;
    return e;
}

Edge
po(Dir f, Dir t, bool same = false)
{
    Edge e;
    e.type = Edge::Type::Po;
    e.from = f;
    e.to = t;
    e.sameLoc = same;
    return e;
}

Edge
fence(ptx::Scope s, Dir f, Dir t)
{
    Edge e;
    e.type = Edge::Type::Fence;
    e.from = f;
    e.to = t;
    e.sameLoc = false;
    e.fenceScope = s;
    return e;
}

Edge
dp(DepKind k, Dir t)
{
    Edge e;
    e.type = Edge::Type::Dp;
    e.from = Dir::R;
    e.to = t;
    e.sameLoc = false;
    e.dep = k;
    return e;
}

TEST(Edges, Names)
{
    EXPECT_EQ(rfe().name(), "Rfe-dev");
    EXPECT_EQ(rfe(ScopeAnn::IntraCta).name(), "Rfe-cta");
    EXPECT_EQ(po(Dir::W, Dir::R).name(), "PodWR");
    EXPECT_EQ(po(Dir::R, Dir::R, true).name(), "PosRR");
    EXPECT_EQ(fence(ptx::Scope::Gl, Dir::W, Dir::W).name(),
              "F.gl-dWW");
    EXPECT_EQ(dp(DepKind::Addr, Dir::R).name(), "DpAddrdR");
}

TEST(Synthesise, MpShape)
{
    // PodWW ; Rfe ; PodRR ; Fre is the message-passing cycle.
    auto test = synthesise({po(Dir::W, Dir::W), rfe(),
                            po(Dir::R, Dir::R), fre()},
                           "mp-cycle");
    ASSERT_TRUE(test.has_value());
    EXPECT_EQ(test->program.numThreads(), 2);
    EXPECT_EQ(test->locations.size(), 2u);
    EXPECT_FALSE(test->scopeTree.sameCta(0, 1));
    // The weak outcome must be allowed by RMO but forbidden by SC.
    model::Checker rmo(cat::models::rmo());
    model::Checker sc(cat::models::sc());
    EXPECT_TRUE(rmo.allows(*test));
    EXPECT_FALSE(sc.allows(*test));
}

TEST(Synthesise, CoRRShape)
{
    // Rfe ; PosRR ; Fre: read-read coherence.
    auto test =
        synthesise({rfe(ScopeAnn::IntraCta),
                    po(Dir::R, Dir::R, true),
                    fre(ScopeAnn::IntraCta)},
                   "coRR-cycle");
    ASSERT_TRUE(test.has_value());
    EXPECT_EQ(test->locations.size(), 1u);
    EXPECT_TRUE(test->scopeTree.sameCta(0, 1));
    // Allowed under the llh relaxation, forbidden with full
    // SC-per-location.
    EXPECT_TRUE(model::Checker(cat::models::ptx()).allows(*test));
    EXPECT_FALSE(
        model::Checker(cat::models::scPerLocFull()).allows(*test));
}

TEST(Synthesise, SbShape)
{
    auto test = synthesise({po(Dir::W, Dir::R), fre(),
                            po(Dir::W, Dir::R), fre()},
                           "sb-cycle");
    ASSERT_TRUE(test.has_value());
    EXPECT_EQ(test->program.numThreads(), 2);
    EXPECT_TRUE(model::Checker(cat::models::tso()).allows(*test));
    EXPECT_FALSE(model::Checker(cat::models::sc()).allows(*test));
}

TEST(Synthesise, GlFencesForbidTheCycle)
{
    auto test =
        synthesise({fence(ptx::Scope::Gl, Dir::W, Dir::W), rfe(),
                    fence(ptx::Scope::Gl, Dir::R, Dir::R), fre()},
                   "mp+fences");
    ASSERT_TRUE(test.has_value());
    EXPECT_FALSE(model::Checker(cat::models::ptx()).allows(*test));
}

TEST(Synthesise, CtaFencesInterCtaStayAllowed)
{
    // The scoped-model signature: cta fences between inter-CTA
    // communication do not forbid the cycle.
    auto test =
        synthesise({fence(ptx::Scope::Cta, Dir::W, Dir::W), rfe(),
                    fence(ptx::Scope::Cta, Dir::R, Dir::R), fre()},
                   "mp+ctas-inter");
    ASSERT_TRUE(test.has_value());
    EXPECT_TRUE(model::Checker(cat::models::ptx()).allows(*test));

    auto intra = synthesise(
        {fence(ptx::Scope::Cta, Dir::W, Dir::W),
         rfe(ScopeAnn::IntraCta),
         fence(ptx::Scope::Cta, Dir::R, Dir::R),
         fre(ScopeAnn::IntraCta)},
        "mp+ctas-intra");
    ASSERT_TRUE(intra.has_value());
    EXPECT_FALSE(model::Checker(cat::models::ptx()).allows(*intra));
}

TEST(Synthesise, DependenciesForbidLb)
{
    // DpAddrdW ; Rfe on both sides: lb with address dependencies.
    auto test = synthesise(
        {dp(DepKind::Addr, Dir::W), rfe(), dp(DepKind::Addr, Dir::W),
         rfe()},
        "lb+deps");
    ASSERT_TRUE(test.has_value());
    EXPECT_FALSE(model::Checker(cat::models::ptx()).allows(*test));
    // Without the dependencies lb is allowed.
    auto plain = synthesise(
        {po(Dir::R, Dir::W), rfe(), po(Dir::R, Dir::W), rfe()},
        "lb");
    ASSERT_TRUE(plain.has_value());
    EXPECT_TRUE(model::Checker(cat::models::ptx()).allows(*plain));
}

TEST(Synthesise, RejectsIllFormedCycles)
{
    // Direction mismatch.
    EXPECT_FALSE(synthesise({rfe(), rfe()}, "bad").has_value());
    // No communication edge at the end.
    EXPECT_FALSE(synthesise({rfe(), po(Dir::R, Dir::W)}, "bad")
                     .has_value());
    // Unsatisfiable: read both reads-from and from-reads one write.
    EXPECT_FALSE(synthesise({rfe(), fre()}, "bad").has_value());
}

TEST(Generate, ProducesManyDistinctWellFormedTests)
{
    GeneratorOptions opts;
    opts.maxEdges = 4;
    opts.maxTests = 500;
    auto tests = generate(defaultPool(), opts);
    EXPECT_GE(tests.size(), 100u);

    std::set<std::string> names;
    for (const auto &g : tests) {
        EXPECT_TRUE(names.insert(g.cycleName).second)
            << "duplicate " << g.cycleName;
        g.test.validate();
        // Every generated test has candidate executions and the
        // asked-for outcome is reachable in *some* (unconstrained)
        // execution, i.e. the condition is not vacuous.
        auto execs = axiom::enumerateExecutions(g.test);
        EXPECT_FALSE(execs.empty()) << g.cycleName;
        bool reachable = false;
        for (const auto &ex : execs)
            reachable |= g.test.condition.eval(ex.finalState);
        EXPECT_TRUE(reachable)
            << g.cycleName << " asks for an unreachable outcome";
    }
}

/** Structural equivalence of a reparsed test with its original:
 * everything the simulator and the model checker consume. */
void
expectEquivalent(const litmus::Test &a, const litmus::Test &b,
                 const std::string &context)
{
    EXPECT_EQ(a.name, b.name) << context;
    EXPECT_EQ(a.arch, b.arch) << context;
    EXPECT_EQ(a.locations, b.locations) << context;
    EXPECT_EQ(a.regInits, b.regInits) << context;
    EXPECT_EQ(a.scopeTree, b.scopeTree) << context;
    EXPECT_EQ(a.quantifier, b.quantifier) << context;
    EXPECT_EQ(a.condition.str(), b.condition.str()) << context;
    ASSERT_EQ(a.program.numThreads(), b.program.numThreads())
        << context;
    for (int t = 0; t < a.program.numThreads(); ++t) {
        const auto &ta = a.program.threads[t];
        const auto &tb = b.program.threads[t];
        ASSERT_EQ(ta.instrs.size(), tb.instrs.size())
            << context << " T" << t;
        for (size_t i = 0; i < ta.instrs.size(); ++i) {
            EXPECT_EQ(ta.instrs[i].str(), tb.instrs[i].str())
                << context << " T" << t << " instr " << i;
        }
    }
}

TEST(Generate, EveryOutputRoundTripsThroughTheParser)
{
    // The full pipeline the `gen` subcommand relies on: every
    // generated test pretty-prints to text the litmus parser accepts
    // and reads back as an equivalent test (multi-word cycle names,
    // scope trees, dependency plumbing, final conditions included).
    GeneratorOptions opts;
    opts.maxEdges = 4;
    opts.maxTests = 250;
    auto tests = generate(defaultPool(), opts);
    ASSERT_GE(tests.size(), 100u);
    for (const auto &g : tests) {
        litmus::ParseError err;
        auto reparsed = litmus::parseTest(g.test.str(), &err);
        ASSERT_TRUE(reparsed.has_value())
            << g.cycleName << ": " << err.message << " (line "
            << err.line << ")\n"
            << g.test.str();
        expectEquivalent(g.test, *reparsed, g.cycleName);
        // And the reprint is a fixed point: parse(print(t)) prints
        // identically, so generated files are stable on disk.
        EXPECT_EQ(reparsed->str(), g.test.str()) << g.cycleName;
    }
}

TEST(Generate, RoundTripCoversScopedAndDepEdges)
{
    // Spot checks that the tricky generator outputs — scoped
    // communication edges and all three dependency kinds — survive
    // the round trip, independent of whatever generate() happens to
    // enumerate first.
    std::vector<std::vector<Edge>> cycles = {
        {po(Dir::W, Dir::W), rfe(ScopeAnn::IntraCta),
         po(Dir::R, Dir::R), fre(ScopeAnn::IntraCta)},
        {dp(DepKind::Addr, Dir::W), rfe(), dp(DepKind::Data, Dir::W),
         rfe()},
        {dp(DepKind::Ctrl, Dir::W), rfe(ScopeAnn::IntraCta),
         po(Dir::R, Dir::W), rfe(ScopeAnn::IntraCta)},
        {fence(ptx::Scope::Cta, Dir::W, Dir::W), rfe(),
         fence(ptx::Scope::Sys, Dir::R, Dir::R), fre()},
    };
    for (const auto &cycle : cycles) {
        std::string name;
        for (const auto &e : cycle)
            name += (name.empty() ? "" : " ") + e.name();
        auto test = synthesise(cycle, name);
        ASSERT_TRUE(test.has_value()) << name;
        auto reparsed = litmus::parseTest(test->str());
        ASSERT_TRUE(reparsed.has_value()) << name;
        expectEquivalent(*test, *reparsed, name);
    }
}

TEST(Generate, HonoursCaps)
{
    GeneratorOptions opts;
    opts.maxEdges = 5;
    opts.maxTests = 37;
    EXPECT_EQ(generate(defaultPool(), opts).size(), 37u);
}

TEST(Generate, ScopedPoolAddsIntraCtaVariants)
{
    GeneratorOptions opts;
    opts.maxEdges = 3;
    opts.maxTests = 10000;
    auto scoped = generate(defaultPool(true), opts);
    auto unscoped = generate(defaultPool(false), opts);
    EXPECT_GT(scoped.size(), unscoped.size());
}

/** Hash128 over each test's cycle name and printed text, in output
 * order; every item is length-prefixed so boundaries cannot shift. */
Digest128
poolDigest(const std::vector<GeneratedTest> &tests)
{
    Hash128 h;
    for (const auto &g : tests) {
        std::string text = g.cycleName + g.test.str();
        h.put64(text.size());
        h.putBytes(reinterpret_cast<const uint8_t *>(text.data()),
                   text.size());
    }
    return h.digest();
}

constexpr size_t kAll = std::numeric_limits<size_t>::max();

TEST(Generate, GoldenPoolDigestsArePinned)
{
    // Captured from the string-dedup generator; any change to the
    // enumeration order, the dedup or the emitted text moves them.
    struct Pin
    {
        const char *what;
        bool scopes;
        bool deps;
        int maxEdges;
        size_t maxTests;
        bool steer;
        size_t count;
        uint64_t lo;
        uint64_t hi;
    };
    const Pin pins[] = {
        // The validate_gen benchmark's pool.
        {"default e6 n20000", true, true, 6, 20000, false, 20000,
         0xe323d4dfc78f0475ULL, 0x35878135b73d263cULL},
        {"scoped+deps e4", true, true, 4, kAll, false, 440,
         0xdaad474f34ef0d64ULL, 0x90c18b8e703e3eefULL},
        {"scoped e4", true, false, 4, kAll, false, 316,
         0xb88977495f10b56dULL, 0x764329bea901424fULL},
        {"deps e4", false, true, 4, kAll, false, 83,
         0x26749e3ee3d4af12ULL, 0xa03c7f235b0d7ea4ULL},
        {"plain e4", false, false, 4, kAll, false, 49,
         0xba6415fd17841c3eULL, 0xdd6cea4311fd5d06ULL},
        {"scoped+deps e5", true, true, 5, kAll, false, 5714,
         0x5f0c910de5d83f8bULL, 0x6a8ff7c67c6a2cc7ULL},
        {"scoped e5", true, false, 5, kAll, false, 3920,
         0xc807717434ab33daULL, 0x4dc6fda699166a57ULL},
        {"deps e5", false, true, 5, kAll, false, 638,
         0x5374fa7af9cfd7ffULL, 0x7fd746a81e2bfd30ULL},
        {"plain e5", false, false, 5, kAll, false, 338,
         0xa5d60e124d03bcabULL, 0xa911ec179209d8e5ULL},
        {"steered e4", true, true, 4, kAll, true, 440,
         0x561424ddb8c4de44ULL, 0x6c7e81f50c9966c3ULL},
    };
    for (const auto &p : pins) {
        GeneratorOptions opts;
        opts.maxEdges = p.maxEdges;
        opts.maxTests = p.maxTests;
        opts.steer = p.steer;
        auto tests = generate(defaultPool(p.scopes, p.deps), opts);
        Digest128 d = poolDigest(tests);
        EXPECT_EQ(tests.size(), p.count) << p.what;
        EXPECT_EQ(d.lo, p.lo) << p.what;
        EXPECT_EQ(d.hi, p.hi) << p.what;
    }
}

/**
 * The original dedup, kept as the oracle for generate(): name every
 * closing by the smallest rotation of its edge-name strings and admit
 * each name once through a std::set. Returns the cycle names of the
 * tests it emits, in order.
 */
std::vector<std::string>
referenceGenerate(const std::vector<Edge> &pool,
                  const GeneratorOptions &opts)
{
    std::vector<std::string> out;
    std::set<std::string> seen;
    std::vector<Edge> cycle;
    std::function<void(int)> dfs = [&](int remaining) {
        if (out.size() >= opts.maxTests)
            return;
        if (static_cast<int>(cycle.size()) >= opts.minEdges &&
            cycle.back().to == cycle.front().from &&
            cycle.back().isComm()) {
            std::vector<std::string> names;
            for (const auto &e : cycle)
                names.push_back(e.name());
            std::string canonical;
            for (size_t r = 0; r < names.size(); ++r) {
                std::string rotated;
                for (size_t k = 0; k < names.size(); ++k) {
                    if (k)
                        rotated += " ";
                    rotated += names[(r + k) % names.size()];
                }
                if (canonical.empty() || rotated < canonical)
                    canonical = rotated;
            }
            if (seen.insert(canonical).second) {
                std::string display;
                for (size_t k = 0; k < names.size(); ++k)
                    display += (k ? " " : "") + names[k];
                if (synthesise(cycle, display, opts))
                    out.push_back(display);
            }
        }
        if (remaining == 0)
            return;
        for (const auto &e : pool) {
            if (!cycle.empty() && cycle.back().to != e.from)
                continue;
            cycle.push_back(e);
            dfs(remaining - 1);
            cycle.pop_back();
            if (out.size() >= opts.maxTests)
                return;
        }
    };
    for (const auto &e : pool) {
        cycle.push_back(e);
        dfs(opts.maxEdges - 1);
        cycle.pop_back();
        if (out.size() >= opts.maxTests)
            break;
    }
    return out;
}

TEST(Generate, MatchesTheStringDedupReference)
{
    struct Config
    {
        bool scopes;
        bool deps;
        int minEdges;
        int maxEdges;
        size_t maxTests;
    };
    const Config configs[] = {
        {true, true, 2, 4, kAll},  {true, true, 3, 3, kAll},
        {true, true, 3, 4, kAll},  {true, true, 2, 5, kAll},
        {true, true, 3, 5, 37},    {true, true, 3, 6, 5000},
        {false, true, 3, 5, kAll}, {true, false, 3, 5, kAll},
        {false, false, 2, 5, kAll},
    };
    for (const auto &c : configs) {
        GeneratorOptions opts;
        opts.minEdges = c.minEdges;
        opts.maxEdges = c.maxEdges;
        opts.maxTests = c.maxTests;
        auto pool = defaultPool(c.scopes, c.deps);
        std::vector<std::string> names;
        for (const auto &g : generate(pool, opts))
            names.push_back(g.cycleName);
        EXPECT_EQ(names, referenceGenerate(pool, opts))
            << "scopes=" << c.scopes << " deps=" << c.deps
            << " edges=" << c.minEdges << ".." << c.maxEdges
            << " cap=" << c.maxTests;
    }
}

TEST(Generate, DefaultPoolNamesAreDistinct)
{
    // generate()'s precondition: with distinct names, deduplicating
    // on pool indices is deduplicating on cycle names.
    for (bool scopes : {true, false}) {
        for (bool deps : {true, false}) {
            std::set<std::string> names;
            auto pool = defaultPool(scopes, deps);
            for (const auto &e : pool)
                names.insert(e.name());
            EXPECT_EQ(names.size(), pool.size())
                << "scopes=" << scopes << " deps=" << deps;
        }
    }
}

TEST(Generate, NonPositiveBoundsReturnNothing)
{
    // The search depth is bounded by maxEdges alone; a non-positive
    // bound must end the search at once, not recurse forever.
    for (int maxEdges : {0, -3}) {
        GeneratorOptions opts;
        opts.maxEdges = maxEdges;
        opts.maxTests = 5;
        EXPECT_TRUE(generate(defaultPool(), opts).empty()) << maxEdges;
        opts.minEdges = 0;
        EXPECT_TRUE(generate(defaultPool(), opts).empty()) << maxEdges;
    }
    GeneratorOptions above;
    above.minEdges = 5;
    above.maxEdges = 4;
    EXPECT_TRUE(generate(defaultPool(), above).empty());
    GeneratorOptions none;
    none.maxTests = 0;
    EXPECT_TRUE(generate(defaultPool(), none).empty());
}

} // namespace
} // namespace gpulitmus::gen
