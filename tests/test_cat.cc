/**
 * @file
 * Unit tests for the .cat DSL: parsing, operator semantics, filters,
 * parameterised relations, the built-in models' structure, the
 * errors the compiler rejects, and a differential check of the
 * compiled evaluator against a tree-walking reference interpreter.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>

#include "axiom/enumerate.h"
#include "cat/ast.h"
#include "cat/models.h"
#include "gen/generator.h"
#include "litmus/library.h"
#include "litmus/parser.h"
#include "model/baseline.h"
#include "model/checker.h"

#ifndef GPULITMUS_SOURCE_DIR
#define GPULITMUS_SOURCE_DIR "."
#endif

namespace gpulitmus::cat {
namespace {

using axiom::EventSet;
using axiom::Execution;
using axiom::Relation;

// ---------------------------------------------------------------------
// Reference interpreter: walks the syntax tree over a string-keyed
// environment, rebuilt for every execution. Slow and obviously
// faithful to the dialect's semantics (lets bind in order, a function
// body is evaluated at its call site with its parameters bound over
// the caller's environment); the compiled evaluator must agree with
// it everywhere.
// ---------------------------------------------------------------------

struct RefEnv
{
    std::map<std::string, Relation> rels;
    std::map<std::string, EventSet> sets;
    std::map<std::string, const Stmt *> funcs;
};

RefEnv
referenceBaseEnv(const Execution &ex)
{
    const int n = ex.numEvents();
    RefEnv env;
    auto &r = env.rels;
    r["po"] = ex.po;
    r["po-loc"] = ex.poLoc();
    r["rf"] = ex.rf;
    r["rfe"] = ex.external(ex.rf);
    r["rfi"] = ex.internal(ex.rf);
    r["co"] = ex.co;
    r["coe"] = ex.external(ex.co);
    r["coi"] = ex.internal(ex.co);
    Relation f = ex.fr();
    r["fr"] = f;
    r["fre"] = ex.external(f);
    r["fri"] = ex.internal(f);
    r["addr"] = ex.addr;
    r["data"] = ex.data;
    r["ctrl"] = ex.ctrl;
    r["membar.cta"] = ex.membarCta;
    r["membar.gl"] = ex.membarGl;
    r["membar.sys"] = ex.membarSys;
    r["cta"] = ex.scopeCta;
    r["gl"] = ex.scopeGl;
    r["sys"] = ex.scopeSys;
    r["rmw"] = ex.rmw();
    r["loc"] = ex.sameLoc();
    r["id"] = Relation::identity(n);
    r["ext"] = ex.external(Relation::universal(n));
    r["int"] = ex.internal(Relation::universal(n))
                   .minus(Relation::identity(n));
    r["0"] = Relation(n);
    env.sets["R"] = ex.reads();
    env.sets["W"] = ex.writes();
    return env;
}

Relation referenceEval(const ExprPtr &e, RefEnv &env);

Relation
referenceApply(const ExprPtr &e, RefEnv &env)
{
    auto filter = [&](EventSet dom, EventSet rng) {
        return referenceEval(e->args.at(0), env).restrict(dom, rng);
    };
    const EventSet r = env.sets.at("R"), w = env.sets.at("W");
    if (e->name == "WW")
        return filter(w, w);
    if (e->name == "WR")
        return filter(w, r);
    if (e->name == "RW")
        return filter(r, w);
    if (e->name == "RR")
        return filter(r, r);
    const Stmt *def = env.funcs.at(e->name);
    // Bind each argument as it is evaluated (so a later argument sees
    // the earlier parameters), evaluate the body, restore.
    std::vector<std::pair<std::string, std::optional<Relation>>> saved;
    for (size_t i = 0; i < def->params.size(); ++i) {
        Relation arg = referenceEval(e->args.at(i), env);
        auto old = env.rels.find(def->params[i]);
        saved.emplace_back(def->params[i],
                           old == env.rels.end()
                               ? std::nullopt
                               : std::optional<Relation>(old->second));
        env.rels[def->params[i]] = std::move(arg);
    }
    Relation result = referenceEval(def->expr, env);
    for (auto &[name, old] : saved) {
        if (old)
            env.rels[name] = std::move(*old);
        else
            env.rels.erase(name);
    }
    return result;
}

Relation
referenceEval(const ExprPtr &e, RefEnv &env)
{
    switch (e->kind) {
      case Expr::Kind::Name:
        return env.rels.at(e->name);
      case Expr::Kind::Union:
        return referenceEval(e->lhs, env) | referenceEval(e->rhs, env);
      case Expr::Kind::Inter:
        return referenceEval(e->lhs, env) & referenceEval(e->rhs, env);
      case Expr::Kind::Diff:
        return referenceEval(e->lhs, env).minus(
            referenceEval(e->rhs, env));
      case Expr::Kind::Seq:
        return referenceEval(e->lhs, env).seq(referenceEval(e->rhs, env));
      case Expr::Kind::Plus:
        return referenceEval(e->lhs, env).plus();
      case Expr::Kind::Star:
        return referenceEval(e->lhs, env).star();
      case Expr::Kind::Maybe:
        return referenceEval(e->lhs, env).maybe();
      case Expr::Kind::Inverse:
        return referenceEval(e->lhs, env).inverse();
      case Expr::Kind::App:
        return referenceApply(e, env);
    }
    throw std::logic_error("unknown expression kind");
}

/** What the interpreter made of a model on one execution. */
struct Reference
{
    /** Every check, in order. */
    ModelResult result;
    /** Each let-bound name's first definition: what Model::relation
     * must give for it (a redefinition does not change it). */
    std::map<std::string, Relation> lets;
};

/** One pass of the interpreter over the statements, starting from
 * the base environment `env`. */
Reference
referenceEvaluate(const std::vector<Stmt> &stmts, RefEnv env)
{
    Reference ref;
    ModelResult &result = ref.result;
    result.allowed = true;
    for (const auto &s : stmts) {
        if (s.kind == Stmt::Kind::Let) {
            if (!s.params.empty()) {
                env.funcs[s.name] = &s;
                continue;
            }
            env.rels[s.name] = referenceEval(s.expr, env);
            ref.lets.emplace(s.name, env.rels[s.name]);
            continue;
        }
        Relation r = referenceEval(s.expr, env);
        CheckResult cr;
        cr.name = s.checkName;
        cr.kind = toString(s.check);
        switch (s.check) {
          case CheckKind::Acyclic:
            cr.passed = r.acyclic();
            if (!cr.passed)
                cr.cycle = r.findCycle();
            break;
          case CheckKind::Irreflexive:
            cr.passed = r.irreflexive();
            break;
          case CheckKind::Empty:
            cr.passed = r.empty();
            break;
        }
        result.allowed &= cr.passed;
        result.checks.push_back(std::move(cr));
    }
    return ref;
}

/** Where the compiled model and the interpreter disagree on one
 * execution: every check's name, kind, verdict and witness cycle, the
 * checker's early-exit answer, the value of every let-bound name and
 * of every base relation. Empty when they agree. */
std::vector<std::string>
differences(const Model &model, const std::vector<Stmt> &stmts,
            const Execution &ex, const RefEnv &base,
            Model::Scratch &scratch)
{
    std::vector<std::string> out;
    const Reference ref = referenceEvaluate(stmts, base);
    const ModelResult &want = ref.result;
    ModelResult got = model.evaluate(ex);
    bool same = got.allowed == want.allowed &&
                got.checks.size() == want.checks.size();
    for (size_t i = 0; same && i < got.checks.size(); ++i) {
        const auto &g = got.checks[i];
        const auto &w = want.checks[i];
        same = g.name == w.name && g.kind == w.kind &&
               g.passed == w.passed && g.cycle == w.cycle;
    }
    if (!same)
        out.push_back("ModelResult");
    const int failed = model.firstFailure(ex, scratch);
    if ((failed < 0 ? std::string() : model.checkName(failed)) !=
        want.firstFailure())
        out.push_back("firstFailure");
    for (const auto &[name, rel] : ref.lets) {
        auto r = model.relation(name, ex);
        if (!r || *r != rel)
            out.push_back("relation '" + name + "'");
    }
    for (const auto &[name, rel] : base.rels) {
        if (ref.lets.count(name))
            continue;
        auto r = model.relation(name, ex);
        if (!r || *r != rel)
            out.push_back("base relation '" + name + "'");
    }
    return out;
}

/** parse's error on a model that must be rejected. */
CatError
rejection(const std::string &source)
{
    CatError err;
    EXPECT_FALSE(Model::parse(source, "bad", &err)) << source.substr(0, 80);
    return err;
}

axiom::Execution
firstExecution(const litmus::Test &t)
{
    auto execs = axiom::enumerateExecutions(t);
    EXPECT_FALSE(execs.empty());
    return execs.front();
}

TEST(CatParse, AcceptsPaperModels)
{
    CatError err;
    EXPECT_TRUE(Model::parse(models::ptxSource(), "ptx", &err))
        << err.message;
    EXPECT_TRUE(Model::parse(models::rmoSource(), "rmo", &err))
        << err.message;
    EXPECT_TRUE(Model::parse(models::scSource(), "sc", &err))
        << err.message;
    EXPECT_TRUE(Model::parse(models::tsoSource(), "tso", &err))
        << err.message;
    EXPECT_TRUE(Model::parse(
        gpulitmus::model::operationalBaselineSource(), "op", &err))
        << err.message;
}

TEST(CatParse, RejectsBadSyntax)
{
    CatError err;
    EXPECT_FALSE(Model::parse("let = rf", "bad", &err));
    EXPECT_FALSE(Model::parse("acyclic (rf | co", "bad", &err));
    EXPECT_FALSE(Model::parse("frobnicate rf", "bad", &err));
    EXPECT_FALSE(Model::parse("let a(x = rf", "bad", &err));
}

TEST(CatParse, RejectsUnresolvableModelsWithTheirLine)
{
    CatError err = rejection("let a = rf\nacyclic (a | nope) as x\n");
    EXPECT_NE(err.message.find("undefined relation 'nope'"),
              std::string::npos)
        << err.message;
    EXPECT_EQ(err.line, 2);

    err = rejection("let a = rf\n\nacyclic f(a) as x\n");
    EXPECT_NE(err.message.find("undefined function 'f'"),
              std::string::npos)
        << err.message;
    EXPECT_EQ(err.line, 3);

    err = rejection("let f(x, y) = x | y\nacyclic f(po) as c\n");
    EXPECT_NE(err.message.find("'f' expects 2 arguments, got 1"),
              std::string::npos)
        << err.message;
    EXPECT_EQ(err.line, 2);

    err = rejection("let a = po\nacyclic WW(po, rf) as w\n");
    EXPECT_NE(err.message.find("filter 'WW' takes one argument"),
              std::string::npos)
        << err.message;
    EXPECT_EQ(err.line, 2);

    err = rejection("let f(x, x) = x\n");
    EXPECT_NE(err.message.find("duplicate parameter 'x'"),
              std::string::npos)
        << err.message;
    EXPECT_EQ(err.line, 1);

    // A filter name is not a relation.
    err = rejection("acyclic WW as w\n");
    EXPECT_NE(err.message.find("undefined relation 'WW'"),
              std::string::npos);
}

TEST(CatParse, RejectsRecursion)
{
    CatError err = rejection("let f(x) = f(x)\nacyclic f(po) as r\n");
    EXPECT_NE(err.message.find("recursive call to 'f'"),
              std::string::npos)
        << err.message;
    EXPECT_EQ(err.line, 1);

    // Mutual recursion through a function defined later (a body sees
    // the names in scope where it is called).
    err = rejection("let f(x) = x | g(x)\nlet g(x) = f(x ; x)\n"
                    "acyclic f(po) as r\n");
    EXPECT_NE(err.message.find("recursive call to 'f'"),
              std::string::npos)
        << err.message;
    EXPECT_EQ(err.line, 2);

    // A function that is never called is never inlined, so its body
    // is not resolved: it may name what is defined after it.
    EXPECT_TRUE(Model::parse("let f(x) = f(x)\nacyclic po as p\n"));
}

TEST(CatParse, BoundsWhatUntrustedInputCanBuild)
{
    // Each of these would exhaust the stack or memory if followed
    // without bound; each is a CatError instead.
    const int deep = 200000;
    CatError err = rejection("acyclic " + std::string(deep, '(') + "po" +
                             std::string(deep, ')'));
    EXPECT_NE(err.message.find("nested too deeply"), std::string::npos);
    std::string chain = "acyclic po";
    for (int i = 0; i < deep; ++i)
        chain += " | po";
    err = rejection(chain);
    EXPECT_NE(err.message.find("nested too deeply"), std::string::npos);
    err = rejection("acyclic po" + std::string(deep, '+'));
    EXPECT_NE(err.message.find("nested too deeply"), std::string::npos);

    // Each call inlines its callee's body twice: 2^30 operations.
    std::string doubling = "let f0(x) = x | x\n";
    for (int i = 1; i <= 30; ++i)
        doubling += "let f" + std::to_string(i) + "(x) = f" +
                    std::to_string(i - 1) + "(f" + std::to_string(i - 1) +
                    "(x))\n";
    err = rejection(doubling + "acyclic f30(po) as big\n");
    EXPECT_NE(err.message.find("model too large"), std::string::npos)
        << err.message;
    EXPECT_EQ(err.line, 32);

    // Bodies within the parser's bound that nest too deeply once
    // inlined into each other.
    std::string nest = "let g0(x) = x\n";
    for (int i = 1; i <= 40; ++i)
        nest += "let g" + std::to_string(i) + "(x) = g" +
                std::to_string(i - 1) + "(x)" + std::string(400, '+') +
                "\n";
    err = rejection(nest + "acyclic g40(po) as deep\n");
    EXPECT_NE(err.message.find("nested too deeply after inlining"),
              std::string::npos)
        << err.message;
}

TEST(CatParse, CheckNamesInOrder)
{
    const Model &ptx = models::ptx();
    auto names = ptx.checkNames();
    ASSERT_EQ(names.size(), 5u);
    EXPECT_EQ(names[0], "sc-per-loc-llh");
    EXPECT_EQ(names[1], "no-thin-air");
    EXPECT_EQ(names[2], "cta-constraint");
    EXPECT_EQ(names[3], "gl-constraint");
    EXPECT_EQ(names[4], "sys-constraint");
}

TEST(CatEval, UnionInterDiffSemantics)
{
    Model m = Model::parseOrDie(R"(
let u = rf | co
let i = u & co
let d = u \ co
acyclic u as u-check
)",
                                "ops");
    auto ex = firstExecution(litmus::paperlib::mp());
    auto u = m.relation("u", ex);
    auto i = m.relation("i", ex);
    auto d = m.relation("d", ex);
    ASSERT_TRUE(u && i && d);
    EXPECT_EQ(*u, ex.rf | ex.co);
    EXPECT_EQ(*i, ex.co);
    EXPECT_EQ(*d, ex.rf.minus(ex.co));
}

TEST(CatEval, SeqClosureInverse)
{
    Model m = Model::parseOrDie(R"(
let s = rf ; po
let p = po+
let st = po*
let mb = po?
let inv = rf^-1
acyclic p as p-check
)",
                                "ops2");
    auto ex = firstExecution(litmus::paperlib::mp());
    EXPECT_EQ(*m.relation("s", ex), ex.rf.seq(ex.po));
    EXPECT_EQ(*m.relation("p", ex), ex.po.plus());
    EXPECT_EQ(*m.relation("st", ex), ex.po.star());
    EXPECT_EQ(*m.relation("mb", ex), ex.po.maybe());
    EXPECT_EQ(*m.relation("inv", ex), ex.rf.inverse());
}

TEST(CatEval, FiltersSelectEventClasses)
{
    Model m = Model::parseOrDie(R"(
let ww = WW(po)
let wr = WR(po)
let rw = RW(po)
let rr = RR(po)
acyclic ww as ww-check
)",
                                "filters");
    auto ex = firstExecution(litmus::paperlib::mp());
    auto check = [&](const char *name, bool dom_w, bool rng_w) {
        auto r = m.relation(name, ex);
        ASSERT_TRUE(r.has_value());
        for (const auto &[i, j] : r->pairs()) {
            EXPECT_EQ(ex.events[i].isWrite(), dom_w);
            EXPECT_EQ(ex.events[j].isWrite(), rng_w);
        }
    };
    check("ww", true, true);
    check("wr", true, false);
    check("rw", false, true);
    check("rr", false, false);
}

TEST(CatEval, ParameterisedLet)
{
    Model m = Model::parseOrDie(R"(
let pair(a, b) = a | b
let both = pair(rf, co)
acyclic both as both-check
)",
                                "params");
    auto ex = firstExecution(litmus::paperlib::mp());
    EXPECT_EQ(*m.relation("both", ex), ex.rf | ex.co);
}

TEST(CatEval, CallsSeeTheNamesInScopeWhereTheyAreCalled)
{
    // A body resolves its free names at the call site, so it sees a
    // let defined after the function; a later argument sees the
    // earlier parameters. The reference interpreter agrees.
    const std::string source = R"(
let f(x) = x | later
let later = co
let late = f(rf)
let second(x, y) = y
let x = po
let seen = second(rf, x)
let twice(x) = f(x) ; f(x)
let nested = twice(second(rf, po))
acyclic (late | seen | nested) as scoped
)";
    Model m = Model::parseOrDie(source, "scoping");
    auto stmts = *parseStatements(source, nullptr);
    Model::Scratch scratch;
    const litmus::Test test = litmus::paperlib::mp();
    for (const auto &ex : axiom::enumerateExecutions(test)) {
        EXPECT_EQ(*m.relation("late", ex), ex.rf | ex.co);
        EXPECT_EQ(*m.relation("seen", ex), ex.rf);
        EXPECT_TRUE(
            differences(m, stmts, ex, referenceBaseEnv(ex), scratch)
                .empty());
    }
}

TEST(CatEval, CommentsIgnored)
{
    Model m = Model::parseOrDie(R"(
(* a block comment
   over two lines *)
let x = rf // trailing comment
acyclic x as x-check
)",
                                "comments");
    auto ex = firstExecution(litmus::paperlib::mp());
    EXPECT_EQ(*m.relation("x", ex), ex.rf);
}

TEST(CatEval, EmptyAndIrreflexiveChecks)
{
    Model m = Model::parseOrDie(R"(
empty (rf & co) as rf-is-not-co
irreflexive po as po-irrefl
)",
                                "checks");
    auto ex = firstExecution(litmus::paperlib::mp());
    ModelResult res = m.evaluate(ex);
    ASSERT_EQ(res.checks.size(), 2u);
    EXPECT_TRUE(res.checks[0].passed);
    EXPECT_TRUE(res.checks[1].passed);
    EXPECT_TRUE(res.allowed);
}

TEST(CatEval, FailedAcyclicReportsCycle)
{
    Model m = Model::parseOrDie("acyclic (po | po^-1) as bad",
                                "cycle");
    auto ex = firstExecution(litmus::paperlib::mp());
    ModelResult res = m.evaluate(ex);
    EXPECT_FALSE(res.allowed);
    EXPECT_EQ(res.firstFailure(), "bad");
    EXPECT_FALSE(res.checks[0].cycle.empty());
}

TEST(CatEval, ScPerLocLlhAllowsCoRRShape)
{
    // The llh variant must pass on an execution where two po-ordered
    // same-address reads see new-then-old values, while the full
    // version fails (Sec. 5.2.2).
    const Model &ptx = models::ptx();
    const Model &full = models::scPerLocFull();
    bool llh_allows_weak = false;
    bool full_allows_weak = false;
    for (const auto &ex :
         axiom::enumerateExecutions(litmus::paperlib::coRR())) {
        if (ex.finalState.reg(1, "r1") == 1 &&
            ex.finalState.reg(1, "r2") == 0) {
            llh_allows_weak |= ptx.evaluate(ex).allowed;
            full_allows_weak |= full.evaluate(ex).allowed;
        }
    }
    EXPECT_TRUE(llh_allows_weak);
    EXPECT_FALSE(full_allows_weak);
}

TEST(CatModels, AllBuiltinsEvaluate)
{
    auto ex = firstExecution(litmus::paperlib::sb());
    for (const auto &[name, model] : models::all()) {
        ModelResult res = model->evaluate(ex);
        EXPECT_FALSE(res.checks.empty()) << name;
    }
}

// ---------------------------------------------------------------------
// Differential battery: the compiled evaluator against the reference
// interpreter, on every built-in model and the Sec. 6 baseline, over
// the executions of the corpus, the paper library and a seeded sample
// of generated tests.
// ---------------------------------------------------------------------

/** In-scope tests of the corpus, the paper library and 300 tests
 * sampled (fixed seed) from a 3,000-test generator pool. */
std::vector<litmus::Test>
batteryTests()
{
    std::vector<litmus::Test> tests;
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(GPULITMUS_SOURCE_DIR) + "/litmus-tests"))
        files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    for (const auto &path : files) {
        std::ifstream in(path);
        std::stringstream text;
        text << in.rdbuf();
        auto test = litmus::parseTest(text.str());
        EXPECT_TRUE(test.has_value()) << path;
        if (test)
            tests.push_back(std::move(*test));
    }
    EXPECT_EQ(tests.size(), 20u);
    for (auto &named : litmus::paperlib::allTests())
        tests.push_back(std::move(named.test));
    gen::GeneratorOptions opts;
    opts.maxTests = 3000;
    auto pool = gen::generate(gen::defaultPool(), opts);
    EXPECT_EQ(pool.size(), 3000u);
    std::vector<size_t> order(pool.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::shuffle(order.begin(), order.end(), std::mt19937(0x6361));
    for (size_t i = 0; i < 300 && i < order.size(); ++i)
        tests.push_back(std::move(pool[order[i]].test));
    std::vector<litmus::Test> inScope;
    for (auto &t : tests) {
        if (model::inModelScope(t))
            inScope.push_back(std::move(t));
    }
    return inScope;
}

struct BatteryModel
{
    std::string name;
    const Model *model;
    std::vector<Stmt> stmts;
};

std::vector<BatteryModel>
batteryModels()
{
    std::map<std::string, std::string> sources = {
        {"ptx", models::ptxSource()},
        {"rmo", models::rmoSource()},
        {"sc", models::scSource()},
        {"tso", models::tsoSource()},
        {"sc-per-loc-full", models::scPerLocFullSource()},
    };
    std::vector<BatteryModel> out;
    for (const auto &[name, model] : models::all())
        out.push_back({name, model, *parseStatements(sources.at(name),
                                                     nullptr)});
    out.push_back({"baseline", &gpulitmus::model::operationalBaseline(),
                   *parseStatements(
                       gpulitmus::model::operationalBaselineSource(),
                       nullptr)});
    return out;
}

TEST(CatDifferential, CompiledMatchesReferenceInterpreter)
{
    const auto tests = batteryTests();
    const auto battery = batteryModels();
    ASSERT_GE(tests.size(), 300u);
    size_t executions = 0, mismatches = 0;
    Model::Scratch scratch; // shared by every model, as in one thread
    for (const auto &test : tests) {
        for (const auto &ex : axiom::enumerateExecutions(test)) {
            ++executions;
            const RefEnv base = referenceBaseEnv(ex);
            for (const auto &bm : battery) {
                for (const auto &what :
                     differences(*bm.model, bm.stmts, ex, base, scratch)) {
                    if (++mismatches <= 10)
                        ADD_FAILURE() << bm.name << " on " << test.name
                                      << ": " << what << " differs";
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
    // The battery is only as strong as what it covers.
    EXPECT_GT(executions, 5000u);
}

} // namespace
} // namespace gpulitmus::cat
