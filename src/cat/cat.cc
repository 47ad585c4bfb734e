#include "cat/cat.h"

#include <algorithm>
#include <map>

#include "cat/ast.h"
#include "common/log.h"

namespace gpulitmus::cat {

using axiom::EventSet;
using axiom::Execution;
using axiom::Relation;

namespace {

// ---------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------

/** The base relations (herd's names), in slot order: base k lives in
 * slot k. */
enum Base : int {
    kPo,
    kPoLoc,
    kRf,
    kRfe,
    kRfi,
    kCo,
    kCoe,
    kCoi,
    kFr,
    kFre,
    kFri,
    kAddr,
    kData,
    kCtrl,
    kMembarCta,
    kMembarGl,
    kMembarSys,
    kCta,
    kGl,
    kSys,
    kRmw,
    kLoc,
    kId,
    kExt,
    kInt,
    kZero,
    kNumBases,
};

constexpr const char *kBaseNames[kNumBases] = {
    "po",         "po-loc",    "rf",         "rfe",  "rfi", "co",
    "coe",        "coi",       "fr",         "fre",  "fri", "addr",
    "data",       "ctrl",      "membar.cta", "membar.gl",
    "membar.sys", "cta",       "gl",         "sys",  "rmw", "loc",
    "id",         "ext",       "int",        "0",
};

int
baseByName(const std::string &name)
{
    for (int k = 0; k < kNumBases; ++k) {
        if (name == kBaseNames[k])
            return k;
    }
    return -1;
}

enum class Op : uint8_t {
    Base, ///< dst = the execution's base relation dst (base k is slot k)
    Union,
    Inter,
    Diff,
    Seq,
    Plus,
    Star,
    Maybe,
    Inverse,
    Restrict, ///< dst = a with domain in set `dom`, range in `rng`
};

/** The event classes a filter restricts to. */
enum class Events : uint8_t { Reads, Writes };

/** One operation: writes slot dst from slots a (and b). Every dst is
 * fresh (or the base's own slot), so no operand aliases it. */
struct Instr
{
    Op op;
    Events dom = Events::Reads;
    Events rng = Events::Reads;
    int dst = -1;
    int a = -1;
    int b = -1;
};

/** A result the program exposes: a check's relation or a let's value,
 * ready once the first `end` instructions have run. */
struct Output
{
    std::string name;
    int slot = -1;
    size_t end = 0;
    CheckKind kind = CheckKind::Acyclic; ///< checks only
};

/** Guards against untrusted input: the parser bounds the depth of one
 * expression; these bound what inlining can make of them (the scratch
 * storage is slots x events x 8 bytes, the compiler recurses once per
 * nesting level). */
constexpr size_t kMaxInstructions = 1 << 14;
constexpr int kMaxCompileDepth = 2000;

/** A compiled model: run code in order; every check and let is a
 * slot of it. */
struct Program
{
    std::vector<Instr> code;
    std::vector<Output> checks;
    /** Parameterless lets in source order (first definition first). */
    std::vector<Output> lets;
    int numSlots = kNumBases;
};

// ---------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------

class Compiler
{
  public:
    explicit Compiler(Program &prog) : prog_(prog)
    {
        for (int k = 0; k < kNumBases; ++k)
            rels_[kBaseNames[k]] = k;
    }

    bool
    compile(const std::vector<Stmt> &stmts, CatError *error)
    {
        for (const auto &s : stmts) {
            line_ = s.line;
            if (s.kind == Stmt::Kind::Let && !s.params.empty()) {
                if (!define(s))
                    break;
                continue;
            }
            int slot = expr(s.expr);
            if (slot < 0)
                break;
            Output out;
            out.slot = slot;
            out.end = prog_.code.size();
            if (s.kind == Stmt::Kind::Let) {
                out.name = s.name;
                rels_[s.name] = slot;
                prog_.lets.push_back(std::move(out));
            } else {
                out.name = s.checkName;
                out.kind = s.check;
                prog_.checks.push_back(std::move(out));
            }
        }
        if (err_.message.empty())
            return true;
        if (error)
            *error = err_;
        return false;
    }

  private:
    /** Record a parameterised let; it is compiled where called. */
    bool
    define(const Stmt &s)
    {
        for (size_t i = 0; i < s.params.size(); ++i) {
            for (size_t j = 0; j < i; ++j) {
                if (s.params[i] == s.params[j]) {
                    fail("duplicate parameter '" + s.params[i] +
                             "' of '" + s.name + "'",
                         s.line);
                    return false;
                }
            }
        }
        funcs_[s.name] = &s;
        return true;
    }

    int
    fail(const std::string &message, int line)
    {
        err_ = CatError{message, line};
        return -1;
    }

    int
    emit(Instr in)
    {
        if (prog_.code.size() >= kMaxInstructions)
            return fail("model too large: more than " +
                            std::to_string(kMaxInstructions) +
                            " operations after inlining",
                        line_);
        if (in.dst < 0)
            in.dst = prog_.numSlots++;
        prog_.code.push_back(in);
        return in.dst;
    }

    /** Slot of a name in scope; a base is loaded on first use. */
    int
    name(const ExprPtr &e)
    {
        auto it = rels_.find(e->name);
        if (it == rels_.end())
            return fail("undefined relation '" + e->name + "'", e->line);
        int slot = it->second;
        if (slot < kNumBases && !((loaded_ >> slot) & 1)) {
            loaded_ |= 1ULL << slot;
            Instr in{Op::Base};
            in.dst = slot;
            return emit(in);
        }
        return slot;
    }

    int
    expr(const ExprPtr &e)
    {
        if (depth_ >= kMaxCompileDepth)
            return fail("expression nested too deeply after inlining",
                        e->line);
        ++depth_;
        int slot = lower(e);
        --depth_;
        return slot;
    }

    int
    lower(const ExprPtr &e)
    {
        auto unary = [&](Op op) {
            int a = expr(e->lhs);
            if (a < 0)
                return -1;
            Instr in{op};
            in.a = a;
            return emit(in);
        };
        auto binary = [&](Op op) {
            int a = expr(e->lhs);
            if (a < 0)
                return -1;
            int b = expr(e->rhs);
            if (b < 0)
                return -1;
            Instr in{op};
            in.a = a;
            in.b = b;
            return emit(in);
        };
        switch (e->kind) {
          case Expr::Kind::Name: return name(e);
          case Expr::Kind::Union: return binary(Op::Union);
          case Expr::Kind::Inter: return binary(Op::Inter);
          case Expr::Kind::Diff: return binary(Op::Diff);
          case Expr::Kind::Seq: return binary(Op::Seq);
          case Expr::Kind::Plus: return unary(Op::Plus);
          case Expr::Kind::Star: return unary(Op::Star);
          case Expr::Kind::Maybe: return unary(Op::Maybe);
          case Expr::Kind::Inverse: return unary(Op::Inverse);
          case Expr::Kind::App: return apply(e);
        }
        return fail("unknown expression", e->line);
    }

    int
    apply(const ExprPtr &e)
    {
        static const struct
        {
            const char *name;
            Events dom, rng;
        } filters[] = {
            {"WW", Events::Writes, Events::Writes},
            {"WR", Events::Writes, Events::Reads},
            {"RW", Events::Reads, Events::Writes},
            {"RR", Events::Reads, Events::Reads},
        };
        for (const auto &f : filters) {
            if (e->name != f.name)
                continue;
            if (e->args.size() != 1)
                return fail("filter '" + e->name +
                                "' takes one argument, got " +
                                std::to_string(e->args.size()),
                            e->line);
            int a = expr(e->args[0]);
            if (a < 0)
                return -1;
            Instr in{Op::Restrict, f.dom, f.rng};
            in.a = a;
            return emit(in);
        }

        auto it = funcs_.find(e->name);
        if (it == funcs_.end())
            return fail("undefined function '" + e->name + "'", e->line);
        const Stmt *def = it->second;
        if (def->params.size() != e->args.size())
            return fail("'" + e->name + "' expects " +
                            std::to_string(def->params.size()) +
                            " arguments, got " +
                            std::to_string(e->args.size()),
                        e->line);
        for (const Stmt *active : inlining_) {
            if (active == def)
                return fail("recursive call to '" + e->name + "'",
                            e->line);
        }
        // Inline: bind each argument as it is compiled (a later
        // argument sees the earlier parameters, as the body does),
        // compile the body over the call site's scope, then unbind.
        // An error ends the compilation, so it needs no unbinding.
        std::vector<std::pair<std::string, std::optional<int>>> saved;
        for (size_t i = 0; i < def->params.size(); ++i) {
            int arg = expr(e->args[i]);
            if (arg < 0)
                return -1;
            const std::string &param = def->params[i];
            auto old = rels_.find(param);
            saved.emplace_back(param, old == rels_.end()
                                          ? std::nullopt
                                          : std::optional<int>(old->second));
            rels_[param] = arg;
        }
        inlining_.push_back(def);
        int result = expr(def->expr);
        inlining_.pop_back();
        for (auto it2 = saved.rbegin(); it2 != saved.rend(); ++it2) {
            if (it2->second)
                rels_[it2->first] = *it2->second;
            else
                rels_.erase(it2->first);
        }
        return result;
    }

    Program &prog_;
    CatError err_;
    std::map<std::string, int> rels_;
    std::map<std::string, const Stmt *> funcs_;
    std::vector<const Stmt *> inlining_;
    uint64_t loaded_ = 0; ///< bases with an emitted load
    int depth_ = 0;       ///< expr() recursion depth
    int line_ = 0;        ///< line of the statement being compiled
};

// ---------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------

/** One execution's evaluation: slot s is rows [s*n, s*n + n) of the
 * scratch storage. */
class Run
{
  public:
    Run(const Program &prog, const Execution &ex,
        std::vector<uint64_t> &storage)
        : prog_(prog), ex_(ex), n_(ex.numEvents())
    {
        // One extra slot past the program's for check closures.
        size_t need = static_cast<size_t>(prog.numSlots + 1) *
                      static_cast<size_t>(n_);
        if (storage.size() < need)
            storage.resize(need);
        rows_ = storage.data();
        all_ = n_ == 64 ? ~0ULL : ((1ULL << n_) - 1);
        for (const auto &e : ex.events) {
            if (e.isRead())
                reads_ |= 1ULL << e.id;
            else if (e.isWrite())
                writes_ |= 1ULL << e.id;
        }
    }

    /** Run instructions [pc_, end). */
    void
    runTo(size_t end)
    {
        for (; pc_ < end; ++pc_)
            exec(prog_.code[pc_]);
    }

    const uint64_t *slot(int s) const { return rows_ + s * n_; }

    bool
    passes(const Output &check)
    {
        runTo(check.end);
        const uint64_t *r = slot(check.slot);
        switch (check.kind) {
          case CheckKind::Acyclic: {
            uint64_t *c = mut(prog_.numSlots);
            copy(c, r);
            close(c);
            return irreflexive(c);
          }
          case CheckKind::Irreflexive:
            return irreflexive(r);
          case CheckKind::Empty:
            for (int i = 0; i < n_; ++i) {
                if (r[i])
                    return false;
            }
            return true;
        }
        return false;
    }

    Relation
    relation(int s) const
    {
        return Relation::fromRows(n_, slot(s));
    }

    /** Compute base relation k into its slot. */
    void
    base(int k)
    {
        uint64_t *out = mut(k);
        auto rel = [&](const Relation &r) {
            for (int i = 0; i < n_; ++i)
                out[i] = r.row(i);
        };
        auto split = [&](const Relation &r, bool external) {
            sameThread();
            for (int i = 0; i < n_; ++i)
                out[i] = r.row(i) &
                         (external ? ~thread_[i] : thread_[i]);
        };
        switch (k) {
          case kPo: return rel(ex_.po);
          case kPoLoc:
            sameLoc();
            for (int i = 0; i < n_; ++i)
                out[i] = ex_.po.row(i) & loc_[i];
            return;
          case kRf: return rel(ex_.rf);
          case kRfe: return split(ex_.rf, true);
          case kRfi: return split(ex_.rf, false);
          case kCo: return rel(ex_.co);
          case kCoe: return split(ex_.co, true);
          case kCoi: return split(ex_.co, false);
          case kFr:
          case kFre:
          case kFri: {
            // fr = (rf^-1 ; co) \ id
            uint64_t src[axiom::kMaxEvents] = {};
            for (int w = 0; w < n_; ++w) {
                for (uint64_t row = ex_.rf.row(w); row; row &= row - 1)
                    src[__builtin_ctzll(row)] |= 1ULL << w;
            }
            if (k != kFr)
                sameThread();
            for (int i = 0; i < n_; ++i) {
                uint64_t fr = 0;
                for (uint64_t ws = src[i]; ws; ws &= ws - 1)
                    fr |= ex_.co.row(__builtin_ctzll(ws));
                fr &= ~(1ULL << i);
                if (k == kFre)
                    fr &= ~thread_[i];
                else if (k == kFri)
                    fr &= thread_[i];
                out[i] = fr;
            }
            return;
          }
          case kAddr: return rel(ex_.addr);
          case kData: return rel(ex_.data);
          case kCtrl: return rel(ex_.ctrl);
          case kMembarCta: return rel(ex_.membarCta);
          case kMembarGl: return rel(ex_.membarGl);
          case kMembarSys: return rel(ex_.membarSys);
          case kCta: return rel(ex_.scopeCta);
          case kGl: return rel(ex_.scopeGl);
          case kSys: return rel(ex_.scopeSys);
          case kRmw:
            std::fill(out, out + n_, 0);
            for (const auto &e : ex_.events) {
                if (e.isRead() && e.rmwPartner >= 0)
                    out[e.id] |= 1ULL << e.rmwPartner;
            }
            return;
          case kLoc:
            sameLoc();
            std::copy(loc_, loc_ + n_, out);
            return;
          case kId:
            for (int i = 0; i < n_; ++i)
                out[i] = 1ULL << i;
            return;
          case kExt:
            sameThread();
            for (int i = 0; i < n_; ++i)
                out[i] = all_ & ~thread_[i];
            return;
          case kInt:
            sameThread();
            for (int i = 0; i < n_; ++i)
                out[i] = thread_[i] & ~(1ULL << i);
            return;
          case kZero:
            std::fill(out, out + n_, 0);
            return;
          default:
            break;
        }
        panic("cat: unknown base relation %d", k);
    }

  private:
    uint64_t *mut(int s) { return rows_ + s * n_; }

    void
    copy(uint64_t *d, const uint64_t *a) const
    {
        std::copy(a, a + n_, d);
    }

    /** Transitive closure in place (Warshall). */
    void
    close(uint64_t *d) const
    {
        for (int k = 0; k < n_; ++k) {
            for (int i = 0; i < n_; ++i) {
                if ((d[i] >> k) & 1)
                    d[i] |= d[k];
            }
        }
    }

    bool
    irreflexive(const uint64_t *r) const
    {
        for (int i = 0; i < n_; ++i) {
            if ((r[i] >> i) & 1)
                return false;
        }
        return true;
    }

    EventSet
    events(Events c) const
    {
        return c == Events::Reads ? reads_ : writes_;
    }

    void
    exec(const Instr &in)
    {
        uint64_t *d = mut(in.dst);
        const uint64_t *a = in.a >= 0 ? slot(in.a) : nullptr;
        const uint64_t *b = in.b >= 0 ? slot(in.b) : nullptr;
        switch (in.op) {
          case Op::Base:
            base(in.dst);
            return;
          case Op::Union:
            for (int i = 0; i < n_; ++i)
                d[i] = a[i] | b[i];
            return;
          case Op::Inter:
            for (int i = 0; i < n_; ++i)
                d[i] = a[i] & b[i];
            return;
          case Op::Diff:
            for (int i = 0; i < n_; ++i)
                d[i] = a[i] & ~b[i];
            return;
          case Op::Seq:
            for (int i = 0; i < n_; ++i) {
                uint64_t out = 0;
                for (uint64_t row = a[i]; row; row &= row - 1)
                    out |= b[__builtin_ctzll(row)];
                d[i] = out;
            }
            return;
          case Op::Plus:
          case Op::Star:
            copy(d, a);
            close(d);
            if (in.op == Op::Star) {
                for (int i = 0; i < n_; ++i)
                    d[i] |= 1ULL << i;
            }
            return;
          case Op::Maybe:
            for (int i = 0; i < n_; ++i)
                d[i] = a[i] | (1ULL << i);
            return;
          case Op::Inverse:
            std::fill(d, d + n_, 0);
            for (int i = 0; i < n_; ++i) {
                for (uint64_t row = a[i]; row; row &= row - 1)
                    d[__builtin_ctzll(row)] |= 1ULL << i;
            }
            return;
          case Op::Restrict: {
            const EventSet dom = events(in.dom);
            const EventSet rng = events(in.rng);
            for (int i = 0; i < n_; ++i)
                d[i] = (dom >> i) & 1 ? a[i] & rng : 0;
            return;
          }
        }
    }

    /** Same-thread masks (each event with itself included). */
    void
    sameThread()
    {
        if (haveThread_)
            return;
        haveThread_ = true;
        const auto &ev = ex_.events;
        for (int i = 0; i < n_; ++i) {
            uint64_t m = 0;
            for (int j = 0; j < n_; ++j) {
                if (ev[j].tid == ev[i].tid)
                    m |= 1ULL << j;
            }
            thread_[i] = m;
        }
    }

    /** Same-location masks over memory events, irreflexive. */
    void
    sameLoc()
    {
        if (haveLoc_)
            return;
        haveLoc_ = true;
        const auto &ev = ex_.events;
        std::fill(loc_, loc_ + n_, 0);
        for (int i = 0; i < n_; ++i) {
            if (ev[i].isFence())
                continue;
            for (int j = i + 1; j < n_; ++j) {
                if (!ev[j].isFence() && ev[i].loc == ev[j].loc) {
                    loc_[ev[i].id] |= 1ULL << ev[j].id;
                    loc_[ev[j].id] |= 1ULL << ev[i].id;
                }
            }
        }
    }

    const Program &prog_;
    const Execution &ex_;
    const int n_;
    uint64_t *rows_ = nullptr;
    size_t pc_ = 0;
    EventSet all_ = 0, reads_ = 0, writes_ = 0;
    bool haveThread_ = false, haveLoc_ = false;
    uint64_t thread_[axiom::kMaxEvents];
    uint64_t loc_[axiom::kMaxEvents];
};

} // anonymous namespace

struct Model::Impl : Program
{
};

std::string
ModelResult::firstFailure() const
{
    for (const auto &c : checks) {
        if (!c.passed)
            return c.name;
    }
    return "";
}

std::optional<Model>
Model::parse(const std::string &source, const std::string &name,
             CatError *error)
{
    auto stmts = parseStatements(source, error);
    if (!stmts)
        return std::nullopt;
    auto impl = std::make_shared<Impl>();
    if (!Compiler(*impl).compile(*stmts, error))
        return std::nullopt;
    Model m;
    m.impl_ = std::move(impl);
    m.name_ = name;
    return m;
}

Model
Model::parseOrDie(const std::string &source, const std::string &name)
{
    CatError err;
    auto m = parse(source, name, &err);
    if (!m)
        fatal("cat model '%s': %s (line %d)", name.c_str(),
              err.message.c_str(), err.line);
    return *m;
}

ModelResult
Model::evaluate(const axiom::Execution &ex) const
{
    Scratch scratch;
    Run run(*impl_, ex, scratch.rows_);
    ModelResult result;
    result.allowed = true;
    for (const auto &check : impl_->checks) {
        CheckResult cr;
        cr.name = check.name;
        cr.kind = toString(check.kind);
        cr.passed = run.passes(check);
        if (!cr.passed && check.kind == CheckKind::Acyclic)
            cr.cycle = run.relation(check.slot).findCycle();
        result.allowed &= cr.passed;
        result.checks.push_back(std::move(cr));
    }
    return result;
}

int
Model::firstFailure(const axiom::Execution &ex, Scratch &scratch) const
{
    Run run(*impl_, ex, scratch.rows_);
    const auto &checks = impl_->checks;
    for (size_t i = 0; i < checks.size(); ++i) {
        if (!run.passes(checks[i]))
            return static_cast<int>(i);
    }
    return -1;
}

std::optional<axiom::Relation>
Model::relation(const std::string &name,
                const axiom::Execution &ex) const
{
    Scratch scratch;
    Run run(*impl_, ex, scratch.rows_);
    for (const auto &let : impl_->lets) {
        if (let.name == name) {
            run.runTo(let.end);
            return run.relation(let.slot);
        }
    }
    int k = baseByName(name);
    if (k < 0)
        return std::nullopt;
    run.base(k);
    return run.relation(k);
}

std::vector<std::string>
Model::checkNames() const
{
    std::vector<std::string> names;
    for (const auto &c : impl_->checks)
        names.push_back(c.name);
    return names;
}

const std::string &
Model::checkName(int index) const
{
    return impl_->checks.at(static_cast<size_t>(index)).name;
}

} // namespace gpulitmus::cat
