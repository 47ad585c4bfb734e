#include "gen/generator.h"

#include <algorithm>

#include "analysis/race.h"
#include "common/log.h"
#include "common/strutil.h"

namespace gpulitmus::gen {

namespace {

char
dirLetter(Dir d)
{
    return d == Dir::W ? 'W' : 'R';
}

} // anonymous namespace

std::string
Edge::name() const
{
    switch (type) {
      case Type::Rfe:
      case Type::Fre:
      case Type::Wse: {
        std::string base = type == Type::Rfe   ? "Rfe"
                           : type == Type::Fre ? "Fre"
                                               : "Wse";
        return base + (scope == ScopeAnn::IntraCta ? "-cta" : "-dev");
      }
      case Type::Po:
        return std::string("Po") + (sameLoc ? "s" : "d") +
               dirLetter(from) + dirLetter(to);
      case Type::Dp: {
        std::string kind = dep == DepKind::Addr   ? "Addr"
                           : dep == DepKind::Data ? "Data"
                                                  : "Ctrl";
        return "Dp" + kind + "d" + dirLetter(to);
      }
      case Type::Fence:
        return "F." + ptx::toString(fenceScope) + "-d" +
               dirLetter(from) + dirLetter(to);
    }
    panic("unknown edge type");
}

std::vector<Edge>
defaultPool(bool with_scopes, bool with_deps)
{
    std::vector<Edge> pool;

    auto comm = [&](Edge::Type t, Dir f, Dir to_, ScopeAnn s) {
        Edge e;
        e.type = t;
        e.from = f;
        e.to = to_;
        e.sameLoc = true;
        e.scope = s;
        pool.push_back(e);
    };
    std::vector<ScopeAnn> scopes = {ScopeAnn::InterCta};
    if (with_scopes)
        scopes.push_back(ScopeAnn::IntraCta);
    for (ScopeAnn s : scopes) {
        comm(Edge::Type::Rfe, Dir::W, Dir::R, s);
        comm(Edge::Type::Fre, Dir::R, Dir::W, s);
        comm(Edge::Type::Wse, Dir::W, Dir::W, s);
    }

    auto po = [&](Dir f, Dir t, bool same) {
        Edge e;
        e.type = Edge::Type::Po;
        e.from = f;
        e.to = t;
        e.sameLoc = same;
        pool.push_back(e);
    };
    po(Dir::W, Dir::W, false);
    po(Dir::W, Dir::R, false);
    po(Dir::R, Dir::W, false);
    po(Dir::R, Dir::R, false);
    po(Dir::R, Dir::R, true); // PosRR: the coRR shape
    po(Dir::W, Dir::W, true); // PosWW: the coWW shape

    auto fence = [&](ptx::Scope s, Dir f, Dir t) {
        Edge e;
        e.type = Edge::Type::Fence;
        e.from = f;
        e.to = t;
        e.sameLoc = false;
        e.fenceScope = s;
        pool.push_back(e);
    };
    std::vector<ptx::Scope> fscopes = {ptx::Scope::Gl};
    if (with_scopes) {
        fscopes.push_back(ptx::Scope::Cta);
        fscopes.push_back(ptx::Scope::Sys);
    }
    for (ptx::Scope s : fscopes) {
        fence(s, Dir::W, Dir::W);
        fence(s, Dir::W, Dir::R);
        fence(s, Dir::R, Dir::W);
        fence(s, Dir::R, Dir::R);
    }

    if (with_deps) {
        auto dp = [&](DepKind k, Dir t) {
            Edge e;
            e.type = Edge::Type::Dp;
            e.from = Dir::R; // dependencies emanate from loads
            e.to = t;
            e.sameLoc = false;
            e.dep = k;
            pool.push_back(e);
        };
        dp(DepKind::Addr, Dir::R);
        dp(DepKind::Addr, Dir::W);
        dp(DepKind::Data, Dir::W);
        dp(DepKind::Ctrl, Dir::R);
        dp(DepKind::Ctrl, Dir::W);
    }
    return pool;
}

namespace {

/** Internal per-event record during synthesis. */
struct EventRec
{
    Dir dir = Dir::W;
    int thread = 0;
    int loc = 0;
    int64_t value = -1; ///< write value or expected read value
    int regNum = -1;    ///< destination register number for reads
};

/**
 * What the well-formedness pass learns about a cycle: everything
 * emission needs besides the edges. The vectors are reused across
 * cycles, so checking a candidate allocates nothing once they have
 * grown to the longest cycle.
 */
struct Layout
{
    std::vector<EventRec> events;
    int nthreads = 0;
    int nlocs = 0;
    std::vector<int> writeCount;   ///< per location
    std::vector<size_t> lastWrite; ///< per location: the co-last write
    std::vector<size_t> parent;    ///< union-find over events
    std::vector<int> classLoc;     ///< per class root: its location
};

std::string
locName(int idx)
{
    static const char *names[] = {"x", "y", "z", "w", "a", "b",
                                  "c", "d"};
    if (idx < 8)
        return names[idx];
    return "v" + std::to_string(idx);
}

/**
 * Decide whether `cycle` yields a test, without building any text:
 * direction chaining, a closing communication edge, the thread cap,
 * the closing edge's scope, location classes and their cap, read
 * values, coherence order and a non-empty condition. On success
 * `lay` holds the threads, locations and values of every event.
 */
bool
wellFormed(const std::vector<Edge> &cycle, const GeneratorOptions &opts,
           Layout &lay)
{
    size_t n = cycle.size();
    if (n < 2)
        return false;

    // Direction chaining: the target direction of edge i must be the
    // source direction of edge i+1 (cyclically).
    for (size_t i = 0; i < n; ++i) {
        if (cycle[i].to != cycle[(i + 1) % n].from)
            return false;
    }

    // The closing edge must be a communication edge (rotations where
    // it is not denote the same test).
    if (!cycle[n - 1].isComm())
        return false;

    auto &events = lay.events;
    events.assign(n, EventRec{});
    for (size_t i = 0; i < n; ++i)
        events[i].dir = cycle[i].from;

    // Threads: a communication edge moves to a fresh thread. The
    // closing communication edge returns to thread 0 — distinct by
    // construction.
    int nthreads = 1;
    bool any_inter = false;
    for (size_t i = 0; i + 1 < n; ++i) {
        if (cycle[i].isComm()) {
            ++nthreads;
            any_inter |= cycle[i].scope == ScopeAnn::InterCta;
        }
        events[i + 1].thread = nthreads - 1;
    }
    if (nthreads < 2 || nthreads > opts.maxThreads)
        return false;
    // The scope tree opens a new CTA at every inter-CTA edge, so the
    // last thread shares thread 0's CTA exactly when no edge before
    // the closing one is inter-CTA; the closing edge must agree.
    bool closing_intra = cycle[n - 1].scope == ScopeAnn::IntraCta;
    if (closing_intra == any_inter)
        return false;

    // Locations: union-find over same-location edges (including the
    // closing one), then one location per class; location-changing
    // edges must connect distinct classes.
    auto &parent = lay.parent;
    parent.resize(n);
    for (size_t i = 0; i < n; ++i)
        parent[i] = i;
    auto find = [&parent](size_t x) {
        while (parent[x] != x)
            x = parent[x] = parent[parent[x]];
        return x;
    };
    for (size_t i = 0; i < n; ++i) {
        if (cycle[i].sameLoc)
            parent[find(i)] = find((i + 1) % n);
    }
    for (size_t i = 0; i < n; ++i) {
        if (!cycle[i].sameLoc && find(i) == find((i + 1) % n))
            return false; // Pod/Dp/Fence within one location
    }
    int nlocs = 0;
    lay.classLoc.assign(n, -1);
    for (size_t i = 0; i < n; ++i) {
        size_t root = find(i);
        if (lay.classLoc[root] < 0)
            lay.classLoc[root] = nlocs++;
        events[i].loc = lay.classLoc[root];
    }
    if (nlocs > opts.maxLocations)
        return false;

    // Coherence order per location: writes in cycle order.
    lay.writeCount.assign(static_cast<size_t>(nlocs), 0);
    lay.lastWrite.assign(static_cast<size_t>(nlocs), 0);
    bool multi_write = false;
    for (size_t i = 0; i < n; ++i) {
        if (events[i].dir == Dir::W) {
            auto l = static_cast<size_t>(events[i].loc);
            events[i].value = ++lay.writeCount[l];
            lay.lastWrite[l] = i;
            multi_write |= lay.writeCount[l] >= 2;
        }
    }

    // Read values from the communication edges.
    for (size_t i = 0; i < n; ++i) {
        const Edge &e = cycle[i];
        size_t src = i;
        size_t dst = (i + 1) % n;
        if (e.type == Edge::Type::Rfe) {
            // Read sees the write's value.
            int64_t v = events[src].value;
            if (events[dst].value >= 0 && events[dst].value != v)
                return false; // conflicting constraints
            events[dst].value = v;
        } else if (e.type == Edge::Type::Fre) {
            // Read sees the coherence predecessor of the write.
            int64_t v = events[dst].value - 1;
            if (events[src].value >= 0 && events[src].value != v)
                return false;
            events[src].value = v;
        }
    }
    // Reads with no constraint never happen in valid cycles (every
    // read endpoint touches a communication edge); be safe anyway.
    bool any_read = false;
    for (const auto &ev : events) {
        if (ev.dir == Dir::R) {
            if (ev.value < 0)
                return false;
            any_read = true;
        }
    }

    // Coherence consistency: the appearance order (our co order) must
    // agree with every non-closing coherence edge. A *closing* Wse
    // asserts that the co-first write is last in coherence — the
    // relaxed behaviour itself — and is witnessed by the final memory
    // value instead (see emit).
    for (size_t i = 0; i + 1 < n; ++i) {
        if (cycle[i].type == Edge::Type::Wse &&
            events[i].value >= events[i + 1].value)
            return false;
    }

    // The condition asks for every read value and for the final value
    // of every multi-write location; it must ask for something.
    if (!any_read && !multi_write)
        return false;

    lay.nthreads = nthreads;
    lay.nlocs = nlocs;
    return true;
}

/** Build the litmus test of a cycle `wellFormed` accepted. */
litmus::Test
emit(const std::vector<Edge> &cycle, Layout &lay, std::string name)
{
    size_t n = cycle.size();
    auto &events = lay.events;
    litmus::TestBuilder builder(std::move(name));
    for (int l = 0; l < lay.nlocs; ++l)
        builder.global(locName(l), 0);

    std::string cond;
    std::vector<std::pair<int, std::string>> reg_locs; // addr regs

    for (int t = 0; t < lay.nthreads; ++t) {
        std::string body;
        int next_reg = 0;
        int next_pred = 0;
        // Events of this thread in cycle order.
        for (size_t i = 0; i < n; ++i) {
            if (events[i].thread != t)
                continue;
            EventRec &ev = events[i];

            // The edge *into* this event (from the same thread)
            // dictates dependency/fence plumbing.
            const Edge *in_edge =
                i > 0 && events[i - 1].thread == t ? &cycle[i - 1]
                                                   : nullptr;

            std::string guard;
            std::string addr = "[" + locName(ev.loc) + "]";
            std::string value_src;

            if (in_edge && in_edge->type == Edge::Type::Fence) {
                body += "membar." +
                        ptx::toString(in_edge->fenceScope) + ";";
            } else if (in_edge && in_edge->type == Edge::Type::Dp) {
                // Source register of the dependency: the previous
                // event is a read (Dir::R enforced by the pool).
                std::string src_reg =
                    "r" + std::to_string(events[i - 1].regNum);
                switch (in_edge->dep) {
                  case DepKind::Addr: {
                    // Fig. 13b: and with the high bit, extend, add 0.
                    std::string rz = "r" + std::to_string(20 + next_reg);
                    std::string rw = "r" + std::to_string(30 + next_reg);
                    std::string ra = "r" + std::to_string(40 + next_reg);
                    reg_locs.emplace_back(t, ra + ":" + locName(ev.loc));
                    body += "and.b32 " + rz + "," + src_reg +
                            ",0x80000000;";
                    body += "cvt.u64.u32 " + rw + "," + rz + ";";
                    body += "add.u64 " + ra + "," + ra + "," + rw + ";";
                    addr = "[" + ra + "]";
                    break;
                  }
                  case DepKind::Data: {
                    std::string rz = "r" + std::to_string(20 + next_reg);
                    std::string rv = "r" + std::to_string(30 + next_reg);
                    body += "and.b32 " + rz + "," + src_reg +
                            ",0x80000000;";
                    body += "add.s32 " + rv + "," + rz + "," +
                            std::to_string(ev.value) + ";";
                    value_src = rv;
                    break;
                  }
                  case DepKind::Ctrl: {
                    std::string p = "p" + std::to_string(next_pred++);
                    body += "setp.ne " + p + "," + src_reg + ",1000;";
                    guard = "@" + p + " ";
                    break;
                  }
                }
            }

            if (ev.dir == Dir::W) {
                std::string v = value_src.empty()
                                    ? std::to_string(ev.value)
                                    : value_src;
                body += guard + "st.cg " + addr + "," + v + ";";
            } else {
                ev.regNum = next_reg++;
                std::string r = "r" + std::to_string(ev.regNum);
                body += guard + "ld.cg " + r + "," + addr + ";";
                if (!cond.empty())
                    cond += " /\\ ";
                cond += std::to_string(t) + ":" + r + "=" +
                        std::to_string(ev.value);
            }
        }
        builder.thread(body);
    }

    for (const auto &[t, spec] : reg_locs) {
        auto colon = spec.find(':');
        builder.regLoc(t, spec.substr(0, colon),
                       spec.substr(colon + 1));
    }

    // Final coherence constraints for multi-write locations. A
    // closing Wse edge asserts the first event is co-last, so its
    // location's final value witnesses that write instead.
    bool closing_wse = cycle[n - 1].type == Edge::Type::Wse;
    for (int l = 0; l < lay.nlocs; ++l) {
        auto li = static_cast<size_t>(l);
        if (lay.writeCount[li] >= 2) {
            size_t witness = lay.lastWrite[li];
            if (closing_wse && events[0].loc == l)
                witness = 0;
            if (!cond.empty())
                cond += " /\\ ";
            cond += locName(l) + "=" +
                    std::to_string(events[witness].value);
        }
    }
    builder.exists(cond);

    // Scope tree from the communication-edge annotations: walk the
    // threads, opening a new CTA when the edge into the next thread
    // is inter-CTA (the closing edge agrees, per wellFormed).
    std::vector<litmus::ThreadPlacement> placement(
        static_cast<size_t>(lay.nthreads));
    int cta = 0;
    int warp = 0;
    int thread_idx = 0;
    placement[0] = {0, 0};
    for (size_t i = 0; i + 1 < n; ++i) {
        if (!cycle[i].isComm())
            continue;
        ++thread_idx;
        if (cycle[i].scope == ScopeAnn::IntraCta) {
            ++warp;
        } else {
            ++cta;
            warp = 0;
        }
        placement[static_cast<size_t>(thread_idx)] = {cta, warp};
    }
    builder.scope(litmus::ScopeTree(std::move(placement)));

    return builder.build();
}

/**
 * Depth-first search over chained edge sequences, children in pool
 * order, so sequences of one length are visited in lexicographic
 * order of their pool indices. A closed sequence and its rotations
 * denote one test; the search keeps the first rotation it closes,
 * which is the lexicographically smallest one that ends on a
 * communication edge. Everything before emission works on indices.
 */
class CycleSearch
{
  public:
    CycleSearch(const std::vector<Edge> &pool,
                const GeneratorOptions &opts,
                std::vector<GeneratedTest> &out)
        : pool_(pool), opts_(opts), out_(out), next_(pool.size())
    {
        names_.reserve(pool.size());
        for (size_t a = 0; a < pool.size(); ++a) {
            names_.push_back(pool[a].name());
            for (size_t b = 0; b < pool.size(); ++b) {
                if (pool[a].to == pool[b].from)
                    next_[a].push_back(b);
            }
        }
    }

    void
    run()
    {
        for (size_t e = 0; e < pool_.size() && !full(); ++e) {
            push(e);
            extend(opts_.maxEdges - 1);
            pop();
        }
    }

  private:
    bool full() const { return out_.size() >= opts_.maxTests; }

    void
    push(size_t e)
    {
        seq_.push_back(e);
        cycle_.push_back(pool_[e]);
    }

    void
    pop()
    {
        seq_.pop_back();
        cycle_.pop_back();
    }

    /** Visit the current prefix, then every chained extension of it
     * up to `remaining` more edges. */
    void
    extend(int remaining)
    {
        if (full())
            return;
        if (static_cast<int>(seq_.size()) >= opts_.minEdges)
            tryClose();
        if (remaining <= 0)
            return;
        for (size_t e : next_[seq_.back()]) {
            push(e);
            extend(remaining - 1);
            pop();
            if (full())
                return;
        }
    }

    void
    tryClose()
    {
        const Edge &last = cycle_.back();
        if (!last.isComm() || last.to != cycle_.front().from ||
            !fresh() || !wellFormed(cycle_, opts_, layout_))
            return;
        std::string display;
        for (size_t k = 0; k < seq_.size(); ++k) {
            if (k)
                display += ' ';
            display += names_[seq_[k]];
        }
        auto test = emit(cycle_, layout_, display);
        out_.push_back({std::move(display), std::move(test)});
    }

    /** Whether no rotation that also closes (ends on a communication
     * edge) is lexicographically smaller, i.e. whether the search
     * reaches this cycle first. O(n^2) index compares. */
    bool
    fresh() const
    {
        size_t n = seq_.size();
        for (size_t r = 1; r < n; ++r) {
            if (!cycle_[r - 1].isComm())
                continue; // rotation r ends on edge r-1
            for (size_t k = 0; k < n; ++k) {
                size_t j = r + k < n ? r + k : r + k - n;
                if (seq_[j] != seq_[k]) {
                    if (seq_[j] < seq_[k])
                        return false;
                    break;
                }
            }
        }
        return true;
    }

    const std::vector<Edge> &pool_;
    const GeneratorOptions &opts_;
    std::vector<GeneratedTest> &out_;
    std::vector<std::string> names_;        ///< per pool entry
    std::vector<std::vector<size_t>> next_; ///< chained successors
    std::vector<size_t> seq_;               ///< pool indices
    std::vector<Edge> cycle_;               ///< the same edges
    Layout layout_;
};

} // anonymous namespace

std::optional<litmus::Test>
synthesise(const std::vector<Edge> &cycle, const std::string &name,
           const GeneratorOptions &opts)
{
    Layout lay;
    if (!wellFormed(cycle, opts, lay))
        return std::nullopt;
    return emit(cycle, lay, name);
}

std::vector<GeneratedTest>
generate(const std::vector<Edge> &pool, const GeneratorOptions &opts)
{
    std::vector<GeneratedTest> out;
    if (opts.maxEdges < std::max(opts.minEdges, 1))
        return out;
    CycleSearch(pool, opts, out).run();

    if (opts.steer) {
        for (auto &g : out)
            g.predictedRacyPairs =
                static_cast<int>(analysis::analyze(g.test)
                                     .racyPairs());
        // Stable: ties keep enumeration order, so steered output is
        // still deterministic.
        std::stable_sort(out.begin(), out.end(),
                         [](const GeneratedTest &a,
                            const GeneratedTest &b) {
                             return a.predictedRacyPairs >
                                    b.predictedRacyPairs;
                         });
    }
    return out;
}

} // namespace gpulitmus::gen
