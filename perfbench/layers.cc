/**
 * perfbench_layers: the in-process half of the gpulitmus benchmark
 * (perfbench/run.py drives it; see perfbench/README.md).
 *
 *   perfbench_layers trace  --requests FILE --files FILE --specs FILE
 *                           --spans OUT [--gen-tests N] [--threads N]
 *   perfbench_layers oracle --requests FILE
 *
 * `trace` times calls into each src/ layer's public functions on one
 * workload's inputs and prints the per-layer metrics as one JSON
 * object. Every call is wrapped in a span (name, start, end, parent,
 * request id); spans stay in memory and are written to --spans at
 * exit, and each layer's self time is derived from them. The passes
 * run five times: once to warm up, then with spans off, on, on, off,
 * which gives the tracing overhead; the metrics and spans are those
 * of the last traced run. Scratch files (a result store, the daemon
 * socket) go to the working directory.
 *
 * `oracle` evaluates every job a request plans to by calling the
 * backends directly — no engine, cache, store or daemon — and prints
 * one line per request: {"i":N,"cells":[<evalCellJson>...]}. The
 * benchmark compares the program's outputs against these cells.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/race.h"
#include "analysis/sc.h"
#include "axiom/enumerate.h"
#include "cat/models.h"
#include "common/hash.h"
#include "common/rng.h"
#include "eval/backend.h"
#include "gen/generator.h"
#include "litmus/parser.h"
#include "mc/explorer.h"
#include "model/baseline.h"
#include "model/checker.h"
#include "scenario/registry.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/store.h"
#include "sim/choice.h"
#include "sim/machine.h"

using namespace gpulitmus;

namespace {

using Clock = std::chrono::steady_clock;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

// ---- spans ------------------------------------------------------------

struct SpanRec
{
    std::string name;
    int64_t id = 0;     ///< request / cell id shared by its spans
    int64_t parent = -1; ///< index of the enclosing span, -1 at the root
    int64_t start = 0;  ///< ns
    int64_t end = 0;    ///< ns
};

/** In-memory span log; thread-safe appends, written out once. */
class Tracer
{
  public:
    /** Start recording afresh (dropping earlier spans), or stop. */
    void
    record(bool on)
    {
        std::lock_guard<std::mutex> lock(mu_);
        on_ = on;
        if (on)
            spans_.clear();
    }

    /** The new span's index, or -1 when not recording. */
    int64_t
    begin(const std::string &name, int64_t id, int64_t parent)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!on_)
            return -1;
        spans_.push_back({name, id, parent, nowNs() - t0_, 0});
        return static_cast<int64_t>(spans_.size()) - 1;
    }

    void
    end(int64_t index)
    {
        if (index < 0)
            return;
        int64_t t = nowNs() - t0_;
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<size_t>(index)].end = t;
    }

    /** Sum of span durations (s) and count for one span name. */
    std::pair<double, size_t>
    total(const std::string &name) const
    {
        double s = 0.0;
        size_t n = 0;
        for (const auto &sp : spans_) {
            if (sp.name == name) {
                s += static_cast<double>(sp.end - sp.start) * 1e-9;
                ++n;
            }
        }
        return {s, n};
    }

    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const auto &sp : spans_) {
            if (sp.name == name)
                out.push_back(static_cast<double>(sp.end - sp.start));
        }
        return out;
    }

    /**
     * Self time per layer (the span name up to its first '.'): each
     * span's duration minus the part of it its child spans cover.
     */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::vector<std::vector<size_t>> children(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].parent >= 0)
                children[static_cast<size_t>(spans_[i].parent)]
                    .push_back(i);
        }
        std::map<std::string, double> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            std::vector<std::pair<int64_t, int64_t>> iv;
            for (size_t c : children[i])
                iv.push_back({spans_[c].start, spans_[c].end});
            std::sort(iv.begin(), iv.end());
            int64_t covered = 0, cur_s = 0, cur_e = -1;
            for (const auto &[s, e] : iv) {
                if (s > cur_e) {
                    if (cur_e > cur_s)
                        covered += cur_e - cur_s;
                    cur_s = s;
                    cur_e = e;
                } else {
                    cur_e = std::max(cur_e, e);
                }
            }
            if (cur_e > cur_s)
                covered += cur_e - cur_s;
            const auto &sp = spans_[i];
            std::string layer = sp.name.substr(0, sp.name.find('.'));
            out[layer] +=
                static_cast<double>(sp.end - sp.start - covered) * 1e-9;
        }
        return out;
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream f(path);
        if (!f)
            return false;
        f << "[\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const auto &sp = spans_[i];
            f << "{\"i\":" << i << ",\"name\":\"" << sp.name
              << "\",\"id\":" << sp.id << ",\"parent\":" << sp.parent
              << ",\"start_ns\":" << sp.start
              << ",\"end_ns\":" << sp.end << "}"
              << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        f << "]\n";
        return static_cast<bool>(f);
    }

  private:
    std::mutex mu_;
    std::vector<SpanRec> spans_;
    bool on_ = false;
    int64_t t0_ = nowNs();
};

Tracer gTrace;

/** RAII span; `parent` is the enclosing span's index. */
class Span
{
  public:
    Span(const std::string &name, int64_t id, int64_t parent)
        : index_(gTrace.begin(name, id, parent))
    {
    }
    ~Span() { gTrace.end(index_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    int64_t index() const { return index_; }

  private:
    int64_t index_;
};

/** Run fn(i) for i in [0, n) on `threads` workers. */
template <typename Fn>
void
parallelFor(size_t n, int threads, Fn fn)
{
    std::atomic<size_t> next{0};
    auto worker = [&]() {
        for (size_t i = next++; i < n; i = next++)
            fn(i);
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (auto &t : pool)
        t.join();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> out;
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line)) {
        if (!line.empty())
            out.push_back(line);
    }
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream buf;
    buf << f.rdbuf();
    return buf.str();
}

[[noreturn]] void
die(const std::string &msg)
{
    std::cerr << "perfbench_layers: " << msg << "\n";
    std::exit(1);
}

std::vector<serve::Request>
readRequests(const std::string &path)
{
    std::vector<serve::Request> out;
    for (const auto &line : readLines(path)) {
        std::string error;
        auto req = serve::parseRequest(line, &error);
        if (!req)
            die("bad request line: " + error);
        out.push_back(std::move(*req));
    }
    return out;
}

// ---- oracle -------------------------------------------------------------

int
runOracle(const std::string &requests_path)
{
    auto requests = readRequests(requests_path);
    for (size_t i = 0; i < requests.size(); ++i) {
        serve::Plan plan;
        std::string error;
        if (!serve::planJobs(requests[i], &plan, &error))
            die("request " + std::to_string(i) + ": " + error);
        std::string line = "{\"i\":" + std::to_string(i) + ",\"cells\":[";
        for (size_t j = 0; j < plan.jobs.size(); ++j) {
            const auto &job = plan.jobs[j];
            auto backend = eval::backendByName(job.backend, &error);
            if (!backend)
                die(error);
            eval::EvalResult r = backend->evaluate(job);
            line += (j ? "," : "") + eval::evalCellJson(r);
        }
        std::cout << line << "]}\n";
    }
    return 0;
}

// ---- trace --------------------------------------------------------------

/**
 * Sampler that, at the `target`-th scheduling pick of a run, times the
 * machine's state hashing and snapshotting (the explorer's per-node
 * work) and keeps the snapshot for resume timing after the run.
 */
class ProbeChoice final : public sim::ChoiceProvider
{
  public:
    ProbeChoice(Rng &rng, const sim::Machine &m) : rng_(rng), m_(m) {}

    uint64_t
    pick(sim::ChoiceKind, uint64_t n) override
    {
        return rng_.below(n);
    }

    bool
    chance(sim::ChoiceKind, double p, bool) override
    {
        return rng_.chance(p);
    }

    size_t
    pickActor(const sim::ActorOption *, size_t n) override
    {
        if (abort_)
            return kAbortRun;
        if (!captured && ++seen_ == kTarget) {
            captured = true;
            Hash128 h;
            int64_t t = nowNs();
            for (int k = 0; k < kReps; ++k)
                m_.hashState(h);
            hashNs = static_cast<double>(nowNs() - t) / kReps;
            digest = h.digest().hi ^ h.digest().lo;
            t = nowNs();
            for (int k = 0; k < kReps; ++k)
                m_.snapshot(snap);
            snapshotNs = static_cast<double>(nowNs() - t) / kReps;
        }
        return static_cast<size_t>(rng_.below(n));
    }

    /** Make every later pick abandon the run (resume timing). */
    void abortAll() { abort_ = true; }

    static constexpr int kTarget = 6;
    static constexpr int kReps = 32;
    bool captured = false;
    double hashNs = 0.0, snapshotNs = 0.0;
    uint64_t digest = 0;
    sim::Machine::Snapshot snap;

  private:
    Rng &rng_;
    const sim::Machine &m_;
    int seen_ = 0;
    bool abort_ = false;
};

struct Args
{
    std::string requests, files, specs, spans;
    int genTests = 500;
    int threads = 4;
};

/** A workload's inputs, read once and shared by every run of the
 * passes. */
struct Inputs
{
    std::vector<std::string> specs, files;
    std::vector<serve::Request> requests;
    int genTests = 0;
    int threads = 1;
};

using Metrics = std::map<std::string, double>;

// A workload that plans no exploration gets a bounded probe over its
// first cells.
constexpr size_t kMcProbeCells = 16;
constexpr uint64_t kMcProbeReplays = 1u << 14;

/**
 * One run of every layer pass on the workload's inputs; spans are
 * recorded when the tracer is on. Writes the metrics that do not come
 * from spans into `m`.
 */
void
runPasses(const Inputs &in, Metrics &m)
{
    const int threads = in.threads;

    // scenario: resolve the registry specs.
    {
        Span pass("bench.scenario", 0, -1);
        for (size_t i = 0; i < in.specs.size(); ++i) {
            Span s("scenario.build", static_cast<int64_t>(i),
                   pass.index());
            std::string error;
            if (!scenario::buildSpec(in.specs[i], &error))
                die(error);
        }
    }

    // gen: the generator pool.
    {
        gen::GeneratorOptions opts;
        opts.maxTests = static_cast<size_t>(in.genTests);
        Span s("gen.generate", 0, -1);
        m["gen.tests"] = static_cast<double>(
            gen::generate(gen::defaultPool(), opts).size());
    }

    // serve planner: the workload's requests -> jobs.
    std::vector<serve::Plan> plans(in.requests.size());
    {
        Span pass("bench.serve", 0, -1);
        for (size_t i = 0; i < in.requests.size(); ++i) {
            Span s("serve.plan", static_cast<int64_t>(i),
                   pass.index());
            std::string error;
            if (!serve::planJobs(in.requests[i], &plans[i], &error))
                die("request " + std::to_string(i) + ": " + error);
        }
    }

    // Distinct cells and tests of the planned jobs.
    std::vector<const harness::Job *> cells, mcCells;
    std::vector<const litmus::Test *> tests;
    {
        std::set<std::pair<std::string, std::string>> seenCell, seenMc;
        std::set<std::string> seenTest;
        for (const auto &plan : plans) {
            for (const auto &job : plan.jobs) {
                std::string text = job.test.str();
                if (seenCell.insert({text, job.chip.shortName}).second)
                    cells.push_back(&job);
                if (job.isMc() &&
                    seenMc.insert({text, job.chip.shortName}).second)
                    mcCells.push_back(&job);
                if (seenTest.insert(text).second)
                    tests.push_back(&job.test);
            }
        }
    }

    // litmus: parse the workload's .litmus inputs; a workload without
    // files (library tests named over the wire) parses its tests'
    // rendered text.
    {
        std::vector<std::string> texts = in.files;
        if (texts.empty()) {
            for (const auto *t : tests)
                texts.push_back(t->str());
        }
        Span pass("bench.litmus", 0, -1);
        size_t parsed = 0;
        for (size_t i = 0; i < texts.size(); ++i) {
            Span s("litmus.parse", static_cast<int64_t>(i),
                   pass.index());
            litmus::ParseError err;
            if (!litmus::parseTest(texts[i], &err))
                die("input " + std::to_string(i) + ": " + err.message);
            ++parsed;
        }
        m["litmus.tests_parsed"] = static_cast<double>(parsed);
    }

    // analysis: the mc pre-pass (race analysis, then SC enumeration
    // for fully ordered programs).
    std::set<std::string> prepassHits;
    {
        Span pass("bench.analysis", 0, -1);
        std::vector<int> hit(tests.size(), 0);
        parallelFor(tests.size(), threads, [&](size_t i) {
            analysis::Report rep;
            {
                Span s("analysis.analyze", static_cast<int64_t>(i),
                       pass.index());
                rep = analysis::analyze(*tests[i]);
            }
            if (rep.fullyOrdered) {
                Span s("analysis.sc", static_cast<int64_t>(i),
                       pass.index());
                hit[i] = analysis::enumerateSc(*tests[i]).has_value();
            }
        });
        for (size_t i = 0; i < tests.size(); ++i) {
            if (hit[i])
                prepassHits.insert(tests[i]->str());
        }
        m["analysis.prepass_hits"] =
            static_cast<double>(prepassHits.size());
        m["analysis.prepass_hit_ratio"] =
            tests.empty() ? 0.0
                          : static_cast<double>(prepassHits.size()) /
                                static_cast<double>(tests.size());
    }

    // sim: sample every cell (100 iterations, the validate setting),
    // then time the state operations at an early scheduling point.
    {
        const int iters = 100;
        std::vector<uint64_t> sink(cells.size());
        auto machineFor = [](const harness::Job &job) {
            sim::MachineOptions mo;
            mo.inc = job.inc;
            mo.maxMicroSteps = job.maxMicroSteps;
            return sim::Machine(job.chip, job.test, mo);
        };
        std::vector<double> busy(cells.size());
        {
            Span pass("bench.sim", 0, -1);
            parallelFor(cells.size(), threads, [&](size_t i) {
                sim::Machine machine = machineFor(*cells[i]);
                Rng rng(0x9e3779b97f4a7c15ULL ^ i);
                Span s("sim.run", static_cast<int64_t>(i), pass.index());
                int64_t t = nowNs();
                for (int k = 0; k < iters; ++k)
                    sink[i] += machine.run(rng).regs.size();
                busy[i] = static_cast<double>(nowNs() - t) * 1e-9;
            });
        }
        double busyS = 0;
        for (double b : busy)
            busyS += b;
        double iterations = static_cast<double>(cells.size()) * iters;
        m["sim.iterations"] = iterations;
        m["sim.busy_s"] = busyS;
        m["sim.ns_per_iteration"] =
            iterations > 0 ? busyS * 1e9 / iterations : 0.0;

        std::vector<double> hashNs(cells.size()), snapNs(cells.size()),
            resumeNs(cells.size());
        Span pass("bench.sim", 1, -1);
        parallelFor(cells.size(), threads, [&](size_t i) {
            sim::Machine machine = machineFor(*cells[i]);
            Rng rng(0x9e3779b97f4a7c15ULL ^ i);
            ProbeChoice probe(rng, machine);
            Span s("sim.probe", static_cast<int64_t>(i), pass.index());
            for (int k = 0; k < 4 && !probe.captured; ++k)
                machine.run(probe);
            if (!probe.captured)
                return;
            probe.abortAll();
            int64_t t0 = nowNs();
            for (int k = 0; k < ProbeChoice::kReps; ++k)
                machine.resume(probe.snap, probe);
            resumeNs[i] =
                static_cast<double>(nowNs() - t0) / ProbeChoice::kReps;
            hashNs[i] = probe.hashNs;
            snapNs[i] = probe.snapshotNs;
            sink[i] += probe.digest;
        });
        auto nonzero = [](std::vector<double> v) {
            v.erase(std::remove(v.begin(), v.end(), 0.0), v.end());
            return median(v);
        };
        m["sim.hash_state_ns"] = nonzero(hashNs);
        m["sim.snapshot_ns"] = nonzero(snapNs);
        m["sim.resume_ns"] = nonzero(resumeNs);
        uint64_t total = 0;
        for (auto v : sink)
            total += v;
        if (total == 0)
            die("sim pass produced no states");
    }

    // mc: explore what the pre-pass does not answer.
    {
        std::vector<const harness::Job *> todo;
        std::vector<mc::ExploreOptions> opts;
        const auto &src = mcCells.empty() ? cells : mcCells;
        for (const auto *job : src) {
            if (mcCells.empty() && todo.size() >= kMcProbeCells)
                break;
            if (prepassHits.count(job->test.str()))
                continue;
            todo.push_back(job);
            mc::ExploreOptions o = eval::McBackend::optionsFor(*job);
            if (mcCells.empty())
                o.maxReplays = kMcProbeReplays;
            opts.push_back(o);
        }
        std::vector<mc::ExploreResult> res(todo.size());
        std::vector<double> secs(todo.size());
        Span pass("bench.mc", 0, -1);
        parallelFor(todo.size(), threads, [&](size_t i) {
            mc::Explorer explorer(todo[i]->chip, todo[i]->test, opts[i]);
            int64_t t = nowNs();
            Span s("mc.explore", static_cast<int64_t>(i), pass.index());
            res[i] = explorer.explore();
            secs[i] = static_cast<double>(nowNs() - t) * 1e-9;
        });
        double replays = 0, states = 0, cuts = 0, points = 0,
               bounded = 0, busy = 0, slowest = 0;
        for (size_t i = 0; i < res.size(); ++i) {
            replays += static_cast<double>(res[i].stats.replays);
            states += static_cast<double>(res[i].stats.distinctStates);
            cuts += static_cast<double>(res[i].stats.stateCuts);
            points += static_cast<double>(res[i].stats.choicePoints);
            bounded += !res[i].complete && !res[i].fairComplete;
            busy += secs[i];
            slowest = std::max(slowest, secs[i]);
        }
        m["mc.cells"] = static_cast<double>(res.size());
        m["mc.replays"] = replays;
        m["mc.distinct_states"] = states;
        m["mc.state_cuts"] = cuts;
        m["mc.state_cut_ratio"] = points > 0 ? cuts / points : 0.0;
        m["mc.busy_s"] = busy;
        m["mc.replays_per_s"] = busy > 0 ? replays / busy : 0.0;
        m["mc.bounded_cells"] = bounded;
        m["mc.slowest_cell_s"] = slowest;
    }

    // axiom + model: enumerate and check every in-scope test, on one
    // thread so that each check's effect on the process-wide
    // enumeration memo is seen: it grows (or is cleared at capacity)
    // on a miss and stays as it is on a hit. The memo starts empty.
    // As in the engine, a test's first check enumerates and its
    // second hits; the model checked first alternates from test to
    // test so the ptx and baseline figures carry the same share of
    // enumeration.
    {
        std::vector<const litmus::Test *> inScope;
        for (const auto *t : tests) {
            if (model::inModelScope(*t))
                inScope.push_back(t);
        }
        model::Checker ptx(cat::models::ptx());
        model::Checker baseline(model::operationalBaseline());
        model::clearEnumerationCache();
        double execs = 0, checks = 0, misses = 0;
        auto check = [&](const model::Checker &c, const char *name,
                         size_t i, int64_t parent) {
            size_t before = model::enumerationCacheSize();
            {
                Span s(name, static_cast<int64_t>(i), parent);
                c.check(*inScope[i]);
            }
            ++checks;
            misses += model::enumerationCacheSize() != before;
        };
        Span pass("bench.axiom", 0, -1);
        for (size_t i = 0; i < inScope.size(); ++i) {
            {
                Span s("axiom.enumerate", static_cast<int64_t>(i),
                       pass.index());
                execs += static_cast<double>(
                    axiom::enumerateExecutions(*inScope[i]).size());
            }
            if (i % 2 == 0) {
                check(ptx, "model.ptx", i, pass.index());
                check(baseline, "model.baseline", i, pass.index());
            } else {
                check(baseline, "model.baseline", i, pass.index());
                check(ptx, "model.ptx", i, pass.index());
            }
        }
        m["axiom.executions"] = execs;
        m["model.enum_cache_hit_ratio"] =
            checks > 0 ? (checks - misses) / checks : 0.0;
    }

    // eval: the planned jobs through one engine, request by request
    // (repeats hit the engine cache, as in one daemon lifetime). The
    // enumeration memo starts empty, as in a fresh CLI process.
    std::vector<eval::EvalResult> results;
    {
        model::clearEnumerationCache();
        eval::EngineOptions eo;
        eo.threads = threads;
        eval::Engine engine(eo);
        double jobs = 0, busy = 0;
        Span pass("bench.eval", 0, -1);
        int64_t t = nowNs();
        for (size_t i = 0; i < plans.size(); ++i) {
            Span s("eval.run", static_cast<int64_t>(i), pass.index());
            auto out = engine.run(plans[i].jobs);
            jobs += static_cast<double>(out.size());
            for (auto &r : out) {
                if (!r.fromCache)
                    busy += r.millis * 1e-3;
                results.push_back(std::move(r));
            }
        }
        double wall = static_cast<double>(nowNs() - t) * 1e-9;
        double capacity = wall * threads;
        m["eval.jobs"] = jobs;
        m["eval.cache_hits"] = static_cast<double>(engine.cacheHits());
        m["eval.job_busy_s"] = busy;
        m["eval.worker_idle_s"] = std::max(0.0, capacity - busy);
        m["eval.worker_util"] = capacity > 0 ? busy / capacity : 0.0;
    }

    // serve: store append / reopen / read-back of the engine results
    // with the daemon's store options, then wire round trips to an
    // in-process daemon.
    {
        std::string storeDir = "trace-store";
        std::filesystem::remove_all(storeDir);
        const serve::StoreOptions so;
        std::string error;
        Span pass("bench.serve", 0, -1);
        {
            std::unique_ptr<serve::ResultStore> store;
            {
                Span s("serve.store_open_empty", 0, pass.index());
                store = serve::ResultStore::open(storeDir, so, &error);
            }
            if (!store)
                die(error);
            for (size_t i = 0; i < results.size(); ++i) {
                Span s("serve.store_put", static_cast<int64_t>(i),
                       pass.index());
                store->putEval(*results[i].job, results[i]);
            }
            if (!store->flush(&error))
                die(error);
        }
        std::unique_ptr<serve::ResultStore> store;
        {
            Span s("serve.store_open", 0, pass.index());
            store = serve::ResultStore::open(storeDir, so, &error);
        }
        if (!store)
            die(error);
        double hits = 0;
        for (size_t i = 0; i < results.size(); ++i) {
            Span s("serve.store_fetch", static_cast<int64_t>(i),
                   pass.index());
            hits += store->fetchEval(*results[i].job).has_value();
        }
        m["serve.store_hit_ratio"] =
            results.empty() ? 0.0
                            : hits / static_cast<double>(results.size());
        double bytes = 0;
        for (const auto &e :
             std::filesystem::directory_iterator(storeDir)) {
            if (e.is_regular_file())
                bytes += static_cast<double>(e.file_size());
        }
        m["serve.store_bytes"] = bytes;
        store.reset();

        serve::ServerOptions sopt;
        // Relative: a checkout path may exceed the 108-byte limit of a
        // Unix socket address.
        sopt.socketPath = "trace.sock";
        sopt.threads = 1;
        auto server = serve::Server::create(sopt, &error);
        if (!server)
            die(error);
        std::thread loop([&]() { server->run(); });
        auto client = serve::Client::connectUnix(sopt.socketPath, &error);
        if (!client) {
            server->shutdown();
            loop.join();
            die(error);
        }
        serve::Request req;
        req.cmd = "stats";
        for (int i = 0; i < 200; ++i) {
            req.id = "rt" + std::to_string(i);
            Span s("serve.roundtrip", i, pass.index());
            if (client->submit(req, [](const json::Value &,
                                       const std::string &) {},
                               &error) != 0) {
                break;
            }
        }
        client.reset();
        server->shutdown();
        loop.join();
        std::filesystem::remove(sopt.socketPath);
        if (!error.empty())
            die(error);
    }
}

int
runTrace(const Args &a)
{
    Inputs in;
    in.specs = readLines(a.specs);
    for (const auto &f : readLines(a.files))
        in.files.push_back(readFile(f));
    in.requests = readRequests(a.requests);
    in.genTests = a.genTests;
    in.threads = std::max(1, a.threads);

    // A warm-up run, then spans off, on, on, off: the order cancels a
    // linear drift of host speed. The metrics and spans are those of
    // the last traced run.
    Metrics m;
    double untraced = 0, traced = 0;
    for (int k = 0; k < 5; ++k) {
        bool on = k == 2 || k == 3;
        gTrace.record(on);
        Metrics run;
        int64_t t = nowNs();
        runPasses(in, run);
        double ns = static_cast<double>(nowNs() - t);
        if (on) {
            traced += ns;
            m = std::move(run);
        } else if (k > 0) {
            untraced += ns;
        }
    }
    gTrace.record(false);
    m["trace.overhead_pct"] = (traced - untraced) * 100.0 / untraced;

    // Per-call means and medians from the spans.
    auto meanUs = [](const std::string &name) {
        auto [s, n] = gTrace.total(name);
        return n ? s * 1e6 / static_cast<double>(n) : 0.0;
    };
    m["litmus.parse_us"] = meanUs("litmus.parse");
    m["scenario.build_us"] = meanUs("scenario.build");
    m["gen.generate_ms"] = gTrace.total("gen.generate").first * 1e3;
    m["analysis.analyze_us"] = meanUs("analysis.analyze");
    m["analysis.sc_us"] = meanUs("analysis.sc");
    m["axiom.enum_us"] = meanUs("axiom.enumerate");
    m["model.ptx_check_ms"] = meanUs("model.ptx") * 1e-3;
    m["model.baseline_check_ms"] = meanUs("model.baseline") * 1e-3;
    m["serve.plan_us"] = meanUs("serve.plan");
    m["serve.store_put_us"] = meanUs("serve.store_put");
    m["serve.store_fetch_us"] = meanUs("serve.store_fetch");
    m["serve.store_open_ms"] = meanUs("serve.store_open") * 1e-3;
    m["serve.roundtrip_us"] =
        median(gTrace.durations("serve.roundtrip")) * 1e-3;
    for (const auto &[layer, s] : gTrace.selfSeconds())
        m[layer + ".self_s"] = s;

    if (!gTrace.write(a.spans))
        die("cannot write " + a.spans);

    std::cout << "{";
    bool first = true;
    for (const auto &[name, value] : m) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        std::cout << (first ? "" : ",") << "\"" << name << "\":" << buf;
        first = false;
    }
    std::cout << "}\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        die("usage: perfbench_layers trace|oracle ...");
    std::string mode = argv[1];
    Args a;
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--requests")
            a.requests = v;
        else if (k == "--files")
            a.files = v;
        else if (k == "--specs")
            a.specs = v;
        else if (k == "--spans")
            a.spans = v;
        else if (k == "--gen-tests")
            a.genTests = std::stoi(v);
        else if (k == "--threads")
            a.threads = std::stoi(v);
        else
            die("unknown flag " + k);
    }
    if (mode == "oracle")
        return runOracle(a.requests);
    if (mode == "trace")
        return runTrace(a);
    die("unknown mode " + mode);
}
