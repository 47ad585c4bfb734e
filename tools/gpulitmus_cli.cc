/**
 * @file
 * The gpulitmus command-line tool — the workflow of the paper's
 * litmus/herd/diy tools behind one binary.
 *
 * Everywhere a test is named, either a .litmus file path or a
 * registry-scenario spec `scenario:<name>[,k=v...]` (e.g.
 * `scenario:spinlock_dot_product,threads=3,fenced=1`) is accepted;
 * `gpulitmus list` enumerates the registry.
 *
 *   gpulitmus run <test> [--chip NAME] [--iterations N]
 *            [--column 1..16]            run a test on a simulated chip
 *   gpulitmus sweep <test> [--chips A,B] [--columns 1-16]
 *            [--jobs N] [--iterations N] [--json FILE]
 *                                        batched campaign over a
 *                                        (chip x column) grid
 *   gpulitmus check <test> [--model NAME]
 *                                        herd-style model evaluation
 *   gpulitmus validate <test...> [--models A,B] [--chips A,B]
 *            [--column 1..16] [--jobs N] [--iterations N]
 *            [--exact] [--budget N] [--json FILE]
 *                                        conformance campaign: run the
 *                                        tests on the simulator AND
 *                                        through the models, join the
 *                                        verdicts (Sec. 5.4); --exact
 *                                        adds an exhaustive
 *                                        exploration per cell so
 *                                        imprecise verdicts upgrade
 *   gpulitmus explore <test...> [--chips A,B|all]
 *            [--column 1..16] [--budget N] [--jobs N] [--models A,B]
 *            [--json FILE]               exhaustive schedule
 *                                        exploration (stateless model
 *                                        checking with DPOR): the
 *                                        exact reachable final-state
 *                                        set per (chip, test), joined
 *                                        against the models; for
 *                                        ~exists tests (application
 *                                        scenarios) a reachable
 *                                        forbidden state is a
 *                                        definitive failure (exit 2)
 *   gpulitmus list [--json] [--corpus DIR]
 *                                        enumerate registry scenarios
 *                                        (with parameters), corpus
 *                                        tests, chips, models and
 *                                        backends
 *   gpulitmus show <file.litmus>         parse and pretty-print
 *   gpulitmus lint <tests...> [--json]   static race & fence
 *                                        analysis (docs/ANALYSIS.md):
 *                                        proven-racy / possibly-racy
 *                                        / proven-ordered per pair
 *                                        with file:line diagnostics;
 *                                        exit 2 on proven-racy
 *   gpulitmus sass <file.litmus> [-O N] [--sdk V] [--maxwell]
 *                                        assemble + optcheck
 *   gpulitmus generate [--max-edges N] [--max-tests N] [--steer]
 *                                        diy-style test generation
 *                                        (stdout)
 *   gpulitmus gen --out DIR [--max-edges N] [--max-tests N]
 *            [--min-edges N] [--no-scopes] [--no-deps] [--steer]
 *                                        write the generated corpus
 *                                        to .litmus files (cycle
 *                                        name, scope tree and final
 *                                        condition included); edge
 *                                        bounds >= 1 with min <= max,
 *                                        --max-tests >= 0
 *   gpulitmus chips                      list the chip registry
 *   gpulitmus models                     list the built-in models
 *   gpulitmus serve --socket PATH|--port N [--store DIR] [--jobs N]
 *            [--max-store-bytes N]       persistent validation daemon
 *                                        (docs/SERVE.md): line-JSON
 *                                        requests over a Unix socket
 *                                        or loopback TCP, answers
 *                                        repeated jobs from the
 *                                        durable result store
 *   gpulitmus submit <sweep|validate|explore|scenario|list|stats|
 *            shutdown> [tests...] --socket PATH|--port N
 *            [batch flags] [--json]      submit one request to a
 *                                        running daemon; exit status
 *                                        mirrors the batch command
 *   gpulitmus status --socket PATH|--port N [--watch N] [--json]
 *                                        daemon + store counters and
 *                                        telemetry; --watch N polls
 *                                        every N seconds and redraws,
 *                                        --json emits the raw event
 *                                        lines for scripting
 *
 * `sweep`, `validate` and `explore` also accept --store DIR to reuse
 * the daemon's durable result store without a daemon: the second run
 * of the same campaign answers from disk.
 *
 * Every command accepts `--trace FILE`: spans for the run (requests,
 * jobs, explorations) are written as Chrome trace-event JSON, ready
 * for https://ui.perfetto.dev (docs/OBSERVABILITY.md). GPULITMUS_OBS=0
 * disables all telemetry; results are bit-identical either way.
 *
 * Exit status: 0 on success, 1 on usage/parse errors, 2 when a check
 * fails (optcheck violation, ~exists condition observed or
 * mc-reachable, or an unsound validate/explore cell).
 */

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/race.h"
#include "cat/models.h"
#include "common/strutil.h"
#include "common/version.h"
#include "eval/backend.h"
#include "gen/generator.h"
#include "harness/campaign.h"
#include "litmus/library.h"
#include "litmus/parser.h"
#include "model/baseline.h"
#include "model/checker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/store.h"
#include "opt/amd.h"
#include "opt/optcheck.h"
#include "opt/ptxas.h"

using namespace gpulitmus;

namespace {

struct Args
{
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;

    bool
    has(const std::string &name) const
    {
        return flags.count(name) > 0;
    }

    std::string
    get(const std::string &name, const std::string &fallback) const
    {
        auto it = flags.find(name);
        return it == flags.end() ? fallback : it->second;
    }

    /** An integer flag, or `fallback` when absent. main() has
     * already refused a present value that is not an integer in the
     * flag's range (checkIntFlags lists every flag read here). */
    int64_t
    getInt(const std::string &name, int64_t fallback) const
    {
        auto it = flags.find(name);
        if (it == flags.end())
            return fallback;
        auto v = parseInt(it->second);
        return v ? *v : fallback;
    }
};

Args
parseArgs(int argc, char **argv, int start)
{
    Args args;
    for (int i = start; i < argc; ++i) {
        std::string a = argv[i];
        if (startsWith(a, "--")) {
            std::string name = a.substr(2);
            std::string value = "true";
            auto eq = name.find('=');
            if (eq != std::string::npos) {
                value = name.substr(eq + 1);
                name = name.substr(0, eq);
            } else if (i + 1 < argc &&
                       (argv[i + 1][0] != '-' || parseInt(argv[i + 1]))) {
                // A negative number is a value (and then refused by
                // checkIntFlags), not a flag of its own.
                value = argv[++i];
            }
            args.flags[name] = value;
        } else if (startsWith(a, "-O")) {
            args.flags["opt-level"] = a.substr(2);
        } else {
            args.positional.push_back(a);
        }
    }
    return args;
}

/**
 * Every integer flag any subcommand reads, checked before the
 * subcommand runs: a value that is not an integer, or is out of its
 * range (a negative count, a Tab. 6 column outside 1..16), is a usage
 * error rather than a silent fallback to the default. A bare --watch
 * keeps its default interval.
 */
bool
checkIntFlags(const Args &args)
{
    constexpr int64_t kInt = std::numeric_limits<int>::max();
    constexpr int64_t kAny = std::numeric_limits<int64_t>::max();
    static const struct
    {
        const char *name;
        int64_t lo, hi;
    } flags[] = {
        {"iterations", 0, kAny}, {"seed", 0, kAny},
        {"column", 1, 16},       {"jobs", 0, kInt},
        {"budget", 0, kAny},     {"shards", 0, kInt},
        {"port", 0, 65535},      {"max-store-bytes", 0, kAny},
        {"opt-level", 0, kInt},  {"watch", 0, kInt},
        {"min-edges", 1, kInt},  {"max-edges", 1, kInt},
        {"max-tests", 0, kAny},
    };
    for (const auto &f : flags) {
        if (!args.has(f.name) ||
            (std::string(f.name) == "watch" && args.get(f.name, "") == "true"))
            continue;
        auto v = parseInt(args.get(f.name, ""));
        if (!v || *v < f.lo) {
            std::cerr << "error: --" << f.name << " needs an integer >= "
                      << f.lo << "\n";
            return false;
        }
        if (*v > f.hi) {
            std::cerr << "error: --" << f.name << " is at most " << f.hi
                      << "\n";
            return false;
        }
    }
    return true;
}

/** A test plus the micro-step floor its source recommends (registry
 * scenarios with spin loops need more headroom than the default). */
struct LoadedTest
{
    litmus::Test test;
    int minMicroSteps = 0;
};

/**
 * Resolve one positional test argument: a registry-scenario spec
 * ("scenario:<name>[,k=v...]") or a .litmus file path. Prints the
 * diagnostic and returns nullopt on failure.
 */
std::optional<LoadedTest>
loadTest(const std::string &arg)
{
    if (scenario::isSpec(arg)) {
        std::string error;
        auto built = scenario::buildSpec(arg, &error);
        if (!built) {
            std::cerr << "error: " << error << "\n";
            return std::nullopt;
        }
        return LoadedTest{std::move(built->test),
                          built->maxMicroSteps};
    }
    std::ifstream in(arg);
    if (!in) {
        std::cerr << "error: cannot open '" << arg << "'\n";
        return std::nullopt;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    litmus::ParseError err;
    auto test = litmus::parseTest(buffer.str(), &err);
    if (!test) {
        std::cerr << "error: " << arg;
        if (err.line > 0)
            std::cerr << ":" << err.line;
        std::cerr << ": " << err.message << "\n";
        return std::nullopt;
    }
    return LoadedTest{std::move(*test), 0};
}

/**
 * Resolve a model backend id, or fail hard: an unknown --model name
 * is a usage error (exit 1) with the valid names listed, never a
 * silent fallback. Returns null after printing the error.
 */
std::shared_ptr<const eval::AxiomBackend>
modelBackendByName(const std::string &name)
{
    std::string error;
    auto backend = eval::modelBackendByName(name, &error);
    if (!backend)
        std::cerr << "error: " << error << "\n";
    return backend;
}

/**
 * Open the --store directory when the flag is present: the durable
 * result store (serve/store.h) slots in behind the engine cache, so a
 * repeated campaign answers from disk. nullptr without the flag;
 * prints the error and sets `failed` when the flag is present but the
 * store cannot open (a requested store that silently vanishes would
 * turn "instant warm run" into a full recompute).
 */
std::unique_ptr<serve::ResultStore>
openStoreFlag(const Args &args, bool *failed)
{
    *failed = false;
    if (!args.has("store"))
        return nullptr;
    serve::StoreOptions opts;
    opts.maxBytes =
        static_cast<uint64_t>(args.getInt("max-store-bytes", 0));
    // Offline CLI use: skip the per-flush fsync; torn-tail recovery
    // covers a crash, and the OS flushes on exit anyway.
    opts.syncOnFlush = false;
    std::string error;
    auto store = serve::ResultStore::open(args.get("store", ""),
                                          opts, &error);
    if (!store) {
        std::cerr << "error: " << error << "\n";
        *failed = true;
        return nullptr;
    }
    return store;
}

/** One-line store epilogue: how much of the campaign came from disk
 * and what was added (the cold/warm signal BENCH_serve.json gates). */
void
printStoreStats(const serve::ResultStore &store)
{
    serve::StoreStats s = store.stats();
    std::cout << "store " << store.dir() << ": " << s.hits
              << " hits, " << s.misses << " misses, " << s.appends
              << " new records (" << store.size() << " total)\n";
}

int
cmdRun(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus run <test> [--chip"
                     " NAME] [--iterations N] [--column 1..16]\n";
        return 1;
    }
    auto loaded = loadTest(args.positional[0]);
    if (!loaded)
        return 1;

    harness::RunConfig cfg;
    cfg.iterations = static_cast<uint64_t>(args.getInt(
        "iterations",
        static_cast<int64_t>(harness::defaultIterations())));
    cfg.seed = static_cast<uint64_t>(args.getInt("seed", 0x6c69));
    cfg.maxMicroSteps =
        std::max(cfg.maxMicroSteps, loaded->minMicroSteps);
    int column = static_cast<int>(args.getInt("column", 16));
    cfg.inc = sim::Incantations::fromColumn(column);
    const sim::ChipProfile &chip =
        sim::chip(args.get("chip", "Titan"));

    litmus::Test to_run = loaded->test;
    if (chip.isAmd()) {
        auto compiled = opt::amdCompile(to_run, chip);
        for (const auto &q : compiled.quirks)
            std::cout << "compile note: " << q << "\n";
        if (compiled.miscompiled) {
            std::cout << "test miscompiled for " << chip.shortName
                      << ": result is n/a\n";
            return 2;
        }
        to_run = compiled.compiled;
    }

    std::cout << "chip: " << chip.vendor << " " << chip.chipName
              << "; incantations: " << cfg.inc.str() << "; "
              << cfg.iterations << " iterations\n\n";
    litmus::Histogram hist = harness::run(chip, to_run, cfg);
    std::cout << hist.str();
    if (to_run.quantifier == litmus::Quantifier::NotExists &&
        hist.observed() > 0)
        return 2;
    return 0;
}

/** Parse a --columns spec: "1-16", "9", or "1,5,9". */
std::vector<int>
parseColumns(const std::string &spec)
{
    std::vector<int> out;
    for (const auto &part : split(spec, ',')) {
        auto dash = part.find('-');
        if (dash != std::string::npos) {
            auto lo = parseInt(part.substr(0, dash));
            auto hi = parseInt(part.substr(dash + 1));
            // Bounds-check before expanding so a typo'd range cannot
            // balloon the list.
            if (!lo || !hi || *lo > *hi || *lo < 1 || *hi > 16)
                return {};
            for (int64_t c = *lo; c <= *hi; ++c)
                out.push_back(static_cast<int>(c));
        } else {
            auto c = parseInt(part);
            if (!c || *c < 1 || *c > 16)
                return {};
            out.push_back(static_cast<int>(*c));
        }
    }
    return out;
}

int
cmdSweep(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus sweep <test> [--chips"
                     " A,B] [--columns 1-16] [--jobs N]"
                     " [--iterations N] [--seed S] [--json FILE]"
                     " [--store DIR]\n";
        return 1;
    }
    auto loaded = loadTest(args.positional[0]);
    if (!loaded)
        return 1;
    const litmus::Test &test = loaded->test;

    std::vector<int> columns =
        parseColumns(args.get("columns", "1-16"));
    if (columns.empty()) {
        std::cerr << "error: invalid --columns '"
                  << args.get("columns", "1-16")
                  << "' (want e.g. 1-16, 9 or 1,5,9)\n";
        return 1;
    }

    harness::RunConfig cfg;
    cfg.iterations = static_cast<uint64_t>(args.getInt(
        "iterations",
        static_cast<int64_t>(harness::defaultIterations())));
    cfg.seed = static_cast<uint64_t>(args.getInt("seed", 0x6c69));
    cfg.maxMicroSteps =
        std::max(cfg.maxMicroSteps, loaded->minMicroSteps);

    // Per-chip test compilation (AMD chips run what their OpenCL
    // compiler produces); miscompiled chips drop out of the grid.
    harness::Campaign campaign;
    campaign.base(cfg);
    std::vector<std::string> skipped;
    for (const auto &name : split(args.get("chips", "Titan"), ',')) {
        const sim::ChipProfile &chip = sim::chip(trim(name));
        litmus::Test to_run = test;
        if (chip.isAmd()) {
            auto compiled = opt::amdCompile(to_run, chip);
            for (const auto &q : compiled.quirks)
                std::cerr << "compile note (" << chip.shortName
                          << "): " << q << "\n";
            if (compiled.miscompiled) {
                skipped.push_back(chip.shortName);
                continue;
            }
            to_run = compiled.compiled;
        }
        for (int col : columns) {
            harness::Job job =
                harness::Job::fromConfig(chip, to_run, cfg);
            job.inc = sim::Incantations::fromColumn(col);
            campaign.add(std::move(job));
        }
    }

    bool store_failed = false;
    auto store = openStoreFlag(args, &store_failed);
    if (store_failed)
        return 1;

    harness::EngineOptions eopts;
    eopts.threads = static_cast<int>(args.getInt("jobs", 0));
    eopts.store = store.get();
    harness::Engine engine(eopts);

    harness::TableSink table("chip", harness::TableSink::byChip(),
                             harness::TableSink::byColumn());
    harness::JsonSink json;
    std::vector<harness::ResultSink *> sinks{&table};
    if (args.has("json"))
        sinks.push_back(&json);

    std::cout << "sweep: " << test.name << ", " << cfg.iterations
              << " iterations/cell, " << engine.threads()
              << " worker threads\n\n";
    auto results = campaign.run(engine, sinks);
    table.render().print(std::cout);
    for (const auto &name : skipped)
        std::cout << name << ": miscompiled (n/a)\n";
    if (store) {
        store->flush();
        printStoreStats(*store);
    }

    if (args.has("json")) {
        std::string path = args.get("json", "sweep.json");
        if (path == "true") // bare --json
            path = "sweep.json";
        if (!json.writeFile(path)) {
            std::cerr << "error: cannot write '" << path << "'\n";
            return 1;
        }
        std::cout << "\nwrote " << path << " (" << json.size()
                  << " cells)\n";
    }

    // Exit 2 when a ~exists condition was observed anywhere in the
    // grid, mirroring `run`.
    if (test.quantifier == litmus::Quantifier::NotExists) {
        for (const auto &r : results) {
            if (r.hist.observed() > 0)
                return 2;
        }
    }
    return 0;
}

int
cmdCheck(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus check <test>"
                     " [--model ptx|rmo|sc|tso|operational]\n";
        return 1;
    }
    auto loaded = loadTest(args.positional[0]);
    if (!loaded)
        return 1;
    const litmus::Test &test = loaded->test;
    // Same scope policy as validate/explore and AxiomBackend: the
    // models have nothing to say about .ca/volatile accesses, and a
    // looped program would not enumerate in useful time.
    if (!model::inModelScope(test)) {
        std::cerr << "error: '" << args.positional[0]
                  << "' is outside the model scope (.ca/volatile/"
                     "loops, Sec. 5.5); use the sim or mc backends\n";
        return 1;
    }
    auto backend = modelBackendByName(args.get("model", "ptx"));
    if (!backend)
        return 1;
    const cat::Model &m = backend->model();
    model::Checker checker(m);
    model::Verdict v = checker.check(test);
    std::cout << "model " << m.name() << ": " << v.numCandidates
              << " candidates, " << v.numAllowed << " allowed\n";
    std::cout << "condition "
              << litmus::toString(test.quantifier) << " ("
              << test.condition.str() << "): " << v.verdict << "\n";
    std::cout << "allowed outcomes:\n";
    for (const auto &key : v.allowedKeys)
        std::cout << "  " << key << "\n";
    if (!v.forbiddenKeys.empty()) {
        std::cout << "forbidden outcomes:\n";
        for (const auto &key : v.forbiddenKeys)
            std::cout << "  " << key << "\n";
    }
    if (v.conditionSatisfiable && v.witness) {
        std::cout << "witness execution:\n" << v.witness->str();
    } else if (v.forbiddenWitness) {
        std::cout << "closest forbidden execution (killed by "
                  << v.forbiddingCheck << "):\n"
                  << v.forbiddenWitness->str();
    }
    return 0;
}

/**
 * The Sec. 5.4 workflow as one campaign: run every test on every chip
 * through the simulator AND through the requested models, join the
 * histograms against the verdicts, and classify each cell as sound /
 * unsound / imprecise. Exit 2 when any cell is unsound.
 */
int
cmdValidate(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus validate <file.litmus...>"
                     " [--models A,B] [--chips A,B] [--column 1..16]"
                     " [--jobs N] [--iterations N] [--seed S]"
                     " [--exact] [--budget N] [--json FILE]"
                     " [--store DIR]\n";
        return 1;
    }

    // Resolve the model backends up front: a typo'd --models entry is
    // a usage error before any simulation runs.
    std::vector<std::string> models;
    for (const auto &name : split(args.get("models", "ptx"), ',')) {
        std::string id = trim(name);
        if (id == harness::kSimBackend) {
            std::cerr << "error: --models lists model backends; the"
                         " simulator side is implicit\n";
            return 1;
        }
        if (!modelBackendByName(id))
            return 1;
        models.push_back(id);
    }

    int column = static_cast<int>(args.getInt("column", 16));
    harness::RunConfig cfg;
    cfg.iterations = static_cast<uint64_t>(args.getInt(
        "iterations",
        static_cast<int64_t>(harness::defaultIterations())));
    cfg.seed = static_cast<uint64_t>(args.getInt("seed", 0x6c69));
    cfg.inc = sim::Incantations::fromColumn(column);

    // Default chip set: the Nvidia chips of the paper's result rows
    // (the models target PTX; AMD chips can be named explicitly and
    // run what their OpenCL compiler produces).
    std::vector<sim::ChipProfile> chips;
    if (args.has("chips")) {
        for (const auto &name : split(args.get("chips", ""), ','))
            chips.push_back(sim::chip(trim(name)));
    } else {
        for (const auto &c : sim::resultChips()) {
            if (c.isNvidia())
                chips.push_back(c);
        }
    }

    // Load the corpus; tests outside the model's scope (.ca /
    // volatile accesses, Sec. 5.5) are excluded exactly as in the
    // paper.
    size_t out_of_scope = 0;
    std::vector<LoadedTest> tests;
    for (const auto &path : args.positional) {
        auto loaded = loadTest(path);
        if (!loaded)
            return 1;
        if (!model::inModelScope(loaded->test)) {
            std::cerr << "note: " << path
                      << " is outside the model scope (.ca/volatile/"
                         "loops, Sec. 5.5); skipped\n";
            ++out_of_scope;
            continue;
        }
        tests.push_back(std::move(*loaded));
    }
    if (tests.empty()) {
        std::cerr << "error: no in-scope tests to validate\n";
        return 1;
    }

    // Build the mixed-backend job list. Each chip runs the test as it
    // would actually execute it (AMD chips compile through the
    // simulated OpenCL compiler), and the model jobs carry the same
    // compiled text so the conformance join compares like with like.
    harness::Campaign campaign;
    std::vector<std::string> skipped;
    for (const auto &lt : tests) {
        const litmus::Test &test = lt.test;
        harness::RunConfig test_cfg = cfg;
        test_cfg.maxMicroSteps =
            std::max(cfg.maxMicroSteps, lt.minMicroSteps);
        for (const auto &chip : chips) {
            std::vector<std::string> quirks;
            auto to_run = eval::compileForChip(test, chip, &quirks);
            for (const auto &q : quirks)
                std::cerr << "compile note (" << chip.shortName
                          << "): " << q << "\n";
            if (!to_run) {
                skipped.push_back(test.name + " on " + chip.shortName);
                continue;
            }
            harness::Job sim_job =
                harness::Job::fromConfig(chip, *to_run, test_cfg);
            sim_job.label = test.name;
            campaign.add(sim_job);
            if (args.has("exact")) {
                // One exhaustive exploration per simulated cell, so
                // the conformance join can upgrade imprecise
                // verdicts to rare/unreachable.
                harness::Job mc_job = sim_job;
                mc_job.backend = harness::kMcBackend;
                mc_job.iterations = static_cast<uint64_t>(
                    args.getInt("budget", 1 << 20));
                campaign.add(std::move(mc_job));
            }
            for (const auto &model : models) {
                harness::Job model_job = sim_job;
                model_job.backend = model;
                model_job.label = test.name;
                campaign.add(std::move(model_job));
            }
        }
    }

    auto jobs = campaign.jobs();
    if (jobs.empty()) {
        // Every (test, chip) cell dropped out as miscompiled: there
        // is nothing to validate, which must not read as success.
        std::cerr << "error: nothing to validate — every cell was"
                     " miscompiled:\n";
        for (const auto &cell : skipped)
            std::cerr << "  " << cell << "\n";
        return 1;
    }

    bool store_failed = false;
    auto store = openStoreFlag(args, &store_failed);
    if (store_failed)
        return 1;

    eval::EngineOptions eopts;
    eopts.threads = static_cast<int>(args.getInt("jobs", 0));
    eopts.store = store.get();
    eval::Engine engine(eopts);

    std::cout << "validate: " << tests.size() << " tests";
    if (out_of_scope > 0)
        std::cout << " (+" << out_of_scope << " out of scope)";
    std::cout << ", " << chips.size() << " chips, models "
              << join(models, ",") << ", " << cfg.iterations
              << " iterations/cell, column " << column << ", "
              << engine.threads() << " worker threads\n\n";

    eval::ConformanceSink conformance;
    // The denominator is computed jobs: cells served from the cache
    // or deduped onto a batch-mate (model cells across chips) are
    // never reported, so this count is below the summary's cell
    // count by design.
    auto progress = [](size_t done, size_t total,
                       const eval::EvalResult &) {
        if (done % 50 == 0 || done == total)
            std::cerr << "  computed " << done << "/" << total
                      << " jobs\r";
    };
    engine.run(jobs, {&conformance}, progress);
    std::cerr << "\n";

    conformance.summary().print(std::cout);
    const auto &cells = conformance.cells();
    size_t unsound = 0;
    for (const auto &cell : cells) {
        if (cell.kind == eval::Conformance::Unsound) {
            ++unsound;
            std::cout << "UNSOUND: " << cell.test << " on "
                      << cell.chip << " (column " << cell.column
                      << ", model " << cell.model
                      << "): observed-but-forbidden";
            for (const auto &key : cell.violations)
                std::cout << " '" << key << "'";
            std::cout << "\n";
        }
        for (const auto &key : cell.inconsistent)
            std::cout << "INCONSISTENT: " << cell.test << " on "
                      << cell.chip << ": sampled '" << key
                      << "' escaped the exhaustive exploration\n";
    }
    for (const auto &cell : skipped)
        std::cout << cell << ": miscompiled (n/a)\n";

    std::cout << "\n" << cells.size() << " cells: "
              << conformance.soundCells() << " sound, " << unsound
              << " unsound, " << conformance.impreciseCells()
              << " imprecise";
    if (args.has("exact")) {
        std::cout << ", " << conformance.rareCells() << " rare, "
                  << conformance.unreachableCells()
                  << " unreachable, " << conformance.boundedCells()
                  << " bounded";
    }
    std::cout << "\n";

    if (store) {
        store->flush();
        printStoreStats(*store);
    }

    // An explorer/simulator divergence is as fatal as unsoundness:
    // the tool's own invariant (sampled outcomes stay inside the
    // exact set) failed, so nothing it printed can be trusted.
    bool failed = unsound > 0 || conformance.inconsistentCells() > 0;
    if (args.has("json")) {
        std::string path = args.get("json", "validate.json");
        if (path == "true") // bare --json
            path = "validate.json";
        if (!conformance.writeFile(path)) {
            std::cerr << "error: cannot write '" << path << "'\n";
            // An unsound model still outranks the IO error: exit 2
            // is the documented signal CI keys on.
            return failed ? 2 : 1;
        }
        std::cout << "wrote " << path << "\n";
    }
    return failed ? 2 : 0;
}

/**
 * Stateless model checking of the corpus: one exhaustive exploration
 * per (test, chip) cell, printing the exact reachable final-state
 * set, then the conformance join against the requested models. A
 * reachable-but-forbidden state is a definitive unsoundness (exit 2);
 * an allowed-but-unreachable one is definitive model slack.
 */
int
cmdExplore(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus explore <test...>"
                     " [--chips A,B|all] [--column 1..16]"
                     " [--budget N] [--shards N] [--jobs N]"
                     " [--models A,B|none]"
                     " [--json FILE] [--store DIR]\n";
        return 1;
    }

    std::vector<sim::ChipProfile> chips;
    std::string chips_arg = args.get("chips", "Titan");
    if (chips_arg == "all") {
        chips = sim::allChips();
    } else {
        for (const auto &name : split(chips_arg, ','))
            chips.push_back(sim::chip(trim(name)));
    }

    std::vector<std::string> models;
    std::string models_arg = args.get("models", "ptx");
    if (models_arg != "none") {
        for (const auto &name : split(models_arg, ',')) {
            std::string id = trim(name);
            if (!modelBackendByName(id))
                return 1;
            models.push_back(id);
        }
    }

    int column = static_cast<int>(args.getInt("column", 16));
    harness::RunConfig cfg;
    cfg.inc = sim::Incantations::fromColumn(column);
    cfg.iterations =
        static_cast<uint64_t>(args.getInt("budget", 1 << 20));
    // Parallel exploration width: --budget stays the *per-shard*
    // replay budget, so `--shards 4` owns a 4x pool — the knob that
    // upgrades "bounded" lock scenarios to proofs. --shards 1 (or
    // GPULITMUS_MC_SHARDS unset) is the sequential explorer.
    int shards = static_cast<int>(
        args.getInt("shards", harness::defaultShards()));
    if (shards < 1) {
        std::cerr << "error: --shards must be >= 1\n";
        return 1;
    }

    harness::Campaign campaign;
    std::vector<std::string> skipped;
    size_t out_of_scope = 0;
    for (const auto &path : args.positional) {
        auto loaded = loadTest(path);
        if (!loaded)
            return 1;
        const litmus::Test &test = loaded->test;
        harness::RunConfig test_cfg = cfg;
        test_cfg.maxMicroSteps =
            std::max(cfg.maxMicroSteps, loaded->minMicroSteps);
        // Out-of-scope tests (.ca/volatile/loops, Sec. 5.5) still
        // explore —
        // the reachable set is a property of the machine — but skip
        // the model join, exactly as `validate` skips them.
        bool in_scope = model::inModelScope(test);
        if (!in_scope)
            ++out_of_scope;
        for (const auto &chip : chips) {
            std::vector<std::string> quirks;
            auto to_run = eval::compileForChip(test, chip, &quirks);
            for (const auto &q : quirks)
                std::cerr << "compile note (" << chip.shortName
                          << "): " << q << "\n";
            if (!to_run) {
                skipped.push_back(test.name + " on " +
                                  chip.shortName);
                continue;
            }
            harness::Job mc_job =
                harness::Job::fromConfig(chip, *to_run, test_cfg);
            mc_job.backend = harness::kMcBackend;
            mc_job.shards = shards;
            mc_job.label = test.name;
            campaign.add(mc_job);
            if (in_scope) {
                for (const auto &model : models) {
                    harness::Job model_job = mc_job;
                    model_job.backend = model;
                    campaign.add(std::move(model_job));
                }
            }
        }
    }

    auto jobs = campaign.jobs();
    if (jobs.empty()) {
        std::cerr << "error: nothing to explore — every cell was"
                     " miscompiled:\n";
        for (const auto &cell : skipped)
            std::cerr << "  " << cell << "\n";
        return 1;
    }

    bool store_failed = false;
    auto store = openStoreFlag(args, &store_failed);
    if (store_failed)
        return 1;

    eval::EngineOptions eopts;
    eopts.threads = static_cast<int>(args.getInt("jobs", 0));
    eopts.store = store.get();
    eval::Engine engine(eopts);

    std::cout << "explore: " << args.positional.size() << " tests";
    if (out_of_scope > 0)
        std::cout << " (" << out_of_scope
                  << " outside the model scope)";
    std::cout << ", " << chips.size() << " chips, budget "
              << cfg.iterations << " replays/cell"
              << (shards > 1 ? " x " + std::to_string(shards) +
                                   " shards"
                             : std::string())
              << ", column " << column
              << ", models "
              << (models.empty() ? std::string("none")
                                 : join(models, ","))
              << ", " << engine.threads() << " worker threads\n\n";

    eval::ConformanceSink conformance;
    eval::JsonSink json;
    std::vector<eval::EvalSink *> sinks{&conformance};
    if (args.has("json"))
        sinks.push_back(&json);
    auto progress = [](size_t done, size_t total,
                       const eval::EvalResult &) {
        if (done % 10 == 0 || done == total)
            std::cerr << "  computed " << done << "/" << total
                      << " jobs\r";
    };
    auto results = engine.run(jobs, sinks, progress);
    std::cerr << "\n";

    // A reachable satisfying state of a ~exists test (an application
    // scenario's "wrong result") is a definitive failure: the
    // explorer exhibits a concrete schedule, no sampling luck
    // involved. Unreachability claims are graded by completeness:
    // proven (complete), proven for all terminating executions
    // (fairComplete — spin-loop scenarios), or merely unobserved
    // within the budget.
    size_t bounded = 0;
    size_t forbidden_reachable = 0;
    for (const auto &r : results) {
        if (!r.hasExact() || r.fromCache)
            continue;
        const mc::ExploreResult &x = *r.exact;
        if (!x.complete && !x.fairComplete)
            ++bounded;
        std::cout << r.label() << "@" << x.chipName << " (column "
                  << x.column << "): " << x.finals.size()
                  << " reachable states, "
                  << (x.complete       ? "complete"
                      : x.fairComplete ? "complete (fair schedules)"
                                       : "BOUNDED")
                  << ", " << x.stats.replays << " replays, "
                  << x.stats.distinctStates << " states, "
                  << x.stats.sleepSkips << " sleep skips\n";
        for (const auto &[key, weight] : x.finals) {
            std::cout << "    " << weight << "  " << key
                      << (x.satisfying.count(key) ? "  *" : "")
                      << "\n";
        }
        // Bounded verdicts get their burn-down so they are
        // diagnosable: which budget bit and how the search was shaped
        // when it did (the budget comes from the job so store-served
        // cells report it too — their advisory result fields are 0).
        if (!x.complete && !x.fairComplete) {
            uint64_t budget = r.job->iterations;
            std::cout << "  bounded after " << x.stats.replays << "/"
                      << budget << " replays ("
                      << (budget ? x.stats.replays * 100 / budget : 0)
                      << "%), " << x.stats.distinctStates
                      << " states cached, deepest frontier "
                      << x.stats.peakDepth << ", "
                      << x.stats.resumes << " resumes\n";
        }
        if (r.job->test.quantifier != litmus::Quantifier::NotExists)
            continue;
        if (!x.satisfying.empty()) {
            ++forbidden_reachable;
            std::cout << "  FORBIDDEN-REACHABLE (definitive):";
            for (const auto &key : x.satisfying)
                std::cout << " '" << key << "'";
            std::cout << "\n";
        } else if (x.complete) {
            std::cout << "  forbidden condition exact-unreachable:"
                         " proven over every schedule\n";
        } else if (x.fairComplete) {
            std::cout << "  forbidden condition exact-unreachable"
                         " for every terminating execution (spin"
                         " loops explored modulo the runaway"
                         " guard)\n";
        } else {
            std::cout << "  forbidden condition not reached within"
                         " the budget (no proof)\n";
        }
    }

    size_t unsound = 0;
    if (!models.empty()) {
        std::cout << "\n";
        conformance.summary().print(std::cout);
        for (const auto &cell : conformance.cells()) {
            if (cell.kind != eval::Conformance::Unsound)
                continue;
            ++unsound;
            std::cout << "UNSOUND: " << cell.test << " on "
                      << cell.chip << " (model " << cell.model
                      << "): reachable-but-forbidden";
            for (const auto &key : cell.violations)
                std::cout << " '" << key << "'";
            std::cout << "\n";
        }
    }
    for (const auto &cell : skipped)
        std::cout << cell << ": miscompiled (n/a)\n";
    if (bounded > 0)
        std::cout << bounded << " cells hit the budget (bounded"
                     " verdicts); raise --budget for exact sets\n";
    if (forbidden_reachable > 0)
        std::cout << forbidden_reachable
                  << " cells reach their forbidden condition\n";
    if (store) {
        store->flush();
        printStoreStats(*store);
    }

    bool failed = unsound > 0 || forbidden_reachable > 0;
    if (args.has("json")) {
        std::string path = args.get("json", "explore.json");
        if (path == "true") // bare --json
            path = "explore.json";
        if (!json.writeFile(path)) {
            std::cerr << "error: cannot write '" << path << "'\n";
            return failed ? 2 : 1;
        }
        std::cout << "wrote " << path << " (" << json.size()
                  << " cells)\n";
    }
    return failed ? 2 : 0;
}

int
cmdShow(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus show <test>\n";
        return 1;
    }
    auto loaded = loadTest(args.positional[0]);
    if (!loaded)
        return 1;
    std::cout << loaded->test.str();
    return 0;
}

/**
 * `gpulitmus lint <tests...> [--json]` — static race & fence
 * analysis (docs/ANALYSIS.md). Classifies every cross-thread
 * conflicting pair as proven-racy / possibly-racy / proven-ordered
 * with file:line diagnostics; exit 2 when any pair is proven racy.
 */
int
cmdLint(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus lint"
                     " <file.litmus|scenario:name[,k=v...]>..."
                     " [--json]\n";
        return 1;
    }
    bool json = args.has("json");
    bool any_proven = false;
    std::string jout = "[";
    for (size_t i = 0; i < args.positional.size(); ++i) {
        const std::string &arg = args.positional[i];
        auto loaded = loadTest(arg);
        if (!loaded)
            return 1;
        analysis::Report rep = analysis::analyze(loaded->test);
        any_proven = any_proven || rep.anyProven();
        if (json) {
            if (i)
                jout += ",";
            jout += "{\"source\":\"" + jsonEscape(arg) +
                    "\",\"report\":" + rep.json() + "}";
        } else {
            std::cout << arg << ": " << rep.str();
        }
    }
    if (json)
        std::cout << jout << "]\n";
    return any_proven ? 2 : 0;
}

int
cmdSass(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus sass <file.litmus> [-O N]"
                     " [--sdk V] [--maxwell]\n";
        return 1;
    }
    auto loaded = loadTest(args.positional[0]);
    if (!loaded)
        return 1;
    opt::PtxasOptions opts;
    opts.optLevel = static_cast<int>(args.getInt("opt-level", 3));
    opts.sdkVersion = args.get("sdk", "6.0");
    opts.targetMaxwell = args.has("maxwell");
    opt::SassProgram sass = opt::assemble(loaded->test, opts);
    std::cout << sass.disassemble();
    auto check = opt::optcheck(sass);
    std::cout << check.str();
    return check.ok ? 0 : 2;
}

/**
 * Read the generator's bounds: --max-edges, --max-tests and, where the
 * command takes it, --min-edges. checkIntFlags has already refused an
 * edge bound below 1 and a negative test cap; a minimum above the
 * maximum is a usage error (false, message printed).
 */
bool
readGeneratorBounds(const Args &args, bool takes_min_edges,
                    int64_t max_tests_default,
                    gen::GeneratorOptions &opts)
{
    int64_t min_edges = takes_min_edges
                            ? args.getInt("min-edges", opts.minEdges)
                            : opts.minEdges;
    int64_t max_edges = args.getInt("max-edges", 4);
    int64_t max_tests = args.getInt("max-tests", max_tests_default);
    if (takes_min_edges && min_edges > max_edges) {
        std::cerr << "error: --min-edges " << min_edges
                  << " exceeds --max-edges " << max_edges << "\n";
        return false;
    }
    opts.minEdges = static_cast<int>(min_edges);
    opts.maxEdges = static_cast<int>(max_edges);
    opts.maxTests = static_cast<size_t>(max_tests);
    return true;
}

int
cmdGenerate(const Args &args)
{
    gen::GeneratorOptions opts;
    if (!readGeneratorBounds(args, false, 20, opts))
        return 1;
    opts.steer = args.has("steer");
    auto tests = gen::generate(gen::defaultPool(), opts);
    for (const auto &g : tests) {
        std::cout << "(* cycle: " << g.cycleName << " *)\n";
        if (g.predictedRacyPairs >= 0)
            std::cout << "(* predicted racy pairs: "
                      << g.predictedRacyPairs << " *)\n";
        std::cout << g.test.str() << "\n";
    }
    std::cerr << tests.size() << " tests generated\n";
    return 0;
}

/** File-system-safe name for a generated cycle: spaces join with '+'
 * (diy style); anything else unusual becomes '_'. */
std::string
cycleFileName(const std::string &cycle)
{
    std::string out;
    for (char c : cycle) {
        if (c == ' ')
            out += '+';
        else if (std::isalnum(static_cast<unsigned char>(c)) ||
                 c == '.' || c == '-' || c == '+' || c == '_')
            out += c;
        else
            out += '_';
    }
    return out;
}

/**
 * The generated corpus as files: every cycle the generator closes
 * becomes DIR/<cycle>.litmus — cycle name (header + comment), scope
 * tree and final condition included — ready for `sweep`, `validate`
 * and `explore`.
 */
int
cmdGen(const Args &args)
{
    std::string out_dir = args.get("out", "generated-tests");
    gen::GeneratorOptions opts;
    if (!readGeneratorBounds(args, true, 50, opts))
        return 1;
    bool scopes = !args.has("no-scopes");
    bool deps = !args.has("no-deps");
    opts.steer = args.has("steer");
    auto tests = gen::generate(gen::defaultPool(scopes, deps), opts);

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
        std::cerr << "error: cannot create '" << out_dir
                  << "': " << ec.message() << "\n";
        return 1;
    }

    size_t written = 0;
    for (const auto &g : tests) {
        std::string path =
            out_dir + "/" + cycleFileName(g.cycleName) + ".litmus";
        std::ofstream f(path);
        if (!f) {
            std::cerr << "error: cannot write '" << path << "'\n";
            return 1;
        }
        f << "(* cycle: " << g.cycleName << " *)\n";
        if (g.predictedRacyPairs >= 0)
            f << "(* predicted racy pairs: " << g.predictedRacyPairs
              << " *)\n";
        f << g.test.str();
        ++written;
        std::cout << path << "\n";
    }
    std::cerr << written << " tests written to " << out_dir << "\n";
    return 0;
}

/**
 * Discoverability in one place: registry scenarios (with their
 * parameters and defaults), the built-in paper-library corpus, any
 * on-disk .litmus corpus, the chip registry, the model registry and
 * the evaluation backends. --json emits one machine-readable object
 * so tooling never has to scrape the human listing.
 */
int
cmdList(const Args &args)
{
    std::string corpus_dir = args.get("corpus", "litmus-tests");
    std::vector<std::string> corpus_files;
    std::error_code ec;
    if (std::filesystem::is_directory(corpus_dir, ec)) {
        for (const auto &entry :
             std::filesystem::directory_iterator(corpus_dir, ec)) {
            if (entry.path().extension() == ".litmus")
                corpus_files.push_back(entry.path().string());
        }
        std::sort(corpus_files.begin(), corpus_files.end());
    }

    if (args.has("json")) {
        // The ABI generation leads: it is what decides whether a
        // result store (or a serve daemon) built by another binary is
        // compatible with this one.
        std::string out = "{\"abi\":\"";
        out += kAbiVersionString;
        out += "\",\"abi_version\":" + std::to_string(kAbiVersion);
        out += ",\"scenarios\":[";
        bool first = true;
        for (const auto &s : scenario::all()) {
            if (!first)
                out += ",";
            first = false;
            out += "{\"name\":\"" + jsonEscape(s.name) + "\",";
            out += "\"spec\":\"scenario:" + jsonEscape(s.name) +
                   "\",";
            out += "\"summary\":\"" + jsonEscape(s.summary) + "\",";
            out += "\"paper\":\"" + jsonEscape(s.paperRef) + "\",";
            out += "\"max_micro_steps\":" +
                   std::to_string(s.maxMicroSteps) + ",";
            out += "\"params\":[";
            bool pfirst = true;
            for (const auto &p : s.params) {
                if (!pfirst)
                    out += ",";
                pfirst = false;
                out += "{\"name\":\"" + jsonEscape(p.name) +
                       "\",\"default\":" +
                       std::to_string(p.defaultValue) +
                       ",\"help\":\"" + jsonEscape(p.help) + "\"}";
            }
            out += "]}";
        }
        out += "],\"library\":[";
        first = true;
        for (const auto &t : litmus::paperlib::allTests()) {
            if (!first)
                out += ",";
            first = false;
            out += "{\"id\":\"" + jsonEscape(t.id) +
                   "\",\"section\":\"" + jsonEscape(t.section) +
                   "\"}";
        }
        out += "],\"corpus\":[";
        first = true;
        for (const auto &f : corpus_files) {
            if (!first)
                out += ",";
            first = false;
            out += "\"" + jsonEscape(f) + "\"";
        }
        out += "],\"chips\":[";
        first = true;
        for (const auto &c : sim::allChips()) {
            if (!first)
                out += ",";
            first = false;
            out += "{\"name\":\"" + jsonEscape(c.shortName) +
                   "\",\"vendor\":\"" + jsonEscape(c.vendor) +
                   "\",\"chip\":\"" + jsonEscape(c.chipName) + "\"}";
        }
        out += "],\"models\":[";
        first = true;
        for (const auto &m : eval::builtinModelNames()) {
            if (!first)
                out += ",";
            first = false;
            out += "\"" + jsonEscape(m) + "\"";
        }
        out += "],\"backends\":[";
        first = true;
        for (const auto &b : eval::builtinBackendNames()) {
            if (!first)
                out += ",";
            first = false;
            out += "\"" + jsonEscape(b) + "\"";
        }
        out += "]}";
        std::cout << out << "\n";
        return 0;
    }

    std::cout << "scenarios (run as scenario:<name>[,k=v...]):\n";
    for (const auto &s : scenario::all()) {
        std::cout << "  " << s.name;
        if (!s.params.empty()) {
            std::cout << "{";
            bool pfirst = true;
            for (const auto &p : s.params) {
                if (!pfirst)
                    std::cout << ",";
                pfirst = false;
                std::cout << p.name << "=" << p.defaultValue;
            }
            std::cout << "}";
        }
        std::cout << "\n      " << s.summary << " [" << s.paperRef
                  << "]\n";
        for (const auto &p : s.params)
            std::cout << "      " << p.name << ": " << p.help
                      << " (default " << p.defaultValue << ")\n";
    }

    std::cout << "\nbuilt-in paper library:\n";
    for (const auto &t : litmus::paperlib::allTests())
        std::cout << "  " << t.id << " [" << t.section << "]\n";

    if (!corpus_files.empty()) {
        std::cout << "\non-disk corpus (" << corpus_dir << "):\n";
        for (const auto &f : corpus_files)
            std::cout << "  " << f << "\n";
    }

    std::cout << "\nchips:";
    for (const auto &c : sim::allChips())
        std::cout << " " << c.shortName;
    std::cout << "\nmodels:";
    for (const auto &m : eval::builtinModelNames())
        std::cout << " " << m;
    std::cout << "\nbackends:";
    for (const auto &b : eval::builtinBackendNames())
        std::cout << " " << b;
    std::cout << "\n";
    return 0;
}

int
cmdChips()
{
    for (const auto &c : sim::allChips()) {
        std::cout << c.shortName << "\t" << c.vendor << " "
                  << c.chipName << " (" << c.arch << ", " << c.year
                  << "), SDK " << c.sdk << ", driver " << c.driver
                  << "\n";
    }
    return 0;
}

int
cmdModels()
{
    for (const auto &[name, m] : cat::models::all()) {
        std::cout << name << ": checks";
        for (const auto &c : m->checkNames())
            std::cout << " " << c;
        std::cout << "\n";
    }
    std::cout << "sorensen-operational: checks";
    for (const auto &c : model::operationalBaseline().checkNames())
        std::cout << " " << c;
    std::cout << "\n";
    return 0;
}

// ---- serve / submit / status ----------------------------------------

/**
 * The persistent validation daemon (docs/SERVE.md): listen on a Unix
 * socket and/or loopback TCP, plan requests through the same planner
 * the batch commands mirror, answer repeats from the durable result
 * store. SIGINT/SIGTERM drain in-flight requests, flush the store and
 * exit 0 — the clean shutdown CI asserts.
 */
int
cmdServe(const Args &args)
{
    serve::ServerOptions opts;
    opts.socketPath = args.get("socket", "");
    opts.tcpPort = static_cast<int>(args.getInt("port", 0));
    opts.storeDir = args.get("store", "");
    opts.threads = static_cast<int>(args.getInt("jobs", 0));
    opts.maxStoreBytes =
        static_cast<uint64_t>(args.getInt("max-store-bytes", 0));
    if (opts.socketPath.empty() && opts.tcpPort == 0) {
        std::cerr << "usage: gpulitmus serve --socket PATH |"
                     " --port N [--store DIR] [--jobs N]"
                     " [--max-store-bytes N]\n";
        return 1;
    }

    std::string error;
    auto server = serve::Server::create(opts, &error);
    if (!server) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }

    struct sigaction sa{};
    sa.sa_handler = serve::Server::notifySignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    // A client vanishing mid-stream must error the send, not kill
    // the daemon.
    ::signal(SIGPIPE, SIG_IGN);

    std::cout << "gpulitmus serve [" << kAbiVersionString << "]:";
    if (!opts.socketPath.empty())
        std::cout << " socket " << opts.socketPath;
    if (opts.tcpPort != 0)
        std::cout << " tcp 127.0.0.1:" << opts.tcpPort;
    if (server->store())
        std::cout << ", store " << server->store()->dir() << " ("
                  << server->store()->size() << " records)";
    else
        std::cout << ", no store (results are not durable)";
    std::cout << "\n" << std::flush;

    server->run();
    std::cout << "gpulitmus serve: drained, store flushed, exiting\n";
    return 0;
}

/** Shared by submit/status: connect to --socket or --host/--port. */
std::unique_ptr<serve::Client>
connectFlag(const Args &args)
{
    std::string error;
    std::unique_ptr<serve::Client> client;
    if (args.has("socket"))
        client =
            serve::Client::connectUnix(args.get("socket", ""), &error);
    else if (args.has("port"))
        client = serve::Client::connectTcp(
            args.get("host", "127.0.0.1"),
            static_cast<int>(args.getInt("port", 0)), &error);
    else
        error = "need --socket PATH or --port N";
    if (!client)
        std::cerr << "error: " << error << "\n";
    return client;
}

/**
 * Submit one request to a running daemon and stream its events. Test
 * positionals accept everything the batch commands do — library ids,
 * scenario specs, .litmus paths (sent inline as source, so the daemon
 * never needs this machine's filesystem). The exit status is the
 * daemon's verdict: the same 0/1/2 the equivalent batch command
 * returns.
 */
int
cmdSubmit(const Args &args)
{
    if (args.positional.empty()) {
        std::cerr << "usage: gpulitmus submit"
                     " <sweep|validate|explore|scenario|list|stats|"
                     "shutdown> [tests...] --socket PATH|--port N"
                     " [--chips A,B] [--models A,B] [--columns 1-16]"
                     " [--column 1..16] [--iterations N] [--seed S]"
                     " [--budget N] [--exact] [--json]\n";
        return 1;
    }

    serve::Request req;
    req.cmd = args.positional[0];
    req.id = args.get("id", "cli");
    for (size_t i = 1; i < args.positional.size(); ++i) {
        const std::string &arg = args.positional[i];
        serve::TestSpec spec;
        if (scenario::isSpec(arg)) {
            spec.spec = arg;
        } else if (std::filesystem::exists(arg)) {
            // Ship the file's text, not its path: the daemon may not
            // share this filesystem.
            std::ifstream in(arg);
            std::stringstream buffer;
            buffer << in.rdbuf();
            spec.source = buffer.str();
        } else {
            spec.name = arg; // a paper-library id
        }
        req.tests.push_back(std::move(spec));
    }
    if (args.has("chips")) {
        for (const auto &c : split(args.get("chips", ""), ','))
            req.chips.push_back(trim(c));
    }
    if (args.has("models")) {
        for (const auto &m : split(args.get("models", ""), ','))
            req.models.push_back(trim(m));
    }
    if (args.has("columns")) {
        req.columns = parseColumns(args.get("columns", ""));
        if (req.columns.empty()) {
            std::cerr << "error: invalid --columns '"
                      << args.get("columns", "")
                      << "' (want e.g. 1-16, 9 or 1,5,9)\n";
            return 1;
        }
    }
    req.column = static_cast<int>(args.getInt("column", 16));
    req.iterations =
        static_cast<uint64_t>(args.getInt("iterations", 0));
    req.seed = static_cast<uint64_t>(args.getInt("seed", 0x6c69));
    req.budget =
        static_cast<uint64_t>(args.getInt("budget", 1 << 20));
    req.exact = args.has("exact");

    auto client = connectFlag(args);
    if (!client)
        return 1;

    bool raw = args.has("json");
    auto onEvent = [raw](const json::Value &event,
                         const std::string &line) {
        std::string kind = event.getString("event");
        if (raw) {
            // Machine consumers (the CI smoke job) get the wire
            // lines verbatim — including result cells with their
            // "from_store" markers.
            std::cout << line << "\n";
            return;
        }
        if (kind == "hello") {
            std::cerr << "daemon abi " << event.getString("abi")
                      << ", " << event.getInt("threads", 0)
                      << " threads, "
                      << event.getInt("store_records", 0)
                      << " stored records\n";
        } else if (kind == "accepted") {
            std::cerr << "accepted: " << event.getInt("jobs", 0)
                      << " jobs\n";
        } else if (kind == "progress") {
            std::cerr << "  computed " << event.getInt("done", 0)
                      << "/" << event.getInt("total", 0) << " jobs\r";
        } else if (kind == "summary") {
            std::cerr << "\n";
            std::cout << "results: " << event.getInt("results", 0)
                      << " (" << event.getInt("store_results", 0)
                      << " from store), cells "
                      << event.getInt("cells", 0) << ", sound "
                      << event.getInt("sound", 0) << ", unsound "
                      << event.getInt("unsound", 0)
                      << ", forbidden-reachable "
                      << event.getInt("forbidden_reachable", 0)
                      << ", exit " << event.getInt("exit", 0)
                      << "\n";
        } else if (kind != "result" && kind != "done") {
            std::cout << line << "\n";
        }
    };

    std::string error;
    int exit_code = client->submit(req, onEvent, &error);
    if (exit_code < 0) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }
    if (exit_code == 1 && !error.empty())
        std::cerr << "error: " << error << "\n";
    return exit_code;
}

/** One poll of the daemon: its `stats` and `metrics` events. */
bool
pollDaemon(serve::Client &client, const std::string &id,
           json::Value *stats, std::string *stats_line,
           json::Value *metrics, std::string *metrics_line,
           std::string *error)
{
    serve::Request req;
    req.id = id;
    req.cmd = "stats";
    int rc = client.submit(
        req,
        [&](const json::Value &event, const std::string &line) {
            if (event.getString("event") == "stats") {
                *stats = event;
                *stats_line = line;
            }
        },
        error);
    if (rc != 0)
        return false;
    req.cmd = "metrics";
    rc = client.submit(
        req,
        [&](const json::Value &event, const std::string &line) {
            if (event.getString("event") == "metrics") {
                *metrics = event;
                *metrics_line = line;
            }
        },
        error);
    return rc == 0;
}

/** The --watch table: daemon/store counters and the engine/explorer
 * telemetry that shows a long request is alive. */
void
printStatusTable(const json::Value &stats,
                 const json::Value &metrics)
{
    auto metric = [&metrics](const char *name) -> int64_t {
        const json::Value *m = metrics.find("metrics");
        return m ? m->getInt(name, 0) : 0;
    };
    auto timerField = [&metrics](const char *name,
                                 const char *field) -> int64_t {
        const json::Value *m = metrics.find("metrics");
        const json::Value *t = m ? m->find(name) : nullptr;
        return t ? t->getInt(field, 0) : 0;
    };

    std::cout << "daemon:   " << stats.getInt("connections", 0)
              << " connections ("
              << metric("serve_clients_connected") << " live), "
              << stats.getInt("requests", 0) << " requests, "
              << stats.getInt("jobs", 0) << " jobs planned, "
              << stats.getInt("replayed_requests", 0)
              << " journal replays\n";
    std::cout << "store:    " << stats.getInt("store_records", 0)
              << " records, " << stats.getInt("store_hits", 0)
              << " hits, " << stats.getInt("store_misses", 0)
              << " misses, " << metric("store_appends_total")
              << " appends\n";
    std::cout << "engine:   " << metric("engine_jobs_total")
              << " jobs (" << metric("engine_jobs_cached_total")
              << " cache, " << metric("engine_jobs_from_store_total")
              << " store), L1 hits "
              << stats.getInt("engine_cache_hits", 0)
              << ", mean latency "
              << (timerField("engine_job_latency_us", "count")
                      ? timerField("engine_job_latency_us",
                                   "mean_us")
                      : 0)
              << " us\n";
    std::cout << "explorer: " << metric("mc_explorations_total")
              << " explorations (" << metric("mc_bounded_total")
              << " bounded), " << metric("mc_replays_total")
              << " replays, " << metric("mc_states_cached_total")
              << " states, " << metric("mc_sleep_skips_total")
              << " sleep skips, peak depth "
              << metric("mc_last_peak_depth") << "\n";
    std::cout.flush();
}

/** Daemon/store counters plus the telemetry registry (`stats` +
 * `metrics` requests). --watch N polls and redraws; --json prints
 * the raw event lines for scripting. */
int
cmdStatus(const Args &args)
{
    auto client = connectFlag(args);
    if (!client)
        return 1;
    bool raw = args.has("json");
    int watch = args.has("watch")
                    ? static_cast<int>(args.getInt("watch", 2))
                    : 0;
    if (watch < 0)
        watch = 0;

    for (;;) {
        json::Value stats, metrics;
        std::string stats_line, metrics_line, error;
        if (!pollDaemon(*client, args.get("id", "cli"), &stats,
                        &stats_line, &metrics, &metrics_line,
                        &error)) {
            std::cerr << "error: "
                      << (error.empty() ? "status request failed"
                                        : error)
                      << "\n";
            return 1;
        }
        if (raw) {
            std::cout << stats_line << "\n"
                      << metrics_line << "\n";
        } else {
            if (watch > 0 && isatty(1))
                std::cout << "\033[2J\033[H"; // clear + home
            printStatusTable(stats, metrics);
        }
        if (watch <= 0)
            break;
        std::this_thread::sleep_for(std::chrono::seconds(watch));
    }
    return 0;
}

int
dispatch(const std::string &cmd, const Args &args)
{
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "sweep")
        return cmdSweep(args);
    if (cmd == "check")
        return cmdCheck(args);
    if (cmd == "validate")
        return cmdValidate(args);
    if (cmd == "explore")
        return cmdExplore(args);
    if (cmd == "list")
        return cmdList(args);
    if (cmd == "show")
        return cmdShow(args);
    if (cmd == "lint")
        return cmdLint(args);
    if (cmd == "sass")
        return cmdSass(args);
    if (cmd == "generate")
        return cmdGenerate(args);
    if (cmd == "gen")
        return cmdGen(args);
    if (cmd == "chips")
        return cmdChips();
    if (cmd == "models")
        return cmdModels();
    if (cmd == "serve")
        return cmdServe(args);
    if (cmd == "submit")
        return cmdSubmit(args);
    if (cmd == "status")
        return cmdStatus(args);
    std::cerr << "unknown command '" << cmd << "'\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr
            << "usage: gpulitmus"
               " <run|sweep|check|validate|explore|list|show|lint|"
               "sass|generate|gen|chips|models|serve|submit|status>"
               " ...\n";
        return 1;
    }
    std::string cmd = argv[1];
    Args args = parseArgs(argc, argv, 2);
    if (!checkIntFlags(args))
        return 1;

    // --trace FILE: collect spans for the whole invocation and write
    // Chrome trace-event JSON on the way out (docs/OBSERVABILITY.md).
    std::string trace_path;
    if (args.has("trace")) {
        trace_path = args.get("trace", "trace.json");
        if (trace_path == "true") // bare --trace with no value
            trace_path = "trace.json";
        obs::Trace::start();
    }

    int exit_code = dispatch(cmd, args);

    if (!trace_path.empty()) {
        std::string error;
        if (obs::Trace::writeFile(trace_path, &error))
            std::cerr << "trace: wrote " << trace_path << " ("
                      << "open in https://ui.perfetto.dev)\n";
        else
            std::cerr << "trace: " << error << "\n";
    }
    return exit_code;
}
