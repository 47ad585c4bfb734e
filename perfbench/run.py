#!/usr/bin/env python3
"""The gpulitmus benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the `gpulitmus` CLI and the
perfbench_layers probe from source (into .bench_build/), runs the
workload through the program's public surfaces (the CLI for the batch
workloads, the serve wire protocol for the daemon), checks every
output, prints each metric by name and unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 1
it instead runs the traced per-layer pass (perfbench_layers trace) on
the same inputs and reports the per-layer metrics of layers.json.

    python3 perfbench/run.py --write-golden

re-records golden/explore_exact.json from the current build.
See perfbench/README.md for the metric definitions.
"""

import argparse
import gc
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_run"
# Load from one process: at most 4 threads and connections in total.
THREADS = min(4, os.cpu_count() or 1)
CHILD_TIMEOUT = 100.0

WORKLOADS = ("explore_exact", "validate_gen", "serve_mixed")

SCENARIOS = ("cas_spinlock", "spinlock_dot_product", "work_stealing_deque",
             "ticket_lock", "producer_consumer_ring", "flag_barrier",
             "seqlock")
EXPLORE_CHIPS = "TesC,Titan"
VALIDATE_CHIPS = ("GTX5", "TesC", "GTX6", "Titan", "GTX7")
VALIDATE_TESTS = 1000
POOL_TESTS = 20000
ORACLE_TESTS = 50
# Paper-library tests inside the model scope, and Nvidia chips.
SERVE_TESTS = ("coRR", "dlb-lb", "dlb-lb+fences", "cas-sl", "cas-sl+fences",
               "sl-future", "sl-future+fixed", "mp", "sb", "lb", "mp+intra",
               "sb+intra", "lb+intra", "lb+membar.ctas", "mp+membar.gls",
               "SB-fig12")
SERVE_CHIPS = ("Titan", "TesC", "GTX6", "GTX7")
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
REQUESTS_PER_SECOND_OF_RUN = 500
ORACLE_REQUESTS = 40

# Metric names and units; layers.json maps each per-layer metric to
# the end-to-end metric and workload it should move.
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "layers.json").read_text())


def log(msg):
    print(msg, flush=True)


# ---- build -----------------------------------------------------------


def build():
    """Configure (once) and build the CLI and the probe; returns their
    paths. Exits 1 when the sources are missing or do not build."""
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "gpulitmus_cli",
                  "perfbench_layers", "-j", str(THREADS)])
    with open(build_log, "wb") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT,
                               stdin=subprocess.DEVNULL) != 0:
                shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                sys.stderr.write(build_log.read_text(errors="replace")[-4000:])
                sys.exit("perfbench: build failed (%s)" % " ".join(step[:2]))
    return BUILD / "bin" / "gpulitmus", BUILD / "bin" / "perfbench_layers"


def machine():
    compiler = "unknown"
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            path = line.split("=", 1)[1]
            try:
                version = subprocess.run([path, "--version"],
                                         capture_output=True, text=True)
                compiler = "%s (%s)" % (version.stdout.splitlines()[0], path)
            except (OSError, IndexError):
                compiler = path
    return "nproc %d, compiler %s, build RelWithDebInfo, %d threads used" % (
        os.cpu_count() or 1, compiler, THREADS)


# ---- explore_exact ---------------------------------------------------


def explore_tests(seed):
    """The 14 scenario variants and the 20 corpus files. Exact search is
    seedless: the seed only permutes the submission order."""
    tests = ["scenario:" + s for s in SCENARIOS]
    tests += ["scenario:%s,fenced=1" % s for s in SCENARIOS]
    tests += sorted(str(p.relative_to(ROOT))
                    for p in (HERE / "inputs").glob("*.litmus"))
    random.Random(seed).shuffle(tests)
    return tests


CELL_HEADER = re.compile(r"^(.+)@(\S+) \(column \d+\): \d+ reachable states")


def forbidden_reachable(stdout):
    """label@chip of every cell `explore` reports FORBIDDEN-REACHABLE."""
    found, current = set(), None
    for line in stdout.splitlines():
        m = CELL_HEADER.match(line)
        if m:
            current = "%s@%s" % (m.group(1), m.group(2))
        elif line.startswith("  FORBIDDEN-REACHABLE") and current:
            found.add(current)
    return found


def explore_pass(cli, seed, work, env):
    start = time.perf_counter()
    tests = explore_tests(seed)
    out_json = work / "explore.json"
    out_json.unlink(missing_ok=True)
    r = bl.run_process([str(cli), "explore", *tests, "--chips", EXPLORE_CHIPS,
                        "--models", "none", "--jobs", str(THREADS),
                        "--json", str(out_json)],
                       env, CHILD_TIMEOUT, work / "explore.err",
                       marker="explore:")
    r["start"] = start
    r["cells"] = json.loads(out_json.read_text()) if out_json.exists() else []
    return r


def check_explore(r, golden):
    """Problems of one `explore` pass against the golden cells."""
    problems = []
    got = {"%s@%s" % (c["label"], c["chip"]): bl.normalise_cell(c)
           for c in r["cells"]}
    reached = forbidden_reachable(r["out"])
    if len(r["cells"]) != len(golden["cells"]):
        problems.append("%d cells, expected %d"
                        % (len(r["cells"]), len(golden["cells"])))
    for want in golden["cells"]:
        key = "%s@%s" % (want["label"], want["chip"])
        have = got.get(key)
        bounded = not (want.get("complete") or want.get("fair_complete"))
        if have is None:
            problems.append("%s: missing" % key)
        elif have != want and not (bounded and (have.get("complete") or
                                                have.get("fair_complete"))):
            # A bounded golden cell may come back complete: a verdict
            # that got stronger, not a wrong one.
            problems.append("%s: cell differs" % key)
        golden_reached = key in golden["forbidden_reachable"]
        if golden_reached and key not in reached:
            problems.append("%s: forbidden state no longer reached" % key)
        if not bounded and not golden_reached and key in reached:
            problems.append("%s: forbidden state reached" % key)
    want_exit = 2 if reached else 0
    if r["code"] != want_exit:
        problems.append("exit %s, expected %s" % (r["code"], want_exit))
    return problems


def run_explore(cli, seed, seconds, work, env):
    golden = json.loads((HERE / "golden" / "explore_exact.json").read_text())
    ops = bl.Ops()
    setup, wall, cpu, latency, rss = [], [], [], [], []
    begin = time.perf_counter()
    while not latency or time.perf_counter() - begin < seconds:
        r = explore_pass(cli, seed, work, env)
        problems = check_explore(r, golden)
        if r["mark"] is None:
            problems.append("no `explore:` header on stdout")
        if not ops.record(not problems, "explore: " + "; ".join(problems)):
            break
        setup.append(r["mark"] - r["start"])
        wall.append(r["end"] - r["mark"])
        cpu.append(r["cpu_s"])
        latency.append(r["end"] - r["spawn"])
        rss.append(r["rss_mb"])
    metrics, notes = batch_metrics(setup, wall, cpu, latency, rss)
    notes.insert(0, "%d explore passes of %d cells; %d cells reach their "
                 "forbidden state (exit 2 expected)"
                 % (len(latency), len(golden["cells"]),
                    len(golden["forbidden_reachable"])))
    return ops, metrics, notes


def write_golden(cli, work, env):
    r = explore_pass(cli, 0, work, env)
    if r["code"] not in (0, 2) or not r["cells"]:
        sys.exit("explore failed: exit %s" % r["code"])
    cells = sorted((bl.normalise_cell(c) for c in r["cells"]),
                   key=lambda c: (c["label"], c["chip"]))
    golden = {"cells": cells,
              "forbidden_reachable": sorted(forbidden_reachable(r["out"]))}
    path = HERE / "golden" / "explore_exact.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    log("wrote %s (%d cells)" % (path.relative_to(ROOT), len(cells)))


def spread_note(name, values, unit):
    q1, q2, q3 = bl.quartiles(values)
    return "%s over %d samples: q1 %.6g, median %.6g, q3 %.6g %s" % (
        name, len(values), q1, q2, q3, unit)


def tail_note(latency):
    p, tail = bl.tail_percentile(latency)
    return ("req_p99_ms is the p%g of %d requests, %d samples beyond it"
            % (p, len(latency), sum(1 for x in latency if x > tail)))


def batch_metrics(setup, wall, cpu, latency, rss):
    """Metrics and notes of a batch workload, where one CLI invocation
    is one request."""
    if not latency:
        return {}, []
    _, tail = bl.tail_percentile(latency)
    metrics = {"setup_s": statistics.median(setup),
               "wall_s": statistics.median(wall),
               "cpu_s": statistics.median(cpu),
               "req_p50_ms": statistics.median(latency) * 1e3,
               "req_p99_ms": tail * 1e3,
               "req_per_s": len(latency) / sum(latency),
               "peak_rss_mb": max(rss)}
    notes = [spread_note("setup_s", setup, "s"),
             spread_note("wall_s", wall, "s"),
             spread_note("cpu_s", cpu, "s"), tail_note(latency)]
    return metrics, notes


# ---- validate_gen ----------------------------------------------------


def split_pool(text):
    """The `generate` stream as one .litmus text per test."""
    return [p for p in re.split(r"(?m)^(?=\(\* cycle: )", text) if p.strip()]


def test_name(text):
    m = re.search(r"(?m)^GPU_PTX (.*)$", text)
    return m.group(1).strip() if m else None


def validate_sample(cli, seed, work, env):
    """Generate the pool, pick this seed's tests and sim seed, write the
    tests as files. Returns (paths, texts, sim seed, generate run)."""
    g = bl.run_process([str(cli), "generate", "--max-edges", "6",
                        "--max-tests", str(POOL_TESTS)],
                       env, CHILD_TIMEOUT, work / "generate.err")
    pool = split_pool(g["out"])
    if g["code"] != 0 or len(pool) != POOL_TESTS:
        return None, None, None, g
    rng = random.Random(seed)
    picked = [pool[i] for i in rng.sample(range(POOL_TESTS), VALIDATE_TESTS)]
    sim_seed = rng.randrange(1, 1 << 31)
    tests_dir = work / "tests"
    tests_dir.mkdir(exist_ok=True)
    paths = []
    for i, text in enumerate(picked):
        path = tests_dir / ("t%04d.litmus" % i)
        path.write_text(text)
        paths.append(str(path))
    return paths, picked, sim_seed, g


def check_validate(r, cells, names):
    """Problems of one `validate` run: every (test, chip, model) cell
    present once and self-consistent, and the exit code matching."""
    problems = []
    seen = set()
    unsound = 0
    for c in cells:
        key = (c["test"], c["chip"], c["model"])
        if key in seen:
            problems.append("duplicate cell %s" % (key,))
        seen.add(key)
        kind = bl.conformance_kind(c["violations"], c["unobserved"])
        if c["kind"] != kind or c["runs"] != 100 or c["column"] != 16 or \
                c["rare"] or c["unreachable"] or c["inconsistent"]:
            problems.append("inconsistent cell %s" % (key,))
        unsound += c["kind"] == "unsound"
    want = {(n, chip, m) for n in names for chip in VALIDATE_CHIPS
            for m in ("ptx", "baseline")}
    if seen != want:
        problems.append("%d cells missing, %d unexpected"
                        % (len(want - seen), len(seen - want)))
    want_exit = 2 if unsound else 0
    if r["code"] != want_exit:
        problems.append("exit %s, expected %s" % (r["code"], want_exit))
    return problems


def oracle_requests(requests, layers, work, env):
    """Evaluate request bodies with the bare backends (perfbench_layers
    oracle); returns one list of result cells per request."""
    path = work / "oracle.jsonl"
    path.write_text("".join(json.dumps(dict(q, id="o%d" % i)) + "\n"
                            for i, q in enumerate(requests)))
    r = bl.run_process([str(layers), "oracle", "--requests", str(path)],
                       env, CHILD_TIMEOUT, work / "oracle.err")
    if r["code"] != 0:
        raise RuntimeError("oracle failed: exit %s: %s" % (
            r["code"], (work / "oracle.err").read_text()[-2000:]))
    return [json.loads(line)["cells"] for line in r["out"].splitlines()]


def check_validate_oracle(cells, texts, sim_seed, seed, layers, work, env):
    """Recompute a seeded subsample of the cells from bare sim and model
    backend results and compare them with the program's join."""
    rng = random.Random(seed ^ 0x5eed)
    sample = rng.sample(texts, ORACLE_TESTS)
    request = {"cmd": "validate", "tests": [{"source": t} for t in sample],
               "chips": list(VALIDATE_CHIPS), "models": ["ptx", "baseline"],
               "iterations": 100, "seed": sim_seed, "column": 16}
    counts, allowed = {}, {}
    for c in oracle_requests([request], layers, work, env)[0]:
        if c["backend"] == "sim":
            counts[(c["test"], c["chip"])] = c["counts"]
        else:
            allowed[(c["test"], c["backend"])] = c["allowed_outcomes"]
    have = {(c["test"], c["chip"], c["model"]): c for c in cells}
    problems = []
    for (test, chip), hist in counts.items():
        for model in ("ptx", "baseline"):
            want = bl.conformance_cell(test, chip, model, hist,
                                       allowed[(test, model)], 100, 16)
            if have.get((test, chip, model)) != want:
                problems.append("oracle disagrees on %s on %s (%s)"
                                % (test, chip, model))
    if len(counts) != ORACLE_TESTS * len(VALIDATE_CHIPS):
        problems.append("oracle returned %d sim cells" % len(counts))
    return problems


def run_validate(cli, layers, seed, seconds, work, env):
    ops = bl.Ops()
    setup, wall, cpu, latency, rss = [], [], [], [], []
    reference = None
    notes = []
    begin = time.perf_counter()
    while not latency or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        paths, texts, sim_seed, g = validate_sample(cli, seed, work, env)
        if not ops.record(paths is not None,
                          "generate: exit %s" % g["code"]):
            break
        out_json = work / "validate.json"
        out_json.unlink(missing_ok=True)
        r = bl.run_process(
            [str(cli), "validate", *paths, "--chips", ",".join(VALIDATE_CHIPS),
             "--models", "ptx,baseline", "--iterations", "100",
             "--seed", str(sim_seed), "--jobs", str(THREADS),
             "--json", str(out_json)],
            env, CHILD_TIMEOUT, work / "validate.err", marker="validate:")
        cells = json.loads(out_json.read_text()) if out_json.exists() else []
        problems = check_validate(r, cells, [test_name(t) for t in texts])
        if r["mark"] is None:
            problems.append("no `validate:` header on stdout")
        canon = bl.canonical(cells)
        if reference is None:
            reference = canon
            if not problems:
                problems += check_validate_oracle(cells, texts, sim_seed, seed,
                                                  layers, work, env)
            for c in cells:
                if c["model"] == "ptx" and c["kind"] == "unsound":
                    notes.append("program reports ptx UNSOUND: %s on %s: %s"
                                 % (c["test"], c["chip"], c["violations"]))
        elif canon != reference:
            problems.append("output differs from the first pass")
        if not ops.record(not problems, "validate: " + "; ".join(problems)):
            break
        setup.append(r["mark"] - start)
        wall.append(r["end"] - r["mark"])
        cpu.append(r["cpu_s"])
        latency.append(r["end"] - r["spawn"])
        rss.append(max(r["rss_mb"], g["rss_mb"]))
    metrics, summary = batch_metrics(setup, wall, cpu, latency, rss)
    notes[:0] = ["%d validate passes of %d tests x %d chips x 2 models "
                 "(sim seed from the workload seed)"
                 % (len(latency), VALIDATE_TESTS, len(VALIDATE_CHIPS))]
    notes[1:1] = summary
    return ops, metrics, notes


# ---- serve_mixed -----------------------------------------------------


def serve_script(seed, count):
    """The seeded request script: about two thirds of the requests repeat
    an earlier one; fresh ones are small validate/explore/sweep requests
    over 1-2 paper-library tests x 1-2 chips."""
    rng = random.Random(seed)
    distinct, script = [], []
    for _ in range(count):
        if distinct and rng.random() < 2.0 / 3.0:
            script.append(rng.choice(distinct))
            continue
        cmd = rng.choice(("validate", "explore", "sweep"))
        req = {"cmd": cmd,
               "tests": [{"name": t} for t in
                         rng.sample(SERVE_TESTS, rng.choice((1, 2)))],
               "chips": rng.sample(SERVE_CHIPS, rng.choice((1, 2)))}
        if cmd == "validate":
            req.update(iterations=1000, seed=rng.randrange(1, 1 << 31))
        elif cmd == "sweep":
            req.update(iterations=200, seed=rng.randrange(1, 1 << 31))
        distinct.append(req)
        script.append(req)
    return script


SUMMARY_FIELDS = ("exit", "results", "cells", "sound", "unsound", "imprecise",
                  "rare", "unreachable", "bounded", "forbidden_reachable",
                  "inconsistent")


def response_problems(lines):
    """(problems, result cells, summary) of one request's event lines."""
    events = [json.loads(line) for line in lines]
    kinds = [e.get("event") for e in events]
    if "error" in kinds:
        return ["refused: %s" % events[-1].get("message")], [], {}
    cells = [e["cell"] for e in events if e.get("event") == "result"]
    accepted = [e for e in events if e.get("event") == "accepted"]
    summary = [e for e in events if e.get("event") == "summary"]
    problems = []
    if not accepted or not summary or kinds[-1] != "done":
        problems.append("malformed event stream")
    elif accepted[0].get("jobs") != len(cells):
        problems.append("%s results for %s jobs"
                        % (len(cells), accepted[0].get("jobs")))
    summary = {k: summary[0].get(k) for k in SUMMARY_FIELDS} if summary else {}
    if summary.get("exit") not in (0, 2):
        problems.append("exit %s" % summary.get("exit"))
    return problems, cells, summary


def serve_lifetime(cli, requests, first_index, env, work, records):
    """Start the daemon on the store, drive `requests` in a closed loop
    from SERVE_CLIENTS connections, shut it down. Appends one record per
    request; returns (setup s, makespan s, exit code, peak RSS MB,
    CPU s)."""
    start = time.perf_counter()
    with open(work / "serve.log", "ab") as out:
        proc = subprocess.Popen(
            [str(cli), "serve", "--socket", "d.sock", "--store", "store",
             "--jobs", str(SERVE_WORKERS)],
            cwd=work, stdout=out, stderr=out, env=env,
            stdin=subprocess.DEVNULL)
    try:
        clients = [bl.wait_for_socket("d.sock", proc, CHILD_TIMEOUT)]
        ready = time.perf_counter()
        clients += [bl.WireClient("d.sock", CHILD_TIMEOUT)
                    for _ in range(SERVE_CLIENTS - 1)]
        lines = [(json.dumps(dict(q, id="r%d" % (first_index + k))) +
                  "\n").encode() for k, q in enumerate(requests)]
        gc.disable()  # no collector pauses inside timed requests
        begin = time.perf_counter()
        for k, sent, done, events in bl.closed_loop(clients, lines,
                                                    CHILD_TIMEOUT):
            records.append((first_index + k, sent, done, events))
        makespan = time.perf_counter() - begin
        clients[0].request(b'{"cmd":"shutdown","id":"stop"}\n')
        for c in clients:
            c.close()
    except BaseException:
        proc.kill()
        raise
    finally:
        gc.enable()
        code, rss, cpu = bl.reap(proc, CHILD_TIMEOUT)
    return ready - start, makespan, code, rss, cpu


def run_serve(cli, layers, seed, seconds, work, env):
    count = max(1000, REQUESTS_PER_SECOND_OF_RUN * seconds)
    script = serve_script(seed, count)
    half = count // 2
    ops = bl.Ops()
    records = []
    setup, rss = [], []
    makespan = cpu = 0.0
    os.chdir(work)  # the socket address is relative: see serve_lifetime
    lifetimes = ((0, script[:half]), (half, script[half:]), (count, []))
    for first, part in lifetimes:
        s, span, code, peak, used = serve_lifetime(cli, part, first, env,
                                                   work, records)
        ops.exit_ok("serve", code, (0,))
        setup.append(s)
        makespan += span
        cpu += used
        rss.append(peak)

    # Every repeat must match the first answer to the same request.
    first_answer = {}
    latency = []
    store_cells = 0
    for k, sent, done, lines in sorted(records, key=lambda r: r[0]):
        latency.append(done - sent)
        problems, cells, summary = response_problems(lines)
        key = json.dumps(script[k], sort_keys=True)
        answer = (bl.canonical(cells), summary)
        if key not in first_answer:
            first_answer[key] = (k, answer)
        elif not problems and first_answer[key][1] != answer:
            problems.append("differs from request r%d" % first_answer[key][0])
        store_cells += sum(1 for c in cells if c.get("from_store"))
        ops.record(not problems, "r%d: %s" % (k, "; ".join(problems)))

    # And a seeded sample of distinct requests must match the bare
    # backends' cells.
    keys = sorted(first_answer)
    sample = random.Random(seed ^ 0x5eed).sample(
        keys, min(ORACLE_REQUESTS, len(keys)))
    expected = oracle_requests([json.loads(k) for k in sample], layers, work,
                               env)
    for key, cells in zip(sample, expected):
        k, (canon, _) = first_answer[key]
        ops.record(bl.canonical(cells) == canon,
                   "r%d: differs from the bare backends" % k)

    _, tail = bl.tail_percentile(latency)
    metrics = {"setup_s": statistics.median(setup), "wall_s": makespan,
               "cpu_s": cpu,
               "req_p50_ms": statistics.median(latency) * 1e3,
               "req_p99_ms": tail * 1e3,
               "req_per_s": len(latency) / makespan,
               "peak_rss_mb": max(rss)}
    notes = ["%d requests (%d distinct) over two daemon lifetimes, %d client "
             "connections, %d daemon workers; %d result cells read back from "
             "the store; %d distinct requests checked against the bare "
             "backends" % (len(latency), len(first_answer), SERVE_CLIENTS,
                           SERVE_WORKERS, store_cells, len(sample)),
             spread_note("setup_s", setup, "s"), tail_note(latency)]
    if len(latency) != count:
        ops.record(False, "%d of %d requests answered" % (len(latency), count))
    return ops, metrics, notes


# ---- traced run ------------------------------------------------------


def run_trace(cli, layers, workload, seed, work, env):
    """Per-layer metrics from perfbench_layers on the workload's inputs."""
    specs = ["scenario:" + s for s in SCENARIOS]
    specs += ["scenario:%s,fenced=1" % s for s in SCENARIOS]
    files, extra = [], []
    if workload == "explore_exact":
        tests = explore_tests(seed)
        files = [str(ROOT / t) for t in tests if not t.startswith("scenario:")]
        requests = [{"cmd": "explore", "chips": EXPLORE_CHIPS.split(","),
                     "models": ["none"],
                     "tests": [{"spec": t} if t.startswith("scenario:") else
                               {"source": (ROOT / t).read_text()}
                               for t in tests]}]
    elif workload == "validate_gen":
        files, texts, sim_seed, g = validate_sample(cli, seed, work, env)
        if files is None:
            raise RuntimeError("generate failed: exit %s" % g["code"])
        requests = [{"cmd": "validate", "chips": list(VALIDATE_CHIPS),
                     "models": ["ptx", "baseline"], "iterations": 100,
                     "seed": sim_seed,
                     "tests": [{"source": t} for t in texts]}]
        extra = ["--gen-tests", str(POOL_TESTS)]
    else:
        requests = serve_script(seed, 400)
    (work / "files.txt").write_text("".join(f + "\n" for f in files))
    (work / "specs.txt").write_text("".join(s + "\n" for s in specs))
    (work / "requests.jsonl").write_text(
        "".join(json.dumps(dict(q, id="t%d" % i)) + "\n"
                for i, q in enumerate(requests)))
    spans = RUNS / ("spans-%s-%d.json" % (workload, seed))
    r = bl.run_process([str(layers), "trace",
                        "--requests", str(work / "requests.jsonl"),
                        "--files", str(work / "files.txt"),
                        "--specs", str(work / "specs.txt"),
                        "--spans", str(spans),
                        "--threads", str(THREADS), *extra],
                       env, 170.0, work / "trace.err", cwd=work)
    ops = bl.Ops()
    ops.exit_ok("perfbench_layers trace", r["code"], (0,))
    values = json.loads(r["out"].splitlines()[-1]) if r["code"] == 0 else {}
    if values:
        # Every result the engine pass stored must read back.
        ops.record(values["serve.store_hit_ratio"] == 1.0,
                   "store read back %s of the results"
                   % values["serve.store_hit_ratio"])
    return ops, values, ["spans written to %s" % spans.relative_to(ROOT)]


# ---- main ------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()
    if not args.workload and not args.write_golden:
        ap.error("--workload is required")

    cli, layers = build()
    env = bl.clean_env()
    RUNS.mkdir(exist_ok=True)
    work = RUNS / ("%s-%d-%d" % (args.workload or "golden", args.seed,
                                 os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.write_golden:
            return write_golden(cli, work, env)
        log("gpulitmus benchmark: workload %s, seed %d, %d s, tracing %s"
            % (args.workload, args.seed, args.seconds,
               "on" if args.trace else "off"))
        log("machine: " + machine())
        if args.trace:
            ops, values, notes = run_trace(cli, layers, args.workload,
                                           args.seed, work, env)
            units = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
            for name, unit in units.items():
                if name not in values:
                    ops.record(False, "%s not reported" % name)
                    continue
                log("  %-28s %14.6g %-6s -> %s on %s" % (
                    name, values[name], unit, LAYER_MAP[name]["moves"],
                    LAYER_MAP[name]["on"]))
        else:
            if args.workload == "explore_exact":
                ops, values, notes = run_explore(cli, args.seed, args.seconds,
                                                 work, env)
            elif args.workload == "validate_gen":
                ops, values, notes = run_validate(cli, layers, args.seed,
                                                  args.seconds, work, env)
            else:
                ops, values, notes = run_serve(cli, layers, args.seed,
                                               args.seconds, work, env)
            units = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
            for name, unit in units.items():
                value = values.get(name, float("nan"))
                log("  %-12s %14.6f %s" % (name, value, unit))
            log("  %-12s %14.6f ratio (%d failed of %d attempted)"
                % ("failed_ratio", ops.ratio, ops.failed, ops.attempted))
        for note in notes:
            log("note: " + note)
        for reason in ops.reasons[:20]:
            log("FAILED: " + reason)
        metrics = {name: {"value": values.get(name), "unit": unit}
                   for name, unit in units.items()}
        correct = ops.failed == 0 and all(m["value"] is not None
                                          for m in metrics.values())
        print(json.dumps({"correct": correct, "attempted": ops.attempted,
                          "failed": ops.failed, "metrics": metrics}))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
