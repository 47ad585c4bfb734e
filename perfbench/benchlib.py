"""Helpers of the gpulitmus benchmark that carry no workload logic:
statistics, failure accounting, the provenance-stripping normaliser,
child processes with peak-memory accounting, and a client for the
`gpulitmus serve` wire protocol. Self-tests: test_benchlib.py."""

import json
import math
import os
import pty
import select
import selectors
import socket
import statistics
import subprocess
import time
import tty

# ---- statistics -------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# The tail percentiles tried, highest first, and the samples that must
# lie beyond the one reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
TAIL_BEYOND = 10


def tail_percentile(values):
    """The highest percentile of TAIL_LADDER with at least TAIL_BEYOND
    samples above it, as (percentile, nearest-rank value). With too few
    samples for any of them, (100.0, max): the tail is the slowest
    sample."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100.0 - 1e-9)  # nearest rank, 1-based
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


# ---- failure accounting -----------------------------------------------


class Ops:
    """Attempted and failed operations. An operation fails when it
    crashes, exits 1 (or any code the caller does not expect), is
    refused, times out or fails the output check. Exit 2 is a verdict
    and is expected where the caller says so."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)
        return ok

    def exit_ok(self, name, code, expected=(0, 2)):
        """Record one process operation by its exit code."""
        ok = code in expected
        return self.record(ok, "%s: exit %s" % (name, code))

    @property
    def ratio(self):
        return self.failed / self.attempted if self.attempted else 1.0


# ---- output normalisation ---------------------------------------------

# Provenance and timing: how a result was obtained, not what it is.
PROVENANCE = ("millis", "cached", "from_store")
# Search statistics of an exploration; per-layer metrics, not outputs.
MC_STATS = ("paths", "replays", "states", "state_cuts", "sleep_skips",
            "peak_depth", "resumes")
# Enumeration statistics of a model check.
MODEL_STATS = ("candidates", "allowed")
# What a bounded exploration still asserts.
BOUNDED_VERDICT = ("label", "backend", "test", "chip", "column",
                   "complete", "fair_complete")


def normalise_cell(cell):
    """The semantic part of one result cell (evalCellJson /
    simCellJson shape): provenance and search statistics stripped,
    exploration weights dropped (the reachable set stays), and a
    bounded exploration reduced to its verdict fields."""
    out = {k: v for k, v in cell.items()
           if k not in PROVENANCE and k not in MC_STATS}
    if "model_verdict" in out:
        for k in MODEL_STATS:
            out.pop(k, None)
    if "reachable" in out:
        if not (out.get("complete") or out.get("fair_complete")):
            return {k: out[k] for k in BOUNDED_VERDICT if k in out}
        out["reachable"] = sorted(out["reachable"])
    return out


def canonical(cells):
    """Order-free canonical form of a list of cells."""
    return sorted(json.dumps(normalise_cell(c), sort_keys=True)
                  for c in cells)


def conformance_kind(violations, unobserved):
    """A validate cell's kind, without an exploration."""
    return ("unsound" if violations else
            "imprecise" if unobserved else "sound")


def conformance_cell(test, chip, model, counts, allowed, runs, column):
    """The validate conformance cell (eval::ConformanceSink without an
    exploration) from a sim histogram and a model's allowed set."""
    observed = {k for k, n in counts.items() if n > 0}
    violations = sorted(observed - set(allowed))
    unobserved = sorted(set(allowed) - observed)
    return {"test": test, "chip": chip, "column": column, "model": model,
            "kind": conformance_kind(violations, unobserved), "runs": runs,
            "exact": False,
            "exact_complete": False, "violations": violations,
            "unobserved": unobserved, "rare": {}, "unreachable": [],
            "inconsistent": []}


# ---- child processes --------------------------------------------------


def clean_env():
    """The environment the program runs in: every GPULITMUS_* knob
    cleared, so the program runs at its defaults."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("GPULITMUS_")}


def reap(proc, timeout):
    """Wait for proc, killing it once `timeout` seconds have passed;
    return (exit code, peak RSS in MB, user+system CPU seconds) of the
    process. A killed process reports a negative code, so it counts
    as failed."""
    deadline = time.perf_counter() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return (proc.returncode, usage.ru_maxrss / 1024.0,
                    usage.ru_utime + usage.ru_stime)
        if time.perf_counter() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.001)


def run_process(argv, env, timeout, stderr_path, marker=None, cwd=None):
    """Run argv to completion, collecting its stdout. With `marker`,
    stdout is a pty (the program line-buffers it) and `mark` is the
    time the first complete stdout line starting with `marker`
    arrived. Returns dict(code, out, spawn, mark, end, rss_mb, cpu_s);
    times are time.perf_counter() values."""
    if marker is not None:
        master, slave = pty.openpty()
        tty.setraw(slave)
    else:
        master, slave = os.pipe()
    with open(stderr_path, "wb") as err:
        spawn = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=slave, stderr=err, env=env,
                                stdin=subprocess.DEVNULL, cwd=cwd)
    os.close(slave)
    buf = bytearray()
    mark = None
    needle = None if marker is None else b"\n" + marker.encode()
    deadline = spawn + timeout
    try:
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([master], [], [], 0.5)
            if not ready:
                continue
            try:
                chunk = os.read(master, 1 << 16)
            except OSError:  # EIO: the child closed the pty
                chunk = b""
            if not chunk:
                break
            buf += chunk
            if mark is None and needle is not None:
                at = (b"\n" + buf).find(needle)
                if at >= 0 and b"\n" in buf[at:]:
                    mark = time.perf_counter()
    finally:
        os.close(master)
        code, rss, cpu = reap(proc,
                              max(0.0, deadline - time.perf_counter()))
    return {"code": code, "out": buf.decode("utf-8", "replace"),
            "spawn": spawn, "mark": mark, "end": time.perf_counter(),
            "rss_mb": rss, "cpu_s": cpu}


# ---- serve wire protocol ----------------------------------------------


TERMINAL = (b'{"event":"done"', b'{"event":"error"')


class WireClient:
    """One connection to a `gpulitmus serve` daemon speaking the
    line-delimited JSON protocol (docs/SERVE.md). Event lines are
    kept raw and parsed after timing: the daemon writes the event
    name first ({"event":"done",...}), which is all a timing loop
    needs to see."""

    def __init__(self, path, timeout):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.buf = b""
        self.hello = json.loads(self.readline())

    def readline(self):
        while b"\n" not in self.buf:
            self.receive()
        line, _, self.buf = self.buf.partition(b"\n")
        return line

    def receive(self):
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self.buf += chunk

    def request(self, line):
        """Send one request line; return its event lines up to and
        including the terminal done/error event."""
        self.sock.sendall(line)
        lines = []
        while not lines or not lines[-1].startswith(TERMINAL):
            lines.append(self.readline())
        return lines

    def close(self):
        self.sock.close()


def closed_loop(clients, lines, timeout):
    """Send request `lines` (bytes ending in a newline) in order over
    the clients, each client sending its next line only once the
    previous request's terminal event arrived. Returns one
    (index, sent, done, event lines) per request; times are
    time.perf_counter() values."""
    selector = selectors.DefaultSelector()
    pending = {}
    records = []
    cursor = 0

    def send(client):
        nonlocal cursor
        if cursor < len(lines):
            pending[client] = (cursor, time.perf_counter(), [])
            client.sock.sendall(lines[cursor])
            cursor += 1

    for client in clients:
        selector.register(client.sock, selectors.EVENT_READ, client)
        send(client)
    while pending:
        ready = selector.select(timeout)
        if not ready:
            raise TimeoutError("no daemon event in %ss" % timeout)
        for key, _ in ready:
            client = key.data
            client.receive()
            *complete, client.buf = client.buf.split(b"\n")
            for line in complete:
                k, sent, events = pending[client]
                events.append(line)
                if line.startswith(TERMINAL):
                    records.append((k, sent, time.perf_counter(), events))
                    del pending[client]
                    send(client)
    selector.close()
    return records


def wait_for_socket(path, proc, timeout):
    """Connect to a starting daemon; the first successful connect
    (hello received) marks the end of its set-up."""
    deadline = time.perf_counter() + timeout
    while True:
        try:
            return WireClient(path, timeout)
        except (FileNotFoundError, ConnectionRefusedError):
            # Peek without reaping: reap() collects the exit status.
            if os.waitid(os.P_PID, proc.pid,
                         os.WEXITED | os.WNOHANG | os.WNOWAIT):
                raise ConnectionError("daemon exited before accepting")
            if time.perf_counter() > deadline:
                raise TimeoutError("daemon did not accept in %ss" % timeout)
            time.sleep(0.0005)
