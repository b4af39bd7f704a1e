"""Shared plumbing for the benchmark: statistics, spans, child processes,
host-drift diagnostics and the determinism guard.

Nothing here imports ``repro``; the program is only ever loaded by the
worker processes (``worker.py``) and by ``python -m repro serve``.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: the fast MVQA corpus that ``repro serve --scenario mvqa`` and
#: ``--fast`` hard-wire; every workload answers its 100 questions
CORPUS = {"seed": 5, "pool_size": 1200, "image_count": 400}

#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: scratch space inside the checkout (listed in the root .gitignore)
WORK_ROOT = Path(".bench_build") / "perfbench"

#: the contract keys of a successful ``POST /ask`` body
ASK_KEYS = frozenset({"answer", "meta", "question_type", "sources"})


class BenchError(Exception):
    """A run that cannot produce a trustworthy result."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q):
    """Nearest-rank percentile ``q`` in [0, 100] of a non-empty sample."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def median(values):
    """The sample median (mean of the middle pair for even sizes)."""
    if not values:
        raise BenchError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def tail(values, q):
    """Percentile ``q``, only when at least ten samples lie beyond it."""
    if len(values) * (100 - q) < 1000:
        raise BenchError(
            f"p{q} needs >= {1000 // (100 - q)} samples, got {len(values)}")
    return percentile(values, q)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory span log: name, trace id, parent, start and end.

    Spans are recorded from the benchmark's own code, either around a
    call it makes (:meth:`span`) or by wrapping a public function of a
    layer for the length of the traced phase (:meth:`wrap`).  The
    workers answer on one thread (``workers=1``), so a stack gives each
    span its parent.
    """

    def __init__(self):
        self.spans = []  # [name, trace, parent, start_ns, end_ns]
        self._stack = []
        self._patches = []
        self.trace = "setup"

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.trace, parent, time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[4] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, owner, attr, name):
        """Replace ``owner.attr`` by a span-recording wrapper until
        :meth:`unwrap_all`; works for module functions and methods."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            with recorder.span(name):
                return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations_ns(self, name):
        return [s[4] - s[3] for s in self.spans if s[0] == name]

    def self_ns(self, name):
        """Per-span self time: duration minus the time its children
        cover (children of one parent never overlap on one thread)."""
        child_ns = {}
        for s in self.spans:
            if s[2] >= 0:
                child_ns[s[2]] = child_ns.get(s[2], 0) + s[4] - s[3]
        return [s[4] - s[3] - child_ns.get(i, 0)
                for i, s in enumerate(self.spans) if s[0] == name]

    def total_s(self, name):
        return sum(self.durations_ns(name)) / 1e9

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, trace, parent, start, end) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "trace": trace,
                    "parent": parent, "start_ns": start, "end_ns": end,
                }) + "\n")


# ----------------------------------------------------------------------
# host-drift diagnostics (recorded, never gated)
# ----------------------------------------------------------------------
def _ref_kernel():
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return acc


def ref_kernel_ms(samples=7):
    """Wall ms of each run of a fixed pure-Python kernel."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        _ref_kernel()
        times.append((time.perf_counter() - start) * 1e3)
    return times


def steal_ticks():
    """The host's cumulative ``steal`` column of ``/proc/stat``
    (0 where the file is absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def child_env():
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn(args):
    """Start ``python <args>`` with the checkout's ``src`` importable;
    stdout is a line pipe, stderr passes through."""
    return subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        env=child_env(), text=True, bufsize=1,
    )


def reap(proc, kill=False):
    """Wait for ``proc`` (killing it first if asked) and return its
    exit status and peak RSS in MB, taken from the kernel's rusage."""
    if proc.returncode is not None:
        raise BenchError("process already reaped")
    if kill:
        # os.kill, not Popen.kill: the latter polls, which would reap
        # the child before wait4 can read its rusage
        os.kill(proc.pid, signal.SIGKILL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode, usage.ru_maxrss / 1024.0


def read_line(proc, prefix):
    """Read ``proc``'s stdout until a line starting with ``prefix``;
    returns the line and the wall time it arrived."""
    for line in proc.stdout:
        if line.startswith(prefix):
            return line, time.perf_counter()
    raise BenchError(f"child exited before printing {prefix.strip()!r}")


def read_tagged(proc, tag):
    """The JSON payload of ``proc``'s next ``<tag> <json>`` line, and
    the wall time it arrived."""
    line, at = read_line(proc, tag + " ")
    return json.loads(line[len(tag) + 1:]), at


class Children:
    """Every child started through :meth:`start` is killed and reaped
    when the block exits, whatever happened inside it."""

    def __init__(self):
        self._live = []

    def start(self, args):
        proc = spawn(args)
        self._live.append(proc)
        return proc

    def reap(self, proc, kill=False):
        self._live.remove(proc)
        return reap(proc, kill=kill)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._live:
            reap(self._live.pop(), kill=True)


def compile_sources():
    """Byte-compile the program once, so no set-up sample pays it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                   check=True, stdout=subprocess.DEVNULL)


# ----------------------------------------------------------------------
# determinism guard
# ----------------------------------------------------------------------
def code_digest():
    digest = hashlib.blake2b(digest_size=16)
    for root in ("src", "perfbench"):
        for path in sorted(Path(root).rglob("*.py")):
            digest.update(str(path).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def determinism_check(workload, seed, exact):
    """Compare this run's exact values (``sim_s`` and the SimClock
    counts) with every earlier run of the same code, workload and
    seed in this checkout; record them on first sight.

    Returns the names that differ; an empty list means the run agrees.
    """
    path = WORK_ROOT / "determinism.json"
    try:
        book = json.loads(path.read_text())
    except (OSError, ValueError):
        book = {}
    key = f"{code_digest()}:{workload}:{seed}"
    seen = book.setdefault(key, {})
    differ = [name for name, value in exact.items()
              if name in seen and seen[name] != value]
    for name, value in exact.items():
        seen.setdefault(name, value)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(book, sort_keys=True))
    os.replace(tmp, path)
    return differ


def log_run(record):
    """Append one run's full record (metrics plus drift diagnostics)."""
    with open(WORK_ROOT / "runs.jsonl", "a", encoding="utf-8") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
