"""One workload in one process: set-up, timed ops, oracle, metrics.

run.py starts this file as a child process with PYTHONHASHSEED pinned and
reads the single JSON line it prints.

--trace 0 runs the workload's fixed op list in rounds until --seconds have
passed (the first round always completes), each round on freshly built
objects, and reports the end-to-end metrics over the ops of that list.

--trace 1 runs the first TRACE_OPS ops of the list: once to warm up and
find the ops that finish, then each of those untraced and traced back to
back, then once more counting Fractions, so that call counts repeat exactly
for a seed.  It reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

SETUP_REPEATS = 5
SLICE_S = 0.1
# seconds probe() takes on an uncontended core of the reference machine
# (x86-64, Python 3.11); latencies are scaled to a core this fast
PROBE_REF_S = 0.0018
# per workload: how many ops from the start of the list the traced run uses
TRACE_OPS = {"pairing": 4, "census": 10, "reduce": 1000, "cli": 250}


class OpDeadline(BaseException):
    """Raised inside an op when its deadline passes.  A BaseException so
    that the library's own ``except Exception`` handlers let it through."""


class Deadline:
    """Per-op deadline on SIGALRM: no extra thread or process."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpDeadline()

    def arm(self, seconds):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_op(wl, inp, deadline, limit):
    """(latency s, status, output or error); status is ok/deadline/error.
    limit None runs the op without a deadline."""
    t0 = time.perf_counter()
    try:
        if limit is not None:
            deadline.arm(limit)
        try:
            out = wl.run(inp)
        finally:
            deadline.disarm()
    except OpDeadline:
        return time.perf_counter() - t0, "deadline", None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - t0, "error", "%s: %s" % (type(exc).__name__, exc)
    return time.perf_counter() - t0, "ok", out


class Record:
    """One execution of one op.  ``scaled`` is the latency corrected for
    contention (see Rounds); a failed op keeps its wall time."""

    __slots__ = ("op", "latency", "status", "items", "facts", "reason", "scaled")

    def __init__(self, op, latency, status, items=0, facts=None, reason=None):
        self.op, self.latency, self.status = op, latency, status
        self.items, self.facts, self.reason = items, facts, reason
        self.scaled = latency


def one_op(wl, inputs, i, deadline, limit):
    """Run op i and summarize its output outside its timing."""
    latency, status, out = run_op(wl, inputs[i], deadline, limit)
    if status == "ok":
        items, facts = wl.summarize(inputs[i], out)
        return Record(i, latency, status, items, facts)
    return Record(i, latency, status, reason=out)


def run_ops(wl, inputs, ids, deadline, limit):
    return [one_op(wl, inputs, i, deadline, limit) for i in ids]


def check_all(wl, inputs, records):
    for r in records:
        if r.status == "ok":
            reason = wl.check(inputs[r.op], r.facts)
            if reason is not None:
                r.status, r.reason = "rejected", reason
        r.facts = None


def probe():
    """Seconds taken by a fixed pure-Python loop of Fraction arithmetic,
    PROBE_REF_S on an uncontended core.  It runs no library code, so a
    change to the library cannot move it."""
    t = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 800):
        s += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t


def speed_factor(before, after):
    """Scale for work done between two probes: the reference probe time
    over their mean, never above 1."""
    return min(1.0, 2 * PROBE_REF_S / (before + after))


class Rounds:
    """The op list run in rounds, in slices of at least SLICE_S with a probe
    between slices.

    Other load on a shared machine can slow this core by up to 2x for
    minutes at a time.  Each ok execution's latency is multiplied by
    speed_factor of the probes around its slice, so it reads as if the core
    had run the probe in PROBE_REF_S throughout; an op's latency is then
    the least scaled latency over its rounds.  A failed execution keeps its
    wall time, which the deadline bounds."""

    def __init__(self, wl, deadline):
        self.wl, self.deadline = wl, deadline
        self.probes = [probe()]
        self.slices = []  # (records, index of the probe before the slice)
        self.rounds = []

    def run(self, inputs, stop_at=None):
        """One round over every op, or up to stop_at (a perf_counter time)."""
        records = []
        i = 0
        while i < len(inputs) and (stop_at is None or time.perf_counter() < stop_at):
            first = len(records)
            t = time.perf_counter()
            while i < len(inputs) and time.perf_counter() - t < SLICE_S:
                records.append(one_op(self.wl, inputs, i, self.deadline, self.wl.deadline_s))
                i += 1
            self.slices.append((records[first:], len(self.probes) - 1))
            self.probes.append(probe())
        self.rounds.append(records)
        return records

    def scale(self):
        for records, k in self.slices:
            factor = speed_factor(self.probes[k], self.probes[k + 1])
            for r in records:
                if r.status == "ok":
                    r.scaled = r.latency * factor


def merge(first, later):
    """Fold the later rounds into the first: an op fails if any execution
    failed or gave other facts than the first round, and its latencies are
    the least over its executions."""
    for records in later:
        for r in records:
            base = first[r.op]
            if r.status != "ok" and base.status == "ok":
                base.status, base.reason = r.status, r.reason
                base.latency, base.scaled = r.latency, r.scaled
            elif r.status == "ok" and base.status == "ok":
                if r.facts != base.facts:
                    base.status, base.reason = "rejected", "output differs between rounds"
                base.latency = min(base.latency, r.latency)
                base.scaled = min(base.scaled, r.scaled)
            elif r.status == base.status:
                base.latency = base.scaled = min(base.latency, r.latency)
            r.facts = None


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, i.e. the eleventh largest latency."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def summary(records):
    ok = [r for r in records if r.status == "ok"]
    slowest = max(ok, key=lambda r: r.latency, default=None)
    return {
        "correct": all(r.status in ("ok", "deadline") for r in records),
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "items": sum(r.items for r in ok),
        "failures": [
            {"op": r.op, "status": r.status, "latency_s": round(r.latency, 4), "reason": r.reason}
            for r in records
            if r.status != "ok"
        ],
        "slowest_passed": None
        if slowest is None
        else {"op": slowest.op, "latency_ms": slowest.latency * 1000},
    }


def timed_run(wl, raw_ops, inputs, workdir, seconds, deadline):
    gc.collect()
    start = time.perf_counter()
    rounds = Rounds(wl, deadline)
    first = rounds.run(inputs)
    while time.perf_counter() - start < seconds:
        d = os.path.join(workdir, "round%d" % len(rounds.rounds))
        os.mkdir(d)
        inputs = None  # drop the previous round's objects first
        inputs = wl.build(raw_ops, d)
        wl.write()
        gc.collect()
        rounds.run(inputs, stop_at=start + seconds)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds.scale()
    t = time.perf_counter()
    merge(first, rounds.rounds[1:])
    check_all(wl, inputs, first)
    oracle_s = time.perf_counter() - t

    out = summary(first)
    lat_ms = [r.scaled * 1000 for r in first]
    tail_ms, tail_pct, beyond = tail(lat_ms)
    out["metrics"] = {
        "items_per_s": (out["items"] / sum(r.scaled for r in first), "1/s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_frac": (1 - out["failed"] / out["attempted"], "ratio"),
    }
    raw_ms = [r.latency * 1000 for r in first]
    out["unscaled"] = {
        "items_per_s": out["items"] / sum(r.latency for r in first),
        "op_ms_p50": statistics.median(raw_ms),
        "op_ms_tail": tail(raw_ms)[0],
    }
    out["tail"] = {"percentile": tail_pct, "samples": len(lat_ms), "beyond": beyond}
    out["probe_ms"] = {
        "fastest": min(rounds.probes) * 1000,
        "median": statistics.median(rounds.probes) * 1000,
    }
    out["rounds"] = [len(r) for r in rounds.rounds]
    out["phases_s"] = {"timed": wall, "oracle": oracle_s}
    return out


def traced_run(wl, raw_ops, workdir, deadline, spans_path):
    import tracer

    n = TRACE_OPS[wl.name]

    def fresh(tag):
        d = os.path.join(workdir, tag)
        os.mkdir(d)
        inputs = wl.build(raw_ops, d)[:n]
        wl.write()
        return inputs

    # The first pass finds the ops that finish within their deadline and
    # warms the process.  The others repeat only those ops, with no
    # deadline, so their call counts do not depend on timing.  Each op runs
    # untraced and then traced, back to back, so that both see the same
    # load on the machine.
    first = run_ops(wl, fresh("first"), range(n), deadline, wl.deadline_s)
    passed = [r.op for r in first if r.status == "ok"]
    plain_inputs, traced_inputs = fresh("plain"), fresh("traced")
    tr = tracer.Tracer()
    plain, traced = [], []
    for i in passed:
        plain.append(one_op(wl, plain_inputs, i, deadline, None))
        tr.op = i
        tr.install()
        try:
            traced.append(one_op(wl, traced_inputs, i, deadline, None))
        finally:
            tr.uninstall()
    with tracer.count_fractions() as fc:
        run_ops(wl, fresh("fractions"), passed, deadline, None)
    check_all(wl, traced_inputs, traced)

    plain_s = sum(r.latency for r in plain)
    traced_s = sum(r.latency for r in traced)
    out = summary([r for r in first if r.status != "ok"] + traced)
    metrics = tracer.layer_metrics(tr.spans)
    metrics["rationals.Fraction.calls"] = (fc.count, "count")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    out["metrics"] = metrics
    out["trace"] = {
        "ops": n,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": len(tr.spans),
        "spans_file": spans_path,
    }
    tr.write(spans_path)
    return out


def import_library(root):
    """Import tropcover from root/src; (seconds, scaled like an op)."""
    sys.path.insert(0, os.path.join(root, "src"))
    before = probe()
    t = time.perf_counter()
    import tropcover  # noqa: F401
    import tropcover.cli  # noqa: F401
    import tropcover.serialize  # noqa: F401

    took = time.perf_counter() - t
    return took, took * speed_factor(before, probe())


def time_imports(root, n):
    """Median (seconds, scaled) of n imports, each in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--root", root, "--time-import"]
    runs = [json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout) for _ in range(n)]
    return tuple(statistics.median(r[k] for r in runs) for k in (0, 1))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--time-import", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.time_import:
        print(json.dumps(import_library(args.root)))
        return
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")

    import_library(args.root)
    import tropcover

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(tropcover.__file__).startswith(src + os.sep):
        raise SystemExit("imported tropcover from %s, not from %s" % (tropcover.__file__, src))

    import workloads

    wl = workloads.make(args.workload, args.root)
    raw_ops, descriptors = wl.generate(workloads.rng_for(args.workload, args.seed))

    scratch = os.path.join(args.root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=scratch)
    deadline = Deadline()
    try:
        if args.trace:
            out_dir = os.path.join(args.root, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, "spans_%s_%d.jsonl" % (args.workload, args.seed))
            out = traced_run(wl, raw_ops, workdir, deadline, spans_path)
        else:
            # setup_s: the median of SETUP_REPEATS imports, each in a fresh
            # interpreter, plus the median of SETUP_REPEATS builds, each
            # scaled like an op by the probes around it
            imports = time_imports(args.root, SETUP_REPEATS)
            builds, inputs = [], None
            for k in range(SETUP_REPEATS):
                d = os.path.join(workdir, "setup%d" % k)
                os.mkdir(d)
                inputs = None  # drop the previous build before timing the next
                before = probe()
                t = time.perf_counter()
                inputs = wl.build(raw_ops, d)
                took = time.perf_counter() - t
                builds.append((took, took * speed_factor(before, probe())))
            wl.write()
            setup = [imports[k] + statistics.median(b[k] for b in builds) for k in (0, 1)]
            out = timed_run(wl, raw_ops, inputs, workdir, args.seconds, deadline)
            out["metrics"]["setup_s"] = (setup[1], "s")
            out["unscaled"]["setup_s"] = setup[0]
            out["phases_s"]["setup"] = sum(b[0] for b in builds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    descriptors["ops"] = out["attempted"]
    descriptors["items"] = out["items"]
    out["inputs"] = descriptors
    out["workload"] = {"name": wl.name, "why": wl.why, "deadline_s": wl.deadline_s}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
