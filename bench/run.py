"""tropcover benchmark: one workload (or all four) in a child process each.

    python3 bench/run.py --workload pairing --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each workload runs in its own
single-threaded child process (bench/harness.py) with PYTHONHASHSEED
pinned, one child at a time.  The human-readable report goes first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones.  --workload all runs the four in turn and
prefixes each metric with its workload name.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pairing", "census", "reduce", "cli")
CHILD_TIMEOUT_S = 170
REQUIRED = (
    os.path.join("src", "tropcover", "__init__.py"),
    os.path.join("tests", "data", "k4.json"),
    os.path.join("tests", "golden", "k4_pair.json"),
)


def run_child(workload, seed, seconds, trace):
    cmd = [
        sys.executable,
        os.path.join(HERE, "harness.py"),
        "--root", ROOT,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("error: %s did not finish in %d s" % (workload, CHILD_TIMEOUT_S))
    if proc.returncode != 0 or not stdout.strip():
        raise SystemExit("error: %s child exited with code %d" % (workload, proc.returncode))
    return json.loads(stdout.strip().splitlines()[-1])


def report(res):
    wl = res["workload"]
    print("== %s: %s" % (wl["name"], wl["why"]))
    print("   inputs: %s" % json.dumps(res["inputs"], sort_keys=True))
    for name, (value, unit) in sorted(res["metrics"].items()):
        print("   %-40s %14.6g %s" % (name, value, unit))
    if "tail" in res:
        t = res["tail"]
        print(
            "   op_ms_tail is p%.2f of %d ops (%d beyond it)"
            % (t["percentile"], t["samples"], t["beyond"])
        )
        print("   fail_frac %.6g (%d of %d)" % (res["failed"] / res["attempted"], res["failed"], res["attempted"]))
    if "trace" in res:
        t = res["trace"]
        print(
            "   traced %d ops: %.3f s untraced, %.3f s traced, %d spans in %s"
            % (t["ops"], t["untraced_s"], t["traced_s"], t["spans"], os.path.relpath(t["spans_file"], ROOT))
        )
    if "probe_ms" in res:
        print(
            "   probe %.3f ms fastest, %.3f ms median; unscaled: %s"
            % (res["probe_ms"]["fastest"], res["probe_ms"]["median"],
               json.dumps({k: round(v, 4) for k, v in res["unscaled"].items()}))
        )
    if "rounds" in res:
        print("   ops per round: %s" % res["rounds"])
    if "phases_s" in res:
        print("   phases: %s" % json.dumps({k: round(v, 3) for k, v in res["phases_s"].items()}))
    slow = res["slowest_passed"]
    if slow:
        print(
            "   slowest passing op: #%d, %.1f ms (deadline %g s)"
            % (slow["op"], slow["latency_ms"], wl["deadline_s"])
        )
    for f in res["failures"]:
        print("   failed op #%d: %s %s" % (f["op"], f["status"], f["reason"] or ""))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print("error: not a tropcover checkout, missing %s" % ", ".join(missing), file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_child(name, args.seed, args.seconds, args.trace)
        report(res)
        final["correct"] = final["correct"] and res["correct"]
        final["attempted"] += res["attempted"]
        final["failed"] += res["failed"]
        prefix = name + "." if args.workload == "all" else ""
        for metric, (value, unit) in res["metrics"].items():
            final["metrics"][prefix + metric] = {"value": value, "unit": unit}
    sys.stdout.flush()
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
