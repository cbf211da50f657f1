"""Benchmark of the superdenom CLI: time to a checked verdict, per workload.

Run from the repository root (standard library only, nothing to build):

    python3 perfbench/run.py --workload denom-stretch --seed 0 --seconds 40 --trace 0

The seed picks an offset delta in -2..2 (seed 0 gives 0), added to and
subtracted from every ``--order`` of the workload.  One sample is a pair of
fresh interpreters, one at each shifted order, run one after the other; its
value is the geometric mean of the two.  The pair cancels the first-order
effect of delta on cost, and the geometric mean most of the second-order
effect of a cost growing like a power of the order, so runs with different
seeds measure nearly the same work.

Every command's exit code and stdout sha256 are checked against
``digests.json``; a command fails if it exits non-zero, raises, or prints
other bytes.  Pairs run back to back until ``--seconds`` would be exceeded.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced pairs and reports its per-layer
metrics: medians over the traced pairs of the span summary (see
``spans.py``), and ``trace.overhead_s``, the traced minus the untraced median
verdict time.  The last stdout line is the JSON result; the lines before it
are a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
PROGRAM = os.path.join(ROOT, "src", "superdenom", "cli.py")

# Integers are orders and move with the seed's offset.
WORKLOADS = {
    # one large product series: the Pochhammer build of the product side
    "denom-stretch": [["verify-denom", "--order", 40]],
    # dividing the product side back out of a large intermediate
    "ratio-division": [["ratio-support", "--order", 24]],
    # many small series and the serialization edge
    "companions": [["verify-prefactor", "--order", 40],
                   ["verify-finite", "--order", 24],
                   ["verify-sl21", "--order", 18],
                   ["verify-talpha-tgamma", "--order", 16],
                   ["jacobi"],
                   ["analytic"],
                   ["dump", "--expr", "orbit-sum", "--order", 40]],
}
OFFSETS = range(-2, 3)
RUN_LIMIT_S = 170.0   # every run ends well within the 180 s it is given
TAIL_BEYOND = 10      # the tail percentile leaves at least this many samples above


def offset(seed: int) -> int:
    return OFFSETS[(seed + 2) % len(OFFSETS)]


def commands(workload: str, delta: int) -> list[list[str]]:
    return [[str(a + delta) if isinstance(a, int) else a for a in argv]
            for argv in WORKLOADS[workload]]


def key(argv) -> str:
    return " ".join(argv)


def geomean(a: float, b: float) -> float:
    return math.sqrt(a * b)


def tail(values):
    """(value, percentile): the highest order statistic with TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run_process(cmds, trace: bool, deadline: float, digests: dict):
    """One fresh interpreter; returns (record or None, commands failed)."""
    spec = json.dumps({"commands": cmds, "trace": trace})
    spawned = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, SAMPLE, spec], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        print(f"sample timed out: {cmds}", file=sys.stderr)
        return None, len(cmds)
    if proc.returncode != 0:
        print(f"sample failed ({proc.returncode}): {proc.stderr[-2000:]}",
              file=sys.stderr)
        return None, len(cmds)
    try:
        record = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        print(f"sample printed no result: {proc.stdout[-2000:]}", file=sys.stderr)
        return None, len(cmds)
    record["setup_s"] = record.pop("imported_at") - spawned
    failed = 0
    for argv, res in zip(cmds, record["commands"]):
        if res["rc"] != 0 or res["error"] or res["sha256"] != digests.get(key(argv)):
            failed += 1
            print(f"FAILED {key(argv)}: rc={res['rc']} error={res['error']} "
                  f"sha256={res['sha256']}", file=sys.stderr)
    return record, failed


def complete(pairs, trace: bool) -> bool:
    """At least one untraced pair, and with tracing one traced pair too."""
    return {t for t, _ in pairs} == ({False, True} if trace else {False})


def measure(workload: str, seed: int, seconds: float, trace: bool,
            digests: dict) -> dict:
    """Run pairs until ``seconds`` would be exceeded once ``complete``; return
    the processes, the pairs and the failure counts."""
    delta = offset(seed)
    sides = (commands(workload, delta), commands(workload, -delta))
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    procs, pairs = [], []
    attempted = failed = 0
    while True:
        traced = trace and len(pairs) % 2 == 1
        began = time.perf_counter()
        pair = []
        for cmds in sides:
            record, bad = run_process(cmds, traced, deadline, digests)
            attempted += len(cmds)
            failed += bad
            if record is not None:
                procs.append(record)
                pair.append(record)
        if len(pair) == 2:
            pairs.append((traced, pair))
        now = time.perf_counter()
        if now >= deadline or (complete(pairs, trace)
                                and now - start + (now - began) > seconds):
            break
    return {"delta": delta, "procs": procs, "pairs": pairs,
            "attempted": attempted, "failed": failed}


def pair_values(pairs, field, traced):
    return [geomean(a[field], b[field]) for t, (a, b) in pairs if t == traced]


def end_to_end(run: dict, log) -> dict:
    verdicts = pair_values(run["pairs"], "verdict_s", False)
    tail_s, pct = tail(verdicts)
    log(f"samples: {len(verdicts)} pairs, {len(run['procs'])} processes; "
        f"verdict_tail_s is p{pct:.1f}")
    return {
        "setup_s": statistics.median(p["setup_s"] for p in run["procs"]),
        "verdict_s": statistics.median(verdicts),
        "verdict_tail_s": tail_s,
        "peak_rss_mb": statistics.median(pair_values(run["pairs"], "rss_mb", False)),
    }


def per_layer(run: dict, log) -> dict:
    traced = [(geomean(a["verdict_s"], b["verdict_s"]), a["layers"], b["layers"])
              for t, (a, b) in run["pairs"] if t]
    plain = pair_values(run["pairs"], "verdict_s", False)
    log(f"samples: {len(traced)} traced and {len(plain)} untraced pairs")
    out = {name: statistics.median(geomean(a[name], b[name]) for _, a, b in traced)
           for name in traced[0][1]}
    out["trace.overhead_s"] = (statistics.median(v for v, _, _ in traced)
                               - statistics.median(plain))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(PROGRAM):
        print(f"no superdenom sources at {PROGRAM}", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    with open(DIGESTS) as fh:
        digests = json.load(fh)

    def log(line):
        print(f"[{args.workload} seed={args.seed}] {line}")

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), digests)
    d, failed, attempted = run["delta"], run["failed"], run["attempted"]
    log(f"delta={d}: orders shifted by {d:+d} and {-d:+d}; "
        f"fail_ratio={failed / attempted:.4g} ({failed} of {attempted} commands)")
    if run["procs"]:
        log("host probe median (context only): "
            f"{statistics.median(p['probe_s'] for p in run['procs']) * 1e3:.2f} ms")
    metrics = {}
    if complete(run["pairs"], bool(args.trace)):
        group, summarize = (("per_layer", per_layer) if args.trace
                            else ("end_to_end", end_to_end))
        values = summarize(run, log)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec[group]}
    for name, m in metrics.items():
        log(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
