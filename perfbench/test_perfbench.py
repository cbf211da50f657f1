"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They spawn sample interpreters exactly as a benchmark run does, so they take
about half a minute.
"""

import json
import subprocess
import sys
import time

import run

COUNTS = ("series.apply_pochhammer.calls", "series.binomial_passes",
          "series.peak_terms_out", "series.expand_term.calls",
          "series.serialize.bytes", "roots.orbit_sum.calls",
          "roots.expand_orbit_term.calls")


def digests():
    with open(run.DIGESTS) as fh:
        return json.load(fh)


def deadline():
    return time.perf_counter() + run.RUN_LIMIT_S


def traced_sample(workload):
    record, failed = run.run_process(run.commands(workload, 0), True,
                                     deadline(), digests())
    assert failed == 0
    return record["layers"]


def test_fresh_interpreters_repeat_and_a_cached_run_does_no_work():
    first = traced_sample("denom-stretch")
    second = traced_sample("denom-stretch")
    assert first["series.binomial_passes"] == second["series.binomial_passes"] > 0
    # the same commands twice in one interpreter: the second pass is all
    # lru_cache hits, which is why every sample is a fresh interpreter
    code = (
        "import sample, spans\n"
        "t = spans.Tracer(); spans.install(t)\n"
        "argv = [['verify-denom', '--order', '40']]\n"
        "sample.run_commands(argv); before = t.counts['series.binomial_passes']\n"
        "sample.run_commands(argv)\n"
        "print(t.counts['series.binomial_passes'] - before)\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=run.HERE,
                         capture_output=True, text=True, check=True).stdout
    assert int(out) == 0


def test_trace_reaches_every_import_site():
    layers = traced_sample("denom-stretch")
    # 16 product-side and 4 prefactor factors, all called through the name
    # identities imported; patching superdenom.series alone would count none
    assert layers["series.apply_pochhammer.calls"] == 20
    assert layers["identities.build_lhs.calls"] == 1
    assert layers["identities.build_rhs.calls"] == 1
    assert layers["cli.main.calls"] == 1
    assert layers["trace.top_share"] > 0.95
    dumped = traced_sample("companions")
    assert dumped["series.serialize.calls"] == 1  # cli's own reference
    assert dumped["identities.build_orbit_sum.calls"] >= 1  # via cli._DUMPERS


def test_wrong_digest_is_a_failure_not_a_crash():
    cmds = run.commands("companions", 0)
    wrong = {**digests(), run.key(cmds[0]): "0" * 64}
    record, failed = run.run_process(cmds, False, deadline(), wrong)
    assert record is not None and failed == 1
    record, failed = run.run_process([["verify-denom", "--order", "-1"]], False,
                                     deadline(), digests())
    assert failed == 1 and record["commands"][0]["error"] == "SystemExit(2)"


def test_every_offset_matches_its_digests():
    for workload in run.WORKLOADS:
        for delta in run.OFFSETS:
            _, failed = run.run_process(run.commands(workload, delta), False,
                                        deadline(), digests())
            assert failed == 0, (workload, delta)


def test_exact_counts_repeat_across_traced_runs():
    for workload in run.WORKLOADS:
        runs = [run.measure(workload, 0, 0.0, True, digests()) for _ in range(2)]
        assert all(r["failed"] == 0 for r in runs)
        first, second = (run.per_layer(r, lambda line: None) for r in runs)
        assert ({c: first[c] for c in COUNTS}
                == {c: second[c] for c in COUNTS}), workload
