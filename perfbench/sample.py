"""One benchmark sample: a fresh interpreter that runs CLI commands in-process.

    python3 perfbench/sample.py '{"commands": [["verify-denom", "--order", "40"]], "trace": false}'

Each command goes through ``superdenom.cli.main(argv)`` with stdout captured.
A fresh interpreter per sample matters: the ``build_*`` functions are ``lru_cache``d, so a
second call in the same process would be a free cache hit.

Prints one JSON line: the ``time.perf_counter()`` reading right after
``superdenom.cli`` was imported (the parent subtracts its own reading from
before the spawn; both read the system-wide monotonic clock), the time from
the first ``cli.main`` call to the last verdict, ``ru_maxrss``, the time of a
fixed stdlib loop (a host-speed probe, context only), each command's exit
code, error and stdout sha256, and with tracing on the span summary.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)

import superdenom.cli  # noqa: E402  (set-up ends here)

IMPORTED_AT = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

PROBE_LOOPS = 200_000


def host_probe() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc ^= i * i
    return time.perf_counter() - started


def run_commands(commands):
    """Run each argv through the CLI; return [(rc, error, stdout)] and the
    wall time from the first call to the last verdict."""
    results = []
    started = time.perf_counter()
    for argv in commands:
        buf = io.StringIO()
        rc = error = None
        try:
            with contextlib.redirect_stdout(buf):
                rc = superdenom.cli.main(argv)
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception:
            error = traceback.format_exc(limit=-2)
        results.append((rc, error, buf.getvalue()))
    return results, time.perf_counter() - started


def main() -> int:
    if not superdenom.cli.__file__.startswith(SRC + os.sep):
        print(f"superdenom imported from {superdenom.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    results, verdict_s = run_commands(spec["commands"])
    record = {
        "imported_at": IMPORTED_AT,
        "verdict_s": verdict_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "probe_s": host_probe(),
        "commands": [{"rc": rc, "error": error,
                      "sha256": hashlib.sha256(text.encode()).hexdigest()}
                     for rc, error, text in results],
    }
    if tracer is not None:
        record["layers"] = tracer.summary(verdict_s)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
