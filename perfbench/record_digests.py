"""Record the stdout sha256 of every benchmark command at every seed offset.

    python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``.  Each command runs in a fresh interpreter,
exactly as a benchmark sample runs it, and must exit 0.  Run this only when
the CLI's output is meant to change.
"""

import json
import subprocess
import sys

import run


def main() -> int:
    digests = {}
    for workload in run.WORKLOADS:
        for delta in run.OFFSETS:
            for argv in run.commands(workload, delta):
                spec = json.dumps({"commands": [argv], "trace": False})
                proc = subprocess.run([sys.executable, run.SAMPLE, spec],
                                      cwd=run.ROOT, capture_output=True,
                                      text=True, check=True)
                (res,) = json.loads(proc.stdout.splitlines()[-1])["commands"]
                if res["rc"] != 0 or res["error"]:
                    print(f"{run.key(argv)}: rc={res['rc']} {res['error']}",
                          file=sys.stderr)
                    return 1
                digests[run.key(argv)] = res["sha256"]
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
