"""Batch command-line entry point.

Every subcommand is a pure verification or dump with deterministic output
(canonical term order, no timestamps in the payload).  Exit status: 0 when
all requested checks matched, 1 on a mismatch, 2 on usage errors.
"""

from __future__ import annotations

import io
import os
import sys
from functools import lru_cache

from . import analytic, identities, squares
from .series import MAX_CUTOFF, serialize

# after the package modules: loading those before argparse and gettext keeps
# about 0.2 MB off the peak RSS of a run (CPython 3.11, sources compiled
# without bytecode)
import argparse


def _order(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"order must be an integer, not {value!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError("order must be nonnegative")
    if n > MAX_CUTOFF:
        raise argparse.ArgumentTypeError(
            f"order {n} is above the ceiling {MAX_CUTOFF}")
    return n


# name: (help, default --order or None, --format choices), in the order
# the usage line and --help list them
_COMMANDS = {
    "verify-denom": ("main affine identity", 24, ("text", "json")),
    "verify-prefactor": ("product vs cyclotomic series prefactor", 40,
                         ("text", "json")),
    "verify-finite": ("finite rank-3 identity", 24, ("text", "json")),
    "verify-sl21": ("affine sl(2|1) identity", 18, ("text", "json")),
    "verify-talpha-tgamma": ("translation orbit sums along alpha vs gamma", 16,
                             ("text", "json")),
    "ratio-support": ("support shape and triviality of RHS/LHS", 24,
                      ("text", "json")),
    "jacobi": ("eight-squares table and identities", None,
               ("text", "json", "csv")),
    "analytic": ("floating-point evaluation suite", None, ("text", "json")),
    "dump": ("serialize a builder output", 24, ("json",)),
}


def _add_command(sub, name):
    help_, order_default, formats = _COMMANDS[name]
    sp = sub.add_parser(name, help=help_)
    if order_default is not None:
        sp.add_argument("--order", type=_order, default=order_default,
                        help=f"degree cutoff, at most {MAX_CUTOFF} "
                             f"(default {order_default})")
    sp.add_argument("--format", choices=formats, default=formats[0])
    sp.add_argument("--output", default=None, help="write to file")
    if name == "jacobi":
        sp.add_argument("--max-n", type=_order, default=64)
    elif name == "analytic":
        sp.add_argument("--q", type=float, default=0.1)
        sp.add_argument("--tol", type=float, default=1e-8)
    elif name == "dump":
        sp.add_argument("--expr", required=True,
                        choices=("lhs", "rhs", "prefactor", "orbit-sum",
                                 "rhat-roots"))


def _new_parser():
    """A top-level parser with no subcommand registered, and its
    subcommand action."""
    p = argparse.ArgumentParser(
        prog="superdenom",
        description="Exact verification of the gl(2|2) affine denominator "
                    "identity and its companions.")
    return p, p.add_subparsers(dest="command", required=True)


@lru_cache(maxsize=None)
def _run_parser():
    """The parser every run of this process shares, and its subcommand
    action.  `parse_args` keeps no state between calls."""
    p, sub = _new_parser()
    # the usage line printed with the message lists every subcommand
    p.error = lambda message: build_parser().error(message)
    return p, sub


def build_parser(command=None) -> argparse.ArgumentParser:
    """The run parser with the subparser of ``command`` registered, or a
    new parser with every subparser if ``command`` names none.

    A run registers only its own subparser, because it uses one of nine;
    --help and usage errors list all nine, in the order of `_COMMANDS`.
    """
    if command in _COMMANDS:
        p, sub = _run_parser()
        if command not in sub.choices:
            _add_command(sub, command)
        return p
    p, sub = _new_parser()
    for name in _COMMANDS:
        _add_command(sub, name)
    return p


_VERIFIERS = {
    "verify-denom": identities.verify_denominator,
    "verify-prefactor": identities.verify_prefactor,
    "verify-finite": identities.verify_finite_identity,
    "verify-sl21": identities.verify_sl21,
    "verify-talpha-tgamma": identities.verify_talpha_tgamma,
    "ratio-support": identities.ratio_support_check,
}

_DUMPERS = {
    "lhs": identities.build_lhs,
    "rhs": identities.build_rhs,
    "prefactor": identities.build_prefactor,
    "orbit-sum": identities.build_orbit_sum,
    "rhat-roots": identities.lhs_from_roots,
}


def _json_text(doc: dict) -> str:
    import json

    return json.dumps(doc, sort_keys=True, indent=2)


def _report_text(doc: dict) -> str:
    lines = [f"{doc['identity']}: "
             f"{'MATCHED' if doc['matched'] else 'MISMATCH'} "
             f"(cutoff {doc['cutoff']}, {doc['lhs_terms']} vs "
             f"{doc['rhs_terms']} terms)"]
    for d in doc["first_diffs"]:
        lines.append(f"  diff at {d['e']}: lhs={d['lhs']} rhs={d['rhs']}")
    return "\n".join(lines)


def _run_report(args) -> tuple[int, str]:
    rep = _VERIFIERS[args.command](args.order)
    doc = rep.to_dict()
    if args.format == "json":
        text = _json_text(doc)
    else:
        text = _report_text(doc)
    return (0 if rep.matched else 1), text


def _run_jacobi(args) -> tuple[int, str]:
    doc = squares.verify_jacobi(args.max_n)
    rows, gauss_ok, inter_ok = doc["rows"], doc["gauss"], doc["intermediate"]
    code = 0 if doc["all_match"] and gauss_ok and inter_ok else 1
    if args.format == "csv":
        import csv

        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=["n", "r8_enum", "r8_theta",
                                            "r8_formula", "match"])
        w.writeheader()
        w.writerows(rows)
        return code, buf.getvalue()
    if args.format == "json":
        return code, _json_text(doc)
    lines = [f"n={r['n']}: {r['r8_enum']} {r['r8_theta']} {r['r8_formula']} "
             f"{'ok' if r['match'] else 'MISMATCH'}" for r in rows]
    lines.append(f"gauss: {'ok' if gauss_ok else 'MISMATCH'}; "
                 f"intermediate: {'ok' if inter_ok else 'MISMATCH'}")
    return code, "\n".join(lines)


def _run_analytic(args) -> tuple[int, str]:
    rep = analytic.run_suite(analytic.EvalConfig(q=args.q, tol=args.tol))
    code = 0 if rep["ok"] else 1
    doc = {
        "ok": rep["ok"],
        "ratio_one_max_dev": rep["ratio_one"]["max_deviation"],
        "b_zero_max": rep["b_zeros"]["max"],
        "functional_max_dev": rep["functional"]["max_dev"],
        "limit_dev_a_over_r": rep["limits"]["dev_a_over_r"],
        "limit_dev_b": rep["limits"]["dev_b"],
        "an_limits_max_dev": rep["an_limits"]["max_dev"],
    }
    if args.format == "json":
        return code, _json_text(doc)
    lines = [f"{k}: {v:.3e}" if isinstance(v, float) else f"{k}: {v}"
             for k, v in doc.items()]
    return code, "\n".join(lines)


def _run_dump(args) -> tuple[int, str]:
    return 0, serialize(_DUMPERS[args.expr](args.order))


def _run(args) -> tuple[int, str | None]:
    """Run the command: its exit status and its text, or (2, None) after a
    usage error it has reported on stderr."""
    if args.command == "jacobi":
        return _run_jacobi(args)
    if args.command == "analytic":
        try:
            return _run_analytic(args)
        except (ValueError, ArithmeticError, analytic.ConvergenceError,
                analytic.PoleProximity, analytic.PrecisionLoss) as exc:
            # q outside (0, 1), a tol that is not finite or is below double
            # precision, q so close to 1 that the float products underflow
            # or fail to converge, or so small that rounding swamps B near
            # its zeros: a usage error, not a mismatch
            sys.stderr.write(f"superdenom analytic: error: cannot evaluate at "
                             f"q={args.q}, tol={args.tol}: {exc}\n")
            return 2, None
    if args.command == "dump":
        return _run_dump(args)
    return _run_report(args)


def _write(out, text: str) -> None:
    """Write text and a final newline to out."""
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _cannot_write(target: str, exc: OSError) -> int:
    try:
        sys.stderr.write(f"superdenom: error: cannot write {target}: "
                         f"{exc.strerror or exc}\n")
    except OSError:  # stderr is on the same closed pipe
        _silence(sys.stderr)
    return 2


def _silence(stream) -> None:
    """Point the stream's descriptor at the null device, so that the flush
    at interpreter exit writes what is still buffered there instead of
    failing again on a closed pipe."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
    except (OSError, ValueError):  # the stream has no descriptor of its own
        pass


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    if not args.output:
        try:
            code, text = _run(args)
            if text is not None:
                _write(sys.stdout, text)
            sys.stdout.flush()  # a reader that went away shows here
            return code
        except OSError as exc:
            _silence(sys.stdout)
            return _cannot_write("stdout", exc)
    try:
        # opened before any work, so an unwritable path fails at once, but
        # not truncated: a run that exits 2 leaves an existing file as it was
        open(args.output, "a").close()
        code, text = _run(args)
        if text is not None:
            with open(args.output, "w") as fh:
                _write(fh, text)
        return code
    except OSError as exc:
        return _cannot_write(args.output, exc)


if __name__ == "__main__":
    sys.exit(main())
