"""Batch command-line entry point.

Every subcommand is a pure verification or dump with deterministic output
(canonical term order, no timestamps in the payload).  Exit status: 0 when
all requested checks matched, 1 on a mismatch, 2 on usage errors.
"""

from __future__ import annotations

import io
import os
import sys
from types import SimpleNamespace

from . import analytic, identities, squares
from .series import MAX_CUTOFF, serialize

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


def _count(name: str):
    """The converter of an integer option from 0 to `MAX_CUTOFF`: ASCII
    decimal digits after an optional sign, nothing else that `int` takes.
    Its errors name the option ``name``."""
    def convert(value: str) -> int:
        digits = value[1:] if value[:1] in ("+", "-") else value
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"{name} must be an integer, not {value!r}")
        n = int(value)
        if n < 0:
            raise ValueError(f"{name} must be nonnegative")
        if n > MAX_CUTOFF:
            raise ValueError(f"{name} {n} is above the ceiling {MAX_CUTOFF}")
        return n
    return convert


def _choice(choices: tuple):
    def convert(value: str) -> str:
        if value not in choices:
            raise ValueError(f"invalid choice: {value!r} (choose from "
                             f"{', '.join(map(repr, choices))})")
        return value
    return convert


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
    doc = _VERIFIERS[args.command](args.order)
    text = _json_text(doc) if args.format == "json" else _report_text(doc)
    return (0 if doc["matched"] else 1), text


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
    doc = analytic.run_suite()
    code = 0 if doc["ok"] else 1
    if args.format == "json":
        return code, _json_text(doc)
    lines = [f"{k}: {v:.3e}" if isinstance(v, float) else f"{k}: {v}"
             for k, v in doc.items()]
    return code, "\n".join(lines)


def _run_dump(args) -> tuple[int, str]:
    return 0, serialize(_DUMPERS[args.expr](args.order))


_REQUIRED = object()  # the default of an option a run must give

# name: (help, default --order or None, --format choices, runner, options
# beyond --order, --format and --output), in the order the usage line and
# --help list them.  An option maps to (attribute, metavar, default,
# converter, help); a runner returns (exit status, text).
_COMMANDS = {
    "verify-denom": ("main affine identity", 24, ("text", "json"),
                     _run_report, {}),
    "verify-prefactor": ("product vs cyclotomic series prefactor", 40,
                         ("text", "json"), _run_report, {}),
    "verify-finite": ("finite gl(2|2) identity, the q^0 face", 24,
                      ("text", "json"), _run_report, {}),
    "verify-sl21": ("affine sl(2|1) identity", 18, ("text", "json"),
                    _run_report, {}),
    "verify-talpha-tgamma": ("translation orbit sums along alpha vs gamma", 16,
                             ("text", "json"), _run_report, {}),
    "ratio-support": ("support shape and triviality of RHS/LHS", 24,
                      ("text", "json"), _run_report, {}),
    "jacobi": ("eight-squares table and identities", None,
               ("text", "json", "csv"), _run_jacobi, {
                   "--max-n": ("max_n", "MAX_N", 64, _count("max-n"),
                               f"last n of the table, at most {MAX_CUTOFF}")}),
    "analytic": ("floating-point evaluation suite", None, ("text", "json"),
                 _run_analytic, {}),
    "dump": ("serialize a builder output", 24, ("json",), _run_dump, {
        "--expr": ("expr", "EXPR", _REQUIRED, _choice(tuple(_DUMPERS)),
                   f"the builder to serialize: {', '.join(_DUMPERS)}")}),
}


def _options(command: str) -> dict:
    """The options of ``command`` after -h/--help, in the order its usage
    and --help list them: option -> (attribute, metavar, default,
    converter, help)."""
    _, order_default, formats, _, extra = _COMMANDS[command]
    opts = {}
    if order_default is not None:
        opts["--order"] = ("order", "ORDER", order_default, _count("order"),
                           f"degree cutoff, at most {MAX_CUTOFF}")
    opts["--format"] = ("format", "{%s}" % ",".join(formats), formats[0],
                        _choice(formats), "output format")
    opts["--output"] = ("output", "OUTPUT", None, str,
                        "write to file instead of stdout")
    return opts | extra


def _usage(command: str | None) -> str:
    if command is None:
        return f"superdenom [-h] {{{','.join(_COMMANDS)}}} ..."
    words = [f"superdenom {command} [-h]"]
    for opt, (_, metavar, default, _, _) in _options(command).items():
        words.append(f"{opt} {metavar}" if default is _REQUIRED
                     else f"[{opt} {metavar}]")
    return " ".join(words)


def _help_lines(rows) -> list[str]:
    """Two-column rows: names padded to one width, then their help."""
    width = max(len(name) for name, _ in rows) + 2
    return [f"  {name:<{width}}{text}" for name, text in rows]


def _help(command: str | None) -> str:
    """The --help text of ``command``, or of the program if None."""
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        return "\n".join([
            f"usage: {_usage(None)}", "",
            "Exact verification of the gl(2|2) affine denominator identity "
            "and its companions.", "", "commands:",
            *_help_lines([(name, spec[0]) for name, spec in _COMMANDS.items()]),
            "", "options:", *_help_lines(options), "",
            "Run `superdenom COMMAND --help` for the options of a command.",
            ""])
    for opt, (_, metavar, default, _, help_) in _options(command).items():
        if default is _REQUIRED:
            help_ += " (required)"
        elif default is not None:
            help_ += f" (default {default})"
        options.append((f"{opt} {metavar}", help_))
    return "\n".join([f"usage: {_usage(command)}", "", _COMMANDS[command][0],
                      "", "options:", *_help_lines(options), ""])


def _fail(command: str | None, message: str):
    """Report a usage error of ``command`` (None: of the program) on
    stderr and exit with status 2."""
    prog = "superdenom" if command is None else f"superdenom {command}"
    sys.stderr.write(f"usage: {_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _is_value(token: str) -> bool:
    """Whether a token that names no option is read as a value rather than
    as an unknown option: it does not start with "-", is "-" alone, is a
    negative number, or holds a space."""
    if not token.startswith("-") or token == "-" or " " in token:
        return True
    whole, dot, fraction = token[1:].partition(".")
    return ((whole.isdecimal() and not dot)
            or (dot and (whole == "" or whole.isdecimal())
                and fraction.isdecimal()))


def _match(command: str | None, names, token: str):
    """The option that ``token`` names, exactly or by a unique prefix of a
    long option, and its "=" value or None; (None, None) if it names no
    option."""
    name, eq, value = token.partition("=")
    hits = [name] if name in names else [
        n for n in names if name.startswith("--") and n.startswith(name)]
    if len(hits) > 1:
        _fail(command, f"ambiguous option: {token} could match "
                       f"{', '.join(hits)}")
    return (hits[0], value if eq else None) if hits else (None, None)


def parse_args(argv) -> SimpleNamespace:
    """Parse ``argv`` (without the program name) against `_COMMANDS`.

    Options take their value as ``--opt value`` or ``--opt=value``, may be
    shortened to a unique prefix, and the last of a repeated option wins.
    -h/--help prints help to stdout and exits 0; a usage error prints a
    usage line and an error line to stderr and exits 2.  Every attribute
    that a runner reads is set, None where the command has no such option.
    """
    args = SimpleNamespace(command=None, **{
        attribute: None for name in _COMMANDS
        for attribute, _, _, _, _ in _options(name).values()})
    command, opts, extras = None, {}, []
    names = ("-h", "--help")
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            # everything after it is positional, and no command takes one
            extras += [token, *tokens]
            break
        opt, value = _match(command, names, token)
        if opt is None:
            if command is not None or not _is_value(token):
                extras.append(token)  # a positional argument or unknown option
                continue
            if token not in _COMMANDS:
                _fail(None, f"argument command: invalid choice: {token!r} "
                            f"(choose from {', '.join(map(repr, _COMMANDS))})")
            command, opts = token, _options(token)
            names = ("-h", "--help", *opts)
            args.command = command
            for attribute, _, default, _, _ in opts.values():
                if default is not _REQUIRED:
                    setattr(args, attribute, default)
            continue
        if opt in ("-h", "--help"):
            if value is not None:
                _fail(command, f"argument -h/--help: ignored explicit "
                               f"argument {value!r}")
            try:
                sys.stdout.write(_help(command))
                sys.stdout.flush()
            except OSError:  # the reader went away: it wants no help
                _silence(sys.stdout)
            raise SystemExit(0)
        attribute, _, _, convert, _ = opts[opt]
        if value is None:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                _fail(command, f"argument {opt}: expected one argument")
        try:
            setattr(args, attribute, convert(value))
        except ValueError as exc:
            _fail(command, f"argument {opt}: {exc}")
    if command is None:
        _fail(None, "the following arguments are required: command")
    missing = [opt for opt, (attribute, _, default, _, _) in opts.items()
               if default is _REQUIRED and getattr(args, attribute) is None]
    if missing:
        _fail(command, f"the following arguments are required: "
                       f"{', '.join(missing)}")
    if extras:
        _fail(command, f"unrecognized arguments: {' '.join(extras)}")
    return args


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
    args = parse_args(sys.argv[1:] if argv is None else argv)
    run, path = _COMMANDS[args.command][3], args.output
    try:
        if path is not None:
            # opened before any work, so an unwritable path fails at once,
            # but not truncated: a run that raises leaves the file as it was
            open(path, "a").close()
        code, text = run(args)
        if path is None:
            _write(sys.stdout, text)
            sys.stdout.flush()  # a reader that went away shows here
        else:
            with open(path, "w") as fh:
                _write(fh, text)
        return code
    except OSError as exc:
        if path is not None:
            return _cannot_write(repr(path), exc)
        _silence(sys.stdout)
        return _cannot_write("stdout", exc)


if __name__ == "__main__":
    sys.exit(main())
