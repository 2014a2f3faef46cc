"""Command-line front end.

COMMANDS declares every subcommand: its help line, its flags (specs in
FLAGS) and its handler.  The parser is built from it once, at import.
Output is deterministic: grevlex term order, "p/q" coefficient strings.
A command with one result prints it through _print, as the value's own
to_json_obj() or to_text(); qk, tableaux and expand print a list, a count
or an expansion and format it themselves.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import spectra
from .algebra import format_fraction
from .qfunctions import (
    OddCycleType,
    StrictPartition,
    char_map,
    expand_in_power_sums,
    q_series,
    schur_q,
    shifted_tableaux_count,
)

MAX_N = 6
MAX_DEG = 12


def _guard(args, n: int | None = None, deg: int | None = None, entry: tuple[str, str] | None = None) -> None:
    """Unless --force, refuse n or a size deg (|lambda|, or verify's --max) past the spectra.LIMITS
    entry of entry = (flag, name), the --op or --suite; an unlisted name, or none, gets MAX_N and MAX_DEG."""
    if args.force:
        return
    flag, name = entry or ("", "")
    max_n, caps = spectra.LIMITS.get(name, (MAX_N, {}))
    cap = caps.get(n, MAX_DEG)
    scope = f" for {flag} {name}" if name in spectra.LIMITS else ""
    if n is not None and n > max_n:
        raise ValueError(f"n={n} exceeds the guardrail {max_n}{scope}; pass --force")
    if deg is not None and deg > cap:
        raise ValueError(f"degree {deg} exceeds the guardrail {cap}{scope}; pass --force")


def _print(args, value) -> None:
    """Print one result in the form --format asks for, building only that form."""
    if args.format == "json":
        print(json.dumps(value.to_json_obj(), sort_keys=True))
    else:
        print(value.to_text())


def cmd_qk(args) -> int:
    _guard(args, n=args.n, deg=args.max)
    qs = q_series(args.n, args.max)
    if args.format == "json":
        print(json.dumps([q.to_json_obj() for q in qs], sort_keys=True))
    else:
        for k, q in enumerate(qs):
            print(f"q{k} = {q.to_text()}")
    return 0


def _lambda(args, entry: tuple[str, str] | None = None) -> StrictPartition:
    """--lambda parsed and guarded: the first step of qfun, apply and eigen."""
    lam = StrictPartition.parse(args.lam)
    _guard(args, n=args.n, deg=lam.weight, entry=entry)
    return lam


def cmd_qfun(args) -> int:
    _print(args, schur_q(_lambda(args), args.n))
    return 0


def cmd_apply(args) -> int:
    lam = _lambda(args, ("--op", args.op))
    _print(args, spectra.q_image(args.op, lam, schur_q(lam, args.n), args.n))
    return 0


def cmd_eigen(args) -> int:
    _print(args, spectra.eigen_check(_lambda(args, ("--op", args.op)), args.op, args.n))
    return 0


def cmd_verify(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    if args.max is not None and args.max < 0:
        raise ValueError(f"--max must be at least 0, got {args.max}")
    if args.max is None:
        args.max = 6
    elif spectra.SWEEPS[args.suite].desk_max is None:
        raise ValueError(f"suite {args.suite} takes no --max")
    _guard(args, n=args.n, deg=args.max, entry=("--suite", args.suite))
    report = spectra.SWEEPS[args.suite].sweep(args.n, args.max)
    if report.passed and not report.checked:
        raise ValueError(f"suite {args.suite} checked nothing at --n {args.n} --max {args.max}")
    _print(args, report)
    return 0 if report.passed else 1


def cmd_char_map(args) -> int:
    nu = OddCycleType.parse(args.nu)
    _guard(args, n=args.n, deg=nu.weight)
    _print(args, char_map(nu, args.n))
    return 0


def cmd_tableaux(args) -> int:
    lam = StrictPartition.parse(args.lam)
    _guard(args, deg=lam.weight)
    count = shifted_tableaux_count(lam)
    # past the guardrail a count can outgrow the int-to-str digit limit; print it in full
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        print(json.dumps({"partition": str(lam), "count": count}, sort_keys=True)
              if args.format == "json" else count)
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def cmd_expand(args) -> int:
    lam = StrictPartition.parse(args.lam)
    # Q_lambda has degree |lambda| and is expanded in n = |lambda| variables,
    # so the variable guardrail (MAX_N < MAX_DEG) bounds the degree too
    n = max(lam.weight, 1)
    _guard(args, n=n)
    expansion = expand_in_power_sums(schur_q(lam, n), n, lam.weight)
    items = sorted(expansion.items(), key=lambda kv: (kv[0].weight, kv[0].parts))
    obj = {str(nu): format_fraction(c) for nu, c in items}
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        for nu, c in items:
            print(f"p[{nu}] : {format_fraction(c)}")
    return 0


# every flag is required but the one whose key ends in "?"
FLAGS = {
    "--lambda": {"dest": "lam"},
    "--nu": {},
    "--op": {"choices": sorted(spectra.OPERATORS)},
    "--suite": {"choices": sorted(spectra.SWEEPS)},
    "--n": {"type": int},
    "--max": {"type": int},
    "--max?": {"type": int, "help": "default 6; " + ", ".join(
        name for name, spec in spectra.SWEEPS.items() if spec.desk_max is None) + " takes none"},
}

COMMANDS = {
    "qk": ("generating-series coefficients q_0..q_K", "--n --max", cmd_qk),
    "qfun": ("the Q-function of a strict partition", "--lambda --n", cmd_qfun),
    "apply": ("apply an operator to Q_lambda", "--op --lambda --n", cmd_apply),
    "eigen": ("eigenvalue report for Q_lambda", "--lambda --op --n", cmd_eigen),
    "verify": ("run an identity sweep", "--suite --n --max?", cmd_verify),
    "char-map": ("characteristic map of an odd cycle type", "--nu --n", cmd_char_map),
    "tableaux": ("shifted standard tableau count", "--lambda", cmd_tableaux),
    "expand": ("odd power-sum expansion of Q_lambda", "--lambda", cmd_expand),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurq",
        description="Exact Schur Q-functions, radial operators, and identity sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag in flags.split():
            p.add_argument(flag.rstrip("?"), required=not flag.endswith("?"), **FLAGS[flag])
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--force", action="store_true", help="override size guardrails")
        p.set_defaults(func=handler)
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: exit as a shell reports SIGPIPE, and point
        # stdout at devnull so the flush at interpreter exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # anything else is a bug, not a FAIL (1) and not a usage error (2)
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
