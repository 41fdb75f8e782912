"""Command-line surface: fragment export, verification, line and window
comparisons.

Exit codes: 0 success, 1 usage error, 2 verification failure or resource
cap.  Output goes to --out when given, stdout otherwise, and is byte-stable
across runs; every report but ``verify``'s is written chunk by chunk as it
is formatted.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import nullcontext

from .rootsystem import GroupId
from .fragment import DEFAULT_CAP, ResourceLimitError, cached_fragment, generate
from .lineanalysis import LINE_CAP, deficiencies_1d, line_closed_form, mn_nn, sigma_1d
from .cutproject import deficiency_rows_2d, sigma_2d
from .checks import check_names, run_checks
from .serialize import (
    compare_json_chunks,
    fragment_csv_chunks,
    fragment_json_chunks,
    fragment_svg_chunks,
    line_report_csv_chunks,
    line_report_json_chunks,
)

USAGE_ERROR = 1
CHECK_ERROR = 2


class _CliParser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; usage is 1 here
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _bool_flag(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="quasih")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="export a fragment as csv, json or svg")
    gen.add_argument("--group", required=True, choices=[g.value for g in GroupId])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--format", default="csv", choices=["csv", "json", "svg"])
    gen.add_argument("--out")
    gen.add_argument("--normalize", type=_bool_flag, default=True)
    gen.add_argument("--cap", type=int, default=DEFAULT_CAP)

    ver = sub.add_parser("verify", help="run the verification suite")
    ver.add_argument("--only", choices=list(check_names()))
    ver.add_argument("--coeff-bound", type=int, default=3)
    ver.add_argument("--out")

    line = sub.add_parser("line", help="one-dimensional section and deficiencies")
    line.add_argument("--n", type=int, required=True)
    line.add_argument("--format", default="json", choices=["csv", "json"])
    line.add_argument("--out")

    cmp_ = sub.add_parser("compare", help="two-dimensional cut-and-project comparison")
    cmp_.add_argument("--group", default="h2", choices=["h2"])
    cmp_.add_argument("--n", type=int, required=True)
    cmp_.add_argument("--out")
    return parser


def _emit(chunks, out: str | None) -> None:
    """Write each text chunk as it comes, to ``out`` or to stdout.  A failed
    open or write (a full disk) is a usage error; a reader that closes
    stdout early (``| head``) ends the output quietly."""
    try:
        with open(out, "w") if out else nullcontext(sys.stdout) as fh:
            fh.writelines(chunks)
            fh.flush()
    except OSError as exc:
        if not out:
            # the exit-time flush of what is still buffered goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return
        where = f"--out {out}" if out else "stdout"
        sys.stderr.write(f"error: cannot write {where}: {exc.strerror or exc}\n")
        sys.exit(USAGE_ERROR)


def cmd_generate(args) -> int:
    group = GroupId(args.group)
    if args.n < 0:
        sys.stderr.write("error: --n must be non-negative\n")
        return USAGE_ERROR
    if args.cap < 1:
        sys.stderr.write("error: --cap must be positive\n")
        return USAGE_ERROR
    if args.format == "svg" and group is not GroupId.H2:
        sys.stderr.write("error: svg output is only available for --group h2\n")
        return USAGE_ERROR
    fragment = generate(group, args.n, cap=args.cap)
    writer = {"csv": fragment_csv_chunks, "json": fragment_json_chunks, "svg": fragment_svg_chunks}
    _emit(writer[args.format](fragment, args.normalize), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.coeff_bound < 1:
        sys.stderr.write("error: --coeff-bound must be positive\n")
        return USAGE_ERROR
    entries = run_checks(only=args.only, coeff_bound=args.coeff_bound)
    passed = all(e["passed"] for e in entries)
    _emit([json.dumps({"passed": passed, "checks": entries}, indent=2) + "\n"], args.out)
    if not passed:
        failing = ", ".join(e["name"] for e in entries if not e["passed"])
        sys.stderr.write(f"verification failed: {failing}\n")
        return CHECK_ERROR
    return 0


def cmd_line(args) -> int:
    if args.n < 1:
        sys.stderr.write("error: --n must be positive\n")
        return USAGE_ERROR
    if args.n > LINE_CAP:
        sys.stderr.write(f"error: line --n {args.n} exceeds cap {LINE_CAP}\n")
        return CHECK_ERROR
    n = args.n
    values, missing = line_closed_form(n), deficiencies_1d(n)
    if args.format == "csv":
        _emit(line_report_csv_chunks(values, missing), args.out)
        return 0
    m_n, n_n = mn_nn(n)
    head = {"n": n, "m_n": m_n, "n_n": n_n, "count": len(values), "sigma_count": len(sigma_1d(n))}
    _emit(line_report_json_chunks(head, values, missing), args.out)
    return 0


def cmd_compare(args) -> int:
    if args.n < 1:
        sys.stderr.write("error: --n must be positive\n")
        return USAGE_ERROR
    n = args.n
    sigma = sigma_2d(n)
    fragment = cached_fragment(GroupId.H2, n)
    missing = deficiency_rows_2d(n)
    head = {
        "group": args.group,
        "n": n,
        "fragment_count": fragment.size,
        "sigma_count": sigma.size,
        "deficiency_count": len(missing),
    }
    _emit(compare_json_chunks(head, missing), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "generate": cmd_generate,
        "verify": cmd_verify,
        "line": cmd_line,
        "compare": cmd_compare,
    }[args.command]
    try:
        return handler(args)
    except ResourceLimitError as exc:  # a cap refused the request
        sys.stderr.write(f"error: {exc}\n")
        return CHECK_ERROR


def run() -> int:
    """The ``quasih`` script and ``python -m quasih.cli``: ``main`` with the
    import heap frozen, so no collection walks it again, not even at exit."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
