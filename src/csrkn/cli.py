"""Command-line front end.

Four verbs: ``derive`` writes a tableau, ``check`` prints its condition
report, ``run`` integrates a benchmark problem to CSV, ``order`` runs a
step-halving study.  Exit codes: 0 success, 1 usage error or unwritable
output, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import stat
import sys

from .basis import family_from_name
from .construction import (BUILTIN_METHODS, ConstructionSpec, RKNTableau,
                           builtin_tableau, derive, serialize_tableau)
from .integrator import (SolverConfig, StageConvergenceError, integrate,
                         write_trajectory_csv)
from .problems import problem_from_name
from .quadrature import EigenConvergenceError
from .verification import (check_discrete, empirical_order, report_csv,
                           report_lines)

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


class _ArgumentParser(argparse.ArgumentParser):
    """Reads a negative number in exponent notation (``--gamma -4e-05``) and
    a negative infinity or NaN as float() spells it (``--h -inf``, in any
    case) as a value; argparse's own pattern takes them for flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf(inity)?|nan))$")


# the custom-construction flags' attributes, all with default None: only the
# flags given reach ConstructionSpec, which holds every default
_CUSTOM_FLAGS = ("family", "stages", "b_order", "cn_order", "tau_degree",
                 "symmetric", "set_alpha")


def _add_method_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=BUILTIN_METHODS,
                        help="built-in method name")
    parser.add_argument("--gamma", type=float,
                        help="free parameter of legendre4, chebyshev4 and "
                        "hermite4, a finite number (default 0); hermite3 has "
                        "none and ignores a finite value, with a warning on "
                        "the csrkn logger")
    parser.add_argument("--family", help="polynomial family for a custom "
                        "construction (e.g. shifted-legendre)")
    parser.add_argument("--b-order", type=int,
                        help="weight condition order of a custom construction")
    parser.add_argument("--cn-order", type=int,
                        help="stage condition order of a custom construction")
    parser.add_argument("--tau-degree", type=int,
                        help="tau-degree cap of a custom construction")
    parser.add_argument("--symmetric", action="store_true", default=None,
                        help="impose time-reversal symmetry on a custom "
                        "construction")
    parser.add_argument("--set-alpha", nargs=3, action="append",
                        metavar=("I", "J", "VALUE"),
                        help="pin a coupling coefficient of a custom "
                        "construction to a finite value (repeatable)")
    parser.add_argument("--stages", type=int,
                        help="Gauss points of a custom construction")


def _resolve_tableau(args) -> RKNTableau:
    given = {name: getattr(args, name) for name in _CUSTOM_FLAGS
             if getattr(args, name) is not None}
    if args.method is not None:
        if given:
            raise ValueError(f"--{next(iter(given)).replace('_', '-')} "
                             f"does not apply to --method")
        return builtin_tableau(args.method,
                               0.0 if args.gamma is None else args.gamma)
    if args.family is None:
        raise ValueError("either --method or --family is required")
    if args.gamma is not None:
        raise ValueError("--gamma applies only to --method")
    family = family_from_name(given.pop("family"))
    if given.pop("stages", None) is None:
        raise ValueError("--stages is required with --family")
    if "set_alpha" in given:
        given["free_alpha"] = _alpha_pins(given.pop("set_alpha"))
    return derive(ConstructionSpec(family=family, **given), args.stages)


def _alpha_pins(triples) -> dict[tuple[int, int], float]:
    """The --set-alpha I J VALUE triples as ConstructionSpec.free_alpha; a
    token that does not convert is a usage error that names it."""
    pins = {}
    for i, j, value in triples:
        key = []
        for token in (i, j):
            try:
                key.append(int(token))
            except ValueError:
                raise ValueError(f"--set-alpha index must be an integer, "
                                 f"got {token!r}") from None
        try:
            pins[tuple(key)] = float(value)
        except ValueError:
            raise ValueError(f"--set-alpha value must be a number, got "
                             f"{value!r}") from None
    return pins


@contextlib.contextmanager
def _rewritten(path):
    """A text stream that writes path in place, then cuts the old tail
    where the written bytes end, also when the write fails: truncating to
    zero first, as open(path, "w") does, makes ext4 (auto_da_alloc) hold
    the next rewrite until that writeback.  A symlink is written through
    and a file keeps its mode; a device or pipe cannot be cut."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline="\n") as stream:
        try:
            yield stream
            stream.flush()
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _cmd_derive(args) -> int:
    tableau = _resolve_tableau(args)
    text = serialize_tableau(tableau)
    if args.out:
        with _rewritten(args.out) as stream:
            stream.write(text)
        print(f"wrote tableau to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args) -> int:
    tableau = _resolve_tableau(args)
    report = check_discrete(tableau)
    label = tableau.method or (tableau.family.value if tableau.family else "?")
    print(f"method: {label} (s = {tableau.s})")
    for line in report_lines(report):
        print(line)
    if args.out:
        with _rewritten(args.out) as stream:
            stream.write(report_csv(report))
        print(f"wrote report to {args.out}")
    return 0


def _cmd_run(args) -> int:
    tableau = _resolve_tableau(args)
    problem = problem_from_name(args.problem)
    config = SolverConfig(record_every=args.record_every)
    trajectory = integrate(tableau, problem, args.t0, problem.q0,
                           problem.qp0, args.h, args.steps, config)
    with _rewritten(args.out) as stream:
        write_trajectory_csv(trajectory, problem, stream)
    print(f"wrote {len(trajectory.times)} samples to {args.out} "
          f"(max stage sweeps {int(trajectory.iterations.max())})")
    return 0


def _cmd_order(args) -> int:
    if args.levels < 2:  # one level has no slope
        raise ValueError(f"--levels must be >= 2, got {args.levels}")
    tableau = _resolve_tableau(args)
    problem = problem_from_name(args.problem)
    estimate = empirical_order(tableau, problem, args.h0, args.levels,
                               t_end=args.t_end)
    print(f"{'h':>12} {'error':>14} {'slope':>8}")
    for level, (h, err) in enumerate(zip(estimate.step_sizes,
                                         estimate.errors)):
        slope = f"{estimate.slopes[level - 1]:8.3f}" if level else " " * 8
        print(f"{h:12.6g} {err:14.6e} {slope}")
    print(f"mean slope: {estimate.mean_slope:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="csrkn",
        description="Derive, check and run symplectic RKN methods built "
                    "from weighted orthogonal polynomials.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_derive = sub.add_parser("derive", help="write a tableau to disk")
    _add_method_arguments(p_derive)
    p_derive.add_argument("--out", help="output path (stdout when omitted)")
    p_derive.set_defaults(handler=_cmd_derive)

    p_check = sub.add_parser("check", help="print the condition report")
    _add_method_arguments(p_check)
    p_check.add_argument("--out", help="also write the report as CSV")
    p_check.set_defaults(handler=_cmd_check)

    p_run = sub.add_parser("run", help="integrate a benchmark problem")
    _add_method_arguments(p_run)
    p_run.add_argument("--problem", required=True)
    p_run.add_argument("--h", type=float, required=True, help="step size")
    p_run.add_argument("--steps", type=int, required=True)
    p_run.add_argument("--out", required=True, help="trajectory CSV path")
    p_run.add_argument("--t0", type=float, default=0.0)
    p_run.add_argument("--record-every", type=int, default=1)
    p_run.set_defaults(handler=_cmd_run)

    p_order = sub.add_parser("order", help="step-halving order study")
    _add_method_arguments(p_order)
    p_order.add_argument("--problem", required=True)
    p_order.add_argument("--h0", type=float, required=True,
                         help="coarsest step size")
    p_order.add_argument("--levels", type=int, required=True)
    p_order.add_argument("--t-end", type=float, default=1.0)
    p_order.set_defaults(handler=_cmd_order)
    return parser


# built on the first main() call rather than at import; parse_args keeps no
# state between calls (--set-alpha has no default list to extend)
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return USAGE_ERROR if err.code else 0
    try:
        return args.handler(args)
    except (ValueError, OSError) as err:  # ConstructionError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (StageConvergenceError, EigenConvergenceError,
            FloatingPointError, OverflowError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
