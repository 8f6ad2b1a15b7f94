"""Command-line front end: instance generation, verification runs, checks.

Subcommands
-----------
gen        write a curvature-tensor JSON instance (random / projected / flat)
verify     run an identity verification (pushforward | identity8 | identity9 | moments)
check      run an inequality or metric check (he | kl | thm12 | surface | remark41 | lhe)
moments    evaluate a single sphere moment exactly, optionally against Monte Carlo

Every command emits a canonical-JSON report whose result rows carry explicit
tolerances.  Exit codes: 0 when every reported result passes, 1 on a
mathematical failure, 2 on usage, parse, or precondition errors.  Each
verify/check kind takes only the flags it reads, and its report echoes them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import re
import sys

# Every matrix here is at most MAX_DIM x MAX_DIM, too small for BLAS threads, so
# an OpenBLAS pool only costs start-up time; set before numpy loads, and a value
# the user chose still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .curvature import (MAX_DIM, Kaehler11, PreconditionError, TensorValidationError,
                        _he_deviation, _is_number, _require_he, check_dims, chern_forms,
                        load_tensor, project_to_he, projectively_flat_tensor, random_curvature,
                        segre_forms, strong_flat_tensor, tensor_to_dict)
from .report import MC_UNITS, NonFiniteError, Report, canonical_json, stderr_units

DEFAULT_TOL = 1e-9
MAX_SAMPLES = 10 ** 8  # --samples: 100 times the largest documented run, minutes at (2,2)
MAX_MOMENT_TERMS = 100_000  # diagonal moments summed by one verify moments report
MC_MOMENT_PAIRS = (((1,), (1,)), ((1, 2), (2, 1)), ((1, 1), (1, 1)), ((1,), (2,)),
                   ((1, 2, 3), (3, 2, 1)))  # (lambdas, mus) of verify moments' MC rows
NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)


class UsageError(ValueError):
    pass


def parse_omega(spec, n):
    """Parse --omega: 'euclidean', an inline JSON matrix of numbers or [re, im] pairs, or
    @path to a JSON file of one; Kaehler11 checks the matrix, its errors usage errors."""
    if spec == "euclidean":
        return Kaehler11.euclidean(n)
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            spec = fh.read()
    rows = json.loads(spec)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise UsageError("omega must be a JSON matrix, a list of rows")
    mat = np.zeros((len(rows), len(rows)), dtype=complex)
    for j, row in enumerate(rows):
        if len(row) != len(rows):
            raise UsageError("omega matrix must be square")
        for k, entry in enumerate(row):
            if _is_number(entry):
                mat[j, k] = float(entry)
            elif isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry)):
                mat[j, k] = complex(entry[0], entry[1])
            else:
                raise UsageError(f"omega entry {json.dumps(entry)} is not a finite number or a [re, im] pair")
    if mat.shape != (n, n):
        raise UsageError(f"omega is {mat.shape[0]}x{mat.shape[1]}, tensor needs {n}x{n}")
    try:
        return Kaehler11(mat)
    except ValueError as exc:  # out of bounds, not Hermitian, or not positive definite
        raise UsageError(str(exc)) from exc


def _number(kind, low=-math.inf, high=math.inf):
    """An argparse type: a finite int or float, by kind, from low to high."""
    what = ("an integer" if kind is int else "a finite number") + (
        f" in [{low}, {high}]" if high < math.inf else f" >= {low}" if low > -math.inf else "")

    def parse(text):
        value = kind(text)  # no math.isfinite on an int: past the float range it overflows
        if not (low <= value <= high and (kind is int or math.isfinite(value))):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


class _Parser(argparse.ArgumentParser):
    """argparse whose rejections are UsageErrors, one error JSON line in main, and which
    reads -1e1 and -inf as numbers: argparse alone takes only -1 and -.5 for them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(message)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args):
    check_dims(args.n, args.r)
    w = parse_omega(args.omega, args.n)
    if args.strong_flat:
        if args.he is None:
            raise UsageError("--strong-flat needs --he LAMBDA to fix the slope")
        t = strong_flat_tensor(args.n, args.r, w, args.he)
    else:
        make = projectively_flat_tensor if args.flat else random_curvature
        t = make(args.n, args.r, args.seed)
        if args.he is not None:
            t = project_to_he(t, w, args.he)
    _emit(canonical_json(tensor_to_dict(t)), args.out)
    return 0


# ---------------------------------------------------------------------------
# reports: verify, check and moments
# ---------------------------------------------------------------------------

def cmd_report(run, args):
    """The one report path, of every verify and check kind and of moments: run(args, report)
    fills the report's rows, and its inputs are then the command's flags with the values the
    run used, but for --out and --symmetrize: a report on symmetrised input is byte for byte
    the one on the Hermitian part written out by hand."""
    report = Report(f"{args.command} {args.kind}" if "kind" in args else args.command)
    run(args, report)
    report.inputs = {key: value for key, value in vars(args).items()
                     if key not in ("command", "kind", "func", "out", "symmetrize")}
    _emit(report.dumps(), args.out)
    return 0 if report.all_passed else 1


def _load_input(args):
    return load_tensor(getattr(args, "in"), symmetrize=args.symmetrize)


def _verify_pushforward(args, report):
    from .projective import pushforward_exact, pushforward_mc
    t = _load_input(args)
    ks = [args.k] if args.k is not None else list(range(0, t.n + 1))
    exact = pushforward_exact(t, ks)  # k past n raises here, before the Chern build
    segre = segre_forms(chern_forms(t, ks[-1]), ks[-1])
    for k, got in zip(ks, exact):
        report.add(f"pushforward_vs_segre_k{k}", (got - segre[k]).max_abs(), args.tol)
    mc_ks = [k for k in ks if k > 0] if args.samples else []  # degree 0 is the unit form
    for k, (mean, err) in zip(mc_ks, mc_ks and pushforward_mc(t, mc_ks, args.samples, args.seed)):
        report.add(f"pushforward_mc_k{k}_stderr_units",
                   stderr_units(mean.a, segre[k].a, err.a), MC_UNITS)


def _verify_identity8(args, report):
    from .projective import identity_max
    t = _load_input(args)
    w = parse_omega(args.omega, t.n)
    lam = _require_he(t, w)  # the paper states identity (8) for Hermite-Einstein input only
    worst = float(identity_max(t, w, [1], args.samples, args.seed, -lam)[0])
    report.add("identity8_residual_max", {"residual": worst, "slope": lam}, args.tol, worst)


def _verify_identity9(args, report):
    from .projective import identity_max
    t = _load_input(args)
    w = parse_omega(args.omega, t.n)
    ks = [args.k] if args.k is not None else list(range(1, t.n + 1))
    for k, res in zip(ks, identity_max(t, w, ks, args.samples, args.seed).tolist()):
        report.add(f"identity9_residual_max_k{k}", res, args.tol)


def _verify_moments(args, report):
    from itertools import combinations_with_replacement

    from .moments import moment_mc, moment_wick
    r, kmax = args.r, args.k
    terms = math.comb(r + kmax, kmax)  # sum over k <= kmax of C(r-1+k, k)
    if terms > MAX_MOMENT_TERMS:
        raise UsageError(f"--r {r} --k {kmax} asks for {terms} diagonal moments, "
                         f"more than {MAX_MOMENT_TERMS}")
    for k in range(0, kmax + 1):
        # E[(|v_1|^2 + ... + |v_r|^2)^k] = 1, expanded by the multinomial theorem
        total = 0
        for combo in combinations_with_replacement(range(1, r + 1), k):
            mult = [combo.count(l) for l in range(1, r + 1)]
            weight = math.factorial(k) // math.prod(map(math.factorial, mult))
            total += weight * moment_wick(r, combo, combo)
        report.add(f"moment_norm_k{k}", float(abs(total - 1)), 0.0, abs(total - 1))
    pairs = [(lam, mu) for lam, mu in MC_MOMENT_PAIRS if max(lam + mu) <= r]
    for (lam, mu), (est, err) in zip(pairs, moment_mc(r, pairs, args.samples, args.seed)):
        report.add(f"moment_mc_l{''.join(map(str, lam))}_m{''.join(map(str, mu))}",
                   stderr_units(est, complex(moment_wick(r, lam, mu)), err), MC_UNITS)


def _check(args, report):
    t = _load_input(args)
    w = parse_omega(args.omega, t.n)
    if args.kind == "he":
        dev, lam = _he_deviation(t, w)
        report.add("hermite_einstein", {"deviation": dev, "slope": lam}, args.tol, dev)
    elif args.kind == "lhe":
        from .projective import gamma_profile
        profiles = gamma_profile(t, w, args.ell, samples=args.samples, seed=args.seed)
        passed = [report.add(f"gamma{k}_spread", prof, args.tol, prof["spread"])
                  for k, prof in enumerate(profiles, start=1)]
        # level: the leading passing degrees, all ell of them iff the largest spread passes
        report.add("lhe_level", {"level": (passed + [False]).index(False), "requested": args.ell},
                   args.tol, max(prof["spread"] for prof in profiles))
    else:
        from . import inequalities as iq
        check, name, measured = {  # kind -> its check, its row, the row's measured number
            "kl": (iq.kl_classical, "kl_nonpositive", lambda res: res["q"]),
            "thm12": (iq.kl_segre, "thm12_margin", lambda res: -res["margin"]),
            "surface": (iq.surface_compare, "surface_eq4_margin",
                        lambda res: (res["c1_sq"] - res["c2"]) - res["eq4_rhs"]),
            "remark41": (iq.projective_flat_bound, "remark41_bound",
                         lambda res: res["lhs"] - res["rhs"])}[args.kind]
        res = check(t, w)
        report.add(name, res, args.tol, measured(res))


def _moments(args, report):
    from .moments import moment_mc, moment_wick
    args.lambdas = args.lambdas or []
    if args.mus is None:
        args.mus = args.lambdas
    exact = moment_wick(args.r, args.lambdas, args.mus)
    report.add("exact", {"value": float(exact),
                         "fraction": f"{exact.numerator}/{exact.denominator}"}, 0.0, 0)
    if args.samples:
        [(est, err)] = moment_mc(args.r, [(args.lambdas, args.mus)], args.samples, args.seed)
        units = stderr_units(est, complex(exact), err)
        report.add("mc_gap_stderr_units",
                   {"estimate_re": float(est.real), "estimate_im": float(est.imag),
                    "stderr": err, "units": units}, MC_UNITS, units)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(
        prog="segreform",
        description="Pointwise curvature toolkit: Chern/Segre forms, sphere moments, "
                    "fiber-integration identities, Kobayashi-Luebke checks.")
    parser.add_argument("--version", action="version", version=__version__)
    seed = _number(int, 0)
    flags = {"--in": dict(dest="in", required=True),
             "--symmetrize": dict(action="store_true",
                                  help="symmetrize instead of rejecting non-hermitian input"),
             "--omega": dict(default="euclidean"),
             "--tol": dict(type=_number(float, 0), default=DEFAULT_TOL),
             "--k": dict(type=_number(int, 0, MAX_DIM)),
             "--r": dict(type=_number(int, 1, MAX_DIM)),
             "--ell": dict(type=_number(int, 1)),
             "--samples": dict(type=_number(int, 2, MAX_SAMPLES)),
             "--seed": dict(type=seed, default=0)}
    tensor = ["--in", "--symmetrize", "--omega", "--tol"]
    kinds = {  # command -> (kind, handler, the flags it reads, defaults other than the table's)
        "verify": [("pushforward", _verify_pushforward,
                    ["--in", "--symmetrize", "--tol", "--k", "--samples", "--seed"], {}),
                   ("identity8", _verify_identity8, tensor + ["--samples", "--seed"],
                    {"samples": 20}),
                   ("identity9", _verify_identity9, tensor + ["--samples", "--seed", "--k"],
                    {"samples": 20}),
                   ("moments", _verify_moments, ["--r", "--k", "--samples", "--seed"],
                    {"r": 3, "k": 3, "samples": 10 ** 6})],
        "check": [(kind, _check, tensor, {})
                  for kind in ("he", "kl", "thm12", "surface", "remark41")]
        + [("lhe", _check, tensor + ["--ell", "--samples", "--seed"], {"ell": 1, "samples": 2000})]}
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a curvature tensor JSON instance")
    g.add_argument("n", type=int)
    g.add_argument("r", type=int)
    g.add_argument("seed", type=seed)
    g.add_argument("--he", type=_number(float), default=None, metavar="LAMBDA",
                   help="project onto the Hermite-Einstein slice with this slope")
    flat = g.add_mutually_exclusive_group()
    flat.add_argument("--flat", action="store_true",
                      help="projectively flat instance (beta tensor Id)")
    flat.add_argument("--strong-flat", action="store_true",
                      help="omega-proportional flat instance (needs --he)")
    g.add_argument("--omega", **flags["--omega"])
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)

    for command, what in (("verify", "verify an identity against its oracle"),
                          ("check", "run an inequality / metric check")):
        by_kind = sub.add_parser(command, help=what).add_subparsers(dest="kind", required=True)
        for kind, run, names, defaults in kinds[command]:
            p = by_kind.add_parser(kind)
            for name in names:
                p.add_argument(name, **flags[name])
            p.add_argument("--out", default=None)
            p.set_defaults(func=functools.partial(cmd_report, run), **defaults)

    m = sub.add_parser("moments", help="evaluate one sphere moment")
    m.add_argument("--r", required=True, **flags["--r"])
    m.add_argument("--lambdas", type=int, nargs="*", default=None)
    m.add_argument("--mus", type=int, nargs="*", default=None)
    m.add_argument("--samples", **flags["--samples"])
    m.add_argument("--seed", **flags["--seed"])
    m.add_argument("--out", default=None)
    m.set_defaults(func=functools.partial(cmd_report, _moments))
    return parser


def main(argv=None):
    """Run one command; bad input is one error JSON line and 2. --help and --version exit 0."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except json.JSONDecodeError as exc:
        return _print_error("parse", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except TensorValidationError as exc:
        return _print_error("validation", str(exc))
    except PreconditionError as exc:
        return _print_error("precondition", str(exc))
    except NonFiniteError as exc:
        return _print_error("non_finite", str(exc))
    except MemoryError as exc:  # an admitted input whose arrays this machine cannot hold
        return _print_error("memory", str(exc) or "out of memory")
    except RecursionError:  # only json recurses without bound: one frame per nesting level
        return _print_error("parse", "invalid JSON: nested too deeply")
    except BrokenPipeError:  # stdout has no reader: nothing to print, run() exits
        raise
    except (OSError, ValueError) as exc:
        return _print_error("usage", str(exc))


def _print_error(kind, message):
    print(canonical_json({"error": {"type": kind, "message": message}}))
    return 2


def run():
    """Process entry: keep the import heap out of every collection, then exit with main's
    code, or silently with 141 (128 + SIGPIPE) once stdout has lost its reader."""
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the exit flushes stdout again: let that write go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    return sys.exit(code)


if __name__ == "__main__":
    run()
