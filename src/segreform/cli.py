"""Command-line front end: instance generation, verification runs, checks.

Subcommands
-----------
gen        write a curvature-tensor JSON instance (random / projected / flat)
verify     run an identity verification (pushforward | identity8 | identity9 | moments)
check      run an inequality or metric check (he | kl | thm12 | surface | remark41 | lhe)
moments    evaluate a single sphere moment exactly, optionally against Monte Carlo

Every command emits a canonical-JSON report whose result rows carry explicit
tolerances.  Exit codes: 0 when every reported result passes, 1 on a
mathematical failure, 2 on usage, parse, or precondition errors.  The
tolerance of verify/check is --tol, by default 1e-9.
"""

from __future__ import annotations

import argparse
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
from .curvature import (MAX_DIM, MAX_TOP_POWER, Kaehler11, PreconditionError,
                        TensorValidationError, _check_top_power, _he_deviation, _is_number,
                        check_dims, chern_forms, is_hermite_einstein, load_tensor,
                        project_to_he, projectively_flat_tensor, random_curvature,
                        segre_forms, strong_flat_tensor, tensor_to_dict)
from .report import NonFiniteError, Report, canonical_json

DEFAULT_TOL = 1e-9
MAX_MOMENT_TERMS = 100_000  # diagonal moments summed by one verify moments report
MAX_OMEGA_CONDITION = 1e12  # bound on the eigenvalue ratio of --omega: the eigensolves and
                            # contractions against omega lose about log10(ratio) of 16 digits
MC_MOMENT_PAIRS = (((1,), (1,)), ((1, 2), (2, 1)), ((1, 1), (1, 1)), ((1,), (2,)),
                   ((1, 2, 3), (3, 2, 1)))  # (lambdas, mus) of verify moments' MC rows
NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)


class UsageError(ValueError):
    pass


def _tolerance(tol):
    """The --tol value, else DEFAULT_TOL; it must be finite and >= 0."""
    if tol is None:
        return DEFAULT_TOL
    if not (math.isfinite(tol) and tol >= 0):
        raise UsageError(f"tolerance must be a finite number >= 0, got {tol!r}")
    return tol


def parse_omega(spec, n):
    """Parse --omega: 'euclidean', inline JSON matrix, or @path to a JSON file.

    Matrix entries are numbers or [re, im] pairs; the result must be
    Hermitian positive definite, with max|g|^n <= MAX_TOP_POWER, a ratio of
    largest to smallest eigenvalue <= MAX_OMEGA_CONDITION and a smallest
    eigenvalue e with 1/e^n <= MAX_TOP_POWER.
    """
    if spec is None or spec == "euclidean":
        return Kaehler11.euclidean(n)
    text = spec
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    rows = json.loads(text)
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
        w = Kaehler11(mat)
    except ValueError as exc:  # not Hermitian, or not positive definite
        raise UsageError(str(exc)) from exc
    eigs = w.eigenvalues
    big = float(np.abs(w.g).max())
    if big > MAX_TOP_POWER ** (1 / n):
        raise UsageError(f"largest omega entry modulus {big:.3e} exceeds "
                         f"{MAX_TOP_POWER:.0e}^(1/{n}): omega^n would overflow")
    if eigs[-1] > MAX_OMEGA_CONDITION * eigs[0]:
        raise UsageError(f"omega eigenvalues span a ratio of {eigs[-1] / eigs[0]:.3e}, "
                         f"more than {MAX_OMEGA_CONDITION:.0e}")
    if eigs[0] < MAX_TOP_POWER ** (-1 / n):
        raise UsageError(f"smallest omega eigenvalue {eigs[0]:.3e} is below "
                         f"{MAX_TOP_POWER:.0e}^(-1/{n}): omega^n would underflow")
    return w


def _int_in(low, high=None):
    """An argparse type: an integer, rejected (exit 2) below low or above high."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _mc_samples(samples, default=None):
    """--samples of a Monte Carlo statistic, or the default: one direction has no spread."""
    if samples == 1:
        raise UsageError("--samples must be >= 2: a standard error or spread needs two directions")
    return samples or default


def _finish_report(report, out_path):
    _emit(report.dumps(), out_path)
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args):
    check_dims(args.n, args.r)
    if args.he is not None and not math.isfinite(args.he):
        raise UsageError(f"--he must be a finite slope, got {args.he!r}")
    w = parse_omega(args.omega, args.n)
    if args.strong_flat:
        if args.he is None:
            raise UsageError("--strong-flat needs --he LAMBDA to fix the slope")
        t = strong_flat_tensor(args.n, args.r, w, args.he)
    elif args.flat:
        t = projectively_flat_tensor(args.n, args.r, args.seed, w=w, lam=args.he)
    else:
        t = random_curvature(args.n, args.r, args.seed)
        if args.he is not None:
            t = project_to_he(t, w, args.he)
    _check_top_power(t.c)  # the bound every reader of the instance applies
    _emit(canonical_json(tensor_to_dict(t)), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _load_input(args):
    if not args.infile:
        raise UsageError("this command needs --in PATH")
    return load_tensor(args.infile, symmetrize=args.symmetrize)


def _verify_pushforward(args, report):
    from .projective import pushforward_segre
    samples = _mc_samples(args.samples)
    t = _load_input(args)
    tol = args.tol
    ks = [args.k] if args.k is not None else list(range(0, t.n + 1))
    segre = segre_forms(chern_forms(t), t.n)
    for k in ks:
        got = pushforward_segre(t, k, method="exact")
        res = (got - segre[k]).max_abs()
        report.add(f"pushforward_vs_segre_k{k}", res, tol, res <= tol)
    if samples:
        # Monte Carlo: worst coefficient deviation from the Segre form in stderr units
        for k in ks:
            if k == 0:
                continue
            mean, err = pushforward_segre(t, k, method="mc", samples=samples, seed=args.seed)
            worst = float((np.abs((mean - segre[k]).a) / (np.abs(err.a) + 1e-12)).max())
            report.add(f"pushforward_mc_k{k}_stderr_units", worst, 4.0, worst <= 4.0)


def _verify_identity8(args, report):
    from . import moments, projective
    t = _load_input(args)
    w = parse_omega(args.omega, t.n)
    he, lam = is_hermite_einstein(t, w)
    worst = max(float(projective.identity_residuals(t, w, V, 1, -lam if he else None)[1].max())
                for V in moments.direction_chunks(t.r, args.samples or 20, args.seed))
    if he:
        report.add("identity8_residual_max", {"residual": worst, "slope": lam},
                   args.tol, worst <= args.tol)
    else:
        report.add("identity8_general_residual_max", worst, args.tol, worst <= args.tol)


def _verify_identity9(args, report):
    from . import moments, projective
    t = _load_input(args)
    w = parse_omega(args.omega, t.n)
    ks = [args.k] if args.k is not None else list(range(1, t.n + 1))
    worst = np.zeros(len(ks))
    for V in moments.direction_chunks(t.r, args.samples or 20, args.seed):
        worst = np.maximum(worst, projective.identity_residuals(t, w, V, ks)[1].max(axis=1))
    for k, res in zip(ks, worst.tolist()):
        report.add(f"identity9_residual_max_k{k}", res, args.tol, res <= args.tol)


def _verify_moments(args, report):
    from itertools import combinations_with_replacement

    from .moments import moment_mc, moment_wick
    r = args.r or 3
    kmax = args.k if args.k is not None else 3
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
        report.add(f"moment_norm_k{k}", float(abs(total - 1)), 0.0, total == 1)
    samples = _mc_samples(args.samples, 1_000_000)
    pairs = [(lam, mu) for lam, mu in MC_MOMENT_PAIRS if max(lam + mu) <= r]
    for (lam, mu), (est, err) in zip(pairs, moment_mc(r, pairs, samples, args.seed)):
        units = abs(est - complex(moment_wick(r, lam, mu))) / (err + 1e-15)
        report.add(f"moment_mc_l{''.join(map(str, lam))}_m{''.join(map(str, mu))}",
                   units, 4.0, units <= 4.0)


def cmd_verify(args):
    report = Report("verify " + args.kind,
                    {"in": args.infile, "k": args.k, "samples": args.samples,
                     "seed": args.seed, "tol": args.tol,
                     "omega": args.omega or "euclidean", "r": args.r})
    {"pushforward": _verify_pushforward,
     "identity8": _verify_identity8,
     "identity9": _verify_identity9,
     "moments": _verify_moments}[args.kind](args, report)
    return _finish_report(report, args.out)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args):
    t = _load_input(args)
    w = parse_omega(args.omega, t.n)
    report = Report("check " + args.kind,
                    {"in": args.infile, "tol": args.tol,
                     "omega": args.omega or "euclidean", "ell": args.ell,
                     "samples": args.samples, "seed": args.seed})
    if args.kind == "he":
        dev, lam = _he_deviation(t, w)
        report.add("hermite_einstein", {"deviation": dev, "slope": lam},
                   args.tol, dev <= args.tol)
    elif args.kind == "kl":
        from .inequalities import kl_classical
        res = kl_classical(t, w)
        report.add("kl_nonpositive", res, args.tol, res["q"] <= args.tol)
    elif args.kind == "thm12":
        from .inequalities import kl_segre
        res = kl_segre(t, w)
        report.add("thm12_margin", res, args.tol, res["margin"] >= -args.tol)
        gap = abs(res["rhs"] - res["rhs_chern"])
        report.add("thm12_rhs_agreement", gap, 1e-10, gap <= 1e-10)
    elif args.kind == "surface":
        from .inequalities import surface_compare
        res = surface_compare(t, w)
        s2_ratio = res["c1_sq"] - res["c2"]
        report.add("surface_eq4_margin", res,
                   args.tol, res["eq4_rhs"] - s2_ratio >= -args.tol)
    elif args.kind == "remark41":
        from .inequalities import projective_flat_bound
        res = projective_flat_bound(t, w, args.tol)
        report.add("remark41_bound", res, args.tol, res["holds"])
    elif args.kind == "lhe":
        from .projective import gamma_profile
        ell = min(args.ell or 1, t.n)
        level, ok = 0, True
        profiles = gamma_profile(t, w, ell, samples=_mc_samples(args.samples, 2000),
                                 seed=args.seed)
        for k, prof in enumerate(profiles, start=1):
            passed = prof["spread"] <= args.tol
            if ok and passed:
                level = k
            ok = ok and passed
            report.add(f"gamma{k}_spread", prof, args.tol, passed)
        report.add("lhe_level", {"level": level, "requested": ell}, args.tol,
                   level >= ell)
    return _finish_report(report, args.out)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def cmd_moments(args):
    from .moments import moment_mc, moment_wick
    samples = _mc_samples(args.samples)
    lambdas = args.lambdas or []
    mus = args.mus if args.mus is not None else lambdas
    if len(lambdas) != len(mus):
        raise UsageError("lambdas and mus must have equal length")
    for i in lambdas + mus:
        if not 1 <= i <= args.r:
            raise UsageError(f"index {i} out of range [1, {args.r}]")
    report = Report("moments",
                    {"r": args.r, "lambdas": lambdas, "mus": mus,
                     "samples": args.samples, "seed": args.seed})
    exact = moment_wick(args.r, lambdas, mus)
    report.add("exact",
               {"value": float(exact),
                "fraction": f"{exact.numerator}/{exact.denominator}"},
               0.0, True)
    if samples:
        [(est, err)] = moment_mc(args.r, [(lambdas, mus)], samples, args.seed)
        units = abs(est - complex(exact)) / (err + 1e-15)
        report.add("mc_gap_stderr_units",
                   {"estimate_re": float(est.real), "estimate_im": float(est.imag),
                    "stderr": err, "units": units},
                   4.0, units <= 4.0)
    return _finish_report(report, args.out)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="segreform",
        description="Pointwise curvature toolkit: Chern/Segre forms, sphere moments, "
                    "fiber-integration identities, Kobayashi-Luebke checks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a curvature tensor JSON instance")
    g.add_argument("n", type=int)
    g.add_argument("r", type=int)
    g.add_argument("seed", type=int)
    g.add_argument("--he", type=float, default=None, metavar="LAMBDA",
                   help="project onto the Hermite-Einstein slice with this slope")
    flat = g.add_mutually_exclusive_group()
    flat.add_argument("--flat", action="store_true",
                      help="projectively flat instance (beta tensor Id)")
    flat.add_argument("--strong-flat", action="store_true",
                      help="omega-proportional flat instance (needs --he)")
    g.add_argument("--omega", default=None)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", help="verify an identity against its oracle")
    v.add_argument("kind", choices=["pushforward", "identity8", "identity9", "moments"])
    v.add_argument("--in", dest="infile", default=None)
    v.add_argument("--k", type=_int_in(0), default=None)
    v.add_argument("--r", type=_int_in(1, MAX_DIM), default=None, help="dimension for kind=moments")
    v.add_argument("--samples", type=_int_in(1), default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--omega", default=None)
    v.add_argument("--symmetrize", action="store_true",
                   help="symmetrize instead of rejecting non-hermitian input")
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("check", help="run an inequality / metric check")
    c.add_argument("kind", choices=["he", "kl", "thm12", "surface", "remark41", "lhe"])
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--omega", default=None)
    c.add_argument("--tol", type=float, default=None)
    c.add_argument("--ell", type=_int_in(1), default=None, help="level for kind=lhe")
    c.add_argument("--samples", type=_int_in(1), default=None)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--symmetrize", action="store_true")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_check)

    m = sub.add_parser("moments", help="evaluate one sphere moment")
    m.add_argument("--r", type=_int_in(1, MAX_DIM), required=True)
    m.add_argument("--lambdas", type=int, nargs="*", default=None)
    m.add_argument("--mus", type=int, nargs="*", default=None)
    m.add_argument("--samples", type=_int_in(1), default=None)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", default=None)
    m.set_defaults(func=cmd_moments)
    for p in (g, v, c, m):  # argparse takes -1 and -.5 for numbers, but -1e1 or -inf for flags
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "tol"):
            args.tol = _tolerance(args.tol)
        return args.func(args)
    except json.JSONDecodeError as exc:
        return _print_error("parse", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except TensorValidationError as exc:
        return _print_error("validation", str(exc))
    except PreconditionError as exc:
        return _print_error("precondition", str(exc))
    except NonFiniteError as exc:
        return _print_error("non_finite", str(exc))
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
