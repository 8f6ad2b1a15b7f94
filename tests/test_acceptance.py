"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with -s; `pytest -v` shows
the same verdicts through the test names).  Runtimes of the heavy criteria
are tracked so the final test can assert the whole-suite wall-clock budget.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

import segreform as sf

from conftest import validate_report
from oracles import (dual_endomorphism_tensor, gamma2_constrained_gap,
                     kl_segre_margin_primitive, phi_k_scalar, sample_directions)

_timings = {}


def _verdict(number, label, ok):
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def _timed(number):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            _timings[number] = time.perf_counter() - self.t0

    return _Timer()


def test_criterion_1_pushforward_matches_segre_forms():
    tol = 1e-9
    worst = 0.0
    with _timed(1):
        for n in (1, 2, 3):
            for r in (2, 3, 4):
                for seed in range(25):
                    t = sf.random_curvature(n, r, seed)
                    segre = sf.segre_forms(sf.chern_forms(t, t.r), n)
                    for k in range(n + 1):
                        got = sf.pushforward_exact(t, k)
                        worst = max(worst, (got - segre[k]).max_abs())
    ok = worst <= tol and _timings[1] < 60.0
    _verdict(1, f"pushforward==segre (max err {worst:.2e}, {_timings[1]:.1f}s)", ok)


def test_criterion_2_sphere_moments_exact_and_monte_carlo():
    with _timed(2):
        # diagonal moments r <= 4, k <= 3: permanent path == closed form, exactly
        from itertools import combinations_with_replacement

        exact_ok = True
        for r in (1, 2, 3, 4):
            for k in range(0, 4):
                for combo in combinations_with_replacement(range(1, r + 1), k):
                    mult = [combo.count(l) for l in range(1, r + 1)]
                    num = math.factorial(r - 1)
                    for m in mult:
                        num *= math.factorial(m)
                    closed = Fraction(num, math.factorial(r - 1 + k))
                    exact_ok &= sf.moment_wick(r, combo, combo) == closed

        # 20 fixed balanced specs (diagonal and off-diagonal), 1e6 samples, 4 stderr
        balanced = [
            (2, (1,), (1,)), (2, (2,), (2,)), (2, (1, 1), (1, 1)),
            (2, (1, 2), (1, 2)), (2, (1, 2), (2, 1)), (2, (1, 1, 2), (1, 2, 1)),
            (3, (1,), (1,)), (3, (1, 2), (2, 1)), (3, (2, 3), (3, 2)),
            (3, (1, 1), (1, 1)), (3, (1, 2, 3), (3, 2, 1)), (3, (1, 2, 3), (1, 2, 3)),
            (3, (1, 1, 1), (1, 1, 1)), (3, (1, 1, 2), (2, 1, 1)),
            (4, (1,), (1,)), (4, (1, 4), (4, 1)), (4, (2, 2), (2, 2)),
            (4, (1, 2, 3), (3, 2, 1)), (4, (1, 1, 4), (4, 1, 1)), (4, (2, 3, 4), (4, 3, 2)),
        ]
        assert len(balanced) == 20
        mc_ok = True
        for i, (r, lams, mus) in enumerate(balanced):
            [(est, err)] = sf.moment_mc(r, [(lams, mus)], 10**6, seed=7_000 + i)
            mc_ok &= abs(est - complex(sf.moment_wick(r, lams, mus))) <= 4 * err

        unbalanced = [(2, (1,), (2,)), (3, (1, 1), (1, 2)), (4, (1, 2), (3, 4)),
                      (3, (1, 2, 2), (2, 2, 3))]
        zero_ok = True
        for i, (r, lams, mus) in enumerate(unbalanced):
            assert sf.moment_wick(r, lams, mus) == 0
            [(est, err)] = sf.moment_mc(r, [(lams, mus)], 10**6, seed=8_000 + i)
            zero_ok &= abs(est) <= 4 * err

    _verdict(2, "sphere moments: exact closed form + MC within 4 stderr",
             exact_ok and mc_ok and zero_ok)


def test_criterion_3_phi_closed_forms_and_sign_convention():
    with _timed(3):
        rng = np.random.default_rng(333)
        display_ok = True
        count = 0
        while count < 50:
            r = 2 + count % 4  # r in 2..5
            a = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            T = 0.5 * (a + a.conj().T)
            eigs = np.linalg.eigvalsh(T)
            display = 2 / (r * (r + 1)) * (np.trace(T).real ** 2 - sf.elem_sym(eigs, 2))
            display_ok &= abs(phi_k_scalar(T, 2) - display) <= 1e-10
            count += 1

        # sign convention: MC sphere averages of <Tv,v>^k side with the
        # positive closed form, not the displayed minus signs
        sign_ok = True
        for seed in (1, 2):
            r = 3
            a = np.random.default_rng(seed).standard_normal((r, r))
            T = 0.5 * (a + a.T) + np.eye(r)  # positive-leaning for a clear signal
            vs = sample_directions(r, 60_000, seed=40 + seed)
            quad = np.array([np.vdot(v, T @ v).real for v in vs])
            for k in (1, 2, 3):
                mc = float(np.mean(quad**k))
                pos = phi_k_scalar(T, k)
                sign_ok &= abs(mc - pos) < abs(mc - (-pos))
                sign_ok &= abs(mc - pos) <= 6 * float(np.std(quad**k)) / math.sqrt(len(vs))
    _verdict(3, "phi_2 display formula + positive sign convention",
             display_ok and sign_ok)


def test_criterion_4_top_form_identities():
    tol = 1e-10
    worst = 0.0
    he_ok = True
    with _timed(4):
        cases = [(1, 2, 4), (2, 2, 4), (2, 3, 4), (3, 3, 4), (3, 4, 4)]
        assert sum(c[2] for c in cases) == 20  # 20 tensors overall, up to (3,4)
        rng = np.random.default_rng(4444)
        for n, r, count in cases:
            w = sf.Kaehler11(np.eye(n) + 0.3 * _hermitian(rng, n, spd=True))
            for i in range(count):
                t = sf.random_curvature(n, r, seed=10_000 + 10 * n + r + i)
                dirs = sample_directions(r, 20, seed=20_000 + i)
                for k in range(1, n + 1):
                    worst = max(worst, sf.identity_residuals(t, w, dirs, k)[1].max())
                # Hermite-Einstein variant of the rank-degree identity
                t_he = sf.project_to_he(t, w, 0.5)
                he, lam = sf.is_hermite_einstein(t_he, w)
                he_ok &= he
                worst = max(worst, sf.identity_residuals(t_he, w, dirs[:5], 1, -lam)[1].max())
    _verdict(4, f"identities on P(E), residual max {worst:.2e}", he_ok and worst <= tol)


def _hermitian(rng, n, spd=False):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (a + a.conj().T)
    if spd:
        h = h @ h.conj().T / n
    return h


def _he_population():
    pop = []
    for n in (2, 3):
        for r in (2, 3):
            w = sf.Kaehler11.euclidean(n)
            for seed in range(25):
                t = sf.project_to_he(sf.random_curvature(n, r, seed), w, 0.7)
                pop.append((t, w, n, r))
    return pop


def test_criterion_5_classical_inequality():
    with _timed(5):
        nonpos_ok = True
        for t, w, n, r in _he_population():
            nonpos_ok &= sf.kl_classical(t, w)["q"] <= 1e-10

        equality_ok = True
        for seed in (0, 1, 2, 3):
            n, r = (2, 2) if seed % 2 else (3, 2)
            w = sf.Kaehler11.euclidean(n)
            t = sf.projectively_flat_tensor(n, r, seed=seed, w=w, lam=0.9)
            out = sf.kl_classical(t, w)
            equality_ok &= abs(out["q"]) <= 1e-10 and out["equality"]

        strict_ok = True
        for seed in range(10):
            n, r = (2, 2) if seed % 2 == 0 else (3, 3)
            w = sf.Kaehler11.euclidean(n)
            base = sf.projectively_flat_tensor(n, r, seed=seed, w=w, lam=0.7)
            pert = sf.random_curvature(n, r, seed=500 + seed)
            t = sf.project_to_he(sf.CurvatureTensor(n, r, base.c + 0.1 * pert.c), w, 0.7)
            strict_ok &= sf.kl_classical(t, w)["q"] < -1e-4
    _verdict(5, "classical inequality: nonpositive, equality detector, strictness",
             nonpos_ok and equality_ok and strict_ok)


def test_criterion_6_segre_form_inequality():
    with _timed(6):
        margin_ok = rhs_ok = True
        for t, w, n, r in _he_population():
            out = sf.kl_segre(t, w)
            margin_ok &= out["margin"] >= -1e-10
            rhs_ok &= abs(out["rhs"] - out["rhs_chern"]) <= 1e-10

        equality_ok = True
        for (n, r, lam) in ((2, 2, 0.8), (3, 3, -0.5)):
            w = sf.Kaehler11.euclidean(n)
            out = sf.kl_segre(sf.strong_flat_tensor(n, r, w, lam), w)
            equality_ok &= abs(out["margin"]) <= 1e-10 and out["equality"]

        dual_ok = True
        for (n, r, seed) in ((2, 2, 0), (2, 3, 1), (3, 2, 2)):
            w = sf.Kaehler11.euclidean(n)
            t = sf.project_to_he(sf.random_curvature(n, r, seed), w, 0.6)
            q = sf.kl_classical(t, w)["q"]
            lhs_dual = sf.kl_segre(dual_endomorphism_tensor(t), w)["lhs"]
            dual_ok &= abs(q - lhs_dual) <= 1e-9
    _verdict(6, "Segre-form inequality: margin, rhs agreement, equality, dual trick",
             margin_ok and rhs_ok and equality_ok and dual_ok)


def test_criterion_7_symmetric_polynomial_gap():
    with _timed(7):
        rng = np.random.default_rng(777)
        identity_ok = True
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            x = rng.standard_normal(n - 1)
            C = float(rng.standard_normal() * 3)
            gap = gamma2_constrained_gap(x, C)
            expect = -0.5 * float(x.sum()) ** 2 - 0.5 * float((x**2).sum())
            identity_ok &= abs(gap - expect) <= 1e-12 * (1 + abs(expect))

        max_ok = True
        for n in range(2, 7):
            # gap vanishes identically at x = 0
            max_ok &= gamma2_constrained_gap([0.0] * (n - 1), 1.234) == 0.0
            # maximum value formula, exact where C/n is exactly representable
            for mult in (1.0, 2.0, 0.5):
                C = mult * n
                max_ok &= sf.elem_sym([C / n] * n, 2) == math.comb(n, 2) * (C / n) ** 2
    _verdict(7, "constrained gamma_2 gap identity and maximum", identity_ok and max_ok)


def test_criterion_8_primitive_decomposition_path():
    with _timed(8):
        ok = True
        for (n, r, seed, lam) in ((2, 2, 0, 0.7), (2, 3, 1, -0.4), (3, 2, 2, 1.2),
                                  (3, 3, 3, 0.05)):
            w = sf.Kaehler11.euclidean(n)
            t = sf.project_to_he(sf.random_curvature(n, r, seed), w, lam)
            alt = kl_segre_margin_primitive(t, w)
            ok &= alt["eta_residual"] <= 1e-10
            ok &= abs(alt["f"] - lam * r / n) <= 1e-10
            ok &= abs(alt["margin"] - sf.kl_segre(t, w)["margin"]) <= 1e-9
    _verdict(8, "primitive decomposition rederivation", ok)


def test_criterion_9_reports_exit_codes_and_runtime(tmp_path, capsys):
    from segreform.cli import main

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    with _timed(9):
        path = tmp_path / "t.json"
        code, _ = run("gen", "2", "2", "42", "--he", "1.0", "--out", str(path))
        schema_ok = code == 0

        code, out = run("verify", "pushforward", "--in", str(path), "--tol", "1e-9")
        report = json.loads(out)
        validate_report(report)
        schema_ok &= code == 0 and all(r["pass"] for r in report["results"])

        code, out = run("check", "thm12", "--in", str(path))
        validate_report(json.loads(out))
        schema_ok &= code == 0

        # exit 1: a mathematically failing check (generic instance is not 2-HE)
        code, out = run("check", "lhe", "--in", str(path), "--ell", "2",
                        "--samples", "100", "--tol", "1e-9")
        validate_report(json.loads(out))
        exit_ok = code == 1

        # exit 2: precondition and parse errors
        raw = tmp_path / "raw.json"
        run("gen", "2", "2", "1", "--out", str(raw))
        code, _ = run("check", "kl", "--in", str(raw))
        exit_ok &= code == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _ = run("verify", "pushforward", "--in", str(bad))
        exit_ok &= code == 2

    # the tracked criteria dominate the suite; leave generous headroom
    elapsed = sum(_timings.values())
    runtime_ok = elapsed < 240.0
    _verdict(9, f"reports, exit codes, runtime ({elapsed:.1f}s tracked)",
             schema_ok and exit_ok and runtime_ok)
