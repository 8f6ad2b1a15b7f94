"""Pointwise Kobayashi-Luebke-type checks for Hermite-Einstein curvature data.

All scalar outputs are ratios of top forms against omega^n (no factorial),
so they read exactly like the displayed inequalities: the classical check
evaluates ((r-1) c_1^2 - 2 r c_2) ^ omega^{n-2} / omega^n, the Segre-form
check compares s_2 ^ omega^{n-2} / omega^n with lambda^2 r(r+1)/(2 n^2).
Every ratio comes from one trace contraction, _degree_two: for real (1,1)-forms with
coefficient matrices A, B and W = omega^-1, alpha ^ beta ^ omega^{n-2}/(n-2)! =
[tr(WA) tr(WB) - tr(WAWB)] omega^n/n!; c_2, s_2 follow from c_1^2 and p_2 = tr Theta_hat^2.
All four checks pass one gate, _gate: n >= 2, T == lambda * Id within DEFAULT_HE_TOL,
then _degree_two; each reuses that lambda.  Equality flags are the structural tests
alone, coefficientwise within DEFAULT_EQUALITY_TOL: projective flatness for the
classical inequality, and Theta_hat equal to strong_flat_tensor(n, r, omega, lambda)
for the Segre one.
"""

from __future__ import annotations

import numpy as np

from .curvature import (DEFAULT_EQUALITY_TOL, PreconditionError, _require_he,
                        is_projectively_flat, strong_flat_tensor)


def _degree_two(t, w):
    """Ratios against omega^n of c_1^2 ^ omega^{n-2}, p_2 ^ omega^{n-2} and c_1 ^ omega^{n-1},
    p_2 = tr Theta_hat^2 = c_1^2 - 2 c_2: P[a, b] = W c[:, :, a, b] holds W times the coefficients
    of Theta_hat[b, a], C_1 = sum_a P[a, a] those of c_1.  Imaginary parts are rounding."""
    P = np.einsum("ij,jkab->abik", np.linalg.inv(w.g), t.c)
    C1, tr = np.einsum("aaik->ik", P), np.einsum("abii->ab", P)
    tr_c1, pairs = np.trace(C1), t.n * (t.n - 1)
    c1_sq = float((tr_c1 * tr_c1 - np.einsum("ik,ki->", C1, C1)).real) / pairs
    p2 = float((np.einsum("ab,ba->", tr, tr) - np.einsum("abik,baki->", P, P)).real) / pairs
    return c1_sq, p2, float(tr_c1.real) / t.n


def _gate(t, w, check):
    """(lambda, c_1^2, p_2, c_1 . omega) of _degree_two on Hermite-Einstein input with n >= 2;
    a PreconditionError naming the check for any other."""
    if t.n < 2:
        raise PreconditionError(f"{check} needs n >= 2")
    return (_require_he(t, w), *_degree_two(t, w))


def kl_classical(t, w):
    """Classical pointwise check: ((r-1) c_1^2 - 2r c_2) ^ omega^{n-2} <= 0.

    Requires n >= 2 and Hermite-Einstein input.  Returns {"q", "equality"};
    q is the ratio against omega^n and the equality flag mirrors projective
    flatness.
    """
    _, c1_sq, p2, _ = _gate(t, w, "classical check")
    q = t.r * p2 - c1_sq  # (r-1) c_1^2 - 2r c_2
    return {"q": q, "equality": is_projectively_flat(t)}


def kl_segre(t, w):
    """Segre-form inequality: s_2 ^ omega^{n-2} <= lambda (r+1)/(2n) c_1 ^ omega^{n-1}.

    The right-hand side is evaluated both as written (rhs_chern) and in the
    closed form lambda^2 r(r+1)/(2 n^2) (rhs); they agree by the trace identity,
    which tests/test_inequalities.py checks.  Returns lhs, both, margin = rhs - lhs,
    and equality: Theta_hat == strong_flat_tensor(n, r, omega, lambda).
    """
    lam, c1_sq, p2, c1 = _gate(t, w, "Segre-form check")
    n, r = t.n, t.r
    lhs = c1_sq - (c1_sq - p2) / 2  # s_2 = c_1^2 - c_2
    rhs_chern = lam * (r + 1) / (2 * n) * c1
    rhs_slope = lam * lam * r * (r + 1) / (2 * n * n)
    margin = rhs_slope - lhs
    equality = float(np.abs(t.c - strong_flat_tensor(n, r, w, lam).c).max()) <= DEFAULT_EQUALITY_TOL
    return {"lhs": lhs, "rhs": rhs_slope, "rhs_chern": rhs_chern,
            "margin": margin, "equality": equality}


def projective_flat_bound(t, w):
    """For projectively flat Hermite-Einstein input, both sides of
    c_1^2 ^ omega^{n-2} <= (lambda r / n)^2 omega^n, as ratios against omega^n."""
    lam, lhs, _, _ = _gate(t, w, "Remark 4.1 bound")
    if not is_projectively_flat(t):
        raise PreconditionError("input is not projectively flat within tolerance")
    rhs = (lam * t.r / t.n) ** 2
    return {"lhs": lhs, "rhs": rhs}


def surface_compare(t, w):
    """Surface-case (n = 2) comparison of the two inequalities, pointwise.

    Evaluates the classical bound (2r/(r-1)) c_2 and the Segre-form bound
    c_2 + lambda^2 r(r+1)/8 on the pointwise ratios against omega^2, reports
    which is smaller, and whether c_2 > ((r-1)/2r) (c_1 . omega)^2 -- the
    condition making the Segre-form bound the stronger one.  The mass
    normalisation of omega is the caller's responsibility; outputs are
    pointwise analogues of the cohomological statement.
    """
    if t.n != 2:
        raise PreconditionError("surface comparison is defined for n = 2 only")
    if t.r < 2:
        raise PreconditionError("classical bound needs r >= 2 (division by r - 1)")
    lam, c1_sq, p2, c1_dot_omega = _gate(t, w, "surface comparison")
    r = t.r
    c2 = (c1_sq - p2) / 2
    classical_rhs = 2 * r / (r - 1) * c2
    eq4_rhs = c2 + lam * lam * r * (r + 1) / 8
    if abs(eq4_rhs - classical_rhs) <= 1e-12:
        stronger = "tie"
    else:
        stronger = "eq4" if eq4_rhs < classical_rhs else "classical"
    condition11 = c2 > (r - 1) / (2 * r) * c1_dot_omega**2
    return {"c1_sq": c1_sq, "c2": c2, "classical_rhs": classical_rhs,
            "eq4_rhs": eq4_rhs, "stronger": stronger, "condition11": condition11,
            "note": "pointwise analogue; omega mass normalisation is the caller's responsibility"}
