"""Pointwise Kobayashi-Luebke-type checks for Hermite-Einstein curvature data.

All scalar outputs are ratios of top forms against omega^n (no factorial),
so they read exactly like the displayed inequalities: the classical check
evaluates ((r-1) c_1^2 - 2 r c_2) ^ omega^{n-2} / omega^n, the Segre-form
check compares s_2 ^ omega^{n-2} / omega^n with lambda^2 r(r+1)/(2 n^2).
Each ratio of a (p,p)-form is one curvature.omega_ratio contraction of its
coefficient array against the minors of omega, over n!/(n-p)!.  Each check
gates on T == lambda * Id within DEFAULT_HE_TOL and reuses that lambda.
Equality cases are detected within DEFAULT_EQUALITY_TOL: projective
flatness for the classical inequality, and Theta_hat equal to
strong_flat_tensor(n, r, omega, lambda) for the Segre-form one.
"""

from __future__ import annotations

import math

import numpy as np

from .curvature import (DEFAULT_EQUALITY_TOL, DEFAULT_HE_TOL, PreconditionError,
                        _he_deviation, chern_forms, is_projectively_flat, omega_ratio,
                        segre_forms, strong_flat_tensor)
from .exterior import wedge


def _ratio(form, w):
    """Real ratio of form ^ omega^(n-p) against omega^n, for a (p,p)-form."""
    val = complex(omega_ratio(form.a, w, form.p)) / math.perm(w.n, form.p)
    if abs(val.imag) > 1e-9 * (1.0 + abs(val)):
        raise ArithmeticError(f"expected a real ratio, got {val}")
    return float(val.real)


def _require_he(t, w):
    dev, lam = _he_deviation(t, w)
    if dev > DEFAULT_HE_TOL:
        raise PreconditionError(
            f"tensor is not Hermite-Einstein within {DEFAULT_HE_TOL:g} (deviation {dev:.3e})")
    return lam


def kl_classical(t, w):
    """Classical pointwise check: ((r-1) c_1^2 - 2r c_2) ^ omega^{n-2} <= 0.

    Requires n >= 2 and Hermite-Einstein input.  Returns {"q", "equality"};
    q is the ratio against omega^n and the equality flag mirrors projective
    flatness.
    """
    if t.n < 2:
        raise PreconditionError("classical check needs n >= 2")
    _require_he(t, w)
    c = chern_forms(t, 2)
    combo = (t.r - 1) * wedge(c[1], c[1]) - (2 * t.r) * c[2]
    q = _ratio(combo, w)
    return {"q": q, "equality": abs(q) <= DEFAULT_EQUALITY_TOL and is_projectively_flat(t)}


def kl_segre(t, w):
    """Segre-form inequality: s_2 ^ omega^{n-2} <= lambda (r+1)/(2n) c_1 ^ omega^{n-1}.

    The right-hand side is evaluated both as written and in the equivalent
    closed form lambda^2 r(r+1)/(2 n^2); the two must agree (trace identity).
    Returns lhs, both rhs evaluations, margin = rhs - lhs, and the equality
    flag (fires exactly on the omega-proportional flat case).
    """
    if t.n < 2:
        raise PreconditionError("Segre-form check needs n >= 2")
    lam = _require_he(t, w)
    n, r = t.n, t.r
    c = chern_forms(t, 2)
    s = segre_forms(c, 2)
    lhs = _ratio(s[2], w)
    rhs_chern = lam * (r + 1) / (2 * n) * _ratio(c[1], w)
    rhs_slope = lam * lam * r * (r + 1) / (2 * n * n)
    margin = rhs_slope - lhs
    equality = abs(margin) <= DEFAULT_EQUALITY_TOL and float(
        np.abs(t.c - strong_flat_tensor(n, r, w, lam).c).max()) <= DEFAULT_EQUALITY_TOL
    return {"lhs": lhs, "rhs": rhs_slope, "rhs_chern": rhs_chern,
            "margin": margin, "equality": equality}


def projective_flat_bound(t, w):
    """For projectively flat Hermite-Einstein input, both sides of
    c_1^2 ^ omega^{n-2} <= (lambda r / n)^2 omega^n, as ratios against omega^n."""
    if t.n < 2:
        raise PreconditionError("needs n >= 2")
    lam = _require_he(t, w)
    if not is_projectively_flat(t):
        raise PreconditionError("input is not projectively flat within tolerance")
    c = chern_forms(t, 1)
    lhs = _ratio(wedge(c[1], c[1]), w)
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
    lam = _require_he(t, w)
    r = t.r
    c = chern_forms(t, 2)
    c1_sq = _ratio(wedge(c[1], c[1]), w)
    c2 = _ratio(c[2], w)
    c1_dot_omega = _ratio(c[1], w)
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
