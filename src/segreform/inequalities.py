"""Pointwise Kobayashi-Luebke-type checks for Hermite-Einstein curvature data.

All scalar outputs are ratios of top forms against omega^n (no factorial),
so they read exactly like the displayed inequalities: the classical check
evaluates ((r-1) c_1^2 - 2 r c_2) ^ omega^{n-2} / omega^n, the Segre-form
check compares s_2 ^ omega^{n-2} / omega^n with lambda^2 r(r+1)/(2 n^2).
Equality cases are detected through the flatness predicates: projective
flatness for the classical inequality, and the stronger condition
Theta_hat = (lambda/n) omega tensor Id for the Segre-form one.
"""

from __future__ import annotations

import numpy as np

from .curvature import (CurvatureTensor, Kaehler11, PreconditionError, _he_deviation,
                        chern_forms, direction_form, flatness_detectors,
                        require_kaehler, segre_forms)
from .exterior import top_ratio, wedge, wedge_power
from .kahler import gamma_rel, primitive_split, primitive_square_ratio
from .symfun import elem_sym

DEFAULT_MARGIN_TOL = 1e-10
DEFAULT_EQUALITY_TOL = 1e-8


def _ratio(form, w_form, n, power):
    """Real ratio of form ^ omega^power against omega^n."""
    num = wedge(form, wedge_power(w_form, power))
    val = top_ratio(num, wedge_power(w_form, n))
    if abs(val.imag) > 1e-9 * (1.0 + abs(val)):
        raise ArithmeticError(f"expected a real ratio, got {val}")
    return float(val.real)


def _require_he(t, w, tol):
    dev, lam = _he_deviation(t, w)
    if dev > tol:
        raise PreconditionError(
            f"tensor is not Hermite-Einstein within {tol:g} (deviation {dev:.3e})")
    return lam


def kl_classical(t, w, he_tol=1e-9, eq_tol=DEFAULT_EQUALITY_TOL):
    """Classical pointwise check: ((r-1) c_1^2 - 2r c_2) ^ omega^{n-2} <= 0.

    Requires n >= 2 and Hermite-Einstein input.  Returns {"q", "equality"};
    q is the ratio against omega^n and the equality flag mirrors projective
    flatness.
    """
    require_kaehler(w)
    if t.n < 2:
        raise PreconditionError("classical check needs n >= 2")
    _require_he(t, w, he_tol)
    c = chern_forms(t)
    combo = (t.r - 1) * wedge(c[1], c[1]) - (2 * t.r) * c[2]
    q = _ratio(combo, w.to_form(), t.n, t.n - 2)
    return {"q": q, "equality": abs(q) <= eq_tol
            and flatness_detectors(t, w, eq_tol)["projectively_flat"]}


def kl_segre(t, w, he_tol=1e-9, eq_tol=DEFAULT_EQUALITY_TOL):
    """Segre-form inequality: s_2 ^ omega^{n-2} <= lambda (r+1)/(2n) c_1 ^ omega^{n-1}.

    The right-hand side is evaluated both as written and in the equivalent
    closed form lambda^2 r(r+1)/(2 n^2); the two must agree (trace identity).
    Returns lhs, both rhs evaluations, margin = rhs - lhs, and the equality
    flag (fires exactly on the omega-proportional flat case).
    """
    require_kaehler(w)
    if t.n < 2:
        raise PreconditionError("Segre-form check needs n >= 2")
    lam = _require_he(t, w, he_tol)
    n, r = t.n, t.r
    w_form = w.to_form()
    c = chern_forms(t)
    s = segre_forms(c, 2)
    lhs = _ratio(s[2], w_form, n, n - 2)
    rhs_chern = lam * (r + 1) / (2 * n) * _ratio(c[1], w_form, n, n - 1)
    rhs_slope = lam * lam * r * (r + 1) / (2 * n * n)
    margin = rhs_slope - lhs
    equality = abs(margin) <= eq_tol and flatness_detectors(t, w, eq_tol)["strong_flat"]
    return {"lhs": lhs, "rhs": rhs_slope, "rhs_chern": rhs_chern,
            "margin": margin, "equality": equality}


def kl_segre_margin_primitive(t, w, he_tol=1e-9):
    """Independent rederivation of the Segre-form margin.

    Splits c_1 = eta + f*omega and assembles
    margin = -((r+1)/2r) * [eta^2 ^ omega^{n-2} / omega^n] - (1/2r) * q_classical,
    with the eta^2 term evaluated through relative eigenvalues rather than
    wedge products.  Returns {"margin", "f", "eta_residual"}.
    """
    require_kaehler(w)
    if t.n < 2:
        raise PreconditionError("primitive decomposition path needs n >= 2")
    _require_he(t, w, he_tol)
    n, r = t.n, t.r
    c1 = Kaehler11(np.einsum("jkll->jk", t.c))
    eta, f = primitive_split(c1, w)
    # eta ^ omega^{n-1} must vanish identically
    eta_top = wedge(eta.to_form(), wedge_power(w.to_form(), n - 1))
    eta2 = 2.0 * primitive_square_ratio(eta, w) / (n * (n - 1))
    q = kl_classical(t, w, he_tol)["q"]
    margin = -(r + 1) / (2 * r) * eta2 - q / (2 * r)
    return {"margin": margin, "f": f, "eta_residual": eta_top.max_abs()}


def gamma2_constrained_gap(x, C):
    """Gap of the second symmetric polynomial below its constrained maximum.

    With n = len(x)+1 variables summing to C, evaluates gamma_2 at
    (x_1 + C/n, ..., x_{n-1} + C/n, C - sum(...)) minus gamma_2(C/n,...,C/n)
    directly; the value equals -(sum x)^2/2 - (sum x^2)/2 and is <= 0 with
    equality only at x = 0.
    """
    x = [float(v) for v in x]
    n = len(x) + 1
    if n < 2:
        raise ValueError("need at least one free variable")
    C = float(C)
    point = [xi + C / n for xi in x]
    # last coordinate C - sum(point), written so x = 0 hits C/n exactly
    point.append(C / n - sum(x))
    return elem_sym(point, 2) - elem_sym([C / n] * n, 2)


def gamma2_bound(t, w, v, he_tol=1e-9, eq_tol=DEFAULT_EQUALITY_TOL):
    """Directional bound gamma_2(theta_v/omega) <= (n-1) lambda^2 / (2n).

    Requires Hermite-Einstein input.  Equality at a direction v means all
    relative eigenvalues of theta_v equal lambda/n, i.e. theta_v = (lambda/n) omega.
    """
    lam = _require_he(t, w, he_tol)
    theta = direction_form(t, v)
    g2 = gamma_rel(theta, w, 2)
    bound = (t.n - 1) * lam * lam / (2 * t.n)
    eq = (theta - (lam / t.n) * w).max_abs() <= eq_tol
    return {"gamma2": g2, "bound": bound, "equality": eq}


def projective_flat_bound(t, w, he_tol=1e-9, margin_tol=DEFAULT_MARGIN_TOL,
                   eq_tol=DEFAULT_EQUALITY_TOL):
    """For projectively flat Hermite-Einstein input:
    c_1^2 ^ omega^{n-2} <= (lambda r / n)^2 omega^n."""
    require_kaehler(w)
    if t.n < 2:
        raise PreconditionError("needs n >= 2")
    lam = _require_he(t, w, he_tol)
    if not flatness_detectors(t, w, eq_tol)["projectively_flat"]:
        raise PreconditionError("input is not projectively flat within tolerance")
    c = chern_forms(t)
    lhs = _ratio(wedge(c[1], c[1]), w.to_form(), t.n, t.n - 2)
    rhs = (lam * t.r / t.n) ** 2
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + margin_tol}


def surface_compare(t, w, he_tol=1e-9):
    """Surface-case (n = 2) comparison of the two inequalities, pointwise.

    Evaluates the classical bound (2r/(r-1)) c_2 and the Segre-form bound
    c_2 + lambda^2 r(r+1)/8 on the pointwise ratios against omega^2, reports
    which is smaller, and whether c_2 > ((r-1)/2r) (c_1 . omega)^2 -- the
    condition making the Segre-form bound the stronger one.  The mass
    normalisation of omega is the caller's responsibility; outputs are
    pointwise analogues of the cohomological statement.
    """
    require_kaehler(w)
    if t.n != 2:
        raise PreconditionError("surface comparison is defined for n = 2 only")
    if t.r < 2:
        raise PreconditionError("classical bound needs r >= 2 (division by r - 1)")
    lam = _require_he(t, w, he_tol)
    r = t.r
    w_form = w.to_form()
    c = chern_forms(t)
    c1_sq = _ratio(wedge(c[1], c[1]), w_form, 2, 0)
    c2 = _ratio(c[2], w_form, 2, 0)
    c1_dot_omega = _ratio(c[1], w_form, 2, 1)
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


def dual_endomorphism_tensor(t):
    """Curvature tensor of End(E) = E* tensor E, rank r^2.

    Built as Id_r tensor Theta_hat - Theta_hat^T tensor Id_r on the frame
    e*_a tensor e_b; its first Chern form vanishes and its second equals
    2r c_2 - (r-1) c_1^2.
    """
    r = t.r
    eye = np.eye(r)
    # index pairs (a, b) flattened as a * r + b; transpose acts on the E* slot
    c_dual = (np.einsum("ac,jkbd->jkabcd", eye, t.c)
              - np.einsum("jkca,bd->jkabcd", t.c, eye))
    c_dual = c_dual.reshape(t.n, t.n, r * r, r * r)
    return CurvatureTensor(t.n, t.r * t.r, c_dual)
