"""Geometry of the projectivized bundle over a single point.

At a fiber direction v the first Chern form of the dual tautological bundle
splits into a vertical Fubini-Study block and minus the horizontal
directional (1,1)-form of the curvature.  The splitting is realised on
C^(n+r-1): horizontal coordinates 1..n, vertical coordinates n+1..n+r-1.
Formulas only hold at the centre of an adapted chart, so xi_at(t, v) first
rotates the curvature tensor by a unitary sending v to the last frame vector.

The vertical block is normalised so its (r-1)-st power carries unit fiber
mass; with that choice the pushforward of the (r-1+k)-th power of the
combined form reproduces the k-th Segre form, which is what
pushforward_segre verifies: exactly through the moment expansion, or by
Monte Carlo, averaging over sampled directions the k x k minors of the
matrix of theta_v, which fill the coefficient array of theta_v^k.  The
gamma_k(theta_v/omega) profiles of every degree up to l come from one draw
of directions and one batched eigensolve.
"""

from __future__ import annotations

import math

import numpy as np

from .curvature import (CurvatureTensor, Kaehler11, PreconditionError, direction_form,
                        direction_matrices, is_hermite_einstein, require_kaehler)
from .exterior import Form, block_embed, factorial_power, one_one_power, wedge
from .kahler import gamma_rel, relative_eigenvalues
from .moments import _MC_CHUNK, phi_k_tensor, sample_directions
from .symfun import elem_sym

TWO_PI = 2.0 * math.pi


def unitary_sending_last_to(v):
    """A unitary matrix whose last column is v/|v| (deterministic in v)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("direction must be nonzero")
    v = v / nrm
    r = v.size
    if r == 1:
        return v.reshape(1, 1)
    # complete v to an orthonormal basis; drop the standard vector most
    # parallel to v so the column set stays independent
    j0 = int(np.argmax(np.abs(v)))
    cols = [v] + [np.eye(r, dtype=complex)[:, j] for j in range(r) if j != j0]
    q, _ = np.linalg.qr(np.column_stack(cols))
    q[:, 0] *= np.vdot(q[:, 0], v)  # undo the QR phase so column 0 is exactly v
    return np.column_stack([q[:, 1:], q[:, 0]])


def rotate_tensor(t, U):
    """Curvature coefficients in the rotated frame e~_lam = sum_rho U[rho,lam] e_rho."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (t.r, t.r):
        raise ValueError(f"unitary has shape {U.shape}, expected {(t.r, t.r)}")
    c = np.einsum("jktr,tl,rm->jklm", t.c, U, U.conj())
    return CurvatureTensor(t.n, t.r, c)


def xi_at(t, v):
    """The combined (1,1)-form at the fiber direction v, on C^(n+r-1).

    The tensor is first rotated by unitary_sending_last_to(v), so v is the
    last frame vector.  Vertical block: the Fubini-Study value
    (1/2pi) * sum_l i dxi_l ^ dxibar_l (unit fiber mass for its top vertical
    power); horizontal block: minus the directional curvature form of the
    rotated tensor.  A direction of the wrong length or a zero direction
    raises ValueError.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape != (t.r,):
        raise ValueError(f"direction has length {v.size}, expected {t.r}")
    m = t.n + t.r - 1
    vertical = Kaehler11(np.eye(t.r - 1) / TWO_PI)
    e_last = np.zeros(t.r, dtype=complex)
    e_last[-1] = 1.0
    horizontal = direction_form(rotate_tensor(t, unitary_sending_last_to(v)), e_last)
    return (block_embed(vertical.to_form(), t.n, m)
            - block_embed(horizontal.to_form(), 0, m))


def pushforward_segre(t, k, method="exact", samples=100_000, seed=0):
    """Fiber integration of the (r-1+k)-th power of the combined form.

    Returns (-1)^k * binom(r-1+k, k) * E[theta_v ^ ... ^ theta_v] over fiber
    directions v, the k-th Segre form: exactly through the moment expansion
    (method="exact"), or (method="mc") as the (mean, stderr) pair of forms of
    the minors giving theta_v^k over N sample_directions, whose stderr is
    sqrt(sum |x - mean|^2 / (N-1) / N) per coefficient (0 for N = 1).
    """
    if not 0 <= k <= t.n:
        raise ValueError(f"k={k} out of range [0, {t.n}]")
    factor = (-1.0) ** k * math.comb(t.r - 1 + k, k)
    if method == "exact":
        return factor * phi_k_tensor(t, k)
    if method != "mc":
        raise ValueError(f"unknown method {method!r}")
    if k == 0:
        return Form.constant(t.n), Form.zero(t.n, 0, 0)
    V = sample_directions(t.r, int(samples), seed)
    total = total_sq = 0.0
    for start in range(0, len(V), _MC_CHUNK):
        x = one_one_power(direction_matrices(t, V[start:start + _MC_CHUNK]), k)
        total = total + x.sum(axis=0)
        total_sq = total_sq + (x.real**2 + x.imag**2).sum(axis=0)
    mean, mean_sq = total / len(V), total_sq / len(V)
    var = np.maximum(mean_sq - (mean.real**2 + mean.imag**2), 0.0) * len(V) / max(len(V) - 1, 1)
    return Form(t.n, k, k, factor * mean), Form(t.n, k, k, abs(factor) * np.sqrt(var / len(V)))


def _top_form_residual(t, w, v, k, scalar):
    """Max coefficient of Xi^{r-1+k}/(r-1+k)! ^ omega^{n-k}/(n-k)! minus
    scalar * Xi^{r-1}/(r-1)! ^ omega^n/n!, top forms on C^(n+r-1) at v."""
    require_kaehler(w)
    if w.n != t.n:
        raise ValueError("omega dimension differs from base dimension")
    xi = xi_at(t, v)
    omega_h = block_embed(w.to_form(), 0, t.n + t.r - 1)
    lhs = wedge(factorial_power(xi, t.r - 1 + k), factorial_power(omega_h, t.n - k))
    rhs = scalar * wedge(factorial_power(xi, t.r - 1), factorial_power(omega_h, t.n))
    return (lhs - rhs).max_abs()


def verify_power_identity(t, w, v, k):
    """Residual of the degree-k top-form identity at a fiber direction.

    Checks Xi^{r-1+k}/(r-1+k)! ^ omega^{n-k}/(n-k)! against
    (-1)^k gamma_k(theta_v/omega) Xi^{r-1}/(r-1)! ^ omega^n/n! as top forms
    on C^(n+r-1); returns the max coefficient residual of the difference.
    """
    if not 1 <= k <= t.n:
        raise ValueError(f"k={k} out of range [1, {t.n}]")
    gam = gamma_rel(direction_form(t, v), w, k)
    return _top_form_residual(t, w, v, k, (-1.0) ** k * gam)


def verify_slope_identity(t, w, v, tol=1e-9):
    """Residual of the Hermite-Einstein form of the rank-degree identity.

    Requires t Hermite-Einstein w.r.t. omega within tol; the check then uses
    the constant slope: residual of Xi^r/r! ^ omega^{n-1}/(n-1)! plus
    lambda * Xi^{r-1}/(r-1)! ^ omega^n/n!.
    """
    he, lam = is_hermite_einstein(t, w, tol)
    if not he:
        raise PreconditionError(
            "tensor is not Hermite-Einstein within tolerance; "
            "use verify_power_identity(t, w, v, 1) for arbitrary tensors")
    return _top_form_residual(t, w, v, 1, -lam)


def gamma_profile(t, w, ell, samples=2000, seed=0):
    """Distributions of gamma_k(theta_v/omega), k = 1..ell, over sampled fiber directions.

    Returns one {"min", "max", "mean", "spread"} per degree k, all from the
    same directions and one batched eigensolve; a spread ~ 0 for all degrees
    up to l is the pointwise l-Hermite-Einstein diagnostic (degree 1
    recovers the Hermite-Einstein condition itself).
    """
    require_kaehler(w)
    G = direction_matrices(t, sample_directions(t.r, int(samples), seed))
    eigs = relative_eigenvalues(G, w)
    profiles = []
    for k in range(1, ell + 1):
        vals = elem_sym(eigs, k)
        profiles.append({"min": float(vals.min()), "max": float(vals.max()),
                         "mean": float(vals.mean()), "spread": float(vals.max() - vals.min())})
    return profiles
