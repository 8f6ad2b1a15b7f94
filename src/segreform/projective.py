"""Geometry of the projectivized bundle over a single point.

At a fiber direction v the first Chern form Xi of the dual tautological
bundle splits, on C^(n+r-1), into a vertical Fubini-Study block on the r-1
fiber coordinates and minus the directional (1,1)-form theta_v on the n base
coordinates, where omega lives.  The vertical block is normalised so its
(r-1)-st power carries unit fiber mass; then the pushforward of the
(r-1+k)-th power of Xi is the k-th Segre form: pushforward_exact integrates
it through the moment expansion, pushforward_mc by Monte Carlo over the
k x k minors of the matrix of theta_v, which fill the array of theta_v^k.

Only that top vertical power survives in a top form, so the top-form
identities at v reduce to (-theta_v)^k/k! ^ omega^(n-k)/(n-k)!: the k x k
minors of -theta_v paired with those of omega^-1, cached per degree by
curvature.omega_ratio, batched over directions and compared with
gamma_k(theta_v/omega) from a batched eigensolve.  identity_residuals takes
the directions it is given at once; the samplers, identity_max among them,
read the seed's direction stream through moments._sample_stats, in blocks
whose per-direction arrays stay within _BLOCK_BYTES.
"""

from __future__ import annotations

import math

import numpy as np

from .curvature import direction_matrices, omega_ratio
from .exterior import Form, one_one_power
from .kahler import relative_eigenvalues
from .moments import _sample_stats, phi_k_tensor
from .symfun import elem_sym

TWO_PI = 2.0 * math.pi
_BLOCK_BYTES = 1 << 20  # per-direction arrays of one block of directions


def _block_rows(n, k):
    """Directions per block: their n x n matrices and k x k minors fill about _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (16 * (math.comb(n, k) * k + n) ** 2))


def pushforward_exact(t, k):
    """Fiber integral of the (r-1+k)-th power of the combined form, the k-th Segre form:
    (-1)^k * binom(r-1+k, k) * E[theta_v ^ ... ^ theta_v] over fiber directions v,
    through the moment expansion."""
    if not 0 <= k <= t.n:
        raise ValueError(f"k={k} out of range [0, {t.n}]")
    return (-1.0) ** k * math.comb(t.r - 1 + k, k) * phi_k_tensor(t, k)


def pushforward_mc(t, k, samples, seed):
    """Monte Carlo pushforward_exact(t, k) for k >= 1: the (mean, stderr) pair of forms of the
    minors giving theta_v^k over the first `samples` directions of the seed's stream, with the
    stderr of moments._sample_stats per coefficient."""
    if not 1 <= k <= t.n:
        raise ValueError(f"k={k} out of range [1, {t.n}]")
    mean, err, _, _ = _sample_stats(
        lambda V: np.moveaxis(one_one_power(direction_matrices(t, V), k), 0, -1),
        t.r, samples, seed, _block_rows(t.n, k))
    factor = (-1.0) ** k * math.comb(t.r - 1 + k, k)
    return Form(t.n, k, k, factor * mean), Form(t.n, k, k, abs(factor) * err)


def identity_residuals(t, w, V, k, scalar=None):
    """Arrays (ratio, residual) of the degree-k top-form identity, one entry per row v of V.

    ratio = [Xi^{r-1+k}/(r-1+k)! ^ omega^{n-k}/(n-k)!] / [Xi^{r-1}/(r-1)! ^
    omega^n/n!] at v, and residual = |left - scalar * right|, the coefficient
    of that difference of top forms on C^(n+r-1).  scalar defaults to
    (-1)^k gamma_k(theta_v/omega) per direction; a number, such as -lambda
    for the Hermite-Einstein form at k = 1, applies to all.  A sequence of
    degrees k gives arrays with one row per degree, from one build of the
    directional matrices and eigenvalues of V; identity_max blocks V.
    """
    ks = np.atleast_1d(k).tolist()
    for deg in ks:
        if not 1 <= deg <= t.n:
            raise ValueError(f"k={deg} out of range [1, {t.n}]")
    vol = np.prod(w.eigenvalues)  # |omega^n/n!|; the top vertical power has modulus (2pi)^(1-r)
    G = direction_matrices(t, V)
    ratio = np.array([omega_ratio(one_one_power(-G, deg) / math.factorial(deg), w, deg)
                      for deg in ks])
    if scalar is None:
        eigs = relative_eigenvalues(G, w)
        scalar = np.array([(-1.0) ** deg * elem_sym(eigs, deg) for deg in ks])
    residual = np.abs(ratio - scalar) * vol / TWO_PI ** (t.r - 1)
    return (ratio, residual) if np.ndim(k) else (ratio[0], residual[0])


def identity_max(t, w, ks, samples, seed, scalar=None):
    """Largest residual of identity_residuals(t, w, V, ks, scalar) over the first `samples`
    directions of the seed's stream, one per degree of the sequence ks, in blocks of
    directions whose arrays for every degree stay within _BLOCK_BYTES."""
    return _sample_stats(lambda V: identity_residuals(t, w, V, ks, scalar)[1], t.r, samples,
                         seed, min(_block_rows(t.n, k) for k in ks))[3]


def gamma_profile(t, w, ell, samples, seed):
    """Distributions of gamma_k(theta_v/omega), k = 1..ell, over sampled fiber directions.

    Returns one {"min", "max", "mean", "spread"} per degree k, all from the
    first `samples` directions of the seed's stream and one batched
    eigensolve per block of them; a spread ~ 0 for all degrees up to l is
    the pointwise l-Hermite-Einstein diagnostic (degree 1 recovers the
    Hermite-Einstein condition itself).
    """
    if not 1 <= ell <= t.n:
        raise ValueError(f"ell={ell} out of range [1, {t.n}]")

    def values(V):
        eigs = relative_eigenvalues(direction_matrices(t, V), w)
        return np.array([elem_sym(eigs, k) for k in range(1, ell + 1)])
    mean, _, low, high = _sample_stats(values, t.r, samples, seed, _block_rows(t.n, 1))
    return [{"min": float(lo), "max": float(hi), "mean": float(m), "spread": float(hi - lo)}
            for lo, hi, m in zip(low, high, mean)]
