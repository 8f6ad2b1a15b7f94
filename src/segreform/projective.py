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
gamma_k(theta_v/omega) from a batched eigensolve.  All but gamma_profile take
a sequence ks of degrees, checked by _degrees first; each sampler serves all
of them from one pass of moments._sample_stats, in blocks of _block_rows,
and holds one block's directions, matrices and values at a time.  A degree
whose one-direction arrays, or an exact degree whose exterior._wedge_bytes,
pass _DIRECTION_BYTES is refused before anything is drawn or allocated.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

from .curvature import direction_matrices, omega_ratio
from .exterior import Form, _wedge_bytes, one_one_power, wedge
from .kahler import relative_eigenvalues
from .moments import _sample_stats
from .symfun import elem_sym

_BLOCK_BYTES = 1 << 20  # per-direction arrays of one block of directions
_DIRECTION_BYTES = 1 << 30  # most that the arrays of one direction, or one wedge, may take


def _block_rows(n, ks):
    """Directions per block whose n x n matrices and k x k minors, any k of ks, fit _BLOCK_BYTES.
    A degree whose arrays for one direction pass _DIRECTION_BYTES is a ValueError, raised
    before the sampler draws a direction or enumerates a subset."""
    k = max(ks, key=lambda d: math.comb(n, d) * d)
    need = 16 * (math.comb(n, k) * k + n) ** 2
    if need > _DIRECTION_BYTES:
        raise ValueError(f"k={k} at n={n} needs {need} bytes per direction, "
                         f"more than {_DIRECTION_BYTES}")
    return max(1, _BLOCK_BYTES // need)


def _degrees(ks, n, low):
    """The sequence ks as a list of one or more degrees, each in [low, n], or a ValueError."""
    ks = list(ks)
    if not ks:
        raise ValueError("ks must hold at least one degree")
    if bad := [k for k in ks if not low <= k <= n]:
        raise ValueError(f"k={bad[0]} out of range [{low}, {n}]")
    return ks


def pushforward_exact(t, ks):
    """Fiber integrals of the (r-1+k)-th power of the combined form, the Segre forms s_k, one
    per degree k of the sequence ks: (-1)^k * binom(r-1+k, k) * E[theta_v ^ ... ^ theta_v] over
    fiber directions v, through the moment expansion.

    Only tuples whose mu part rearranges the lambda part have a nonzero
    moment, and with lambda sorted they all weigh 1/binom(r-1+k, k).  So the
    average is that weight times the sum, over weakly increasing lambda and
    the distinct rearrangements mu of lambda, of theta[lambda_1][mu_1] ^ ...
    ^ theta[lambda_k][mu_k] with theta[lam][mu] = Theta_hat[mu, lam]; up to
    (-1)^k, MacMahon's degree-k part of 1/det(I + Theta_hat).  One walk of
    the largest degree gives every degree: it goes depth first, each suffix
    sum kept for the call under the lambda and mu values still to place, and
    the suffix sum of a sorted lambda with mu = lambda, made once, is that
    lambda's sum in its own degree.  The lambdas are taken in colex order, so
    those sharing a suffix are contiguous and the sums kept for a suffix are
    dropped once it is finished.  Each degree's sums are added by math.fsum,
    coefficient by coefficient, which rounds correctly in any order.  A degree whose largest
    wedge, exterior._wedge_bytes, passes _DIRECTION_BYTES is a ValueError before any wedge.
    """
    ks = _degrees(ks, t.n, 0)
    top = max(ks)
    if (need := _wedge_bytes(t.n, top)) > _DIRECTION_BYTES:
        raise ValueError(f"k={top} at n={t.n} needs {need} bytes for one wedge, "
                         f"more than {_DIRECTION_BYTES}")
    theta = [[t.entry(mu, lam) for mu in range(t.r)] for lam in range(t.r)]
    parts = {k: [] for k in ks}  # [degree]: the sums of its sorted lambdas
    parts[0], parts[1] = [Form.constant(t.n).a], [theta[lam][lam].a for lam in range(t.r)]
    suffix_sums = [{} for _ in range(top + 1)]  # [length]: sums by mus, for that suffix of lambda

    def arrangements(lams, mus):
        if len(lams) == 1:
            return theta[lams[0]][mus[0]]
        total = suffix_sums[len(lams)].get(mus)
        if total is None:
            for j, mu in enumerate(mus):
                if j and mus[j - 1] == mu:
                    continue
                term = wedge(theta[lams[0]][mu], arrangements(lams[1:], mus[:j] + mus[j + 1:]))
                total = term if total is None else total + term
            suffix_sums[len(lams)][mus] = total
            if lams == mus and len(lams) in parts:
                parts[len(lams)].append(total.a)
        return total

    colex = sorted(combinations_with_replacement(range(t.r), top), key=lambda lams: lams[::-1])
    previous = ()
    for lams in colex if top >= 2 else []:
        shared = next(s for s in range(top, -1, -1) if lams[top - s:] == previous[top - s:])
        for sums in suffix_sums[shared + 1:]:
            sums.clear()
        arrangements(lams, lams)
        previous = lams
    sums = [np.apply_along_axis(math.fsum, 0, np.array(parts[k]).view(float)).view(complex)
            for k in ks]
    return [(-1.0) ** k * math.comb(t.r - 1 + k, k) * Form(t.n, k, k, s / math.comb(t.r - 1 + k, k))
            for k, s in zip(ks, sums)]


def pushforward_mc(t, ks, samples, seed):
    """Monte Carlo s_k of pushforward_exact, one (mean, stderr) pair of forms per degree k >= 1
    of the sequence ks, over the first `samples` directions of the seed's stream."""
    ks = _degrees(ks, t.n, 1)

    def values(V):  # every degree's minors from one build of the matrices of V
        G = direction_matrices(t, V)
        return np.concatenate([one_one_power(G, k).reshape(len(V), -1) for k in ks], axis=1).T
    mean, err, _, _ = _sample_stats(values, t.r, samples, seed, _block_rows(t.n, ks))
    ends = np.cumsum([math.comb(t.n, k) ** 2 for k in ks])[:-1]
    signed = [(-1.0) ** k * math.comb(t.r - 1 + k, k) for k in ks]
    return [(Form(t.n, k, k, f * m.reshape(math.comb(t.n, k), -1)),
             Form(t.n, k, k, abs(f) * e.reshape(math.comb(t.n, k), -1)))
            for k, f, m, e in zip(ks, signed, np.split(mean, ends), np.split(err, ends))]


def identity_residuals(t, w, V, ks, scalar=None):
    """Arrays (ratio, residual) of the top-form identity, one row per degree k of the sequence
    ks and one entry per row v of V, from one build of the directional matrices and eigenvalues.

    ratio = [Xi^{r-1+k}/(r-1+k)! ^ omega^{n-k}/(n-k)!] / [Xi^{r-1}/(r-1)! ^ omega^n/n!] at v,
    and residual = |left - scalar * right|, the coefficient of that difference of top forms on
    C^(n+r-1).  scalar defaults to (-1)^k gamma_k(theta_v/omega) per direction; a number, such
    as -lambda for the Hermite-Einstein form at k = 1, applies to all.
    """
    ks = _degrees(ks, t.n, 1)
    vol = np.prod(w.eigenvalues)  # |omega^n/n!|; the top vertical power has modulus (2pi)^(1-r)
    G = direction_matrices(t, V)
    ratio = np.array([omega_ratio(one_one_power(-G, k) / math.factorial(k), w, k) for k in ks])
    if scalar is None:
        eigs = relative_eigenvalues(G, w)
        scalar = np.array([(-1.0) ** k * elem_sym(eigs, k) for k in ks])
    return ratio, np.abs(ratio - scalar) * vol / (2 * math.pi) ** (t.r - 1)


def identity_max(t, w, ks, samples, seed, scalar=None):
    """Largest residual of identity_residuals(t, w, V, ks, scalar) over the first `samples`
    directions of the seed's stream, one per degree of the sequence ks."""
    ks = _degrees(ks, t.n, 1)
    return _sample_stats(lambda V: identity_residuals(t, w, V, ks, scalar)[1], t.r, samples,
                         seed, _block_rows(t.n, ks))[3]


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
    mean, _, low, high = _sample_stats(values, t.r, samples, seed, _block_rows(t.n, (1,)))
    return [{"min": float(lo), "max": float(hi), "mean": float(m), "spread": float(hi - lo)}
            for lo, hi, m in zip(low, high, mean)]
