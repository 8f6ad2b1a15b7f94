"""Unitary-invariant moments on the unit sphere of C^r and the phi_k functional.

The diagonal moment of |v_{j_1}|^2 ... |v_{j_k}|^2 against the normalised
sphere measure is the exact rational m_1! ... m_r! (r-1)! / (r-1+k)!, where
m_l counts how often l appears.  The general balanced moment

    E[ v_{l_1} ... v_{l_k} * conj(v_{m_1}) ... conj(v_{m_k}) ]

equals perm(M) * (r-1)!/(r-1+k)! with M_{ab} = [l_a == m_b]: writing the
sphere average as a Gaussian average splits radius from direction, and the
Gaussian side is a Wick pairing sum.  M is a disjoint union of all-ones
blocks, one per index value, so perm(M) = m_1! ... m_r! when the lambda and
mu multisets agree and 0 otherwise: every moment is a diagonal one or zero.
Everything is computed in exact integer/rational arithmetic; floats only
appear at form assembly and in the Monte Carlo estimator.

Every sampler of the package, that estimator included, reads a seed's
direction stream (direction_chunks), which is fixed per seed and
prefix-stable: N samples are its first N directions.  They all read it
through one reduction, _sample_stats, which keeps running sums, sums of
squares, minima and maxima, so memory does not grow with the sample count.
It takes N >= 2, since one direction has no standard error and no spread.

phi_k averages <T v, v>^k over the sphere.  For a Hermitian matrix this is
sigma_k(eigenvalues)/binom(r-1+k, k) (sigma_k complete homogeneous); for a
curvature tensor the same average of the directional (1,1)-form produces,
up to the sign (-1)^k and the binomial factor, the k-th Segre form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement

import numpy as np

from .curvature import _complex_normals
from .exterior import Form, wedge

DIRECTION_CHUNK = 8192  # directions per key (seed, chunk) of a direction stream


def moment_wick(r, lambdas, mus):
    """Exact moment E[v_{l_1}...v_{l_k} conj(v_{m_1})...conj(v_{m_k})] on the sphere of C^r
    for 1-based index sequences lambdas and mus of one length k: perm(M) (r-1)!/(r-1+k)!,
    which is m_1!...m_r! (r-1)!/(r-1+k)! when they agree as multisets, else 0."""
    _check_indices(r, lambdas, mus)
    if sorted(lambdas) != sorted(mus):
        return Fraction(0)
    num = math.factorial(r - 1) * math.prod(math.factorial(lambdas.count(l)) for l in set(lambdas))
    return Fraction(num, math.factorial(r - 1 + len(lambdas)))


def _check_indices(r, lambdas, mus):
    """Reject index sequences of unequal length or with an index outside 1..r."""
    if len(lambdas) != len(mus):
        raise ValueError("lambdas and mus must have equal length")
    for i in [*lambdas, *mus]:
        if not 1 <= i <= r:
            raise ValueError(f"index {i} out of range [1, {r}]")


def moment_mc(r, pairs, samples, seed):
    """Monte Carlo estimates of sphere moments in C^r; one (estimate, stderr) per (lambdas, mus)
    pair of index sequences of one length.  All pairs read the first `samples` directions of the
    seed's stream, so each estimate depends only on (pair, samples, seed), not on the batch."""
    for lambdas, mus in pairs:
        _check_indices(r, lambdas, mus)
    live = [pair for pair in pairs if pair[0]]  # degree 0 is E[1] = 1
    if not live and int(samples) >= 2:  # nothing to draw; _sample_stats rejects bad samples
        return [(1 + 0j, 0.0)] * len(pairs)

    def values(z):  # np.multiply, as `*` may reuse a temporary right operand, swapping factors
        cols = z.T.copy()
        return np.array([np.multiply(reduce(np.multiply, (cols[l - 1] for l in lambdas)),
                                     reduce(np.multiply, (cols[m - 1].conj() for m in mus)))
                         for lambdas, mus in live])
    mean, err, _, _ = _sample_stats(values, r, samples, seed)
    stats = iter(zip(mean.tolist(), err.tolist()))
    return [next(stats) if lambdas else (1 + 0j, 0.0) for lambdas, _ in pairs]


def _sample_stats(values, r, samples, seed, rows=DIRECTION_CHUNK):
    """Per-entry (mean, stderr, low, high) of values(V), one entry per direction of V along its
    last axis, over the first N = samples >= 2 directions of the seed's stream, in blocks V of
    at most `rows`: stderr = sqrt(max(sum |x|^2 - N |mean|^2, 0) / (N-1) / N), and low and
    high, the least and greatest entries, None for complex values."""
    samples = int(samples)
    if samples < 2:
        raise ValueError("samples must be >= 2: a standard error or spread needs two directions")
    total, total_sq, low, high = 0.0, 0.0, np.inf, -np.inf
    for V in direction_chunks(r, samples, seed, rows):
        x = values(V)
        total = total + x.sum(axis=-1)
        total_sq = total_sq + (x.real**2 + x.imag**2).sum(axis=-1)
        if not np.iscomplexobj(x):
            low, high = np.minimum(low, x.min(axis=-1)), np.maximum(high, x.max(axis=-1))
    mean = total / samples
    var = np.maximum(total_sq - samples * np.abs(mean) ** 2, 0.0) / (samples - 1)
    if np.iscomplexobj(mean):
        low = high = None
    return mean, np.sqrt(var / samples), low, high


def direction_chunks(r, count, seed, rows=DIRECTION_CHUNK):
    """The first `count` unit vectors in C^r of the seed's direction stream.

    Chunk c of the stream, directions c * DIRECTION_CHUNK onwards, holds the
    complex normals of the stream (seed, c) of curvature._complex_normals, r
    per direction, normalised in place.  Yields the directions in order as
    (<= rows, r) views of one chunk at a time; `rows` only splits the
    chunks, so the directions do not depend on it.
    """
    count = int(count)
    for c, start in enumerate(range(0, count, DIRECTION_CHUNK)):
        z = _complex_normals((seed, c), min(DIRECTION_CHUNK, count - start) * r).reshape(-1, r)
        z *= 1 / np.linalg.norm(z, axis=1, keepdims=True)
        for i in range(0, len(z), rows):
            yield z[i:i + rows]


def phi_k_tensor(t, k):
    """Sphere average of the k-th wedge power of the directional (1,1)-form.

    Only tuples whose mu part rearranges the lambda part have a nonzero
    moment, and with lambda sorted they all weigh 1/binom(r-1+k, k).  So the
    average is that weight times the sum, over weakly increasing lambda and
    the distinct rearrangements mu of lambda, of theta[lambda_1][mu_1] ^ ...
    ^ theta[lambda_k][mu_k] with theta[lam][mu] = Theta_hat[mu, lam]; up to
    (-1)^k, MacMahon's degree-k part of 1/det(I + Theta_hat).  The sum is
    walked depth first, each suffix sum kept for the call under the lambda
    and mu values still to place.  The lambdas are taken in colex order, so
    those sharing a suffix are contiguous and the sums kept for a suffix are
    dropped once it is finished; the sums of the lambdas are added by
    math.fsum, coefficient by coefficient.  Returns a real (k,k)-form;
    (-1)^k * binom(r-1+k, k) * phi_k_tensor(t, k) is the k-th Segre form.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return Form.constant(t.n)
    if k > t.n:
        return Form(t.n, k, k)
    theta = [[t.entry(mu, lam) for mu in range(t.r)] for lam in range(t.r)]
    suffix_sums = [{} for _ in range(k + 1)]  # [length]: sums by mus, for that suffix of lambda

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
        return total

    parts, previous = [], ()
    for lams in sorted(combinations_with_replacement(range(t.r), k), key=lambda lams: lams[::-1]):
        shared = next(s for s in range(k, -1, -1) if lams[k - s:] == previous[k - s:])
        for sums in suffix_sums[shared + 1:]:
            sums.clear()
        parts.append(arrangements(lams, lams).a)
        previous = lams
    summed = np.apply_along_axis(math.fsum, 0, np.array(parts).view(float)).view(complex)
    return Form(t.n, k, k, summed / math.comb(t.r - 1 + k, k))
