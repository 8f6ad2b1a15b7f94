"""Unitary-invariant moments on the unit sphere of C^r and its direction stream.

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
appear in the Monte Carlo estimator.  moment_wick alone imports fractions,
so a process that only samples never loads it.

Every sampler of the package, that estimator included, reads a seed's
direction stream (direction_chunks), which is fixed per seed and
prefix-stable: N samples are its first N directions.  They all read it
through one reduction, _sample_stats, which keeps running sums, sums of
squares, minima and maxima, so memory does not grow with the sample count.
It takes N >= 2, since one direction has no standard error and no spread.
One block of directions and its values are alive at a time: the stream
drops each chunk, and the reduction each block, before the next is drawn,
and moment_mc fills one values buffer, allocated per call, block by block.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .curvature import _complex_normals

DIRECTION_CHUNK = 8192  # directions per key (seed, chunk) of a direction stream


def moment_wick(r, lambdas, mus):
    """Exact moment E[v_{l_1}...v_{l_k} conj(v_{m_1})...conj(v_{m_k})] on the sphere of C^r
    for 1-based index sequences lambdas and mus of one length k: perm(M) (r-1)!/(r-1+k)!,
    which is m_1!...m_r! (r-1)!/(r-1+k)! when they agree as multisets, else 0."""
    from fractions import Fraction  # here alone: the samplers' processes never load it
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
    buffer = np.empty((len(live), DIRECTION_CHUNK), dtype=complex)  # the values of each chunk

    def values(z):  # np.multiply, as `*` may reuse a temporary right operand, swapping factors
        x = buffer[:, :len(z)]
        for row, (lambdas, mus) in zip(x, live):
            np.multiply(reduce(np.multiply, (z[:, l - 1] for l in lambdas)),
                        reduce(np.multiply, (z[:, m - 1].conj() for m in mus)), out=row)
        return x
    mean, err, _, _ = _sample_stats(values, r, samples, seed)
    stats = iter(zip(mean.tolist(), err.tolist()))
    return [next(stats) if lambdas else (1 + 0j, 0.0) for lambdas, _ in pairs]


def _sample_stats(values, r, samples, seed, rows=DIRECTION_CHUNK):
    """Per-entry (mean, stderr, low, high) of values(V), one entry per direction of V along its
    last axis, over the first N = samples >= 2 directions of the seed's stream, in blocks V of
    at most `rows`: stderr = sqrt(max(sum |x|^2 - N |mean|^2, 0) / (N-1) / N), and low and
    high, the least and greatest entries, None for complex values.  Each block and its values
    are dropped before the next block is drawn, so one block is alive at a time."""
    samples = int(samples)
    if samples < 2:
        raise ValueError("samples must be >= 2: a standard error or spread needs two directions")
    total, total_sq, low, high = 0.0, 0.0, np.inf, -np.inf
    for V in direction_chunks(r, samples, seed, rows):
        x = values(V)
        total = total + x.sum(axis=-1)
        total_sq = total_sq + (x.real**2 + x.imag**2 if np.iscomplexobj(x) else x * x).sum(axis=-1)
        if not np.iscomplexobj(x):
            low, high = np.minimum(low, x.min(axis=-1)), np.maximum(high, x.max(axis=-1))
        del V, x
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
    (<= rows, r) views of one chunk at a time, and drops the chunk before it
    draws the next; `rows` only splits the chunks, so the directions do not
    depend on it.
    """
    count = int(count)
    for c, start in enumerate(range(0, count, DIRECTION_CHUNK)):
        z = _complex_normals((seed, c), min(DIRECTION_CHUNK, count - start) * r).reshape(-1, r)
        z *= 1 / np.linalg.norm(z, axis=1, keepdims=True)
        for i in range(0, len(z), rows):
            yield z[i:i + rows]
        del z

