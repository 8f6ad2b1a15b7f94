"""Exterior algebra of complex (p,q)-form values on a fixed C^m.

Everything here works with the *value* of a form at a single point, expanded
in the basis dz_I ^ dzbar_J with all dz factors written before the dzbar
factors.  Coefficients are raw complex numbers against that basis: no i or
2*pi normalisations are folded in at this level (those belong to the modules
that build geometric forms).  With this convention a (1,1)-form with
Hermitian coefficient matrix g, i.e. sum_jk g_jk * (i dz_j ^ dzbar_k), is
stored with coefficient 1j*g_jk on the key ((j,), (k,)), and the reality
predicate below reads coeff(I, J) == conj(coeff(J, I)) * (-1)**(p*q).

The sign of any reordering is the parity of the permutation sorting the
z-indices and the zbar-indices separately, plus one factor (-1)**(q1*p2)
when a wedge moves the dz block of the right factor past the dzbar block of
the left factor.  That single convention fixes every sign in the package;
in particular (i dz_1^dzbar_1) ^ ... ^ (i dz_m^dzbar_m) comes out as a
positive multiple of the Euclidean volume form.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


class MultiIndex(tuple):
    """Strictly increasing tuple of 1-based coordinate indices."""

    def __new__(cls, indices=()):
        t = tuple(int(i) for i in indices)
        if t and t[0] < 1:
            raise ValueError(f"indices must be positive, got {t}")
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError(f"indices must be strictly increasing, got {t}")
        return super().__new__(cls, t)


def _merge_sorted(a, b):
    """Merge two strictly increasing tuples, returning (merged, sign).

    sign is the parity of sorting the concatenation a + b; (None, 0) if the
    tuples share an element.
    """
    sign = 1
    out = []
    i, j = 0, 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        if a[i] == b[j]:
            return None, 0
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
            if (na - i) % 2:
                sign = -sign
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


class Form:
    """Value of a complex (p,q)-form on C^m, stored as a sparse map.

    coeffs maps (I, J) pairs of strictly increasing index tuples (lengths p
    and q, entries in 1..m) to complex coefficients; missing keys are zero.
    A bidegree with p > m or q > m is representable but has no admissible
    keys, hence is identically zero.  Instances are treated as immutable:
    all operations return new forms.
    """

    __slots__ = ("m", "p", "q", "coeffs")

    def __init__(self, m, p, q, coeffs=None):
        if m < 0 or p < 0 or q < 0:
            raise ValueError("m, p, q must be nonnegative")
        self.m = int(m)
        self.p = int(p)
        self.q = int(q)
        clean = {}
        for (I, J), c in (coeffs or {}).items():
            I = I if isinstance(I, MultiIndex) else MultiIndex(I)
            J = J if isinstance(J, MultiIndex) else MultiIndex(J)
            if len(I) != self.p or len(J) != self.q:
                raise ValueError(f"key ({I}, {J}) has wrong length for bidegree ({p}, {q})")
            if (I and I[-1] > self.m) or (J and J[-1] > self.m):
                raise ValueError(f"key ({I}, {J}) exceeds ambient dimension m={m}")
            c = complex(c)
            if c != 0:
                clean[(I, J)] = c
        self.coeffs = clean

    @classmethod
    def constant(cls, m, value=1.0):
        """The (0,0)-form with the given constant value."""
        return cls(m, 0, 0, {(MultiIndex(), MultiIndex()): complex(value)})

    @classmethod
    def zero(cls, m, p, q):
        return cls(m, p, q)

    @classmethod
    def one_one(cls, g):
        """The (1,1)-form sum_jk g[j,k] * (i dz_j ^ dzbar_k) of a square matrix g."""
        m = len(g)
        coeffs = {}
        for j in range(m):
            for k in range(m):
                if g[j, k] != 0:
                    coeffs[(MultiIndex((j + 1,)), MultiIndex((k + 1,)))] = 1j * g[j, k]
        return cls(m, 1, 1, coeffs)

    def coeff(self, I, J):
        return self.coeffs.get((MultiIndex(I), MultiIndex(J)), 0j)

    def is_zero(self, tol=0.0):
        return all(abs(c) <= tol for c in self.coeffs.values())

    def max_abs(self):
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def conjugate(self):
        """Complex conjugate, a (q,p)-form: conj(c dz_I^dzbar_J) = (-1)^{pq} conj(c) dz_J^dzbar_I."""
        sign = -1.0 if (self.p * self.q) % 2 else 1.0
        return Form(self.m, self.q, self.p,
                    {(J, I): sign * c.conjugate() for (I, J), c in self.coeffs.items()})

    def is_real(self, tol=1e-10):
        """Whether coeff(I,J) == conj(coeff(J,I)) * (-1)^{pq} up to tol."""
        if self.p != self.q:
            return self.is_zero(tol)
        diff = self - self.conjugate()
        return diff.max_abs() <= tol

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0j) + c
        return Form(self.m, self.p, self.q, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, Form):
            return wedge(self, other)
        s = complex(other)
        return Form(self.m, self.p, self.q, {k: s * c for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / complex(scalar))

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return ((self.m, self.p, self.q) == (other.m, other.p, other.q)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.m, self.p, self.q, frozenset(self.coeffs.items())))

    def allclose(self, other, tol=1e-10):
        self._check_compatible(other)
        return (self - other).max_abs() <= tol

    def _check_compatible(self, other):
        if not isinstance(other, Form):
            raise TypeError(f"expected Form, got {type(other).__name__}")
        if (self.m, self.p, self.q) != (other.m, other.p, other.q):
            raise ValueError(
                f"incompatible forms: ({self.m},{self.p},{self.q}) vs ({other.m},{other.p},{other.q})")

    def __repr__(self):
        return f"Form(m={self.m}, p={self.p}, q={self.q}, nnz={len(self.coeffs)})"


def wedge(a, b):
    """Wedge product of two form values on the same C^m.

    Bilinear and associative; graded-commutative with the sign
    (-1)**((a.p+a.q)*(b.p+b.q)).  Degree overflow past m gives the zero form
    of the formal bidegree, not an error.
    """
    if not isinstance(a, Form) or not isinstance(b, Form):
        raise TypeError("wedge expects two Form values")
    if a.m != b.m:
        raise ValueError(f"dimension mismatch: m={a.m} vs m={b.m}")
    p, q = a.p + b.p, a.q + b.q
    if p > a.m or q > a.m:
        return Form(a.m, p, q)
    # moving the dz block of b (length b.p) past the dzbar block of a (length a.q)
    swap = -1 if (a.q * b.p) % 2 else 1
    out = {}
    for (I1, J1), c1 in a.coeffs.items():
        for (I2, J2), c2 in b.coeffs.items():
            I, sI = _merge_sorted(I1, I2)
            if sI == 0:
                continue
            J, sJ = _merge_sorted(J1, J2)
            if sJ == 0:
                continue
            key = (MultiIndex(I), MultiIndex(J))
            out[key] = out.get(key, 0j) + (swap * sI * sJ) * c1 * c2
    return Form(a.m, p, q, out)


def wedge_power(f, k):
    """k-th wedge power of f, with f**0 the constant 1."""
    if k < 0:
        raise ValueError("negative wedge power")
    out = Form.constant(f.m)
    for _ in range(k):
        out = wedge(out, f)
    return out


def one_one_power(G, k):
    """Minors giving theta^k for theta = sum_jk G[j,k] * (i dz_j ^ dzbar_k), G a stack.

    Returns (keys, C): keys lists the k-subsets of 1..m lexicographically,
    and C[..., a, b] = k! i^k (-1)^{k(k-1)/2} det G[..., I, J] is the
    coefficient of dz_I ^ dzbar_J for I = keys[a], J = keys[b].
    """
    G = np.asarray(G, dtype=complex)
    keys = list(combinations(range(1, G.shape[-1] + 1), k))
    idx = np.array(keys, dtype=int).reshape(len(keys), k) - 1
    minors = G[..., idx[:, None, :, None], idx[None, :, None, :]]
    scale = math.factorial(k) * 1j**k * (-1) ** (k * (k - 1) // 2)
    return keys, scale * np.linalg.det(minors)


def top_ratio(t, vol):
    """The unique scalar c with t == c * vol, for two (m,m)-forms.

    vol must be nonzero; t may be zero (giving 0).
    """
    for f, name in ((t, "t"), (vol, "vol")):
        if f.p != f.m or f.q != f.m:
            raise ValueError(f"{name} has bidegree ({f.p},{f.q}), expected top degree ({f.m},{f.m})")
    if t.m != vol.m:
        raise ValueError(f"dimension mismatch: m={t.m} vs m={vol.m}")
    key = (MultiIndex(range(1, t.m + 1)), MultiIndex(range(1, t.m + 1)))
    v = vol.coeffs.get(key, 0j)
    if v == 0:
        raise ZeroDivisionError("top_ratio against the zero volume form")
    return t.coeffs.get(key, 0j) / v


def block_embed(f, offset, m):
    """Reindex a form on C^a into coordinates offset+1 .. offset+a of C^m.

    Index shifts preserve relative order, so no signs appear; wedges of
    embeddings into disjoint blocks agree with embedding the wedge.
    """
    if offset < 0 or offset + f.m > m:
        raise ValueError(f"block [{offset + 1}, {offset + f.m}] does not fit in C^{m}")
    shifted = {}
    for (I, J), c in f.coeffs.items():
        key = (MultiIndex(i + offset for i in I), MultiIndex(j + offset for j in J))
        shifted[key] = c
    return Form(m, f.p, f.q, shifted)


def factorial_power(f, k):
    """f**k / k!, the normalised power used in the top-form identities."""
    return wedge_power(f, k) / math.factorial(k)
