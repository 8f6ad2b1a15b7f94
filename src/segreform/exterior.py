"""Exterior algebra of complex (p,q)-form values on a fixed C^m.

Everything here works with the *value* of a form at a single point, expanded
in the basis dz_I ^ dzbar_J with all dz factors written before the dzbar
factors.  Coefficients are raw complex numbers against that basis: no i or
2*pi normalisations are folded in at this level (those belong to the modules
that build geometric forms).  With this convention a (1,1)-form with
Hermitian coefficient matrix g, i.e. sum_jk g_jk * (i dz_j ^ dzbar_k), has
coefficient 1j*g_jk at ((j,), (k,)), and a form is real when
coeff(I, J) == conj(coeff(J, I)) * (-1)**(p*q).

The sign of any reordering is the parity of the permutation sorting the
z-indices and the zbar-indices separately, plus one factor (-1)**(q1*p2)
when a wedge moves the dz block of the right factor past the dzbar block of
the left factor.  That single convention fixes every sign in the package;
in particular (i dz_1^dzbar_1) ^ ... ^ (i dz_m^dzbar_m) comes out as a
positive multiple of the Euclidean volume form.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from itertools import combinations
from types import MappingProxyType

import numpy as np


@functools.cache
def _basis(m, p):
    """The p-subsets of 1..m in lexicographic order, and each one's position."""
    subsets = tuple(combinations(range(1, m + 1), p))
    return subsets, {s: i for i, s in enumerate(subsets)}


@functools.cache
def _wedge_table(m, p1, p2):
    """Disjoint pairs of a p1- and a p2-subset of 1..m, indexed by split and union.

    Returns index arrays (i1, i2) into the p1- and p2-subset bases and the
    sign of sorting each concatenated pair.  Pair number j*U + u is the j-th
    split, in lexicographic order, of the u-th of the U (p1+p2)-subsets, so
    summing over the leading axis of a (C(p1+p2, p1), U) reshape adds the
    pairs of each union.
    """
    _, pos1 = _basis(m, p1)
    _, pos2 = _basis(m, p2)
    i1, i2, sign = [], [], []
    for union in _basis(m, p1 + p2)[0]:
        for left in combinations(union, p1):
            right = tuple(x for x in union if x not in left)
            inversions = sum(x > y for x in left for y in right)
            i1.append(pos1[left])
            i2.append(pos2[right])
            sign.append(-1.0 if inversions % 2 else 1.0)
    splits = math.comb(p1 + p2, p1)
    return tuple(np.array(v).reshape(-1, splits).T.ravel() for v in (i1, i2, sign))


class Form:
    """Value of a complex (p,q)-form on C^m, stored as one dense array.

    a[s, t] is the coefficient of dz_I ^ dzbar_J for I the s-th p-subset and
    J the t-th q-subset of 1..m, both in lexicographic order, so a has shape
    C(m,p) x C(m,q).  The constructor takes that array, or a mapping
    {(I, J): c} from pairs of strictly increasing index tuples to
    coefficients (missing keys are zero).  A bidegree with p > m or q > m has
    an empty array, hence is identically zero.  Instances are treated as
    immutable: all operations return new forms.
    """

    __slots__ = ("m", "p", "q", "a")

    def __init__(self, m, p, q, a=None):
        if m < 0 or p < 0 or q < 0:
            raise ValueError("m, p, q must be nonnegative")
        self.m = int(m)
        self.p = int(p)
        self.q = int(q)
        shape = (math.comb(self.m, self.p), math.comb(self.m, self.q))
        if a is None or isinstance(a, Mapping):
            arr = np.zeros(shape, dtype=complex)
            for (I, J), c in (a or {}).items():
                arr[self._position(I, J)] = complex(c)
            a = arr
        else:
            a = np.asarray(a, dtype=complex)
            if a.shape != shape:
                raise ValueError(f"coefficient array has shape {a.shape}, expected {shape} "
                                 f"for bidegree ({p}, {q}) on C^{m}")
        self.a = a

    def _position(self, I, J):
        """Row and column of dz_I ^ dzbar_J; ValueError unless I, J are strictly
        increasing tuples of lengths p, q with entries in 1..m."""
        try:
            return _basis(self.m, self.p)[1][tuple(I)], _basis(self.m, self.q)[1][tuple(J)]
        except KeyError:
            raise ValueError(f"key ({tuple(I)}, {tuple(J)}) is not a pair of strictly increasing "
                             f"index tuples of lengths ({self.p}, {self.q}) in 1..{self.m}") from None

    @classmethod
    def constant(cls, m, value=1.0):
        """The (0,0)-form with the given constant value."""
        return cls(m, 0, 0, [[value]])

    @classmethod
    def zero(cls, m, p, q):
        return cls(m, p, q)

    @classmethod
    def one_one(cls, g):
        """The (1,1)-form sum_jk g[j,k] * (i dz_j ^ dzbar_k) of a square matrix g."""
        return cls(len(g), 1, 1, 1j * np.asarray(g))

    @property
    def coeffs(self):
        """Read-only {(I, J): c} view of the nonzero coefficients."""
        rows, cols = _basis(self.m, self.p)[0], _basis(self.m, self.q)[0]
        return MappingProxyType({(rows[s], cols[t]): complex(self.a[s, t])
                                 for s, t in zip(*np.nonzero(self.a))})

    def coeff(self, I, J):
        return complex(self.a[self._position(I, J)])

    def max_abs(self):
        return float(np.abs(self.a).max(initial=0.0))

    def __add__(self, other):
        self._check_compatible(other)
        return Form(self.m, self.p, self.q, self.a + other.a)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, Form):
            return wedge(self, other)
        return Form(self.m, self.p, self.q, complex(other) * self.a)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / complex(scalar))

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return ((self.m, self.p, self.q) == (other.m, other.p, other.q)
                and np.array_equal(self.a, other.a))

    def _check_compatible(self, other):
        if not isinstance(other, Form):
            raise TypeError(f"expected Form, got {type(other).__name__}")
        if (self.m, self.p, self.q) != (other.m, other.p, other.q):
            raise ValueError(
                f"incompatible forms: ({self.m},{self.p},{self.q}) vs ({other.m},{other.p},{other.q})")

    def __repr__(self):
        return f"Form(m={self.m}, p={self.p}, q={self.q}, nnz={np.count_nonzero(self.a)})"


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
    m, p, q = a.m, a.p + b.p, a.q + b.q
    if p > m or q > m:
        return Form(m, p, q)
    # moving the dz block of b (length b.p) past the dzbar block of a (length a.q)
    swap = -1.0 if (a.q * b.p) % 2 else 1.0
    ia, ib, sign_p = _wedge_table(m, a.p, b.p)
    ja, jb, sign_q = _wedge_table(m, a.q, b.q)
    rows, cols = math.comb(m, p), math.comb(m, q)
    # x[row split, row union, column split, column union]
    x = (swap * sign_p[:, None] * a.a[ia])[:, ja] * (b.a[:, jb] * sign_q)[ib]
    x = x.reshape(-1, rows, len(ja) // cols, cols)
    # One split pair at a time, in the same order for every coefficient: np.sum
    # goes pairwise for a lone coefficient, and the rounding of the Chern,
    # Segre and pushforward forms, hence of their reports, would then depend
    # on the dimension.
    out = np.zeros((rows, cols), dtype=complex)
    for j in range(x.shape[0]):
        for k in range(x.shape[2]):
            out += x[j, :, k]
    return Form(m, p, q, out)


def one_one_power(G, k):
    """Coefficient arrays of theta^k for theta = sum_jk G[j,k] * (i dz_j ^ dzbar_k), G a stack.

    C[..., s, t] = k! i^k (-1)^{k(k-1)/2} det G[..., I, J] for I, J the s-th
    and t-th k-subsets of 1..m, so C[i] is the array of a Form(m, k, k).
    """
    G = np.asarray(G, dtype=complex)
    subsets = _basis(G.shape[-1], k)[0]
    idx = np.array(subsets, dtype=np.intp).reshape(len(subsets), k) - 1
    minors = G[..., idx[:, None, :, None], idx[None, :, None, :]]
    scale = math.factorial(k) * 1j**k * (-1) ** (k * (k - 1) // 2)
    return scale * np.linalg.det(minors)


def top_pairing(a, b, m, k):
    """Top coefficients of the wedges of a stack a[..., :, :] of (k,k)-form
    arrays with one (m-k,m-k)-form array b on C^m, shaped like a's stack.

    The Laplace expansion sum_{I,J} eps_I eps_J a[..., I, J] b[I^c, J^c],
    eps_I the sign of the shuffle (I, I^c), times the sign (-1)^(k(m-k)) of
    moving the dz block of b past the dzbar block of a, as in wedge.
    """
    # the one union of the table is 1..m, so its splits I run over the k-subsets in order
    _, complement, sign = _wedge_table(m, k, m - k)
    swap = -1.0 if (k * (m - k)) % 2 else 1.0
    return np.einsum("...st,st->...", a, swap * np.outer(sign, sign) * b[np.ix_(complement, complement)])
