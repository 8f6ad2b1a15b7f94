"""Curvature data of a hermitian holomorphic bundle at a point.

A CurvatureTensor holds the normalised curvature Theta_hat = (i/2pi) * Theta
in a normal frame at the point: the coefficient array c[j,k,lam,mu] gives the
(1,1)-form entries

    Theta_hat[mu, lam] = sum_jk c[j,k,lam,mu] * (i dz_j ^ dzbar_k),

acting on fiber vectors by (Theta_hat v)_mu = sum_lam Theta_hat[mu,lam] v_lam.
The i/2pi normalisation lives entirely in this coefficient array; the
exterior module below never sees it.  The point metric is the identity
matrix (normal-frame gauge), so hermitian symmetry of the metric expansion
forces conj(c[j,k,lam,mu]) == c[k,j,mu,lam].

Chern forms come from the power sums tr Theta_hat^k of the form-valued
curvature matrix by Newton's identities, Segre forms from inverting the
total Chern form degree by degree.  Every ratio of a top form against
omega^n/n!, the mean curvature among them, pairs the form with the k x k
minors of omega^-1 (omega_ratio, by Jacobi's complementary-minor theorem),
which each Kaehler11 caches once per degree k.
Projective flatness reads only c; tolerances are module constants; project_to_he
is the one Hermite-Einstein shift, of a random or of a projectively flat base.
"""

from __future__ import annotations

import functools
import json
import math
import operator

import numpy as np

from .exterior import Form, one_one_power, wedge

DEFAULT_HE_TOL = 1e-9
DEFAULT_EQUALITY_TOL = 1e-8
MAX_DIM = 32  # bound on n and r of outside input: an (n, n, r, r) array <= 16 MiB
MAX_TOP_POWER = 1e150  # bound on max|c|^(n+r-1) of a tensor, max|g|^n of omega: the top-degree
                       # products, their squares and sums stay inside the float range (1.8e308)
MAX_OMEGA_CONDITION = 1e12  # bound on the eigenvalue ratio of omega: the eigensolves and
                            # contractions against omega lose about log10(ratio) of 16 digits


class PreconditionError(ValueError):
    """A mathematical precondition of a check is not met by the input."""


class TensorValidationError(ValueError):
    """Input data violates a structural invariant of the curvature tensor."""


class Kaehler11:
    """A Kaehler form omega = sum_jk g[j,k] * (i dz_j ^ dzbar_k) at the point: g read-only,
    finite with max|g|^n <= MAX_TOP_POWER, Hermitian positive definite, with ascending
    eigenvalues e of ratio <= MAX_OMEGA_CONDITION and e[0]^n >= 1/MAX_TOP_POWER (checked here
    once for every later use); other real (1,1)-forms are plain Hermitian coefficient matrices."""

    __slots__ = ("n", "g", "eigenvalues", "_powers")

    def __init__(self, g):
        g = np.asarray(g, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
            raise ValueError(f"expected a nonempty square matrix, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("omega entries must be finite")
        n = g.shape[0]
        with np.errstate(over="ignore"):  # a modulus past the float range is past the bound too
            big = float(np.abs(g).max())
        if big > MAX_TOP_POWER ** (1 / n):  # checked first: the symmetrisation would overflow
            raise ValueError(f"largest omega entry modulus {big:.3e} exceeds "
                             f"{MAX_TOP_POWER:.0e}^(1/{n}): omega^n would overflow")
        if np.abs(g - g.conj().T).max() > 1e-12:  # absolute: no relative slack
            raise ValueError("coefficient matrix must be Hermitian")
        self.n = n
        self.g = 0.5 * (g + g.conj().T)  # kill roundoff asymmetry
        self.g.flags.writeable = False  # the cached powers stay those of g
        self.eigenvalues = eigs = np.linalg.eigvalsh(self.g)
        if not eigs[0] > 0:
            raise PreconditionError("omega must be positive definite")
        if eigs[-1] > MAX_OMEGA_CONDITION * eigs[0]:  # the ratio itself may overflow
            raise ValueError(f"omega eigenvalues {eigs[0]:.3e} to {eigs[-1]:.3e} span a ratio "
                             f"of more than {MAX_OMEGA_CONDITION:.0e}")
        if eigs[0] < MAX_TOP_POWER ** (-1 / n):
            raise ValueError(f"smallest omega eigenvalue {eigs[0]:.3e} is below "
                             f"{MAX_TOP_POWER:.0e}^(-1/{n}): omega^n would underflow")
        self._powers = {}  # k -> (-1)^k (omega^-1)^k/k! transposed, filled by omega_ratio

    @classmethod
    def euclidean(cls, n):
        return cls(np.eye(n))

    def __repr__(self):
        return f"Kaehler11(n={self.n})"


class CurvatureTensor:
    """Normalised curvature (i/2pi)*Theta(E,h) at a point, in a normal frame: c is the
    read-only Hermitian part of the caller's array, checked here once for every later use:
    its shape, max|c|^(n+r-1) <= MAX_TOP_POWER, then finite entries and hermitian symmetry."""

    __slots__ = ("n", "r", "c")

    def __init__(self, n, r, c=None):
        self.n = int(n)
        self.r = int(r)
        if self.n < 1 or self.r < 1:
            raise ValueError("need n >= 1 and r >= 1")
        shape = (self.n, self.n, self.r, self.r)
        c = np.zeros(shape, dtype=complex) if c is None else np.asarray(c, dtype=complex)
        if c.shape != shape:
            raise ValueError(f"coefficient array has shape {c.shape}, expected {shape}")
        top = self.n + self.r - 1
        with np.errstate(over="ignore"):  # a modulus past the float range is past the bound too
            big = float(np.fmax.reduce(np.abs(c), axis=None))  # skips NaN: the next check names it
        if big > MAX_TOP_POWER ** (1 / top):
            raise TensorValidationError(
                f"largest coefficient modulus {big:.3e} exceeds {MAX_TOP_POWER:.0e}^(1/{top}): "
                f"products of degree n+r-1 = {top} would overflow")
        if not np.isfinite(c).all():
            raise TensorValidationError("coefficients must be finite")
        # conj(c[j,k,lam,mu]) == c[k,j,mu,lam] within 1e-10; report the worst offender
        dev = np.abs(c.conj() - c.transpose(1, 0, 3, 2))
        worst = float(dev.max())
        if worst > 1e-10:
            j, k, lam, mu = np.unravel_index(int(dev.argmax()), dev.shape)
            raise TensorValidationError(
                "hermitian symmetry conj(c[j,k,lam,mu]) = c[k,j,mu,lam] violated at "
                f"(j,k,lambda,mu)=({j + 1},{k + 1},{lam + 1},{mu + 1}), deviation {worst:.3e}")
        self.c = 0.5 * (c + c.conj().transpose(1, 0, 3, 2))  # kill roundoff asymmetry
        self.c.flags.writeable = False

    def entry(self, mu, lam):
        """The (1,1)-form Theta_hat[mu, lam] (0-based frame indices)."""
        return Form.one_one(self.c[:, :, lam, mu])

    def __repr__(self):
        return f"CurvatureTensor(n={self.n}, r={self.r})"


def chern_forms(t, top):
    """Chern forms [c_0, ..., c_top] from the power sums p_i = tr Theta_hat^i.

    Newton's identities k c_k = sum_{i=1}^{k} (-1)^{i-1} c_{k-i} ^ p_i hold
    in the commutative algebra of even-degree forms.  c_k vanishes
    identically once k exceeds n or r; those degrees are zero forms, not
    computed.  The loop runs degree by degree, so a smaller top gives a
    bitwise prefix.
    """
    theta = [[t.entry(mu, lam) for lam in range(t.r)] for mu in range(t.r)]
    power, sums, forms = theta, [None], [Form.constant(t.n)]
    for k in range(1, top + 1):
        if k > min(t.n, t.r):
            forms.append(Form(t.n, k, k))
            continue
        if k > 1:  # the last degree computed needs only the diagonal, for the trace
            power = [[_sum_forms(wedge(power[a][b], theta[b][d]) for b in range(t.r))
                      if k < min(top, t.n, t.r) or d == a else None
                      for d in range(t.r)] for a in range(t.r)]
        sums.append(_sum_forms(power[a][a] for a in range(t.r)))
        forms.append(_sum_forms((-1.0) ** (i - 1) * wedge(forms[k - i], sums[i])
                                for i in range(1, k + 1)) / k)
    return forms


def _sum_forms(forms):
    return functools.reduce(operator.add, forms)


def segre_forms(c, n):
    """Segre forms [s_0, ..., s_n] inverting the total Chern form [c_0, c_1, ...], c_0 the
    unit form: s_0 = c_0 and s_k = -sum_{j=1}^{k} c_j ^ s_{k-j}, c_j past the list zero."""
    unit = c[0] if len(c) else None
    if not (isinstance(unit, Form) and (unit.p, unit.q) == (0, 0)
            and unit.a[0, 0] == 1):
        raise ValueError(f"entry 0 must be the unit of the form algebra, got {unit!r}")
    s = [unit]
    for k in range(1, n + 1):
        acc = Form(unit.m, k, k)
        for j in range(1, min(k, len(c) - 1) + 1):
            acc = acc - wedge(c[j], s[k - j])
        s.append(acc)
    return s


def direction_matrices(t, V):
    """The (N, n, n) stack of the Hermitian matrices G_v[j,k] = sum_lm
    c[j,k,lam,mu] v_lam conj(v_mu) / |v|^2, one per row v of V: the
    directional (1,1)-forms (i/2pi)<Theta v, v>/|v|^2 of the fiber directions.
    """
    V = np.asarray(V, dtype=complex)
    if V.ndim != 2 or V.shape[1] != t.r:
        raise ValueError(f"directions have shape {V.shape}, expected (N, {t.r})")
    nrm2 = np.einsum("il,il->i", V, V.conj()).real
    if not np.all(nrm2 > 0):
        raise ValueError("direction must be nonzero")
    G = np.einsum("jklm,il,im->ijk", t.c, V, V.conj())
    G /= nrm2[:, None, None]  # divided and symmetrised in place, beside one conjugate copy
    G += G.conj().transpose(0, 2, 1)
    G *= 0.5
    return G


def omega_ratio(a, w, k):
    """a ^ omega^(n-k)/(n-k)! over omega^n/n!, for a stack a[..., :, :] of
    (k,k)-form arrays on C^n: the one contraction behind every top ratio.

    By Jacobi's complementary-minor theorem it is (-1)^k sum_{I,J} a[I,J]
    (omega^-1)^k/k![J,I], omega^-1 by LU: the sides of identity (9) must not share
    relative_eigenvalues' Cholesky factor.  For a = alpha^k/k! it is gamma_k(alpha/omega).
    """
    n = w.n
    if not 0 <= k <= n or np.shape(a)[-2:] != (math.comb(n, k),) * 2:
        raise ValueError(f"expected ({k},{k})-form arrays on C^{n}, got shape {np.shape(a)}")
    if k not in w._powers:  # C-contiguous: einsum sums a stack in the order of one array
        w._powers[k] = np.ascontiguousarray(
            (-1) ** k * one_one_power(np.linalg.inv(w.g), k).T / math.factorial(k))
    return np.einsum("...st,st->...", a, w._powers[k])


def mean_curvature(t, w):
    """Mean curvature T: the Hermitian r x r matrix with
    Theta_hat ^ omega^{n-1}/(n-1)! = T * omega^n/n!, entrywise."""
    T = omega_ratio(1j * t.c.transpose(3, 2, 0, 1), w, 1)
    return 0.5 * (T + T.conj().T)


def _he_deviation(t, w):
    """(max |T - lambda * Id|, lambda = tr(T)/r) from one mean curvature T."""
    T = mean_curvature(t, w)
    lam = float(np.trace(T).real) / t.r
    return float(np.abs(T - lam * np.eye(t.r)).max()), lam


def _require_he(t, w):
    """The slope lambda of Hermite-Einstein input; a PreconditionError for any other."""
    dev, lam = _he_deviation(t, w)
    if dev > DEFAULT_HE_TOL:
        raise PreconditionError(
            f"tensor is not Hermite-Einstein within {DEFAULT_HE_TOL:g} (deviation {dev:.3e})")
    return lam


def is_hermite_einstein(t, w):
    """Whether T == lambda * Id within DEFAULT_HE_TOL; returns (flag, lambda = tr(T)/r)."""
    dev, lam = _he_deviation(t, w)
    return dev <= DEFAULT_HE_TOL, lam


def project_to_he(t, w, lam):
    """Shift t by (omega/n) tensor (lam*Id - T) so that T' = lam*Id.  On a projectively
    flat base beta tensor Id, T is exactly a multiple of Id, so the image is beta' tensor Id."""
    gap = float(lam) * np.eye(t.r) - mean_curvature(t, w)
    # added entry for Theta_hat[mu,lam] is (omega/n) * gap[mu,lam]
    return CurvatureTensor(t.n, t.r, t.c + np.einsum("jk,ml->jklm", w.g / t.n, gap))


def _splitmix64(state, start, stop):
    """Outputs start..stop-1 of SplitMix64 (Steele, Lea & Flood 2014) at a 64-bit state, as
    uint64: output i mixes the Weyl sequence term state + (i + 1) * 0x9E3779B97F4A7C15."""
    z = np.arange(start + 1, stop + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(state)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift
        z *= np.uint64(mult)
    return z ^ (z >> 31)


def _uniforms(state, start, stop):
    """Uniforms start..stop-1 at a state: output z gives (2 floor(z / 2^11) + 1) / 2^53 - 1,
    an odd multiple of 2^-53 in (-1, 1), as floor(z / 2^11) 2^-52 - (1 - 2^-53) exactly."""
    return (_splitmix64(state, start, stop) >> 11) * 2.0**-52 - (1 - 2.0**-53)


def _complex_normals(key, count):
    """The first `count` complex normals, real and imaginary parts independent standard
    normals, of the stream named by key, integers >= 0; a shorter count gives a prefix.
    Its SplitMix64 state mixes in each word of the key in turn: per integer its number of
    64-bit words, then those, lowest first.  Each pair (u, v) of uniforms 2j, 2j + 1 with
    s = u^2 + v^2 < 1 gives the next normal (u + iv) sqrt(-2 ln s / s), and other pairs
    none: Marsaglia and Bray's polar method."""
    state = 0
    for k in map(operator.index, key):
        if k < 0:
            raise ValueError(f"seed must be a non-negative integer, got {json.dumps(k)}")
        words = max(1, -(-k.bit_length() // 64))
        for word in (words, *(k >> 64 * i & 0xFFFFFFFFFFFFFFFF for i in range(words))):
            state = int(_splitmix64(state ^ word, 0, 1)[0])  # xor the word in, then mix
    out, done, pair = np.empty(int(count), dtype=complex), 0, 0
    while done < len(out):
        pairs = min(8192, (len(out) - done) * 4 // 3 + 64)  # blocks of 128 KiB stay in cache
        uv = _uniforms(state, 2 * pair, 2 * (pair + pairs))
        u, v = uv[0::2], uv[1::2]
        s = u * u + v * v
        keep = np.flatnonzero(s < 1)[:len(out) - done]
        f = np.sqrt(-2 * np.log(s[keep]) / s[keep])
        out.real[done:done + len(keep)] = u[keep] * f
        out.imag[done:done + len(keep)] = v[keep] * f
        done, pair = done + len(keep), pair + pairs
    return out


def random_curvature(n, r, seed):
    """Seeded random tensor: the stream (seed,) of complex normals in C order, hermitian-symmetrized."""
    a = _complex_normals((seed,), n * n * r * r).reshape(n, n, r, r)
    c = 0.5 * (a + a.conj().transpose(1, 0, 3, 2))
    return CurvatureTensor(n, r, c)


def strong_flat_tensor(n, r, w, lam):
    """The equality-case instance Theta_hat = (lam/n) * omega tensor Id."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is past the bound
        c = np.einsum("jk,ml->jklm", (float(lam) / n) * w.g, np.eye(r))
    return CurvatureTensor(n, r, c)


def projectively_flat_tensor(n, r, seed):
    """A random instance Theta_hat = beta tensor Id with beta a Hermitian matrix,
    the coefficients of a real (1,1)-form; project_to_he fixes its slope."""
    b = _complex_normals((seed,), n * n).reshape(n, n)
    return CurvatureTensor(n, r, np.einsum("jk,ml->jklm", 0.5 * (b + b.conj().T), np.eye(r)))


def is_projectively_flat(t):
    """Whether Theta_hat == (1/r) c_1 tensor Id, coefficientwise within DEFAULT_EQUALITY_TOL."""
    proj = np.einsum("jk,ml->jklm", np.einsum("jkll->jk", t.c) / t.r, np.eye(t.r))
    return float(np.abs(t.c - proj).max()) <= DEFAULT_EQUALITY_TOL


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def tensor_to_dict(t):
    """JSON-ready dict {n, r, coeffs: [{j,k,lambda,mu,re,im}, ...]}, 1-based, zeros omitted."""
    idx = np.nonzero(t.c)  # in C order: j, then k, lambda, mu
    coeffs = [{"j": j + 1, "k": k + 1, "lambda": lam + 1, "mu": mu + 1, "re": v.real, "im": v.imag}
              for j, k, lam, mu, v in zip(*(i.tolist() for i in idx), t.c[idx].tolist())]
    return {"n": t.n, "r": t.r, "coeffs": coeffs}


def check_dims(n, r):
    """Reject dimensions n, r of outside input unless integers in [1, MAX_DIM]."""
    for name, value in (("n", n), ("r", r)):
        if type(value) is not int or not 1 <= value <= MAX_DIM:
            raise TensorValidationError(f"{name} must be an integer in [1, {MAX_DIM}], "
                                        f"got {json.dumps(value, default=repr)}")


def _is_number(x):
    """Whether x is a finite JSON number: an int or a float, not a bool."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def tensor_from_dict(d, symmetrize=False):
    """Build a CurvatureTensor from its JSON dict.

    Omitted entries are zero, indices are JSON integers, re and im finite
    JSON numbers.  symmetrize=True takes the hermitian part, where an entry
    may overflow to infinity; CurvatureTensor then checks the bound and the
    hermitian invariant.
    """
    try:
        n, r = d["n"], d["r"]
        entries = d.get("coeffs", [])
    except (KeyError, TypeError) as exc:
        raise TensorValidationError(f"malformed tensor payload: {exc}") from exc
    check_dims(n, r)
    if not isinstance(entries, list):
        raise TensorValidationError(f"malformed tensor payload: coeffs must be a list, got {json.dumps(entries)}")
    c = np.zeros((n, n, r, r), dtype=complex)
    for e in entries:
        try:
            idx = [e[key] for key in ("j", "k", "lambda", "mu")]
            re, im = e["re"], e.get("im", 0.0)
        except (KeyError, TypeError) as exc:
            raise TensorValidationError(f"malformed coefficient entry {json.dumps(e)}: {exc}") from exc
        if not all(type(x) is int for x in idx) or not all(type(x) in (int, float) for x in (re, im)):
            raise TensorValidationError(f"malformed coefficient entry {json.dumps(e)}: indices must be "
                                        "JSON integers, re and im finite JSON numbers")
        if not (_is_number(re) and _is_number(im)):
            raise TensorValidationError(f"coefficient entry {json.dumps(e)} is not finite")
        j, k, lam, mu = (i - 1 for i in idx)
        if not (0 <= j < n and 0 <= k < n and 0 <= lam < r and 0 <= mu < r):
            raise TensorValidationError(f"coefficient entry {json.dumps(e)} out of range for n={n}, r={r}")
        c[j, k, lam, mu] = complex(re, im)
    if symmetrize:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is past the bound
            c = 0.5 * (c + c.conj().transpose(1, 0, 3, 2))
    return CurvatureTensor(n, r, c)


def load_tensor(path, symmetrize=False):
    with open(path, "r", encoding="utf-8") as fh:
        return tensor_from_dict(json.load(fh), symmetrize=symmetrize)
