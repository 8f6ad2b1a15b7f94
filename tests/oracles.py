"""Reference implementations the tests compare the library against.

Each one takes a slower, more literal route than the library code it checks:
Ryser's permanent for the Wick moments, one draw per moment and fancy-indexed
products for the Monte Carlo moments, enumeration of weakly increasing
tuples for the complete homogeneous polynomials, a loop over Python floats
for the Newton-type recursion, moment sums over ordered
index tuples weighted by those permanents for the phi_k averages (the library
folds the balanced moments into one constant), the balanced walk of one degree over the
lambdas in lexicographic order keeping every suffix sum, one Python-float
loop for gamma_k, one wedge power or one eigensolve per sampled fiber
direction for the Monte Carlo pushforward and the gamma_k profile, a merge
of sorted index tuples per pair of nonzero coefficients for the wedge, the
permutation expansion of principal minors and the full matrix power
Theta_hat^k at every degree (the library builds only the diagonal of the last
one, for its trace) for the Chern forms, and the
combined form Xi on C^(n+r-1), in a frame whose last vector is the fiber
direction, for the top-form identities.

Real (1,1)-forms that are not Kaehler forms (directional curvature, c_1,
its primitive part, beta) are Hermitian coefficient matrices here, as in
the library; only omega is a Kaehler11.

The wedge path (wedge_power, factorial_power, top_ratio) is the reference
for the one omega contraction of the library, curvature.omega_ratio, and,
through the Chern and Segre forms (degree_two_wedge), for the trace
contraction of the inequality checks; the
primitive decomposition c_1 = eta + f omega, the gamma_2 bounds, the
End(E) tensor and the closed form of phi_k on a matrix check the
inequalities and the moments from the eigenvalue side.

The orthogonal direct sum and the dual of a bundle at a point (direct_sum,
dual) give the Whitney-sum and duality relations of the Chern and Segre
forms and of the pushforward, against builds at the smaller ranks.

A form built from a {(I, J): c} mapping (form_from_dict), the
predicates on forms (is_zero, allclose, is_real, forms_equal), the
symmetry deviation of a curvature tensor and the direction stream gathered
into one array (sample_directions) serve the tests only, so they live here,
as does the projectively flat generator of a given slope through real-form
arithmetic, one symmetrization per sum or multiple
(projectively_flat_tensor_forms), the reference for project_to_he on a flat base.
"""

import functools
import math
import operator
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np

from segreform.curvature import (DEFAULT_EQUALITY_TOL, CurvatureTensor, PreconditionError,
                                 _complex_normals, _require_he, chern_forms, direction_matrices,
                                 omega_ratio, segre_forms)
from segreform.exterior import Form, _basis, wedge
from segreform.inequalities import kl_classical
from segreform.kahler import relative_eigenvalues
from segreform.moments import direction_chunks
from segreform.symfun import elem_sym

# direct enumeration of sigma_k is exponential in k
_COMPLETE_SYM_MAX_K = 6
# directions per key (seed, chunk) of a direction stream; moment_mc_loop must draw the same chunks
_MC_CHUNK = 8192
PRIMITIVITY_RTOL = 1e-9


# ---------------------------------------------------------------------------
# form predicates, the curvature symmetry and the direction stream as one array
# ---------------------------------------------------------------------------

def form_from_dict(m, p, q, coeffs):
    """The Form(m, p, q) with coefficient c at dz_I ^ dzbar_J for each (I, J): c of a
    mapping from pairs of strictly increasing index tuples, zero elsewhere."""
    rows, cols = _basis(m, p)[1], _basis(m, q)[1]
    a = np.zeros((math.comb(m, p), math.comb(m, q)), dtype=complex)
    for (I, J), c in coeffs.items():
        a[rows[I], cols[J]] = c
    return Form(m, p, q, a)


def is_zero(f, tol=0.0):
    """Whether every coefficient of the form f is at most tol in modulus."""
    return bool(np.all(np.abs(f.a) <= tol))


def allclose(a, b, tol=1e-10):
    """Whether two forms of one bidegree differ by at most tol in every coefficient."""
    return (a - b).max_abs() <= tol


def is_real(f, tol=1e-10):
    """Whether f equals its complex conjugate up to tol: the coefficient at (I, J) is
    (-1)^{pq} conj of the one at (J, I), as conj(c dz_I^dzbar_J) = (-1)^{pq} conj(c) dz_J^dzbar_I."""
    if f.p != f.q:
        return is_zero(f, tol)
    sign = -1.0 if (f.p * f.q) % 2 else 1.0
    return float(np.abs(f.a - sign * f.a.conj().T).max(initial=0.0)) <= tol


def hermitian_deviation(t):
    """max |conj(c[j,k,lam,mu]) - c[k,j,mu,lam]| of a curvature tensor."""
    return float(np.abs(t.c.conj() - t.c.transpose(1, 0, 3, 2)).max())


def sample_directions(r, count, seed):
    """The first `count` directions of the seed's direction stream, rows of one array."""
    return np.concatenate([np.empty((0, r), dtype=complex), *direction_chunks(r, count, seed)])


# ---------------------------------------------------------------------------
# the wedge path: top ratios by explicit wedge powers
# ---------------------------------------------------------------------------

def wedge_power(f, k):
    """k-th wedge power of f, with f**0 the constant 1."""
    if k < 0:
        raise ValueError("negative wedge power")
    out = Form.constant(f.m)
    for _ in range(k):
        out = wedge(out, f)
    return out


def factorial_power(f, k):
    """f**k / k!, the normalised power used in the top-form identities."""
    return wedge_power(f, k) / math.factorial(k)


def top_ratio(t, vol):
    """The unique scalar c with t == c * vol, for two (m,m)-forms.

    vol must be nonzero; t may be zero (giving 0).
    """
    for f, name in ((t, "t"), (vol, "vol")):
        if f.p != f.m or f.q != f.m:
            raise ValueError(f"{name} has bidegree ({f.p},{f.q}), expected top degree ({f.m},{f.m})")
    if t.m != vol.m:
        raise ValueError(f"dimension mismatch: m={t.m} vs m={vol.m}")
    v = complex(vol.a[0, 0])
    if v == 0:
        raise ZeroDivisionError("top_ratio against the zero volume form")
    return complex(t.a[0, 0]) / v


def mean_curvature_wedge(t, w):
    """Mean curvature T by one wedge against omega^(n-1)/(n-1)! and one
    top_ratio per entry Theta_hat[mu, lam]."""
    vol = factorial_power(Form.one_one(w.g), t.n)
    wpow = factorial_power(Form.one_one(w.g), t.n - 1)
    T = np.empty((t.r, t.r), dtype=complex)
    for mu in range(t.r):
        for lam in range(t.r):
            T[mu, lam] = top_ratio(wedge(t.entry(mu, lam), wpow), vol)
    return 0.5 * (T + T.conj().T)


def degree_two_wedge(t, w):
    """The ratios against omega^n that the inequality checks read, by the form algebra:
    c_1^2, c_2 and s_2 wedged with omega^(n-2) and c_1 ^ omega^(n-1), from chern_forms and
    segre_forms, each one top_ratio of a wedge with an explicit power of omega."""
    omega = Form.one_one(w.g)
    vol = wedge_power(omega, t.n)
    c = chern_forms(t, 2)
    s = segre_forms(c, 2)

    def ratio(f):
        return top_ratio(wedge(f, wedge_power(omega, t.n - f.p)), vol).real

    return {"c1_sq": ratio(wedge(c[1], c[1])), "c2": ratio(c[2]), "s2": ratio(s[2]),
            "c1": ratio(c[1])}


def direction_form(t, v):
    """The Hermitian matrix of the real (1,1)-form (i/2pi)<Theta v, v>/|v|^2
    of a fiber direction v."""
    return direction_matrices(t, np.reshape(v, (1, -1)))[0]


# ---------------------------------------------------------------------------
# the eigenvalue side: gamma_k, the primitive split, the gamma_2 bounds
# ---------------------------------------------------------------------------

def gamma_rel(a, w, k):
    """gamma_k(alpha/omega) of a Hermitian matrix a: elementary symmetric
    polynomial of the relative eigenvalues."""
    return float(elem_sym(relative_eigenvalues(a, w), k))


def primitive_split(c1, w):
    """Split c1 = eta + f*omega with eta omega-primitive (gamma_1(eta/omega) = 0).

    Returns (eta, f) with f = gamma_1(c1/omega)/n; eta then satisfies
    eta ^ omega^{n-1} = 0.  c1 and eta are Hermitian matrices.
    """
    f = gamma_rel(c1, w, 1) / w.n
    return c1 - f * w.g, f


def primitive_square_ratio(eta, w):
    """sum_{j<k} alpha_j alpha_k over the relative eigenvalues of a primitive eta.

    This is the coefficient governing eta^2 ^ omega^{n-2}; it is <= 0, with
    equality only for eta = 0.  Requires n >= 2 and gamma_1(eta/omega) ~ 0.
    """
    if w.n < 2:
        raise PreconditionError("primitive square ratio needs n >= 2")
    alphas = relative_eigenvalues(eta, w)
    g1 = float(elem_sym(alphas, 1))
    if abs(g1) > PRIMITIVITY_RTOL * (1.0 + float(np.abs(eta).max())):
        raise PreconditionError(f"input is not primitive: gamma_1 = {g1:.3e}")
    return float(elem_sym(alphas, 2))


def kl_segre_margin_primitive(t, w):
    """The Segre-form margin of kl_segre, rederived through c_1 = eta + f*omega.

    margin = -((r+1)/2r) * [eta^2 ^ omega^{n-2} / omega^n] - (1/2r) * q_classical,
    with the eta^2 term evaluated through relative eigenvalues rather than
    wedge products.  Returns {"margin", "f", "eta_residual"}.
    """
    if t.n < 2:
        raise PreconditionError("primitive decomposition path needs n >= 2")
    _require_he(t, w)
    n, r = t.n, t.r
    eta, f = primitive_split(np.einsum("jkll->jk", t.c), w)
    # eta ^ omega^{n-1} must vanish identically
    eta_top = wedge(Form.one_one(eta), wedge_power(Form.one_one(w.g), n - 1))
    eta2 = 2.0 * primitive_square_ratio(eta, w) / (n * (n - 1))
    q = kl_classical(t, w)["q"]
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


def gamma2_bound(t, w, v):
    """Directional bound gamma_2(theta_v/omega) <= (n-1) lambda^2 / (2n).

    Requires Hermite-Einstein input.  Equality at a direction v means all
    relative eigenvalues of theta_v equal lambda/n, i.e. theta_v = (lambda/n) omega.
    """
    lam = _require_he(t, w)
    theta = direction_form(t, v)
    bound = (t.n - 1) * lam * lam / (2 * t.n)
    eq = float(np.abs(theta - (lam / t.n) * w.g).max()) <= DEFAULT_EQUALITY_TOL
    return {"gamma2": gamma_rel(theta, w, 2), "bound": bound, "equality": eq}


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
    return CurvatureTensor(t.n, r * r, c_dual.reshape(t.n, t.n, r * r, r * r))


def phi_k_scalar(T, k):
    """Sphere average of <T v, v>^k for Hermitian T, in closed form.

    Equals sigma_k(eigenvalues) / binom(r-1+k, k), sigma_k produced from the
    elementary symmetric polynomials through the Newton-type recursion over
    real scalars (newton_scalar); positive for positive definite T.
    """
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError("expected a square matrix")
    if float(np.abs(T - T.conj().T).max()) > 1e-10 * max(1.0, float(np.abs(T).max())):
        raise ValueError("matrix is not Hermitian within tolerance")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1.0
    r = T.shape[0]
    eigs = np.linalg.eigvalsh(T)
    gammas = [1.0] + [elem_sym(eigs, j) for j in range(1, min(k, r) + 1)]
    return float(newton_scalar(gammas, k)[k]) / math.comb(r - 1 + k, k)


def newton_scalar(gammas, m_max):
    """sigma_0..sigma_m_max of the Newton-type recursion over real scalars:
    sigma_m = sum_{j=1}^{m} (-1)^(j+1) gamma_j sigma_{m-j}, gamma_0 = 1 and
    gamma_j beyond the given sequence zero; curvature.segre_forms runs it over
    forms, with gamma_j = (-1)^j c_j."""
    sigmas = [1.0]
    for m in range(1, m_max + 1):
        acc = 0.0
        for j in range(1, min(m, len(gammas) - 1) + 1):
            term = gammas[j] * sigmas[m - j]
            acc = acc + (term if j % 2 else (-1.0) * term)
        sigmas.append(acc)
    return sigmas


def permanent_int(rows):
    """Permanent of a small integer matrix, by Ryser's inclusion-exclusion."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    total = 0
    for mask in range(1, 1 << n):
        bits = bin(mask).count("1")
        prod = 1
        for row in rows:
            s = 0
            m = mask
            j = 0
            while m:
                if m & 1:
                    s += row[j]
                m >>= 1
                j += 1
            prod *= s
            if prod == 0:
                break
        total += (-1) ** (n - bits) * prod
    return total


def splitmix64_loop(state):
    """SplitMix64 (Steele, Lea & Flood 2014) at a 64-bit state, one Python integer per
    output, without end."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = (state ^ state >> 30) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
        yield z ^ z >> 31


def stream_state_loop(key):
    """The SplitMix64 state of the stream named by a tuple of integers >= 0: from 0, for
    each integer its number of 64-bit words and then those words, lowest first, each
    xored into the state, which then becomes the first output at it."""
    state = 0
    for k in key:
        if k < 0:
            raise ValueError(f"negative key {k}")
        words = [k >> 64 * i & (2**64 - 1) for i in range(max(1, math.ceil(k.bit_length() / 64)))]
        for word in [len(words), *words]:
            state = next(splitmix64_loop(state ^ word))
    return state


def uniforms_loop(state):
    """The uniforms at a state: output z is (2 floor(z / 2^11) + 1 - 2^53) / 2^53, an exact
    quotient of integers below 2^53 by a power of two."""
    for z in splitmix64_loop(state):
        yield (2 * (z >> 11) + 1 - 2**53) / 2**53


def complex_normals_loop(key, count):
    """The first `count` complex normals of the stream named by key, one pair of uniforms
    at a time: (u + iv) sqrt(-2 ln s / s) for s = u^2 + v^2 < 1 (Marsaglia and Bray)."""
    uniforms, out = uniforms_loop(stream_state_loop(key)), []
    while len(out) < count:
        u, v = next(uniforms), next(uniforms)
        s = u * u + v * v
        if s < 1:
            f = math.sqrt(-2 * math.log(s) / s)
            out.append(complex(u * f, v * f))
    return out


def moment_permanent(r, lambdas, mus):
    """Sphere moment in C^r as perm(M) * (r-1)!/(r-1+k)! with M_{ab} = [l_a == m_b]."""
    M = [[1 if la == mb else 0 for mb in mus] for la in lambdas]
    return Fraction(permanent_int(M) * math.factorial(r - 1),
                    math.factorial(r - 1 + len(lambdas)))


def moment_mc_loop(r, lambdas, mus, samples, seed):
    """Monte Carlo estimate of one sphere moment in C^r; returns (estimate, stderr).

    One moment per draw: chunk c holds the complex normals of the library's
    stream (seed, c), r per direction, normalised here out of place, and the
    product over the lambda and conjugated mu columns is taken by np.prod on
    fancy-indexed copies.
    """
    samples = int(samples)
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not lambdas:
        return complex(1.0), 0.0
    lam = np.array(lambdas) - 1
    mu = np.array(mus) - 1
    acc = 0j
    acc_sq = 0.0
    done = 0
    chunk_idx = 0
    while done < samples:
        count = min(_MC_CHUNK, samples - done)
        z = _complex_normals((seed, chunk_idx), count * r).reshape(count, r)
        v = z / np.linalg.norm(z, axis=1, keepdims=True)
        vals = np.prod(v[:, lam], axis=1) * np.prod(v[:, mu].conj(), axis=1)
        acc += vals.sum()
        acc_sq += float((vals.real**2 + vals.imag**2).sum())
        done += count
        chunk_idx += 1
    mean = acc / samples
    var = max(acc_sq - samples * abs(mean) ** 2, 0.0) / (samples - 1)
    return complex(mean), float(math.sqrt(var / samples))


def complete_sym(values, k):
    """Complete homogeneous symmetric polynomial sigma_k, by enumeration.

    Sums the products over all weakly increasing k-tuples.  Only supported
    for k <= 6; larger degrees go through newton_scalar.
    """
    values = [float(v) for v in values]
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > _COMPLETE_SYM_MAX_K:
        raise ValueError(f"direct enumeration supports k <= {_COMPLETE_SYM_MAX_K}; use newton_scalar")
    total = 0.0
    for tup in combinations_with_replacement(values, k):
        total += math.prod(tup)
    return total


def phi_k_scalar_moments(T, k):
    """Moment-sum evaluation of phi_k over ordered index tuples.

    Runs over every ordered lambda in [1,r]^k and every distinct
    rearrangement mu of it (all other moments vanish), weighting
    T[mu_1, lambda_1] ... T[mu_k, lambda_k] by the permanent moment.
    """
    T = np.asarray(T, dtype=complex)
    r = T.shape[0]
    acc = 0j
    for lams in product(range(1, r + 1), repeat=k):
        for mus in set(permutations(lams)):
            w = moment_permanent(r, lams, mus)
            acc += float(w) * math.prod(T[mu - 1, la - 1] for la, mu in zip(lams, mus))
    return float(acc.real)


def phi_k_tensor_naive(t, k):
    """Reference r^(2k) loop for phi_k, the sphere average of theta_v^k:
    (-1)^k binom(r-1+k, k) phi_k is the k-th form of projective.pushforward_exact."""
    if k == 0:
        return Form.constant(t.n)
    if k > t.n:
        return Form(t.n, k, k)
    acc = Form(t.n, k, k)
    idx = range(1, t.r + 1)
    for lams in product(idx, repeat=k):
        for mus in product(idx, repeat=k):
            mom = moment_permanent(t.r, lams, mus)
            if mom == 0:
                continue
            term = t.entry(mus[0] - 1, lams[0] - 1)
            for la, mu in zip(lams[1:], mus[1:]):
                term = wedge(term, t.entry(mu - 1, la - 1))
            acc = acc + float(mom) * term
    return acc


def phi_k_tensor_lex(t, k):
    """phi_k walking the weakly increasing lambdas of degree k alone, in
    lexicographic order, and keeping every suffix sum to the end."""
    if k == 0:
        return Form.constant(t.n)
    if k > t.n:
        return Form(t.n, k, k)
    theta = [[t.entry(mu, lam) for mu in range(t.r)] for lam in range(t.r)]
    suffix_sums = {}

    def arrangements(lams, mus):
        if len(lams) == 1:
            return theta[lams[0]][mus[0]]
        total = suffix_sums.get((lams, mus))
        if total is None:
            for j, mu in enumerate(mus):
                if j and mus[j - 1] == mu:
                    continue
                term = wedge(theta[lams[0]][mu], arrangements(lams[1:], mus[:j] + mus[j + 1:]))
                total = term if total is None else total + term
            suffix_sums[(lams, mus)] = total
        return total

    parts = np.array([arrangements(lams, lams).a
                      for lams in combinations_with_replacement(range(t.r), k)])
    summed = np.apply_along_axis(math.fsum, 0, parts.view(float)).view(complex)
    return Form(t.n, k, k, summed / math.comb(t.r - 1 + k, k))


def direct_sum(t1, t2):
    """The curvature of the orthogonal direct sum E + F at a point, E's frame first: c is
    block diagonal in the fiber indices."""
    c = np.zeros((t1.n, t1.n, t1.r + t2.r, t1.r + t2.r), dtype=complex)
    c[:, :, :t1.r, :t1.r] = t1.c
    c[:, :, t1.r:, t1.r:] = t2.c
    return CurvatureTensor(t1.n, t1.r + t2.r, c)


def dual(t):
    """The curvature of the dual bundle at a point: c[j,k,lam,mu] -> -c[j,k,mu,lam]."""
    return CurvatureTensor(t.n, t.r, -t.c.transpose(0, 1, 3, 2))


def elem_sym_scalar(values, k):
    """gamma_k of a sequence of reals, by the update loop over Python floats."""
    values = [float(v) for v in values]
    e = [1.0] + [0.0] * k
    for v in values:
        for j in range(k, 0, -1):
            e[j] += v * e[j - 1]
    return e[k]


def pushforward_mc_loop(t, k, samples, seed):
    """Monte Carlo pushforward with one sparse wedge power per sampled direction.

    Returns (mean, stderr) as (k,k)-forms like projective.pushforward_mc,
    the standard error taken two-pass from the stored per-direction terms.
    """
    factor = (-1.0) ** k * math.comb(t.r - 1 + k, k)
    terms = [factor * wedge_power(Form.one_one(direction_form(t, v)), k)
             for v in sample_directions(t.r, samples, seed)]
    keys = set().union(*(f.coeffs for f in terms))
    x = {key: np.array([f.coeffs.get(key, 0j) for f in terms]) for key in keys}
    mean = form_from_dict(t.n, k, k, {key: v.mean() for key, v in x.items()})
    err = form_from_dict(t.n, k, k, {key: np.std(v, ddof=1) / math.sqrt(samples)
                                     for key, v in x.items()})
    return mean, err


def gamma_profile_loop(t, w, k, samples, seed):
    """gamma_k(theta_v/omega) of each sampled direction, one gamma_rel call each."""
    return np.array([gamma_rel(direction_form(t, v), w, k)
                     for v in sample_directions(t.r, samples, seed)])


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


def wedge_sparse(a, b):
    """Wedge product over the nonzero coefficients of a and b, key pair by key pair."""
    if a.m != b.m:
        raise ValueError(f"dimension mismatch: m={a.m} vs m={b.m}")
    p, q = a.p + b.p, a.q + b.q
    if p > a.m or q > a.m:
        return Form(a.m, p, q)
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
            out[(I, J)] = out.get((I, J), 0j) + (swap * sI * sJ) * c1 * c2
    return form_from_dict(a.m, p, q, out)


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _det_wedge(entries, subset):
    """Determinant of the subset x subset minor of a matrix of commuting forms."""
    m = entries[subset[0]][subset[0]].m
    k = len(subset)
    acc = Form(m, k, k)
    for perm in permutations(range(k)):
        term = Form.constant(m)
        for a in range(k):
            term = wedge(term, entries[subset[a]][subset[perm[a]]])
        acc = acc + _perm_sign(perm) * term
    return acc


def chern_forms_minors(t):
    """Chern forms [c_0, ..., c_r] as sums of principal minors of (Theta_hat[mu,lam])."""
    entries = [[t.entry(mu, lam) for lam in range(t.r)] for mu in range(t.r)]
    forms = [Form.constant(t.n)]
    for k in range(1, t.r + 1):
        acc = Form(t.n, k, k)
        if k <= t.n:
            for subset in combinations(range(t.r), k):
                acc = acc + _det_wedge(entries, subset)
        forms.append(acc)
    return forms


def chern_forms_full_power(t, top):
    """curvature.chern_forms with every matrix power Theta_hat^k built in full."""
    theta = [[t.entry(mu, lam) for lam in range(t.r)] for mu in range(t.r)]
    add = functools.partial(functools.reduce, operator.add)
    power, sums, forms = theta, [None], [Form.constant(t.n)]
    for k in range(1, top + 1):
        if k > min(t.n, t.r):
            forms.append(Form(t.n, k, k))
            continue
        if k > 1:
            power = [[add(wedge(power[a][b], theta[b][d]) for b in range(t.r))
                      for d in range(t.r)] for a in range(t.r)]
        sums.append(add(power[a][a] for a in range(t.r)))
        forms.append(add((-1.0) ** (i - 1) * wedge(forms[k - i], sums[i])
                         for i in range(1, k + 1)) / k)
    return forms


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


def block_embed(f, offset, m):
    """Reindex a form on C^a into coordinates offset+1 .. offset+a of C^m.

    Index shifts preserve relative order, so no signs appear; wedges of
    embeddings into disjoint blocks agree with embedding the wedge.
    """
    if offset < 0 or offset + f.m > m:
        raise ValueError(f"block [{offset + 1}, {offset + f.m}] does not fit in C^{m}")
    rows, cols = (
        [_basis(m, d)[1][tuple(i + offset for i in s)] for s in _basis(f.m, d)[0]]
        for d in (f.p, f.q))
    out = Form(m, f.p, f.q)
    out.a[np.ix_(rows, cols)] = f.a
    return out


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
    vertical = np.eye(t.r - 1) / (2.0 * math.pi)
    e_last = np.zeros(t.r, dtype=complex)
    e_last[-1] = 1.0
    horizontal = direction_form(rotate_tensor(t, unitary_sending_last_to(v)), e_last)
    return (block_embed(Form.one_one(vertical), t.n, m)
            - block_embed(Form.one_one(horizontal), 0, m))


def top_form_residual(t, w, v, k, scalar=None):
    """(top ratio, residual) of the degree-k identity at v, wedging Xi on C^(n+r-1).

    The ratio is Xi^{r-1+k}/(r-1+k)! ^ omega^{n-k}/(n-k)! over
    Xi^{r-1}/(r-1)! ^ omega^n/n!, the residual the max coefficient of the
    first minus scalar times the second; scalar defaults to
    (-1)^k gamma_k(theta_v/omega) from one gamma_rel call.
    """
    if scalar is None:
        scalar = (-1.0) ** k * gamma_rel(direction_form(t, v), w, k)
    xi = xi_at(t, v)
    omega_h = block_embed(Form.one_one(w.g), 0, t.n + t.r - 1)
    lhs = wedge(factorial_power(xi, t.r - 1 + k), factorial_power(omega_h, t.n - k))
    rhs = wedge(factorial_power(xi, t.r - 1), factorial_power(omega_h, t.n))
    return top_ratio(lhs, rhs), (lhs - scalar * rhs).max_abs()


# ---------------------------------------------------------------------------
# generators through real (1,1)-form arithmetic
# ---------------------------------------------------------------------------

def _real_one_one(g):
    """The coefficients of a real (1,1)-form: Hermitian within 1e-12, then
    symmetrized, as every sum and multiple of such forms is."""
    g = np.asarray(g, dtype=complex)
    if np.abs(g - g.conj().T).max(initial=0.0) > 1e-12:
        raise ValueError("coefficient matrix must be Hermitian")
    return 0.5 * (g + g.conj().T)


def projectively_flat_tensor_forms(n, r, seed, w=None, lam=None):
    """curvature.projectively_flat_tensor, and given w and lam its slope fixed by adding
    s * omega to beta, with beta, s * omega and their sum each rebuilt as a real
    (1,1)-form, one symmetrization per operation."""
    b = _complex_normals((seed,), n * n).reshape(n, n)
    beta = _real_one_one(0.5 * (b + b.conj().T))
    if w is not None and lam is not None:
        cur = float(omega_ratio(1j * beta, w, 1).real)
        beta = _real_one_one(beta + _real_one_one(((float(lam) - cur) / n) * w.g))
    return CurvatureTensor(n, r, np.einsum("jk,ml->jklm", beta, np.eye(r)))


def forms_equal(a, b):
    """Whether two forms have one bidegree and bitwise equal coefficient arrays."""
    return (a.m, a.p, a.q) == (b.m, b.p, b.q) and np.array_equal(a.a, b.a)
