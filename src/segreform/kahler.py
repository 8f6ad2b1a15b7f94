"""Relative eigenvalue analysis of real (1,1)-forms against a Kaehler form.

For a real (1,1)-form alpha and a Kaehler form omega at the same point, the
relative eigenvalues are the generalized eigenvalues of the Hermitian pencil
(A, G) of their coefficient matrices.  gamma_k(alpha/omega) is the k-th
elementary symmetric polynomial of those eigenvalues and satisfies the
top-form identity alpha^k/k! ^ omega^{n-k}/(n-k)! = gamma_k * omega^n/n!.
"""

from __future__ import annotations

import numpy as np

from .curvature import Kaehler11, PreconditionError, require_kaehler
from .symfun import elem_sym

PRIMITIVITY_RTOL = 1e-9


def relative_eigenvalues(a, w):
    """Eigenvalues of alpha relative to omega, sorted ascending.

    Solves A v = alpha G v with G positive definite by Cholesky reduction:
    with G = L L^H, the eigenvalues are those of the Hermitian matrix
    L^-1 A L^-H, hence real for Hermitian A.  a is a Kaehler11 or an
    (..., n, n) stack of matrices A, whose eigenvalues fill the last axis.
    """
    require_kaehler(w)
    A = a.g if isinstance(a, Kaehler11) else np.asarray(a)
    if A.shape[-1] != w.n:
        raise ValueError("forms live on different dimensions")
    L_inv = np.linalg.inv(np.linalg.cholesky(w.g))
    return np.linalg.eigvalsh(L_inv @ A @ L_inv.conj().T)


def gamma_rel(a, w, k):
    """gamma_k(alpha/omega): elementary symmetric polynomial of the relative eigenvalues."""
    return float(elem_sym(relative_eigenvalues(a, w), k))


def primitive_split(c1, w):
    """Split c1 = eta + f*omega with eta omega-primitive (gamma_1(eta/omega) = 0).

    Returns (eta, f) with f = gamma_1(c1/omega)/n; eta then satisfies
    eta ^ omega^{n-1} = 0.
    """
    require_kaehler(w)
    f = gamma_rel(c1, w, 1) / w.n
    eta = c1 - f * w
    return eta, f


def primitive_square_ratio(eta, w):
    """sum_{j<k} alpha_j alpha_k over the relative eigenvalues of a primitive eta.

    This is the coefficient governing eta^2 ^ omega^{n-2}; it is <= 0, with
    equality only for eta = 0.  Requires n >= 2 and gamma_1(eta/omega) ~ 0.
    """
    require_kaehler(w)
    if w.n < 2:
        raise PreconditionError("primitive square ratio needs n >= 2")
    alphas = relative_eigenvalues(eta, w)
    g1 = float(elem_sym(alphas, 1))
    if abs(g1) > PRIMITIVITY_RTOL * (1.0 + eta.max_abs()):
        raise PreconditionError(f"input is not primitive: gamma_1 = {g1:.3e}")
    return float(elem_sym(alphas, 2))
