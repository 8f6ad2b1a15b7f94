"""Relative eigenvalues of real (1,1)-forms against a Kaehler form.

For a real (1,1)-form alpha and a Kaehler form omega at the same point, the
relative eigenvalues are the generalized eigenvalues of the Hermitian pencil
(A, G) of their coefficient matrices.  Their k-th elementary symmetric
polynomial gamma_k(alpha/omega) satisfies the top-form identity
alpha^k/k! ^ omega^{n-k}/(n-k)! = gamma_k * omega^n/n!, so an eigensolve
here is the independent side of every check that curvature.omega_ratio
evaluates as a contraction of minors.
"""

from __future__ import annotations

import numpy as np


def relative_eigenvalues(a, w):
    """Eigenvalues of alpha relative to omega, sorted ascending.

    Solves A v = alpha G v with G positive definite, as every Kaehler11 is, by
    Cholesky reduction: with G = L L^H, the eigenvalues are those of the
    Hermitian matrix L^-1 A L^-H, hence real for Hermitian A.  a is an
    (..., n, n) stack of Hermitian matrices A, whose eigenvalues fill the last axis.
    """
    A = np.asarray(a)
    if A.shape[-1] != w.n:
        raise ValueError("forms live on different dimensions")
    L_inv = np.linalg.inv(np.linalg.cholesky(w.g))
    return np.linalg.eigvalsh(L_inv @ A @ L_inv.conj().T)
