"""Elementary symmetric polynomials of real eigenvalues.

gamma_k of the relative eigenvalues of a directional (1,1)-form against
omega is the eigenvalue side of the fiber identities in projective; their
form side is a contraction of minors (curvature.omega_ratio).
"""

from __future__ import annotations

import numpy as np


def elem_sym(values, k):
    """Elementary symmetric polynomial gamma_k of reals along the last axis
    (a scalar for 1-D input); every entry uses the same update order."""
    values = np.asarray(values, dtype=float)
    m = values.shape[-1]
    if k < 0 or k > m:
        raise ValueError(f"k={k} out of range for {m} values")
    e = [np.ones(values.shape[:-1])] + [np.zeros(values.shape[:-1])] * k
    for i in range(m):
        for j in range(k, 0, -1):
            e[j] = e[j] + values[..., i] * e[j - 1]
    return e[k][()]

