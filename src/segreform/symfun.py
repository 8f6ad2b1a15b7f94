"""Elementary symmetric polynomials and the Newton-type recursion.

The recursion sum_{j=0}^{m} (-1)^j sigma_j * gamma_{m-j} = 0 links the
elementary symmetric polynomials gamma_j to the complete homogeneous ones
sigma_j.  It only uses the ring operations; the package runs it over the
commutative algebra of even-degree form values, where the product is the
wedge.
"""

from __future__ import annotations

import numpy as np

from .exterior import Form


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


def newton_convert(gammas, m_max):
    """Solve the Newton-type recursion for sigma_0..sigma_m_max.

    sigma_m = sum_{j=1}^{m} (-1)^(j+1) gamma_j * sigma_{m-j}, with gamma_j
    beyond the given sequence treated as zero.  Entries are (j,j)-forms
    (with the wedge as product); entry 0 must be the constant-1 form, the
    unit of that algebra.  Returns the list sigma_0..sigma_m_max.
    """
    gammas = list(gammas)
    unit = gammas[0] if gammas else None
    if not (isinstance(unit, Form) and (unit.p, unit.q) == (0, 0)
            and abs(unit.coeff((), ()) - 1.0) <= 1e-12):
        raise ValueError(f"entry 0 must be the unit of the form algebra, got {unit!r}")
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    sigmas = [unit]
    for m in range(1, m_max + 1):
        acc = Form.zero(unit.m, m, m)
        for j in range(1, min(m, len(gammas) - 1) + 1):
            term = gammas[j] * sigmas[m - j]
            acc = acc + (term if j % 2 else (-1.0) * term)
        sigmas.append(acc)
    return sigmas
