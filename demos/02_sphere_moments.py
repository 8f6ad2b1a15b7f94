# Unitary-invariant sphere moments and the phi_k fiber average.
#
# The average of |v_1|^{2m_1} ... |v_r|^{2m_r} over the unit sphere of C^r
# is the exact rational m_1!...m_r!(r-1)!/(r-1+k)!.  Moments with crossed
# indices take the same value when the two index multisets agree (the Wick
# permanent is a product of factorials); otherwise they vanish.  Averaging
# <Tv,v>^k produces the complete homogeneous symmetric polynomial of the
# eigenvalues, normalized by binom(r-1+k, k).

import math

import numpy as np

import segreform as sf
from segreform.report import stderr_units

print("diagonal moments on C^2:")
for lams in [(1,), (1, 1), (1, 2)]:
    print(f"  E prod |v_l|^2, l={lams}:", sf.moment_wick(2, lams, lams))

print("\ncrossed indices E[v1 v2 conj(v2) conj(v1)] =", sf.moment_wick(2, (1, 2), (2, 1)))
print("unbalanced E[v1 conj(v2)] =", sf.moment_wick(2, (1,), (2,)))

# moment_mc reads a batch of moments of one r off one draw of directions;
# each estimate is the one its (lambdas, mus) pair would get alone with the same seed.
# stderr_units is the gap in standard errors that the CLI's Monte Carlo rows report.
batch = [((1, 2), (2, 1)), ((1, 1), (1, 1)), ((1,), (2,))]
print("\nMonte Carlo, one draw of 500k directions:")
for (lams, mus), (est, err) in zip(batch, sf.moment_mc(2, batch, samples=500_000, seed=1)):
    exact = complex(sf.moment_wick(2, lams, mus))
    print(f"  l={lams} m={mus}: {est.real:+.6f}{est.imag:+.6f}i +- {err:.6f}  "
          f"(exact {exact.real:.6f}, {stderr_units(est, exact, err):.2f} stderr units)")

# phi_k of a Hermitian matrix: sigma_k of its eigenvalues over binom(r-1+k, k),
# sigma_k from the elementary symmetric ones by the Newton-type recursion
rng = np.random.default_rng(7)
a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
T = 0.5 * (a + a.conj().T)
gammas = [sf.elem_sym(np.linalg.eigvalsh(T), j) for j in range(5)]
sigma = [1.0]
for m in range(1, 4):
    sigma.append(sum((-1) ** (j + 1) * gammas[j] * sigma[m - j] for j in range(1, m + 1)))
phi = [sigma[k] / math.comb(4 - 1 + k, k) for k in range(4)]
vs = np.concatenate(list(sf.direction_chunks(4, 200_000, seed=2)))
quad = np.einsum("si,ij,sj->s", vs.conj(), T, vs).real  # <T v, v> per direction
print("\nphi_k(T) for a random Hermitian T on C^4:")
for k in range(1, 4):
    mc = np.mean(quad**k)
    print(f"  k={k}: closed form {phi[k]:+.6f}, Monte Carlo (200k directions) {mc:+.6f}")
print("phi_1(T) equals tr(T)/r:", np.isclose(phi[1], np.trace(T).real / 4))

# The tensor-valued version averages the directional curvature form over
# fiber directions; signed and rescaled it reproduces the Segre forms.
t = sf.random_curvature(2, 3, seed=5)
ss = sf.segre_forms(sf.chern_forms(t, 2), 2)
for k in (1, 2):
    avg = sf.phi_k_tensor(t, k)
    gap = ((-1.0) ** k * math.comb(3 - 1 + k, k) * avg - ss[k]).max_abs()
    print(f"(-1)^{k} C(r-1+{k},{k}) phi_{k} vs s_{k}: residual {gap:.2e}")
