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

print("diagonal moments on C^2:")
for mult in [(1, 0), (2, 0), (1, 1)]:
    print(f"  E prod |v|^2m, m={mult}:", sf.moment_diagonal(2, mult))

spec = sf.MomentSpec(2, (1, 2), (2, 1))
print("\ncrossed indices E[v1 v2 conj(v2) conj(v1)] =", sf.moment_wick(spec))
print("unbalanced E[v1 conj(v2)] =", sf.moment_wick(sf.MomentSpec(2, (1,), (2,))))

# moment_mc reads a batch of moments of one r off one draw of directions;
# each estimate is the one its spec would get alone with the same seed.
batch = [spec, sf.MomentSpec(2, (1, 1), (1, 1)), sf.MomentSpec(2, (1,), (2,))]
print("\nMonte Carlo, one draw of 500k directions:")
for s, (est, err) in zip(batch, sf.moment_mc(batch, samples=500_000, seed=1)):
    exact = complex(sf.moment_wick(s))
    print(f"  l={s.lambdas} m={s.mus}: {est.real:+.6f}{est.imag:+.6f}i +- {err:.6f}  "
          f"(exact {exact.real:.6f}, {abs(est - exact) / err:.2f} stderr units)")

# phi_k of a Hermitian matrix: sigma_k of its eigenvalues over binom(r-1+k, k),
# sigma_k from the elementary symmetric ones by the Newton-type recursion
rng = np.random.default_rng(7)
a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
T = 0.5 * (a + a.conj().T)
eigs = np.linalg.eigvalsh(T)
sigma = sf.newton_convert([sf.elem_sym(eigs, j) for j in range(5)], 3)
phi = [sigma[k] / math.comb(4 - 1 + k, k) for k in range(4)]
vs = sf.sample_directions(4, 200_000, seed=2)
quad = np.einsum("si,ij,sj->s", vs.conj(), T, vs).real  # <T v, v> per direction
print("\nphi_k(T) for a random Hermitian T on C^4:")
for k in range(1, 4):
    mc = np.mean(quad**k)
    print(f"  k={k}: closed form {phi[k]:+.6f}, Monte Carlo (200k directions) {mc:+.6f}")
print("phi_1(T) equals tr(T)/r:", np.isclose(phi[1], np.trace(T).real / 4))

# The tensor-valued version averages the directional curvature form over
# fiber directions; signed and rescaled it reproduces the Segre forms.
t = sf.random_curvature(2, 3, seed=5)
ss = sf.segre_forms(sf.chern_forms(t), 2)
for k in (1, 2):
    avg = sf.phi_k_tensor(t, k)
    gap = ((-1.0) ** k * math.comb(3 - 1 + k, k) * avg - ss[k]).max_abs()
    print(f"(-1)^{k} C(r-1+{k},{k}) phi_{k} vs s_{k}: residual {gap:.2e}")
