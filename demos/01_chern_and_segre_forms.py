# Chern and Segre forms from pointwise curvature data.
#
# A curvature tensor at a point is a 4-index array c[j,k,lambda,mu] giving
# the normalized endomorphism-valued (1,1)-form.  Chern forms come from the
# principal minors of that matrix of forms; Segre forms invert the total
# Chern form degree by degree.

import numpy as np

import segreform as sf

n, r = 3, 3
t = sf.random_curvature(n, r, seed=2024)
print(t)

cs = sf.chern_forms(t)
print("\nChern forms: bidegrees", [(c.p, c.q) for c in cs])
print("c_1 nonzeros:", len(cs[1].coeffs), " c_2 nonzeros:", len(cs[2].coeffs))
# a (k,k)-form is real when coeff(I, J) == (-1)^k conj(coeff(J, I))
print("all real:", all(np.abs(c.a - (-1) ** c.p * c.a.conj().T).max() <= 1e-11 for c in cs))

ss = sf.segre_forms(cs, n)
print("\nSegre forms satisfy s_1 = -c_1:",
      (ss[1] + cs[1]).max_abs() < 1e-12)
print("and s_2 = c_1^2 - c_2:",
      (ss[2] - (sf.wedge(cs[1], cs[1]) - cs[2])).max_abs() < 1e-11)

# Inverting the total Chern form means sum_j c_j ^ s_{k-j} = 0 for k >= 1
for k in range(1, n + 1):
    acc = sf.Form.zero(n, k, k)
    for j in range(k + 1):
        acc = acc + sf.wedge(cs[j], ss[k - j])
    print(f"inversion residual at degree {k}: {acc.max_abs():.2e}")

# For Theta_hat = diag(a_1, ..., a_r) tensor omega, omega = sum_j i dz_j ^ dzbar_j,
# the Chern forms are c_k = gamma_k(a) omega^k and the Segre forms
# s_k = (-1)^k sigma_k(a) omega^k, gamma and sigma the elementary and complete
# homogeneous symmetric polynomials: a scalar shadow of the form algebra.
vals = [0.5, -1.0, 2.0]
diag = sf.CurvatureTensor(n, r, np.einsum("jk,ml->jklm", np.eye(n), np.diag(vals)))
cs, powers = sf.chern_forms(diag), [sf.Form.constant(n)]
for _ in range(n):
    powers.append(sf.wedge(powers[-1], sf.Form.one_one(np.eye(n))))
ss = sf.segre_forms(cs, n)
print("\nscalar shadow: gamma =", [f"{(c.a[0, 0] / p.a[0, 0]).real:.3g}" for c, p in zip(cs, powers)],
      " sigma =", [f"{((-1) ** k * s.a[0, 0] / p.a[0, 0]).real:.3g}"
                   for k, (s, p) in enumerate(zip(ss, powers))])
print("elem_sym agrees:", [f"{sf.elem_sym(vals, j):.3g}" for j in range(n + 1)])
