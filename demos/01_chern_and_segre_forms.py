# Chern and Segre forms from pointwise curvature data.
#
# A curvature tensor at a point is a 4-index array c[j,k,lambda,mu] giving
# the normalized endomorphism-valued (1,1)-form.  Chern forms come from the
# principal minors of that matrix of forms; Segre forms invert the total
# Chern form degree by degree.

import segreform as sf

n, r = 3, 3
t = sf.random_curvature(n, r, seed=2024)
print(t)

cs = sf.chern_forms(t)
print("\nChern forms: bidegrees", [(c.p, c.q) for c in cs])
print("c_1 nonzeros:", len(cs[1].coeffs), " c_2 nonzeros:", len(cs[2].coeffs))
print("all real:", all(c.is_real(1e-11) for c in cs))

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

# For a diagonal tensor the Chern forms are the elementary symmetric
# polynomials of the diagonal (1,1)-forms; Segre forms are the signed
# complete homogeneous ones.  Scalar shadow with eigenvalue sequences:
vals = [0.5, -1.0, 2.0]
gammas = [sf.elem_sym(vals, j) for j in range(4)]
sigmas = sf.newton_convert(gammas, 3)
print("\nscalar shadow: gamma =", gammas, " sigma =", [f"{s:.3g}" for s in sigmas])

# The same Newton recursion runs over the algebra of even-degree forms:
# segre_forms is that recursion with gamma_j = (-1)^j c_j.
