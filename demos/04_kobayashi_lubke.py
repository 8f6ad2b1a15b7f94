# Kobayashi-Luebke-type inequalities and their equality cases.
#
# For Hermite-Einstein curvature data the classical pointwise inequality
# bounds (r-1)c_1^2 - 2r c_2 against zero; the Segre-form version bounds
# s_2 ^ omega^{n-2} by lambda^2 r(r+1)/(2n^2) omega^n.  Equality in the
# first means projective flatness, in the second the stronger condition
# that the curvature is an omega-multiple of the identity.

import numpy as np

import segreform as sf

n, r, lam = 2, 2, 0.8
w = sf.Kaehler11.euclidean(n)

t = sf.project_to_he(sf.random_curvature(n, r, seed=21), w, lam)
he, slope = sf.is_hermite_einstein(t, w)
print("Hermite-Einstein:", he, " slope:", round(slope, 12))

print("\nclassical check:", sf.kl_classical(t, w))
out = sf.kl_segre(t, w)
print("Segre-form check:", {k: round(v, 6) if isinstance(v, float) else v
                            for k, v in out.items()})

# the same margin assembled independently through c_1 = eta + f omega, with
# eta primitive: margin = -((r+1)/2r) eta^2 ^ omega^{n-2}/omega^n - q/(2r),
# the eta^2 term from the relative eigenvalues of eta
c1 = np.einsum("jkll->jk", t.c)
f = sf.elem_sym(sf.relative_eigenvalues(c1, w), 1) / n
eta2 = 2 * sf.elem_sym(sf.relative_eigenvalues(c1 - f * w.g, w), 2) / (n * (n - 1))
alt = -(r + 1) / (2 * r) * eta2 - sf.kl_classical(t, w)["q"] / (2 * r)
print("primitive-path margin:", round(alt, 6), " (direct:", round(out["margin"], 6), ")")

# equality families ------------------------------------------------------
strong = sf.strong_flat_tensor(n, r, w, lam)
print("\nomega-proportional instance:", sf.kl_segre(strong, w))
print("projectively flat:", sf.is_projectively_flat(strong),
      " strong-flat (Segre-form equality):", sf.kl_segre(strong, w)["equality"])

flat = sf.projectively_flat_tensor(n, r, seed=5, w=w, lam=lam)
print("\nbeta-tensor-identity instance:")
print("  classical:", sf.kl_classical(flat, w))         # equality fires
print("  Segre-form margin:", round(sf.kl_segre(flat, w)["margin"], 6), "(strict)")
print("  projectively flat:", sf.is_projectively_flat(flat),
      " strong-flat (Segre-form equality):", sf.kl_segre(flat, w)["equality"])
print("  bound for flat instances:", sf.projective_flat_bound(flat, w))

# directional bound behind the proof: gamma_2(theta_v/omega) <= (n-1) lambda^2/(2n)
theta_v = sf.direction_matrices(t, [[1.0, 1.0j]])[0]
print("\ndirectional bound: gamma_2", sf.elem_sym(sf.relative_eigenvalues(theta_v, w), 2),
      "<=", (n - 1) * slope**2 / (2 * n))

# surface comparison of the two bounds (n = 2)
print("\nsurface comparison:", sf.surface_compare(t, w))

# rescaling omega rescales the slope inversely and changes no verdicts
he2, slope2 = sf.is_hermite_einstein(t, sf.Kaehler11(2.0 * w.g))
print("\nslope under omega -> 2 omega:", round(slope2, 12))
