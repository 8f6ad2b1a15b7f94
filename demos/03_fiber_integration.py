# Fiber integration over the projectivized bundle, at a single point.
#
# At a fiber direction v the combined (1,1)-form splits into a vertical
# Fubini-Study block and minus the horizontal directional form.  Integrating
# its powers over the fiber lowers the degree by the fiber dimension and
# reproduces the Segre forms; two top-form identities control what happens
# degree by degree.  Everything below is exact linear algebra plus exact
# moments -- Monte Carlo enters only as an independent oracle.

import math

import numpy as np

import segreform as sf


def power(f, k):
    """f^k/k! by repeated wedges."""
    out = sf.Form.constant(f.m)
    for _ in range(k):
        out = sf.wedge(out, f)
    return out / math.factorial(k)


n, r = 2, 3
t = sf.random_curvature(n, r, seed=11)
w = sf.Kaehler11.euclidean(n)

# the combined form at v, on C^{n+r-1}: minus theta_v on the n base
# coordinates, the Fubini-Study block (1/2pi) Id on the r-1 fiber ones
v = np.array([1.0, 2.0j, -0.5])
m = n + r - 1
g = np.zeros((m, m), dtype=complex)
g[:n, :n] = -sf.direction_matrices(t, [v])[0]
g[n:, n:] = np.eye(r - 1) / (2 * np.pi)
xi = sf.Form.one_one(g)
print("combined form on C^{n+r-1}:", xi)

# only its top vertical power survives in a top form, so the degree-k
# identity reduces to a contraction of minors on the base, batched over
# directions; wedging xi itself gives the same top ratio
omega = np.zeros((m, m), dtype=complex)
omega[:n, :n] = w.g
omega = sf.Form.one_one(omega)
for k in range(1, n + 1):
    lhs = sf.wedge(power(xi, r - 1 + k), power(omega, n - k))
    vol = sf.wedge(power(xi, r - 1), power(omega, n))
    [ratio], _ = sf.identity_residuals(t, w, [v], k)
    print(f"k={k}: top ratio on C^{m} {(lhs.a[0, 0] / vol.a[0, 0]).real:+.6f}, "
          f"from minors {ratio.real:+.6f}")

# pushforward of powers: exact moment path vs the Segre recursion
ss = sf.segre_forms(sf.chern_forms(t, n), n)
for k in range(n + 1):
    exact = sf.pushforward_exact(t, k)
    print(f"k={k}: exact push vs s_k residual {(exact - ss[k]).max_abs():.2e}")

mc, err = sf.pushforward_mc(t, 2, 20_000, 3)
print("Monte Carlo push (20k dirs) vs s_2 max gap:",
      f"{(mc - ss[2]).max_abs():.3f} (stochastic; largest stderr {err.max_abs():.3f})")

# top-form identities at sampled fiber points, all directions in one call
print("\nidentity residuals over 10 random directions:")
for k in range(1, n + 1):
    _, residuals = sf.identity_residuals(t, w, next(sf.direction_chunks(r, 10, seed=4)), k)
    print(f"  degree k={k}: {residuals.max():.2e}")

# the rank-degree identity with a constant slope needs Hermite-Einstein input:
# gamma_1(theta_v/omega) is then the slope lambda at every direction
t_he = sf.project_to_he(t, w, 0.6)
he, slope = sf.is_hermite_einstein(t_he, w)
V = next(sf.direction_chunks(r, 10, seed=5))
_, residuals = sf.identity_residuals(t_he, w, V, 1, -slope)
print(f"Hermite-Einstein form of the identity (slope {slope:.6f}): {residuals.max():.2e}")

# gamma_k profiles over the fiber: degree 1 is constant exactly when the
# input is Hermite-Einstein; higher degrees generically vary
for k, prof in enumerate(sf.gamma_profile(t_he, w, 2, samples=400, seed=6), start=1):
    print(f"gamma_{k} spread over directions: {prof['spread']:.3e}")
