import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segreform.curvature import (CurvatureTensor, Kaehler11, PreconditionError,
                                 chern_forms, direction_matrices, is_projectively_flat,
                                 mean_curvature, project_to_he,
                                 projectively_flat_tensor, random_curvature,
                                 strong_flat_tensor, tensor_from_dict)
from segreform.inequalities import (kl_classical, kl_segre, projective_flat_bound,
                                    surface_compare)
from segreform.kahler import relative_eigenvalues
from segreform.report import Report
from segreform.symfun import elem_sym

from conftest import random_spd
from oracles import (dual_endomorphism_tensor, gamma2_bound, gamma2_constrained_gap,
                     kl_segre_margin_primitive, primitive_square_ratio, sample_directions)


def he_instance(n, r, seed, lam=0.7, w=None):
    w = w or Kaehler11.euclidean(n)
    return project_to_he(random_curvature(n, r, seed), w, lam), w


class TestKLClassical:
    def test_projectively_flat_equality(self):
        w = Kaehler11.euclidean(2)
        t = project_to_he(projectively_flat_tensor(2, 2, seed=1), w, 0.9)
        out = kl_classical(t, w)
        assert abs(out["q"]) <= 1e-10
        assert out["equality"]

    def test_strictly_negative_generically(self):
        for seed in range(5):
            t, w = he_instance(2, 2, seed)
            out = kl_classical(t, w)
            assert out["q"] < -1e-6
            assert not out["equality"]

    def test_dual_tensor_reduction(self):
        # c_2(End E) = 2r c_2 - (r-1) c_1^2 with vanishing first Chern form,
        # so the rank-r^2 Segre check reproduces the classical quantity
        for (n, r, seed) in ((2, 2, 0), (2, 3, 1), (3, 2, 2)):
            t, w = he_instance(n, r, seed)
            dual = dual_endomorphism_tensor(t)
            cd = chern_forms(dual, dual.r)
            assert cd[1].max_abs() <= 1e-10
            c = chern_forms(t, t.r)
            from segreform.exterior import wedge as wdg
            expect_c2 = 2 * r * c[2] - (r - 1) * wdg(c[1], c[1])
            assert (cd[2] - expect_c2).max_abs() <= 1e-9
            out_dual = kl_segre(dual, w)
            q = kl_classical(t, w)["q"]
            assert abs(out_dual["lhs"] - q) <= 1e-9
            assert abs(out_dual["rhs"]) <= 1e-10  # slope of End(E) is zero

    def test_line_bundle_is_equality(self):
        # r = 1: c_2 = 0 and (r-1) c_1^2 vanishes, so q = 0 at projective flatness
        t, w = he_instance(2, 1, 3)
        out = kl_classical(t, w)
        assert out["q"] == 0 and out["equality"]

    def test_requires_surface_dimension(self):
        t, w = he_instance(1, 2, 3)
        with pytest.raises(PreconditionError):
            kl_classical(t, w)

    def test_requires_he(self):
        w = Kaehler11.euclidean(2)
        with pytest.raises(PreconditionError, match="Hermite-Einstein"):
            kl_classical(random_curvature(2, 2, seed=4), w)


class TestThm12:
    def test_strong_flat_equality_closed_form(self, rng):
        n, r, lam = 2, 3, 1.1
        w = Kaehler11(random_spd(n, rng))
        t = strong_flat_tensor(n, r, w, lam)
        out = kl_segre(t, w)
        expect = lam * lam * r * (r + 1) / (2 * n * n)
        assert out["lhs"] == pytest.approx(expect, abs=1e-10)
        assert out["rhs"] == pytest.approx(expect, abs=1e-12)
        assert abs(out["margin"]) <= 1e-10
        assert out["equality"]

    def test_zero_slope_instance(self):
        t, w = he_instance(2, 2, 5, lam=0.0)
        out = kl_segre(t, w)
        assert out["rhs"] == pytest.approx(0.0, abs=1e-20)
        assert out["lhs"] <= 1e-10

    def test_margin_positive_generically(self):
        for seed in range(5):
            t, w = he_instance(3, 2, seed)
            out = kl_segre(t, w)
            assert out["margin"] > 1e-4
            assert not out["equality"]

    def test_rhs_two_evaluations_agree(self):
        # lambda (r+1)/(2n) c_1 ^ omega^{n-1} and lambda^2 r(r+1)/(2n^2) are one trace of
        # T = lambda Id: they differ by rounding, relative to their size at every slope
        for lam, (n, r, seed) in itertools.product(
                (-0.3, 1.0, 1e4), ((2, 3, 0), (2, 3, 1), (3, 3, 11), (4, 2, 2))):
            out = kl_segre(*he_instance(n, r, seed, lam=lam))
            assert abs(out["rhs"] - out["rhs_chern"]) <= 1e-12 * abs(out["rhs"]), (lam, n, r)

    def test_equality_implies_classical_equality(self, rng):
        w = Kaehler11(random_spd(2, rng))
        t = strong_flat_tensor(2, 2, w, 0.6)
        assert kl_segre(t, w)["equality"]
        assert kl_classical(t, w)["equality"]

    def test_equality_flags_are_structural_at_large_slope(self):
        # on exact equality instances at lambda = 1e4 the margin and q are rounding of size
        # 1e-8 (c is of size 1e4, the ratios of size 1e8): the structural tests alone hold
        w = Kaehler11(np.array([[2.0, 1.0], [1.0, 3.0]]))
        assert kl_segre(strong_flat_tensor(2, 2, w, 1e4), w)["equality"]
        w3 = Kaehler11.euclidean(3)
        assert kl_classical(project_to_he(projectively_flat_tensor(3, 3, 3), w3, 1e4), w3)["equality"]

    def test_classical_equality_without_strong(self):
        # the beta-tensor-identity family: classical equality, strict here
        w = Kaehler11.euclidean(2)
        t = project_to_he(projectively_flat_tensor(2, 2, seed=7), w, 0.8)
        assert kl_classical(t, w)["equality"]
        out = kl_segre(t, w)
        assert out["margin"] > 1e-6 and not out["equality"]


class TestPrimitivePath:
    def test_margin_rederivation_agrees(self):
        for (n, r, seed) in ((2, 2, 0), (2, 3, 1), (3, 2, 2), (3, 3, 3)):
            t, w = he_instance(n, r, seed, lam=0.4)
            direct = kl_segre(t, w)["margin"]
            alt = kl_segre_margin_primitive(t, w)
            assert abs(direct - alt["margin"]) <= 1e-9
            assert alt["eta_residual"] <= 1e-10
            assert alt["f"] == pytest.approx(0.4 * r / n, abs=1e-10)


class TestMarginAsMeanGap:
    """Theorem 1.2 by the paper's own proof.  On HE input identity (8) gives
    gamma_1(theta_v/omega) = lambda at every fiber direction v; the pushforward trace at
    k = 2 and Maclaurin's inequality in Newton's form then give

        margin = r(r+1)/(2 n^2 (n-1)) * E_v[sum_{i<j} (x_i(v) - x_j(v))^2],

    x(v) the eigenvalues of theta_v relative to omega.  The mean is sampled from
    eigensolves of the direction matrices, apart from the wedge path of kl_segre."""

    OMEGA3 = np.array([[2.0, 0.3 + 0.4j, 0.1j], [0.3 - 0.4j, 1.5, -0.2 + 0.1j],
                       [-0.1j, -0.2 - 0.1j, 1.0]])

    @staticmethod
    def gaps(t, w, lam, count=10**4, seed=1):
        """sum_{i<j} (x_i(v) - x_j(v))^2 at the first `count` directions of the seed's stream."""
        x = relative_eigenvalues(direction_matrices(t, sample_directions(t.r, count, seed)), w)
        assert np.abs(x.sum(axis=1) - lam).max() <= 1e-12 * max(1.0, abs(lam))  # identity (8)
        return ((x[:, :, None] - x[:, None, :]) ** 2).sum(axis=(1, 2)) / 2

    @staticmethod
    def units(margin, t, gaps):
        """|margin - the scaled mean gap| in standard errors of that mean."""
        scaled = t.r * (t.r + 1) / (2 * t.n ** 2 * (t.n - 1)) * gaps
        return abs(margin - scaled.mean()) / (scaled.std(ddof=1) / math.sqrt(gaps.size) + 1e-12)

    @pytest.mark.parametrize("n, r, lam, omega", [(8, 8, 1.0, None), (3, 3, 0.7, OMEGA3)],
                             ids=["8x8-euclidean", "3x3-complex-omega"])
    def test_margin_is_the_mean_gap(self, n, r, lam, omega):
        w = Kaehler11(omega) if omega is not None else None
        t, w = he_instance(n, r, 11, lam=lam, w=w)
        assert self.units(kl_segre(t, w)["margin"], t, self.gaps(t, w, lam)) <= 4

    def test_strong_flat_has_no_gap(self):
        w = Kaehler11(self.OMEGA3)
        for lam in (0.7, -2.0, 1e4):
            t = strong_flat_tensor(3, 3, w, lam)
            assert self.gaps(t, w, lam, count=2000).max() <= 1e-12 * lam * lam
            assert kl_segre(t, w)["equality"]

    def test_a_wrong_right_hand_side_is_caught(self):
        # near the equality case the mean gap is small and sharp: the mutant r(r+2) for
        # r(r+1) in the right-hand side moves the margin by lambda^2 r/(2n^2), far outside it
        n, r, lam = 3, 3, 0.7
        w = Kaehler11(self.OMEGA3)
        base = strong_flat_tensor(n, r, w, lam).c + 0.05 * random_curvature(n, r, 5).c
        t = project_to_he(CurvatureTensor(n, r, base), w, lam)
        gaps, margin = self.gaps(t, w, lam), kl_segre(t, w)["margin"]
        assert self.units(margin, t, gaps) <= 4
        assert self.units(margin + lam * lam * r / (2 * n * n), t, gaps) > 100


class TestConstrainedGap:
    def test_zero_offset(self):
        assert gamma2_constrained_gap([0.0, 0.0], 1.5) == pytest.approx(0.0, abs=1e-14)

    def test_maximum_value_formula(self):
        for n in (2, 3, 5):
            C = float(n)  # C/n = 1 exactly representable
            assert elem_sym([C / n] * n, 2) == math.comb(n, 2) * (C / n) ** 2

    def test_hand_case(self):
        assert gamma2_constrained_gap([1.0], 0.0) == pytest.approx(-1.0)

    def test_two_paths_agree(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            x = rng.standard_normal(n - 1)
            C = float(rng.standard_normal())
            gap = gamma2_constrained_gap(x, C)
            expect = -0.5 * x.sum() ** 2 - 0.5 * (x**2).sum()
            assert abs(gap - expect) <= 1e-12 * (1 + abs(expect))
            assert gap <= 1e-12


class TestGamma2Bound:
    def test_strong_flat_attains_bound(self, rng):
        w = Kaehler11(random_spd(2, rng))
        t = strong_flat_tensor(2, 3, w, 1.4)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out = gamma2_bound(t, w, v)
        assert out["gamma2"] == pytest.approx(out["bound"], abs=1e-10)
        assert out["equality"]

    def test_strict_below_bound_generically(self):
        t, w = he_instance(2, 3, 8, lam=0.9)
        for v in sample_directions(3, 50, seed=3):
            out = gamma2_bound(t, w, v)
            assert out["gamma2"] <= out["bound"] + 1e-10
            assert not out["equality"]

    def test_zero_slope(self):
        t, w = he_instance(3, 2, 9, lam=0.0)
        for v in sample_directions(2, 10, seed=4):
            out = gamma2_bound(t, w, v)
            assert out["bound"] == pytest.approx(0.0, abs=1e-20)
            assert out["gamma2"] <= 1e-10


class TestProjectiveFlatBound:
    def test_exact_multiple_of_omega(self, rng):
        w = Kaehler11(random_spd(2, rng))
        t = strong_flat_tensor(2, 2, w, 0.7)
        out = projective_flat_bound(t, w)
        assert out["lhs"] == pytest.approx(out["rhs"], abs=1e-10)
        assert out["lhs"] <= out["rhs"] + 1e-10

    def test_gap_is_primitive_square(self):
        # Theta = beta tensor Id with beta = eta + (lam/n) omega:
        # lhs - rhs = r^2 * gamma_2(eta/omega) for n = 2
        n, r, lam, a = 2, 3, 0.5, 0.8
        w = Kaehler11.euclidean(n)
        eta = np.diag([a, -a])
        beta = eta + (lam / n) * w.g
        t = CurvatureTensor(n, r, np.einsum("jk,ml->jklm", beta, np.eye(r)))
        out = projective_flat_bound(t, w)
        assert out["lhs"] - out["rhs"] == pytest.approx(-r * r * a * a, abs=1e-10)
        assert primitive_square_ratio(eta, w) == pytest.approx(-a * a, abs=1e-12)
        assert out["lhs"] <= out["rhs"] + 1e-10

    def test_random_projectively_flat_strict(self):
        w = Kaehler11.euclidean(3)
        for seed in (1, 2, 3):
            t = project_to_he(projectively_flat_tensor(3, 2, seed=seed), w, 1.0)
            out = projective_flat_bound(t, w)
            assert out["lhs"] < out["rhs"]

    def test_rejects_non_flat(self):
        t, w = he_instance(2, 2, 10)
        with pytest.raises(PreconditionError, match="projectively flat"):
            projective_flat_bound(t, w)


class TestSurfaceCompare:
    def test_condition11_discriminates(self):
        # condition (11) holds exactly when the Segre-form bound is stronger
        for seed in range(6):
            t, w = he_instance(2, 2, seed, lam=0.8)
            out = surface_compare(t, w)
            if out["condition11"]:
                assert out["stronger"] == "eq4"
            elif out["eq4_rhs"] != out["classical_rhs"]:
                assert out["stronger"] == "classical"

    def test_zero_slope_bound_reduces(self):
        t, w = he_instance(2, 3, 11, lam=0.0)
        out = surface_compare(t, w)
        assert out["eq4_rhs"] == pytest.approx(out["c2"], abs=1e-12)

    def test_strong_flat_slack(self, rng):
        n, r, lam = 2, 2, 1.0
        w = Kaehler11(random_spd(2, rng))
        t = strong_flat_tensor(n, r, w, lam)
        out = surface_compare(t, w)
        # c_k = C(r,k) (lam/2)^k ratios: c1^2 = 4*(1/4)*lam^2... frozen below
        assert out["c1_sq"] == pytest.approx(r * r * lam * lam / 4, abs=1e-10)
        assert out["c2"] == pytest.approx(math.comb(r, 2) * lam * lam / 4, abs=1e-10)
        assert out["c1_sq"] <= out["classical_rhs"] + 1e-10
        assert out["c1_sq"] - out["c2"] <= out["eq4_rhs"] - out["c2"] + 1e-10

    def test_dimension_and_rank_guards(self):
        t, w = he_instance(3, 2, 12)
        with pytest.raises(PreconditionError):
            surface_compare(t, w)
        t2, w2 = he_instance(2, 1, 13)
        with pytest.raises(PreconditionError):
            surface_compare(t2, w2)


class TestScaling:
    def test_verdicts_invariant_under_omega_scaling(self):
        t, w = he_instance(2, 2, 14, lam=0.6)
        for scale in (0.5, 3.0):
            w2 = Kaehler11(scale * w.g)
            he_dev = kl_segre(t, w2)
            base = kl_segre(t, w)
            # slope scales by 1/t, booleans unchanged
            assert he_dev["equality"] == base["equality"]
            assert (he_dev["margin"] >= -1e-10) == (base["margin"] >= -1e-10)
            q2, q1 = kl_classical(t, w2)["q"], kl_classical(t, w)["q"]
            assert (q2 <= 1e-10) == (q1 <= 1e-10)

    def test_slope_scales_inverse(self):
        from segreform.curvature import is_hermite_einstein

        t, w = he_instance(2, 3, 15, lam=0.9)
        for scale in (2.0, 5.0):
            he, lam = is_hermite_einstein(t, Kaehler11(scale * w.g))
            assert he and lam == pytest.approx(0.9 / scale, abs=1e-10)


def base_change(rng, n):
    """A random A in GL(n, C) with singular values in [0.5, 2]."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2


class TestBaseChange:
    # z = A z' pulls sum g_jk i dz_j ^ dzbar_k back to A^T g conj(A), on omega
    # and on every curvature entry alike; every ratio against omega is invariant
    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_ratios_against_omega_are_invariant(self, n, r, seed):
        rng = np.random.default_rng(seed)
        w = Kaehler11(random_spd(n, rng))
        t = project_to_he(random_curvature(n, r, seed), w, 0.7)
        A = base_change(rng, n)
        w2 = Kaehler11(A.T @ w.g @ A.conj())
        t2 = CurvatureTensor(n, r, np.einsum("ja,jklm,kb->ablm", A, t.c, A.conj()))

        def close(a, b):
            a, b = np.asarray(a), np.asarray(b)
            return np.abs(a - b).max() <= 1e-9 * max(1.0, np.abs(a).max())

        assert close(mean_curvature(t2, w2), mean_curvature(t, w))
        V = sample_directions(r, 5, seed % 1000)
        assert close(relative_eigenvalues(direction_matrices(t2, V), w2),
                     relative_eigenvalues(direction_matrices(t, V), w))
        assert close(kl_classical(t2, w2)["q"], kl_classical(t, w)["q"])
        seg, seg2 = kl_segre(t, w), kl_segre(t2, w2)
        assert close(seg2["lhs"], seg["lhs"])
        assert close(seg2["margin"], seg["margin"])


class TestOptionSurface:
    # the equality cases are fixed, so no check takes a tolerance no caller sets
    @pytest.mark.parametrize("fn, params", [
        (kl_classical, ["t", "w"]),
        (kl_segre, ["t", "w"]),
        (surface_compare, ["t", "w"]),
        (projective_flat_bound, ["t", "w"]),
        (is_projectively_flat, ["t"]),
        (tensor_from_dict, ["d", "symmetrize"]),
        (Report.add, ["self", "name", "value", "tolerance", "measured"]),
    ], ids=lambda x: getattr(x, "__name__", ""))
    def test_parameters(self, fn, params):
        assert list(inspect.signature(fn).parameters) == params
