import functools
import json
import math
import operator
import re
from itertools import combinations_with_replacement, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segreform import curvature
from segreform.curvature import (MAX_TOP_POWER, CurvatureTensor, Kaehler11, PreconditionError,
                                 TensorValidationError, _complex_normals, _he_deviation,
                                 _splitmix64, _uniforms, chern_forms,
                                 is_hermite_einstein, is_projectively_flat,
                                 mean_curvature, omega_ratio, project_to_he,
                                 projectively_flat_tensor, random_curvature,
                                 segre_forms, strong_flat_tensor,
                                 tensor_from_dict, tensor_to_dict)
from segreform.exterior import Form, wedge
from segreform.inequalities import kl_segre
from segreform.report import canonical_json

from conftest import random_form, random_hermitian, random_spd
from oracles import (allclose, chern_forms_full_power, chern_forms_minors, complex_normals_loop,
                     direction_form, dual_endomorphism_tensor, factorial_power, forms_equal,
                     hermitian_deviation, is_real, is_zero, mean_curvature_wedge,
                     projectively_flat_tensor_forms, rotate_tensor, splitmix64_loop,
                     stream_state_loop, top_ratio, uniforms_loop, wedge_power)


def tensor_from_diagonal(betas, r=None):
    """Theta_hat = diag(beta_1..beta_r) from Hermitian coefficient matrices."""
    n = len(betas[0])
    r = r or len(betas)
    c = np.zeros((n, n, r, r), dtype=complex)
    for i, beta in enumerate(betas):
        c[:, :, i, i] = beta
    return CurvatureTensor(n, r, c)


class TestChernForms:
    def test_zero_tensor(self):
        t = CurvatureTensor(2, 3)
        cs = chern_forms(t, t.r)
        assert cs[0].coeffs == {((), ()): 1}
        assert all(is_zero(cs[k]) for k in range(1, 4))

    def test_rank_one_is_entry(self, rng):
        g = random_hermitian(2, rng)
        t = CurvatureTensor(2, 1, g.reshape(2, 2, 1, 1))
        cs = chern_forms(t, t.r)
        assert allclose(cs[1], t.entry(0, 0), 1e-14)

    def test_scalar_times_identity_binomial(self, rng):
        # Theta_hat = beta tensor Id_r: det(1 + t beta)^r gives c_k = C(r,k) beta^k
        for n, r in ((3, 3), (8, 8)):
            beta = random_hermitian(n, rng)
            c = np.einsum("jk,ml->jklm", beta, np.eye(r))
            t = CurvatureTensor(n, r, c)
            cs = chern_forms(t, t.r)
            bf = Form.one_one(beta)
            for k in range(r + 1):
                expect = math.comb(r, k) * wedge_power(bf, k)
                assert (cs[k] - expect).max_abs() <= 1e-11 * (1 + expect.max_abs())

    @pytest.mark.parametrize("n, r", [(2, 3), (3, 3), (4, 4), (3, 5)])
    def test_power_sums_match_principal_minors(self, n, r):
        t = random_curvature(n, r, seed=10 * n + r)
        self._assert_agree(chern_forms(t, t.r), chern_forms_minors(t))

    def test_power_sums_match_minors_for_endomorphism_bundle(self):
        dual = dual_endomorphism_tensor(random_curvature(2, 3, seed=6))
        assert dual.r == 9
        self._assert_agree(chern_forms(dual, dual.r), chern_forms_minors(dual))

    @pytest.mark.parametrize("n, r", [(2, 2), (3, 2), (2, 4), (4, 4)])
    def test_top_degree_trace_matches_the_full_power_bitwise(self, n, r):
        t = random_curvature(n, r, seed=10 * n + r)
        for top in range(1, min(n, r) + 2):
            got, ref = chern_forms(t, top), chern_forms_full_power(t, top)
            assert len(got) == len(ref) and all(map(forms_equal, got, ref))

    @pytest.mark.parametrize("top", [1, 2, 3, 4])
    def test_top_degree_builds_only_the_diagonal(self, monkeypatch, top):
        # r^3 wedges for each full power below the top degree, r^2 for the diagonal at it,
        # and k for Newton's identity at each degree k
        n = r = 4
        calls = []
        monkeypatch.setattr(curvature, "wedge", lambda a, b: calls.append(1) or wedge(a, b))
        chern_forms(random_curvature(n, r, seed=3), top)
        power = max(top - 2, 0) * r ** 3 + (r ** 2 if top > 1 else 0)
        assert len(calls) == power + top * (top + 1) // 2

    @staticmethod
    def _assert_agree(got, ref):
        assert len(got) == len(ref)
        for g, f in zip(got, ref):
            assert (g.p, g.q) == (f.p, f.q)
            assert (g - f).max_abs() <= 1e-11 * (1 + f.max_abs())

    def test_chern_forms_are_real(self, rng):
        t = random_curvature(2, 3, seed=4)
        for ck in chern_forms(t, t.r):
            assert is_real(ck, 1e-11)

    def test_diagonal_matches_symmetric_polynomials(self, rng):
        # diagonal curvature: c_k = gamma_k(betas) in the form algebra and
        # s_k = (-1)^k sigma_k(betas), sigma_k the sum of the wedges over k-multisets
        n = 3
        betas = [random_hermitian(n, rng) for _ in range(3)]
        t = tensor_from_diagonal(betas)
        cs = chern_forms(t, t.r)
        forms = [Form.one_one(b) for b in betas]
        # gamma_2 = b1 b2 + b1 b3 + b2 b3 etc.
        g1 = forms[0] + forms[1] + forms[2]
        g2 = (wedge(forms[0], forms[1]) + wedge(forms[0], forms[2])
              + wedge(forms[1], forms[2]))
        g3 = wedge(forms[0], wedge(forms[1], forms[2]))
        for got, expect in ((cs[1], g1), (cs[2], g2), (cs[3], g3)):
            assert (got - expect).max_abs() <= 1e-10
        ss = segre_forms(cs, n)
        for k in range(1, n + 1):
            sigma_k = functools.reduce(operator.add, (
                functools.reduce(wedge, (forms[i] for i in multiset))
                for multiset in combinations_with_replacement(range(3), k)))
            assert (ss[k] - (-1.0) ** k * sigma_k).max_abs() <= 1e-10


@st.composite
def curvature_cases(draw):
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return random_curvature(n, r, draw(st.integers(0, 2**32 - 1)))


class TestChernFormProperties:
    @settings(max_examples=30, deadline=None)
    @given(curvature_cases(), st.floats(-3.0, 3.0))
    def test_homogeneity(self, t, s):
        # c_k(s Theta) = s^k c_k(Theta)
        scaled = CurvatureTensor(t.n, t.r, s * t.c)
        for k, (got, ck) in enumerate(zip(chern_forms(scaled, scaled.r), chern_forms(t, t.r))):
            expect = s ** k * ck
            assert (got - expect).max_abs() <= 1e-10 * (1 + expect.max_abs())

    @settings(max_examples=30, deadline=None)
    @given(curvature_cases(), st.integers(0, 2**32 - 1))
    def test_unitary_frame_change(self, t, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((t.r, t.r)) + 1j * rng.standard_normal((t.r, t.r))
        U, _ = np.linalg.qr(z)
        for got, ck in zip(chern_forms(rotate_tensor(t, U), t.r), chern_forms(t, t.r)):
            assert (got - ck).max_abs() <= 1e-10 * (1 + ck.max_abs())

    @settings(max_examples=30, deadline=None)
    @given(curvature_cases(), st.integers(0, 2**32 - 1))
    def test_line_bundle_twist(self, t, seed):
        # Theta + beta tensor Id is the curvature of E tensor L with c_1(L) = beta:
        # c_k(E tensor L) = sum_i C(r-i, k-i) c_i(E) ^ beta^{k-i}
        beta = random_hermitian(t.n, np.random.default_rng(seed))
        twisted = CurvatureTensor(t.n, t.r, t.c + np.einsum("jk,ml->jklm", beta, np.eye(t.r)))
        cs, bf = chern_forms(t, t.r), Form.one_one(beta)
        for k, got in enumerate(chern_forms(twisted, twisted.r)):
            expect = Form(t.n, k, k)
            for i in range(k + 1):
                expect = expect + math.comb(t.r - i, k - i) * wedge(cs[i], wedge_power(bf, k - i))
            assert (got - expect).max_abs() <= 1e-10 * (1 + expect.max_abs())

    @settings(max_examples=30, deadline=None)
    @given(curvature_cases())
    def test_top_degree_gives_a_bitwise_prefix(self, t):
        # a command builds c and s only to the degree it reads, with the bytes of the full build
        full = chern_forms(t, t.n + t.r)
        segre_full, segre_rank = segre_forms(full, t.n + t.r), segre_forms(chern_forms(t, t.r), t.n)
        for top in range(t.n + t.r + 1):
            cs = chern_forms(t, top)
            assert len(cs) == top + 1
            for k, (got, ref) in enumerate(zip(cs, full)):
                assert (got.p, got.q) == (k, k)
                assert got.a.tobytes() == ref.a.tobytes()
                if k > min(t.n, t.r):
                    assert not got.a.any()
            s_top = segre_forms(cs, top)[top]
            assert s_top.a.tobytes() == segre_full[top].a.tobytes()
            if top <= t.n:
                assert s_top.a.tobytes() == segre_rank[top].a.tobytes()


class TestSegreForms:
    def test_first_three(self, rng):
        t = random_curvature(3, 3, seed=11)
        cs = chern_forms(t, t.r)
        ss = segre_forms(cs, 3)
        c1, c2, c3 = cs[1], cs[2], cs[3]
        assert (ss[1] + c1).max_abs() <= 1e-12
        assert (ss[2] - (wedge(c1, c1) - c2)).max_abs() <= 1e-11
        expect3 = 2 * wedge(c1, c2) - wedge(c1, wedge(c1, c1)) - c3
        assert (ss[3] - expect3).max_abs() <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(curvature_cases())
    def test_inverts_chern(self, t):
        # sum_{j=0}^{k} c_j ^ s_{k-j} = 0 for 1 <= k <= n, c_j = 0 past rank r
        cs = chern_forms(t, t.r)
        ss = segre_forms(cs, t.n)
        for k in range(1, t.n + 1):
            terms = [wedge(cs[j], ss[k - j]) for j in range(min(k, t.r) + 1)]
            scale = max(term.max_abs() for term in terms)
            assert functools.reduce(operator.add, terms).max_abs() <= 1e-10 * scale

    def test_rejects_bad_leading_term(self):
        with pytest.raises(ValueError):
            segre_forms([Form.constant(2) * 2.0], 2)

    def test_the_unit_is_exact(self):
        # chern_forms supplies an exact 1, so a unit off by any rounding is a wrong argument
        with pytest.raises(ValueError, match="unit of the form algebra"):
            segre_forms([Form.constant(2) * (1 + 1e-13)], 2)
        s = segre_forms([Form.constant(2)], 2)
        assert s[0].a[0, 0] == 1 and s[1].max_abs() == s[2].max_abs() == 0


class TestValidatedArrays:
    def test_tensor_and_omega_arrays_are_private_and_read_only(self, rng):
        c = random_curvature(2, 2, seed=3).c.copy()
        t, before = CurvatureTensor(2, 2, c), c.copy()
        c[0, 1, 0, 0] += 1  # the caller's array breaks its hermitian symmetry; t.c keeps it
        assert np.array_equal(t.c, before)
        w = Kaehler11(random_spd(3, rng))
        for array in (t.c, w.g):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 5.0
        assert np.array_equal(w.eigenvalues, np.linalg.eigvalsh(w.g))  # ascending, computed once

    def test_tensor_is_stored_as_its_hermitian_part(self):
        c = random_curvature(2, 3, seed=4).c
        assert np.array_equal(CurvatureTensor(2, 3, c).c, c)  # already Hermitian: the same bits
        near = c.copy()
        near[0, 1, 2, 0] += 4e-11 + 3e-11j  # within the 1e-10 admitted
        got = CurvatureTensor(2, 3, near).c
        assert np.array_equal(got.conj(), got.transpose(1, 0, 3, 2))
        assert abs(got[0, 1, 2, 0] - (c[0, 1, 2, 0] + 2e-11 + 1.5e-11j)) <= 1e-16

    @pytest.mark.parametrize("n, r, c, message", [
        (0, 2, None, "need n >= 1 and r >= 1"), (2, 0, None, "need n >= 1 and r >= 1"),
        (2, 2, np.zeros((2, 2, 2)), "coefficient array has shape (2, 2, 2), expected (2, 2, 2, 2)")],
        ids=["n-zero", "r-zero", "wrong-shape"])
    def test_dimensions_and_shape_are_checked(self, n, r, c, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CurvatureTensor(n, r, c)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values, message", [
        (np.nan, "coefficients must be finite"),
        ((np.nan, np.inf), "largest coefficient modulus inf exceeds 1e+150^(1/3)"),
        (np.inf, "largest coefficient modulus inf exceeds 1e+150^(1/3)"),
        (-np.inf, "largest coefficient modulus inf exceeds 1e+150^(1/3)"),
        (1.5e308 + 1.5e308j, "largest coefficient modulus inf exceeds 1e+150^(1/3)"),
        (MAX_TOP_POWER ** (1 / 3) * (1 + 1e-12),
         "largest coefficient modulus 1.000e+50 exceeds 1e+150^(1/3): products of degree "
         "n+r-1 = 3 would overflow")],
        ids=["nan", "inf-beside-nan", "inf", "minus-inf", "modulus-past-float-max", "past-bound"])
    def test_tensor_entries_out_of_bounds_are_rejected(self, values, message):
        # entries with their hermitian partners, so only the bound or finiteness can fail: NaN
        # passes the hermitian test, and inf - inf in it would warn; an overflow that left
        # inf and inf * 0 = NaN is past the bound
        c = random_curvature(2, 2, seed=3).c.copy()
        for (j, k, lam, mu), value in zip([(0, 1, 0, 1), (0, 1, 1, 0)], np.atleast_1d(values)):
            c[j, k, lam, mu], c[k, j, mu, lam] = value, np.conj(value)
        with pytest.raises(TensorValidationError, match=re.escape(message)):
            CurvatureTensor(2, 2, c)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [
        lambda w: project_to_he(random_curvature(2, 2, seed=1), w, 1e60),
        lambda w: strong_flat_tensor(2, 2, w, 1e200),
        lambda w: project_to_he(projectively_flat_tensor(2, 2, 1), w, 1e200)],
        ids=["project-to-he", "strong-flat", "projectively-flat"])
    def test_factories_refuse_an_oversized_instance(self, build):
        with pytest.raises(TensorValidationError, match="would overflow"):
            build(Kaehler11.euclidean(2))


class TestDirectionForm:
    def test_scalar_identity_curvature(self, rng):
        n, r = 2, 3
        beta = random_hermitian(n, rng)
        t = CurvatureTensor(n, r, np.einsum("jk,ml->jklm", beta, np.eye(r)))
        for _ in range(5):
            v = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            assert np.allclose(direction_form(t, v), beta)

    def test_scale_invariance(self, rng):
        t = random_curvature(2, 3, seed=1)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.allclose(direction_form(t, 2 * v), direction_form(t, v))

    def test_basis_direction_picks_diagonal(self, rng):
        b1 = random_hermitian(2, rng)
        b2 = random_hermitian(2, rng)
        t = tensor_from_diagonal([b1, b2])
        assert np.allclose(direction_form(t, [1, 0]), b1)
        assert np.allclose(direction_form(t, [0, 1]), b2)

    def test_zero_direction_raises(self):
        t = random_curvature(1, 2, seed=0)
        with pytest.raises(ValueError):
            direction_form(t, [0, 0])

    def test_asymmetric_tensor_is_rejected(self):
        # an asymmetry of 1e-7 is below allclose's default rtol, not below the
        # constructor's rule, so no tensor direction_matrices sees carries it
        t = random_curvature(3, 3, seed=0)
        c = t.c.copy()
        c[0, 1, 0, 2] += 1e-7
        with pytest.raises(TensorValidationError, match="hermitian symmetry"):
            CurvatureTensor(3, 3, c)


class TestOmegaRatio:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_wedge_path(self, rng, n):
        # a ^ omega^(n-k)/(n-k)! over omega^n/n!, wedged out in full
        for _ in range(3):
            w = Kaehler11(random_spd(n, rng))
            wf = Form.one_one(w.g)
            vol = factorial_power(wf, n)
            for k in range(n + 1):
                f = random_form(n, k, k, rng)
                ref = top_ratio(wedge(f, factorial_power(wf, n - k)), vol)
                got = omega_ratio(f.a, w, k)
                assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_stack_matches_each_entry(self, rng):
        w = Kaehler11(random_spd(4, rng))
        for k in range(5):
            stack = np.array([[random_form(4, k, k, rng).a for _ in range(3)]
                              for _ in range(2)])
            got = omega_ratio(stack, w, k)
            assert got.shape == (2, 3)
            for i in range(2):
                for j in range(3):
                    assert got[i, j] == omega_ratio(stack[i, j], w, k)

    def test_gamma_k_of_powers(self, rng):
        # omega_ratio(alpha^k/k!) = gamma_k(alpha/omega), alpha = omega gives C(n, k)
        w = Kaehler11(random_spd(4, rng))
        for k in range(5):
            power = factorial_power(Form.one_one(w.g), k)
            assert omega_ratio(power.a, w, k) == pytest.approx(math.comb(4, k), rel=1e-12)

    def test_wrong_shape_or_degree_raises(self, rng):
        w = Kaehler11.euclidean(3)
        with pytest.raises(ValueError, match="form arrays"):
            omega_ratio(np.zeros((2, 2)), w, 1)
        with pytest.raises(ValueError, match="form arrays"):
            omega_ratio(np.zeros((0, 0)), w, 4)

    def test_not_pd_raises(self):
        # no omega_ratio call can see an indefinite omega: building it raises
        with pytest.raises(PreconditionError, match="positive definite"):
            Kaehler11(np.diag([1.0, -1.0]))


class TestMeanCurvature:
    def test_omega_proportional(self, rng):
        n, r, lam = 3, 2, 1.7
        w = Kaehler11(random_spd(n, rng))
        t = strong_flat_tensor(n, r, w, lam)
        T = mean_curvature(t, w)
        assert np.allclose(T, lam * np.eye(r), atol=1e-10)

    def test_n_equal_one_reduces_to_ratio(self, rng):
        w = Kaehler11(random_spd(1, rng))
        t = random_curvature(1, 2, seed=3)
        T = mean_curvature(t, w)
        vol = Form.one_one(w.g)
        for mu in range(2):
            for lam in range(2):
                assert T[mu, lam] == pytest.approx(top_ratio(t.entry(mu, lam), vol))

    def test_linearity(self, rng):
        w = Kaehler11(random_spd(2, rng))
        t1 = random_curvature(2, 2, seed=8)
        t2 = random_curvature(2, 2, seed=9)
        lhs = mean_curvature(CurvatureTensor(2, 2, t1.c + t2.c), w)
        assert np.allclose(lhs, mean_curvature(t1, w) + mean_curvature(t2, w), atol=1e-11)

    def test_trace_identity(self, rng):
        # c_1 ^ omega^{n-1}/(n-1)! = tr(T) omega^n/n! for any tensor
        w = Kaehler11(random_spd(3, rng))
        t = random_curvature(3, 3, seed=21)
        T = mean_curvature(t, w)
        cs = chern_forms(t, t.r)
        lhs = top_ratio(wedge(cs[1], factorial_power(Form.one_one(w.g), 2)),
                        factorial_power(Form.one_one(w.g), 3))
        assert lhs == pytest.approx(np.trace(T).real, abs=1e-10)

    def test_he_slope_identity(self, rng):
        # c_1 ^ omega^{n-1} = lambda (r/n) omega^n for Hermite-Einstein input
        n, r, lam = 2, 3, 0.9
        w = Kaehler11(random_spd(n, rng))
        t = project_to_he(random_curvature(n, r, seed=2), w, lam)
        cs = chern_forms(t, t.r)
        got = top_ratio(wedge(cs[1], wedge_power(Form.one_one(w.g), n - 1)),
                        wedge_power(Form.one_one(w.g), n))
        assert got == pytest.approx(lam * r / n, abs=1e-10)

    def test_not_pd_raises(self, rng):
        # no mean_curvature call can see a negative definite omega: building it raises
        with pytest.raises(PreconditionError, match="positive definite"):
            Kaehler11(-np.eye(2))

    def test_euclidean_equals_wedge_path_bitwise(self):
        # generated instances (gen --he, --flat) go through this rounding
        for n in range(1, 7):
            w = Kaehler11.euclidean(n)
            for r in range(1, 7):
                t = random_curvature(n, r, seed=100 * n + r)
                assert np.array_equal(mean_curvature(t, w), mean_curvature_wedge(t, w))

    def test_matches_wedge_path(self, rng):
        for n, r in ((1, 2), (2, 3), (3, 2), (4, 3)):
            w = Kaehler11(random_spd(n, rng))
            t = random_curvature(n, r, seed=n + r)
            ref = mean_curvature_wedge(t, w)
            assert np.abs(mean_curvature(t, w) - ref).max() <= 1e-12 * np.abs(ref).max()


class TestHermiteEinstein:
    def test_strong_flat_is_he(self, rng):
        w = Kaehler11(random_spd(2, rng))
        t = strong_flat_tensor(2, 3, w, -0.4)
        he, lam = is_hermite_einstein(t, w)
        assert he and lam == pytest.approx(-0.4, abs=1e-12)

    def test_random_is_generically_not_he(self):
        w = Kaehler11.euclidean(2)
        for seed in range(5):
            he, _ = is_hermite_einstein(random_curvature(2, 3, seed), w)
            assert not he

    def test_rank_one_always_he(self):
        w = Kaehler11.euclidean(2)
        he, _ = is_hermite_einstein(random_curvature(2, 1, seed=7), w)
        assert he


class TestProjectToHE:
    def test_fixed_point(self, rng):
        w = Kaehler11(random_spd(2, rng))
        t = strong_flat_tensor(2, 2, w, 1.1)
        t2 = project_to_he(t, w, 1.1)
        assert np.allclose(t.c, t2.c, atol=1e-12)

    def test_zero_tensor_gives_strong_instance(self):
        w = Kaehler11.euclidean(2)
        t = project_to_he(CurvatureTensor(2, 2), w, 1.0)
        expect = strong_flat_tensor(2, 2, w, 1.0)
        assert np.allclose(t.c, expect.c)

    def test_projection_lands_on_he(self, rng):
        w = Kaehler11(random_spd(3, rng))
        for seed in range(5):
            t = project_to_he(random_curvature(3, 2, seed), w, 0.3)
            dev, lam = _he_deviation(t, w)
            assert dev <= 1e-10 and lam == pytest.approx(0.3, abs=1e-10)

    def test_idempotent(self, rng):
        w = Kaehler11(random_spd(2, rng))
        t1 = project_to_he(random_curvature(2, 3, seed=5), w, 0.8)
        t2 = project_to_he(t1, w, 0.8)
        assert np.allclose(t1.c, t2.c, atol=1e-12)


class TestRandomCurvature:
    def test_deterministic(self):
        a = random_curvature(2, 3, seed=123)
        b = random_curvature(2, 3, seed=123)
        assert np.array_equal(a.c, b.c)

    def test_invariant_many_seeds(self):
        for seed in range(100):
            assert hermitian_deviation(random_curvature(2, 2, seed)) == 0

    def test_minimal_case_real(self):
        t = random_curvature(1, 1, seed=9)
        assert t.c[0, 0, 0, 0].imag == 0


class TestNormalStream:
    """The one random stream: SplitMix64 uniforms through the polar method."""

    KEYS = [(0,), (11,), (11, 0), (11, 1), (0, 11), (2**64,), (2**64 + 1, 3), (2**200 + 5, 2**63)]

    def test_splitmix64_reference_vector(self):
        want = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                4593380528125082431, 16408922859458223821]
        assert list(islice(splitmix64_loop(1234567), 5)) == want
        assert _splitmix64(1234567, 0, 5).tolist() == want
        assert _splitmix64(1234567, 2, 5).tolist() == want[2:]

    @pytest.mark.parametrize("key", KEYS)
    def test_uniforms_exact_and_normals_within_4_ulp_of_the_scalar_oracle(self, key):
        state = stream_state_loop(key)
        u = _uniforms(state, 0, 4000)
        assert u.tolist() == list(islice(uniforms_loop(state), 4000))
        assert np.all(np.abs(u) < 1) and np.all(u * 2.0**53 % 2 == 1)  # odd multiples of 2^-53
        got, want = _complex_normals(key, 1500), np.array(complex_normals_loop(key, 1500))
        for a, b in ((got.real, want.real), (got.imag, want.imag)):
            assert np.all(np.abs(a - b) <= 4 * np.spacing(np.abs(b)))

    def test_keys_name_distinct_streams(self):
        heads = {_complex_normals(key, 4).tobytes() for key in self.KEYS + [(), (0, 1)]}
        assert len(heads) == len(self.KEYS) + 2

    @pytest.mark.parametrize("key", [(-1,), (3, -2)])
    def test_negative_key_is_a_value_error_quoting_it(self, key):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {min(key)}$"):
            _complex_normals(key, 3)

    def test_prefix_stable_across_blocks(self):
        full = _complex_normals((5, 1), 20_000)  # blocks of 8,192 pairs, about 6,430 normals each
        for count in (0, 1, 3000, 6400, 6500, 13_000, 19_999):
            assert np.array_equal(_complex_normals((5, 1), count), full[:count])

    def test_standard_normal_at_a_fixed_seed(self):
        z = _complex_normals((2024,), 100_000)
        x = np.sort(np.concatenate([z.real, z.imag]))
        n = len(x)
        cdf = 0.5 * (1 + np.vectorize(math.erf)(x / math.sqrt(2)))
        ks = math.sqrt(n) * max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert ks < 1.63  # the 1% point of Kolmogorov's distribution
        # 4.5 standard errors: sd 1/sqrt(n), sqrt(2/n) and sqrt(96/n) for n = 2e5
        assert abs(x.mean()) < 0.01 and abs(x.var() - 1) < 0.015 and abs((x**4).mean() - 3) < 0.1
        assert abs(np.mean(z.real * z.imag)) < 0.015  # sd 1/sqrt(1e5) for independent parts

    def test_neighbouring_chunk_keys_are_independent(self):
        n = 50_000
        a, b = _complex_normals((9, 0), n), _complex_normals((9, 1), n)
        # E[a conj(b)] = 0 with sd 2/sqrt(n); E[|a|^2 |b|^2] = 4 with sd sqrt(48/n)
        assert abs(np.vdot(b, a)) / n < 4.5 * 2 / math.sqrt(n)
        assert abs(np.mean(np.abs(a) ** 2 * np.abs(b) ** 2) - 4) < 4.5 * math.sqrt(48 / n)


class TestFlatness:
    def test_strong_flat_sets_both(self, rng):
        w = Kaehler11(random_spd(2, rng))
        t = strong_flat_tensor(2, 2, w, 2.0)
        assert is_projectively_flat(t)
        assert kl_segre(t, w)["equality"]

    def test_beta_identity_only_projective(self, rng):
        w = Kaehler11.euclidean(2)
        t = projectively_flat_tensor(2, 3, seed=6)
        assert is_projectively_flat(t)
        assert not kl_segre(t, w)["equality"]  # beta tensor Id is Hermite-Einstein

    @pytest.mark.parametrize("n, r", [(1, 1), (2, 2), (3, 3), (4, 2), (5, 3)])
    def test_projecting_a_flat_base_keeps_it_flat(self, rng, n, r):
        # T of beta tensor Id is exactly t * Id: the shift adds one multiple of omega to every
        # fiber-diagonal block and exactly 0 to the others, as adding to beta does
        omegas = [Kaehler11.euclidean(n), Kaehler11(random_spd(n, rng))]
        off = ~np.eye(r, dtype=bool)
        for seed in range(6):
            base = projectively_flat_tensor(n, r, seed)
            assert np.array_equal(base.c, projectively_flat_tensor_forms(n, r, seed).c)
            for w in omegas:
                for lam in (1.0, -0.7):
                    t = project_to_he(base, w, lam)
                    assert all(np.array_equal(t.c[:, :, l, l], t.c[:, :, 0, 0]) for l in range(r))
                    assert not t.c[:, :, off].any()
                    assert _he_deviation(t, w)[0] <= 1e-12
                    ref = projectively_flat_tensor_forms(n, r, seed, w=w, lam=lam).c
                    assert np.abs(t.c - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_random_neither(self):
        w = Kaehler11.euclidean(2)
        t = random_curvature(2, 2, seed=3)
        assert not is_projectively_flat(t)
        assert not kl_segre(project_to_he(t, w, 1.0), w)["equality"]


class TestJsonInterchange:
    def test_round_trip_identical(self, tmp_path):
        t = random_curvature(2, 3, seed=77)
        text1 = canonical_json(tensor_to_dict(t))
        t2 = tensor_from_dict(json.loads(text1))
        text2 = canonical_json(tensor_to_dict(t2))
        assert text1 == text2
        assert np.array_equal(t.c, t2.c)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
    def test_canonical_json_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="no JSON form"):
            canonical_json({"v": value})
        with pytest.raises(ValueError, match="no JSON form"):
            canonical_json({"rows": [{"v": 1.0}, {"v": value}]})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, r", [(1, 1), (3, 2), (8, 8)])
    def test_coefficient_bound_is_max_top_power_at_degree_n_plus_r_minus_1(self, n, r):
        bound = MAX_TOP_POWER ** (1 / (n + r - 1))

        def payload(value):
            return {"n": n, "r": r, "coeffs": [
                {"j": 1, "k": 1, "lambda": 1, "mu": 1, "re": 0.0, "im": 0.0},
                {"j": n, "k": n, "lambda": r, "mu": r, "re": value, "im": 0.0}]}

        assert tensor_from_dict(payload(bound)).c[n - 1, n - 1, r - 1, r - 1] == bound
        for value in (bound * (1 + 1e-12), -bound * 2):
            with pytest.raises(TensorValidationError, match=f"degree n\\+r-1 = {n + r - 1}"):
                tensor_from_dict(payload(value))
        for value in (bound * 2, 1.7e308):  # the hermitian part of 1.7e308 overflows
            with pytest.raises(TensorValidationError, match="would overflow"):
                tensor_from_dict(payload(value), symmetrize=True)

    def test_numpy_dimension_is_rejected_and_printed(self):
        # not a JSON integer, so rejected; the message still prints it
        with pytest.raises(TensorValidationError, match=r"n must be an integer .*, got \S"):
            tensor_from_dict({"n": np.int64(2), "r": 1, "coeffs": []})

    def test_omitted_entries_are_zero(self):
        t = tensor_from_dict({"n": 2, "r": 1, "coeffs": [
            {"j": 1, "k": 1, "lambda": 1, "mu": 1, "re": 1.0, "im": 0.0}]})
        assert t.c[1, 1, 0, 0] == 0

    def test_validation_reports_symmetry(self):
        payload = {"n": 1, "r": 2, "coeffs": [
            {"j": 1, "k": 1, "lambda": 1, "mu": 2, "re": 1.0, "im": 0.0}]}
        with pytest.raises(TensorValidationError, match="hermitian symmetry"):
            tensor_from_dict(payload)
        assert hermitian_deviation(tensor_from_dict(payload, symmetrize=True)) == 0

    @pytest.mark.parametrize("coeffs, message", [
        ({"j": 1}, 'malformed tensor payload: coeffs must be a list, got {"j": 1}'),
        ([{"j": 1, "k": 1, "lambda": 1, "re": 1.0}],
         'malformed coefficient entry {"j": 1, "k": 1, "lambda": 1, "re": 1.0}: \'mu\''),
        ([5], "malformed coefficient entry 5: 'int' object is not subscriptable")],
        ids=["coeffs-not-a-list", "entry-without-mu", "entry-not-a-dict"])
    def test_malformed_coefficients_are_rejected(self, coeffs, message):
        with pytest.raises(TensorValidationError, match=re.escape(message)):
            tensor_from_dict({"n": 2, "r": 1, "coeffs": coeffs})

    def test_out_of_range_entry(self):
        with pytest.raises(TensorValidationError, match="out of range"):
            tensor_from_dict({"n": 1, "r": 1, "coeffs": [
                {"j": 2, "k": 1, "lambda": 1, "mu": 1, "re": 1.0}]})
