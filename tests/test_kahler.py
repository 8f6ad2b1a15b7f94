import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segreform.curvature import Kaehler11, PreconditionError
from segreform.exterior import Form, wedge
from segreform.kahler import relative_eigenvalues

from conftest import random_hermitian, random_spd
from oracles import (factorial_power, gamma_rel, primitive_split, primitive_square_ratio,
                     top_ratio)


@st.composite
def spectra(draw):
    """A spectrum e of random signs with zeros, and a seed for the unitary."""
    n = draw(st.integers(1, 5))
    e = [draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(st.floats(0.5, 2.0)) for _ in range(n)]
    return e, draw(st.integers(0, 2**32 - 1))


class TestKaehler11:
    def test_non_hermitian_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="must be Hermitian"):
            Kaehler11([[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("g, message", [
        (np.diag([1e308, 1.0]), "largest omega entry modulus 1.000e+308 exceeds 1e+150^(1/2)"),
        ([[1.0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 1.0]], "largest omega entry modulus inf"),
        (np.diag([np.nan, 1.0]), "omega entries must be finite"),
        ([[1.0, np.nan], [np.nan, 1.0]], "omega entries must be finite")],
        ids=["near-float-max", "modulus-past-float-max", "nan-diagonal", "nan-off-diagonal"])
    def test_entries_out_of_bounds_are_rejected_before_any_arithmetic(self, g, message):
        # checked before any arithmetic on g: NaN would pass the Hermitian test, and 1e308
        # would overflow the symmetrisation, which warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                Kaehler11(g)

    @pytest.mark.parametrize("g", [np.ones((2, 3)), np.zeros((0, 0)), np.ones(2)],
                             ids=["non-square", "empty", "vector"])
    def test_a_non_square_or_empty_matrix_is_rejected(self, g):
        with pytest.raises(ValueError, match=re.escape(
                f"expected a nonempty square matrix, got shape {np.shape(g)}")):
            Kaehler11(g)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("g, message", [
        (np.diag([1.0, 1e-13]),
         "omega eigenvalues 1.000e-13 to 1.000e+00 span a ratio of more than 1e+12"),
        (1e-60 * np.eye(3),
         "smallest omega eigenvalue 1.000e-60 is below 1e+150^(-1/3): omega^n would underflow")],
        ids=["ill-conditioned", "underflowing"])
    def test_conditioning_and_scale_are_bounded(self, g, message):
        # the messages --omega prints: a ValueError but not a PreconditionError
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            Kaehler11(g)
        assert not isinstance(info.value, PreconditionError)

    @settings(max_examples=60, deadline=None)
    @given(spectra())
    def test_constructed_exactly_when_positive_definite(self, case):
        # g = U diag(e) U^H with U a random unitary Q on the nonzero eigenvalues
        # and the identity on the zeros, which sit last: their block of g is
        # then exactly zero, and so is its computed eigenvalue
        e, seed = case
        e = sorted(e, key=lambda x: x == 0)
        m = sum(x != 0 for x in e)
        rng = np.random.default_rng(seed)
        U = np.eye(len(e), dtype=complex)
        U[:m, :m] = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
        g = U @ np.diag(e) @ U.conj().T
        if min(e) > 0:
            assert Kaehler11(g).n == len(e)
        else:
            with pytest.raises(PreconditionError):
                Kaehler11(g)


class TestRelativeEigenvalues:
    def test_omega_against_itself(self, rng):
        w = Kaehler11(random_spd(3, rng))
        assert np.allclose(relative_eigenvalues(w.g, w), np.ones(3))

    def test_zero_form(self, rng):
        w = Kaehler11(random_spd(2, rng))
        assert np.allclose(relative_eigenvalues(np.zeros((2, 2)), w), 0)

    def test_diagonal_case(self):
        a = np.diag([2.0, 3.0])
        w = Kaehler11.euclidean(2)
        assert np.allclose(relative_eigenvalues(a, w), [2.0, 3.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="forms live on different dimensions"):
            relative_eigenvalues(np.eye(3), Kaehler11.euclidean(2))

    def test_not_pd_raises(self):
        # no relative_eigenvalues call can see a singular omega: building it raises
        with pytest.raises(PreconditionError, match="omega must be positive definite"):
            Kaehler11(np.diag([1.0, 0.0]))

    def test_scale_covariance(self, rng):
        a = random_hermitian(3, rng)
        w = Kaehler11(random_spd(3, rng))
        for t in (0.5, 2.0, 7.3):
            assert np.allclose(relative_eigenvalues(a, Kaehler11(t * w.g)),
                               relative_eigenvalues(a, w) / t)


class TestGammaRel:
    def test_binomials(self, rng):
        w = Kaehler11(random_spd(4, rng))
        import math

        for k in range(5):
            assert gamma_rel(w.g, w, k) == pytest.approx(math.comb(4, k))

    def test_degree_one_is_trace(self, rng):
        a = random_hermitian(3, rng)
        w = Kaehler11(random_spd(3, rng))
        assert gamma_rel(a, w, 1) == pytest.approx(
            np.trace(np.linalg.solve(w.g, a)).real, abs=1e-10)

    def test_matches_wedge_identity(self, rng):
        # gamma_k(a/w) = top_ratio(a^k/k! ^ w^{n-k}/(n-k)!, w^n/n!)
        for n in (1, 2, 3, 4):
            for _ in range(50):
                a = random_hermitian(n, rng)
                w = Kaehler11(random_spd(n, rng))
                af, wf = Form.one_one(a), Form.one_one(w.g)
                vol = factorial_power(wf, n)
                for k in range(n + 1):
                    lhs = top_ratio(wedge(factorial_power(af, k),
                                          factorial_power(wf, n - k)), vol)
                    gam = gamma_rel(a, w, k)
                    assert abs(lhs - gam) <= 1e-9 * (1 + abs(gam))


class TestPrimitiveSplit:
    def test_multiple_of_omega(self, rng):
        n, r, lam = 3, 2, 0.7
        w = Kaehler11(random_spd(n, rng))
        c1 = (lam * r / n) * w.g
        eta, f = primitive_split(c1, w)
        assert f == pytest.approx(lam * r / n, abs=1e-12)
        assert np.abs(eta).max() <= 1e-12

    def test_already_primitive(self, rng):
        w = Kaehler11.euclidean(2)
        eta = np.diag([1.0, -1.0])
        out, f = primitive_split(eta, w)
        assert f == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(out, eta)

    def test_dimension_one_eta_vanishes(self, rng):
        w = Kaehler11(random_spd(1, rng))
        c1 = random_hermitian(1, rng)
        eta, _ = primitive_split(c1, w)
        assert np.abs(eta).max() <= 1e-12

    def test_primitive_part_kills_top_power(self, rng):
        n = 3
        w = Kaehler11(random_spd(n, rng))
        c1 = random_hermitian(n, rng)
        eta, f = primitive_split(c1, w)
        assert gamma_rel(eta, w, 1) == pytest.approx(0.0, abs=1e-10)
        top = wedge(Form.one_one(eta), factorial_power(Form.one_one(w.g), n - 1))
        assert top.max_abs() <= 1e-10


class TestPrimitiveSquareRatio:
    def test_zero(self):
        w = Kaehler11.euclidean(2)
        assert primitive_square_ratio(np.zeros((2, 2)), w) == 0

    def test_plus_minus_one(self):
        w = Kaehler11.euclidean(2)
        eta = np.diag([1.0, -1.0])
        assert primitive_square_ratio(eta, w) == pytest.approx(-1.0)

    def test_cross_oracle_against_wedge(self, rng):
        # eigenvalue sum vs the wedge evaluation of eta^2 ^ omega^{n-2}
        for n in (2, 3, 4):
            w = Kaehler11(random_spd(n, rng))
            eta, _ = primitive_split(random_hermitian(n, rng), w)
            q = primitive_square_ratio(eta, w)
            ef, wf = Form.one_one(eta), Form.one_one(w.g)
            lhs = top_ratio(wedge(factorial_power(ef, 2), factorial_power(wf, n - 2)),
                            factorial_power(wf, n))
            assert abs(lhs - q) <= 1e-10 * (1 + abs(q))

    def test_nonpositive_with_equality_iff_zero(self, rng):
        for n in (2, 3):
            w = Kaehler11(random_spd(n, rng))
            eta, _ = primitive_split(random_hermitian(n, rng), w)
            q = primitive_square_ratio(eta, w)
            assert q <= 1e-12
            if np.abs(eta).max() > 1e-6:
                assert q < 0
        tiny, _ = primitive_split(1e-13 * random_hermitian(2, rng), w2 := Kaehler11.euclidean(2))
        assert abs(primitive_square_ratio(tiny, w2)) <= 1e-12

    def test_requires_dimension_two(self):
        w = Kaehler11.euclidean(1)
        with pytest.raises(PreconditionError):
            primitive_square_ratio(np.zeros((1, 1)), w)

    def test_rejects_non_primitive(self, rng):
        w = Kaehler11.euclidean(2)
        with pytest.raises(PreconditionError, match="not primitive"):
            primitive_square_ratio(w.g, w)
