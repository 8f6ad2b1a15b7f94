import numpy as np
import pytest

from segreform.curvature import Kaehler11, PreconditionError
from segreform.exterior import wedge
from segreform.kahler import relative_eigenvalues

from conftest import random_hermitian, random_spd
from oracles import (factorial_power, gamma_rel, primitive_split, primitive_square_ratio,
                     top_ratio)


class TestRelativeEigenvalues:
    def test_omega_against_itself(self, rng):
        w = Kaehler11(random_spd(3, rng))
        assert np.allclose(relative_eigenvalues(w, w), np.ones(3))

    def test_zero_form(self, rng):
        w = Kaehler11(random_spd(2, rng))
        assert np.allclose(relative_eigenvalues(Kaehler11(np.zeros((2, 2))), w), 0)

    def test_diagonal_case(self):
        a = Kaehler11(np.diag([2.0, 3.0]))
        w = Kaehler11.euclidean(2)
        assert np.allclose(relative_eigenvalues(a, w), [2.0, 3.0])

    def test_not_pd_raises(self):
        a = Kaehler11(np.eye(2))
        with pytest.raises(PreconditionError):
            relative_eigenvalues(a, Kaehler11(np.diag([1.0, 0.0])))

    def test_scale_covariance(self, rng):
        a = Kaehler11(random_hermitian(3, rng))
        w = Kaehler11(random_spd(3, rng))
        for t in (0.5, 2.0, 7.3):
            assert np.allclose(relative_eigenvalues(a, t * w),
                               relative_eigenvalues(a, w) / t)


class TestGammaRel:
    def test_binomials(self, rng):
        w = Kaehler11(random_spd(4, rng))
        import math

        for k in range(5):
            assert gamma_rel(w, w, k) == pytest.approx(math.comb(4, k))

    def test_degree_one_is_trace(self, rng):
        a = Kaehler11(random_hermitian(3, rng))
        w = Kaehler11(random_spd(3, rng))
        assert gamma_rel(a, w, 1) == pytest.approx(
            np.trace(np.linalg.solve(w.g, a.g)).real, abs=1e-10)

    def test_matches_wedge_identity(self, rng):
        # gamma_k(a/w) = top_ratio(a^k/k! ^ w^{n-k}/(n-k)!, w^n/n!)
        for n in (1, 2, 3, 4):
            for _ in range(50):
                a = Kaehler11(random_hermitian(n, rng))
                w = Kaehler11(random_spd(n, rng))
                af, wf = a.to_form(), w.to_form()
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
        c1 = (lam * r / n) * w
        eta, f = primitive_split(c1, w)
        assert f == pytest.approx(lam * r / n, abs=1e-12)
        assert eta.max_abs() <= 1e-12

    def test_already_primitive(self, rng):
        w = Kaehler11.euclidean(2)
        eta = Kaehler11(np.diag([1.0, -1.0]))
        out, f = primitive_split(eta, w)
        assert f == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(out.g, eta.g)

    def test_dimension_one_eta_vanishes(self, rng):
        w = Kaehler11(random_spd(1, rng))
        c1 = Kaehler11(random_hermitian(1, rng))
        eta, _ = primitive_split(c1, w)
        assert eta.max_abs() <= 1e-12

    def test_primitive_part_kills_top_power(self, rng):
        n = 3
        w = Kaehler11(random_spd(n, rng))
        c1 = Kaehler11(random_hermitian(n, rng))
        eta, f = primitive_split(c1, w)
        assert gamma_rel(eta, w, 1) == pytest.approx(0.0, abs=1e-10)
        top = wedge(eta.to_form(), factorial_power(w.to_form(), n - 1))
        assert top.max_abs() <= 1e-10


class TestPrimitiveSquareRatio:
    def test_zero(self):
        w = Kaehler11.euclidean(2)
        assert primitive_square_ratio(Kaehler11(np.zeros((2, 2))), w) == 0

    def test_plus_minus_one(self):
        w = Kaehler11.euclidean(2)
        eta = Kaehler11(np.diag([1.0, -1.0]))
        assert primitive_square_ratio(eta, w) == pytest.approx(-1.0)

    def test_cross_oracle_against_wedge(self, rng):
        # eigenvalue sum vs the wedge evaluation of eta^2 ^ omega^{n-2}
        for n in (2, 3, 4):
            w = Kaehler11(random_spd(n, rng))
            eta, _ = primitive_split(Kaehler11(random_hermitian(n, rng)), w)
            q = primitive_square_ratio(eta, w)
            ef, wf = eta.to_form(), w.to_form()
            lhs = top_ratio(wedge(factorial_power(ef, 2), factorial_power(wf, n - 2)),
                            factorial_power(wf, n))
            assert abs(lhs - q) <= 1e-10 * (1 + abs(q))

    def test_nonpositive_with_equality_iff_zero(self, rng):
        for n in (2, 3):
            w = Kaehler11(random_spd(n, rng))
            eta, _ = primitive_split(Kaehler11(random_hermitian(n, rng)), w)
            q = primitive_square_ratio(eta, w)
            assert q <= 1e-12
            if eta.max_abs() > 1e-6:
                assert q < 0
        tiny, _ = primitive_split(Kaehler11(1e-13 * random_hermitian(2, rng)), w2 := Kaehler11.euclidean(2))
        assert abs(primitive_square_ratio(tiny, w2)) <= 1e-12

    def test_requires_dimension_two(self):
        w = Kaehler11.euclidean(1)
        with pytest.raises(PreconditionError):
            primitive_square_ratio(Kaehler11(np.zeros((1, 1))), w)

    def test_rejects_non_primitive(self, rng):
        w = Kaehler11.euclidean(2)
        with pytest.raises(PreconditionError, match="not primitive"):
            primitive_square_ratio(w, w)
