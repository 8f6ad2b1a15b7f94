import math

import numpy as np
import pytest

from segreform.curvature import segre_forms
from segreform.exterior import Form
from segreform.symfun import elem_sym

from conftest import random_spd, real_one_one
from oracles import complete_sym, elem_sym_scalar, newton_scalar, wedge_power


class TestElemSym:
    def test_all_ones(self):
        assert elem_sym([1, 1, 1], 2) == 3  # C(3,2)

    def test_constant_values(self):
        lam, n = 0.7, 5
        for k in range(n + 1):
            assert elem_sym([lam] * n, k) == pytest.approx(math.comb(n, k) * lam**k)

    def test_hand_expansion(self):
        # (x+2)(x+3)(x+5) = x^3 + 10x^2 + 31x + 30
        assert elem_sym([2, 3, 5], 1) == 10
        assert elem_sym([2, 3, 5], 2) == 31
        assert elem_sym([2, 3, 5], 3) == 30

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            elem_sym([1, 2], 3)
        with pytest.raises(ValueError):
            elem_sym([1, 2], -1)

    def test_last_axis_matches_scalar_loop_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for m in range(0, 6):
            vals = rng.standard_normal((4, 3, m))
            for k in range(m + 1):
                batch = elem_sym(vals, k)
                assert batch.shape == (4, 3)
                for idx in np.ndindex(4, 3):
                    one = elem_sym(vals[idx], k)
                    assert one == batch[idx] == elem_sym_scalar(vals[idx], k)


class TestCompleteSym:
    def test_two_ones(self):
        # lam1^2, lam1 lam2, lam2^2
        assert complete_sym([1, 1], 2) == 3

    def test_degree_one_equals_elem(self, rng):
        vals = rng.standard_normal(4)
        assert complete_sym(vals, 1) == pytest.approx(elem_sym(vals, 1))

    def test_single_value_power(self):
        assert complete_sym([1.5], 4) == pytest.approx(1.5**4)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="newton_scalar"):
            complete_sym([1.0, 2.0], 7)


# omega = sum_j i dz_j ^ dzbar_j on C^M: the forms g * omega^j multiply like
# the scalars g, up to degree M, so the recursion over them runs over scalars
M = 5
OMEGA_POWERS = [wedge_power(Form.one_one(np.eye(M)), j) for j in range(M + 1)]


def sigmas_by_segre(gammas, m_max):
    """sigma_0..sigma_m_max of the Newton-type recursion over forms, which is
    segre_forms of the total Chern form c_j = (-1)^j gamma_j."""
    return segre_forms([(-1) ** j * g for j, g in enumerate(gammas)], m_max)


def newton_scalars(gammas, m_max):
    """The recursion over the forms gamma_j * omega^j, read back as the scalars sigma_m."""
    sig = sigmas_by_segre([g * OMEGA_POWERS[j] for j, g in enumerate(gammas)], m_max)
    return [(s.a[0, 0] / OMEGA_POWERS[m].a[0, 0]).real for m, s in enumerate(sig)]


class TestNewtonConvert:
    """sum_{j=0}^{m} (-1)^j sigma_j gamma_{m-j} = 0, the inversion of the total Chern form."""

    def test_power_series_oracle(self):
        # 1/(1+t)^2 = sum (-1)^k (k+1) t^k, so gamma = (1,2,1) gives sigma_k = k+1
        sig = newton_scalars([1.0, 2.0, 1.0], 5)
        assert [s for s in sig] == pytest.approx([1, 2, 3, 4, 5, 6])

    def test_zero_gammas(self):
        sig = newton_scalars([1.0], 4)
        assert list(sig)[1:] == [0.0] * 4

    def test_matches_direct_enumeration(self, rng):
        for _ in range(10):
            vals = rng.standard_normal(4)
            gam = [elem_sym(vals, j) for j in range(5)]
            sig = newton_scalars(gam, 4)
            for k in range(1, 5):
                assert sig[k] == pytest.approx(complete_sym(vals, k), abs=1e-10)

    def test_newton_relation_residual(self, rng):
        for length in (2, 3, 5):
            vals = rng.standard_normal(length)
            gammas = [elem_sym(vals, j) if j <= length else 0.0 for j in range(6)]
            sig = newton_scalars(gammas, 5)
            for m in range(1, 6):
                res = sum((-1) ** j * sig[j] * gammas[m - j] for j in range(m + 1))
                assert abs(res) <= 1e-10

    def test_unit_entry_enforced(self):
        with pytest.raises(ValueError, match="unit"):
            sigmas_by_segre([Form.constant(2, 2.0), Form.zero(2, 1, 1)], 1)
        with pytest.raises(ValueError, match="unit"):
            sigmas_by_segre([1.0, 1.0], 1)  # scalars are not forms
        with pytest.raises(ValueError, match="unit"):
            sigmas_by_segre([], 1)

    def test_runs_over_form_algebra(self, rng):
        # the subalgebra generated by a single (1,1)-form matches truncated
        # scalar power series: gamma_j = g_j * omega^j/j!-free products
        m = 4
        omega = real_one_one(m, random_spd(m, rng))
        g = [1.0, 0.8, -0.3, 0.05]
        gam_form = [Form.constant(m)] + [g[j] * wedge_power(omega, j) for j in range(1, 4)]
        sig_scalar = newton_scalar(g, m)
        sig_form = sigmas_by_segre(gam_form, m)
        for k in range(1, m + 1):
            expect = sig_scalar[k] * wedge_power(omega, k)
            assert (sig_form[k] - expect).max_abs() <= 1e-10 * (1 + expect.max_abs())
