import itertools
import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from segreform.exterior import Form, _wedge_bytes, one_one_power, wedge

from conftest import random_form, random_hermitian, random_spd, real_one_one, traced_peak
from oracles import (allclose, block_embed, factorial_power, form_from_dict, is_real, is_zero,
                     top_ratio, wedge_power, wedge_sparse)


class TestWedge:
    def test_volume_positivity_convention(self):
        # (i dz1^dzbar1) ^ (i dz2^dzbar2) is +1 times dz_{12} ^ dzbar_{12},
        # the positive volume form of C^2
        a = form_from_dict(2, 1, 1, {((1,), (1,)): 1j})
        b = form_from_dict(2, 1, 1, {((2,), (2,)): 1j})
        c = wedge(a, b)
        assert c.coeffs == {((1, 2), (1, 2)): 1 + 0j}

    def test_zero_absorbs(self, rng):
        a = random_form(3, 1, 1, rng)
        z = Form(3, 1, 2)
        assert is_zero(wedge(a, z))
        assert is_zero(wedge(z, a))

    def test_one_one_forms_commute(self, rng):
        for _ in range(5):
            a = random_form(3, 1, 1, rng)
            b = random_form(3, 1, 1, rng)
            assert allclose(wedge(a, b), wedge(b, a), tol=1e-13)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            wedge(random_form(2, 1, 0, rng), random_form(3, 1, 0, rng))

    def test_degree_overflow_returns_zero_form(self, rng):
        a = random_form(2, 2, 1, rng)
        b = random_form(2, 1, 1, rng)
        out = wedge(a, b)
        assert (out.p, out.q) == (3, 2) and is_zero(out)

    def test_bilinear(self, rng):
        a = random_form(3, 1, 1, rng)
        b = random_form(3, 1, 1, rng)
        c = random_form(3, 1, 1, rng)
        lhs = wedge(a, b + 2.5 * c)
        rhs = wedge(a, b) + 2.5 * wedge(a, c)
        assert allclose(lhs, rhs, tol=1e-12)

    def test_associative_random_triples(self, rng):
        for m in (2, 3, 4, 5):
            for _ in range(4):
                degs = rng.integers(0, 2, size=6)
                a = random_form(m, degs[0], degs[1], rng)
                b = random_form(m, degs[2], degs[3], rng)
                c = random_form(m, degs[4], degs[5], rng)
                lhs = wedge(wedge(a, b), c)
                rhs = wedge(a, wedge(b, c))
                assert (lhs - rhs).max_abs() <= 1e-12

    def test_graded_commutativity(self, rng):
        m = 4
        for _ in range(10):
            pa, qa, pb, qb = rng.integers(0, 3, size=4)
            a = random_form(m, pa, qa, rng)
            b = random_form(m, pb, qb, rng)
            sign = (-1.0) ** ((pa + qa) * (pb + qb))
            assert allclose(wedge(a, b), sign * wedge(b, a), tol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.integers(0, m), min_size=4, max_size=4),
        st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))))
    def test_matches_sparse_merge_oracle(self, case):
        # every bidegree up to m, degree overflow past m included
        m, (pa, qa, pb, qb), density, seed = case
        rng = np.random.default_rng(seed)
        a = random_form(m, pa, qa, rng, density)
        b = random_form(m, pb, qb, rng, density)
        got, ref = wedge(a, b), wedge_sparse(a, b)
        assert (got.m, got.p, got.q) == (ref.m, ref.p, ref.q)
        assert (got - ref).max_abs() <= 1e-12 * max(1.0, ref.max_abs())

    def test_reality_preserved(self, rng):
        a = real_one_one(3, random_hermitian(3, rng))
        b = real_one_one(3, random_hermitian(3, rng))
        assert is_real(a) and is_real(b)
        assert is_real(wedge(a, b))


@st.composite
def hermitian_matrices(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    entry = st.floats(-1.0, 1.0, allow_nan=False)
    a = np.array(draw(st.lists(entry, min_size=2 * n * n, max_size=2 * n * n)))
    z = (a[:n * n] + 1j * a[n * n:]).reshape(n, n)
    return z + z.conj().T


class TestWedgeBytes:
    @pytest.mark.parametrize("m, k", [(8, 4), (7, 4)])
    def test_the_balanced_wedge_peaks_at_the_bytes_and_no_other_wedge_passes_them(self, m, k,
                                                                                    rng):
        # the (2,2) ^ (2,2) wedge holds two arrays of its split pairs, 2.8 MB each on C^8 and
        # 0.7 MB on C^7; each wedge runs once untraced first, since its cached tables outlive it
        need = _wedge_bytes(m, k)
        for a, b in [(a, b) for a in range(k + 1) for b in range(k + 1 - a)]:
            x, y = random_form(m, a, a, rng), random_form(m, b, b, rng)
            wedge(x, y)
            peak = traced_peak(wedge, x, y)
            if a == b == k // 2:
                assert need / 1.25 <= peak <= 1.25 * need, (a, b, peak, need)
            else:
                assert peak <= need, (a, b, peak, need)


class TestOneOnePower:
    @settings(max_examples=60, deadline=None)
    @given(hermitian_matrices())
    def test_minors_equal_wedge_power(self, g):
        n = g.shape[0]
        for k in range(n + 1):
            ref = wedge_power(Form.one_one(g), k)
            got = Form(n, k, k, one_one_power(g, k))
            assert (got - ref).max_abs() <= 1e-12 * max(1.0, ref.max_abs())

    def test_stack_matches_each_matrix(self, rng):
        stack = np.array([random_hermitian(3, rng) for _ in range(5)])
        for k in range(4):
            C = one_one_power(stack, k)
            assert C.shape == (5, math.comb(3, k), math.comb(3, k))
            for g, c in zip(stack, C):
                assert np.array_equal(one_one_power(g, k), c)


class TestTopRatio:
    def test_identity_ratio(self, rng):
        w = real_one_one(3, random_spd(3, rng))
        vol = factorial_power(w, 3)
        assert top_ratio(vol, vol) == pytest.approx(1.0)

    def test_zero_numerator(self, rng):
        w = real_one_one(2, random_spd(2, rng))
        vol = factorial_power(w, 2)
        assert top_ratio(Form(2, 2, 2), vol) == 0

    def test_zero_volume_raises(self):
        z = Form(2, 2, 2)
        with pytest.raises(ZeroDivisionError):
            top_ratio(z, z)

    def test_wrong_degree_raises(self, rng):
        w = real_one_one(3, random_spd(3, rng))
        with pytest.raises(ValueError, match="top degree"):
            top_ratio(w, factorial_power(w, 3))

    def test_gamma_k_wedge_identity(self, rng):
        # alpha^k/k! ^ omega^{n-k}/(n-k)! = gamma_k(alpha/omega) omega^n/n!,
        # with gamma_k the elementary symmetric polynomial of the pencil
        # eigenvalues -- the independent linear-algebra oracle
        for n in (2, 3, 4):
            for _ in range(5):
                A = random_hermitian(n, rng)
                G = random_spd(n, rng)
                alpha, omega = real_one_one(n, A), real_one_one(n, G)
                eigs = scipy.linalg.eigh(A, G, eigvals_only=True)
                vol = factorial_power(omega, n)
                for k in range(n + 1):
                    lhs = top_ratio(wedge(factorial_power(alpha, k),
                                          factorial_power(omega, n - k)), vol)
                    gam = sum(np.prod(c) for c in itertools.combinations(eigs, k))
                    assert lhs == pytest.approx(gam, abs=1e-10 * (1 + abs(gam)))


class TestBlockEmbed:
    def test_single_index_at_offset(self):
        f = form_from_dict(1, 1, 1, {((1,), (1,)): 1j})
        n = 3
        g = block_embed(f, n, n + 1)
        assert g.m == 4 and g.coeffs == {((4,), (4,)): 1j}

    def test_zero_embeds_to_zero(self):
        assert is_zero(block_embed(Form(2, 1, 1), 1, 4))

    def test_range_violation(self):
        with pytest.raises(ValueError):
            block_embed(Form(3, 1, 1), 2, 4)

    def test_disjoint_blocks_wedge_compatible(self, rng):
        a = random_form(2, 1, 0, rng)
        b = random_form(2, 0, 1, rng)
        m = 5
        ea, eb = block_embed(a, 0, m), block_embed(b, 2, m)
        direct = block_embed(wedge(a, b), 0, 4)  # both in first block: sanity
        assert allclose(wedge(block_embed(a, 0, 4), block_embed(b, 0, 4)), direct, 1e-14)
        # disjoint supports never cancel
        assert not is_zero(wedge(ea, eb))

    def test_vertical_horizontal_top_form_positive(self, rng):
        # (fiber block)^{r-1} ^ (base block)^n is a positive multiple of the
        # product volume form for positive-definite blocks
        n, r = 2, 3
        m = n + r - 1
        base = real_one_one(n, random_spd(n, rng))
        fiber = real_one_one(r - 1, random_spd(r - 1, rng))
        top = wedge(factorial_power(block_embed(fiber, n, m), r - 1),
                    factorial_power(block_embed(base, 0, m), n))
        vol = wedge(factorial_power(block_embed(fiber, n, m), r - 1),
                    factorial_power(block_embed(base, 0, m), n))
        euclid = real_one_one(m, np.eye(m))
        ratio = top_ratio(top, factorial_power(euclid, m))
        assert ratio.imag == pytest.approx(0.0, abs=1e-12)
        assert ratio.real > 0


class TestFormBasics:
    def test_reality_predicate(self, rng):
        g = random_hermitian(3, rng)
        f = real_one_one(3, g)
        assert is_real(f)
        g2 = g.copy()
        g2[0, 1] += 0.3  # break hermitian symmetry
        broken = Form(3, 1, 1, 1j * g2)
        assert not is_real(broken)

    def test_exact_zero_coefficients_dropped(self):
        f = Form(2, 1, 1, [[0.0, 0.0], [0.0, 1.0]])
        assert ((1,), (1,)) not in f.coeffs

    def test_high_degree_form_has_no_keys(self):
        f = Form(2, 3, 3)
        assert is_zero(f) and f.a.shape == (0, 0)
        with pytest.raises(ValueError, match="expected"):
            Form(2, 3, 3, [[1.0]])

    @pytest.mark.parametrize("call, error, message", [
        (lambda: Form(2, -1, 0), ValueError, "m, p, q must be nonnegative"),
        (lambda: Form(2, 1, 1) + 1.0, TypeError, "expected Form, got float"),
        (lambda: Form(2, 1, 1) - Form(2, 1, 0), ValueError,
         "incompatible forms: (2,1,1) vs (2,1,0)"),
        (lambda: wedge(Form(2, 1, 1), 1.0), TypeError, "wedge expects two Form values")],
        ids=["negative-degree", "add-non-form", "add-other-bidegree", "wedge-non-form"])
    def test_malformed_operands_raise(self, call, error, message):
        with pytest.raises(error, match=re.escape(message)):
            call()

    def test_wedge_power_zeroth_is_one(self, rng):
        f = random_form(3, 1, 1, rng)
        one = wedge_power(f, 0)
        assert one.coeffs == {((), ()): 1}
