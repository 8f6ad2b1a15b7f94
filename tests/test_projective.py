import functools
import json
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segreform import curvature, projective
from segreform.cli import main, parse_omega
from segreform.curvature import (CurvatureTensor, Kaehler11, chern_forms,
                                 is_hermite_einstein, project_to_he, random_curvature,
                                 segre_forms, strong_flat_tensor, tensor_to_dict)
from segreform.exterior import Form, wedge
from segreform.kahler import relative_eigenvalues
from segreform.moments import DIRECTION_CHUNK
from segreform.report import MC_UNITS, canonical_json
from segreform.symfun import elem_sym
from segreform.projective import (gamma_profile, identity_max, identity_residuals,
                                  pushforward_exact, pushforward_mc)

from conftest import random_spd, stderr_units, traced_peak
from oracles import (block_embed, direct_sum, direction_form, dual, factorial_power,
                     gamma_profile_loop, gamma_rel, hermitian_deviation, is_real,
                     pushforward_mc_loop, rotate_tensor, sample_directions, top_form_residual,
                     unitary_sending_last_to, xi_at)


def slope_residuals(t, w, V):
    """Residuals of the Hermite-Einstein form of the degree-1 identity, lambda from T."""
    he, lam = is_hermite_einstein(t, w)
    assert he
    return identity_residuals(t, w, V, [1], -lam)[1]


def one_block_bytes(r):
    """A chunk of r-vectors, 16-byte complex, and the _BLOCK_BYTES that a block of directions'
    matrices and minors fill: a sampler holding one block at a time, temporaries and all, stays
    within it; one that keeps a chunk while it draws the next, or copies its matrices, does not."""
    return 16 * DIRECTION_CHUNK * r + projective._BLOCK_BYTES


class TestFrames:
    def test_unitary_properties(self, rng):
        for r in (1, 2, 4):
            v = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            U = unitary_sending_last_to(v)
            assert np.allclose(U.conj().T @ U, np.eye(r), atol=1e-12)
            assert np.allclose(U[:, -1], v / np.linalg.norm(v), atol=1e-12)

    def test_rotation_by_identity_is_identity(self):
        t = random_curvature(2, 3, seed=0)
        assert np.allclose(rotate_tensor(t, np.eye(3)).c, t.c)

    def test_rotation_preserves_invariant(self, rng):
        t = random_curvature(2, 3, seed=1)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        U, _ = np.linalg.qr(z)
        assert hermitian_deviation(rotate_tensor(t, U)) <= 1e-12

    def test_direction_form_invariant_under_adapted_frame(self, rng):
        t = random_curvature(2, 3, seed=2)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rotated = rotate_tensor(t, unitary_sending_last_to(v))
        e_last = np.zeros(3, dtype=complex)
        e_last[-1] = 1
        assert np.allclose(direction_form(rotated, e_last),
                           direction_form(t, v), atol=1e-12)


class TestXi:
    def test_flat_curvature_leaves_fubini_study(self):
        t = CurvatureTensor(1, 2)  # zero curvature, n=1, r=2
        xi = xi_at(t, [1, 0])
        assert xi.m == 2
        assert list(xi.coeffs) == [((2,), (2,))]
        assert xi.coeffs[((2,), (2,))] == pytest.approx(1j / (2 * math.pi))

    def test_horizontal_block_is_minus_direction_form(self, rng):
        t = random_curvature(2, 3, seed=3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        xi = xi_at(t, v)
        theta = direction_form(t, v)
        for j in range(1, 3):
            for k in range(1, 3):
                assert xi.coeffs[((j,), (k,))] == pytest.approx(
                    -1j * theta[j - 1, k - 1], abs=1e-12)

    def test_xi_is_real(self, rng):
        t = random_curvature(2, 2, seed=4)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert is_real(xi_at(t, v), 1e-12)

    @pytest.mark.parametrize("v", [[1.0, 0.5], [1.0, 0.0, 2.0, 1.0], [0.0, 0.0, 0.0]],
                             ids=["short", "long", "zero"])
    def test_bad_direction_is_rejected(self, v):
        t = random_curvature(2, 3, seed=5)
        w = Kaehler11.euclidean(2)
        with pytest.raises(ValueError, match="direction"):
            xi_at(t, v)
        for ks in ([1], [2]):
            with pytest.raises(ValueError, match="direction"):
                identity_residuals(t, w, [v], ks)


class TestPushforward:
    def test_fiber_mass_normalisation(self):
        for seed in range(3):
            t = random_curvature(2, 3, seed)
            [exact] = pushforward_exact(t, [0])
            assert exact.coeffs == {((), ()): 1}

    def test_exact_matches_segre(self):
        for (n, r, seed) in ((1, 2, 0), (2, 2, 1), (2, 4, 2), (3, 3, 3)):
            t = random_curvature(n, r, seed)
            ss = segre_forms(chern_forms(t, t.r), n)
            for k, got in enumerate(pushforward_exact(t, range(n + 1))):
                assert (got - ss[k]).max_abs() <= 1e-9

    def test_first_pushforward_is_minus_c1(self):
        t = random_curvature(2, 3, seed=9)
        c1 = chern_forms(t, 1)[1]
        assert (pushforward_exact(t, [1])[0] + c1).max_abs() <= 1e-12

    def test_mc_path_agrees_within_stderr(self):
        t = random_curvature(2, 3, seed=5)
        ss = segre_forms(chern_forms(t, t.r), 2)
        [(mean, err)] = pushforward_mc(t, [2], 32000, 100)
        assert stderr_units(mean, err, ss[2]) <= 4.0

    def test_mc_rejects_segre_form_of_perturbed_tensor(self):
        t = random_curvature(2, 3, seed=5)
        [(mean, err)] = pushforward_mc(t, [2], 32000, 100)
        t_off = CurvatureTensor(2, 3, t.c + 0.2 * random_curvature(2, 3, seed=55).c)
        assert stderr_units(mean, err, segre_forms(chern_forms(t_off, t_off.r), 2)[2]) > 4.0

    @pytest.mark.parametrize("n, r", [(2, 3), (3, 3)])
    def test_mc_matches_per_direction_loop(self, n, r):
        t = random_curvature(n, r, seed=n + r)
        for k, (mean, err) in zip(range(1, n + 1), pushforward_mc(t, range(1, n + 1), 300, n)):
            ref_mean, ref_err = pushforward_mc_loop(t, k, 300, n)
            scale = 1.0 + ref_mean.max_abs()
            assert (mean - ref_mean).max_abs() <= 1e-13 * scale
            assert (err - ref_err).max_abs() <= 1e-12 * scale

    def test_mc_chunked_reduction_matches_one_chunk(self, monkeypatch):
        t = random_curvature(3, 3, seed=8)
        whole = pushforward_mc(t, [1, 2, 3], 100, 3)
        monkeypatch.setattr(projective, "_BLOCK_BYTES", 7 * 16 * (3 * 2 + 3) ** 2)  # 7 rows
        chunked = pushforward_mc(t, [1, 2, 3], 100, 3)
        for pair, chunked_pair in zip(whole, chunked):
            for a, b in zip(pair, chunked_pair):
                assert (a - b).max_abs() <= 1e-12 * (1.0 + a.max_abs())
        # at n = 2 every degree has the block size of its own call, so the bits are its own
        t = random_curvature(2, 2, seed=8)
        for k, pair in zip([1, 2], pushforward_mc(t, [1, 2], 100, 3)):
            [one] = pushforward_mc(t, [k], 100, 3)
            assert all(np.array_equal(a.a, b.a) for a, b in zip(pair, one))

    def test_mc_memory_flat_in_samples(self):
        t = random_curvature(3, 3, seed=8)
        peak = traced_peak(pushforward_mc, t, [1, 2, 3], 2 * DIRECTION_CHUNK, 0)
        later = traced_peak(pushforward_mc, t, [1, 2, 3], 8 * DIRECTION_CHUNK, 0)
        assert later <= 1.5 * peak
        assert max(peak, later) <= one_block_bytes(3)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_mc_rejects_samples_below_one(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 2"):
            pushforward_mc(random_curvature(2, 2, seed=7), [1], samples, 1)

    def test_frame_invariance(self, rng):
        t = random_curvature(2, 3, seed=6)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        U, _ = np.linalg.qr(z)
        t_rot = rotate_tensor(t, U)
        for got, rotated in zip(pushforward_exact(t, range(3)), pushforward_exact(t_rot, range(3))):
            assert (got - rotated).max_abs() <= 1e-10

    @pytest.mark.parametrize("n, wedges", [(4, 285), (5, 1840)])
    def test_one_walk_gives_every_degree(self, monkeypatch, n, wedges):
        # a walk per degree makes 391 and 2,665 wedges in all; the bits of every degree are
        # checked against the oracles' walks in test_moments.py
        calls = []
        monkeypatch.setattr(projective, "wedge", lambda a, b: calls.append(1) or wedge(a, b))
        t = random_curvature(n, n, seed=11 * n)
        pushforward_exact(t, range(n + 1))
        assert len(calls) == wedges
        pushforward_exact(t, [n])
        assert len(calls) == 2 * wedges

    def test_k_out_of_range(self):
        t = random_curvature(2, 2, seed=7)
        for ks in ([3], [-1], [0, 1, 2, 3]):
            with pytest.raises(ValueError, match=f"k={ks[-1]} out of range"):
                pushforward_exact(t, ks)
        for k in (0, 3, -1):  # degree 0 is the unit form, exactly: Monte Carlo starts at k = 1
            with pytest.raises(ValueError, match=f"k={k} out of range"):
                pushforward_mc(t, [k], 10, 1)


class TestDegreeCheck:
    @pytest.mark.parametrize("ks", [[5], [-1], [1, 3], []], ids=["high", "negative", "last", "empty"])
    def test_every_function_checks_its_degrees_before_any_draw(self, draws, ks):
        # one check for all four: the first degree out of range, or no degree at all, raises
        # before a direction is drawn or a block size is taken
        t, w = random_curvature(2, 2, seed=7), Kaehler11.euclidean(2)
        calls = {0: [lambda: pushforward_exact(t, ks)],
                 1: [lambda: pushforward_mc(t, ks, 10, 1), lambda: identity_max(t, w, ks, 10, 1),
                     lambda: identity_residuals(t, w, [[1, 0]], ks)]}
        for low, fns in calls.items():
            message = (f"k={ks[-1]} out of range [{low}, 2]" if ks
                       else "ks must hold at least one degree")
            for fn in fns:
                with pytest.raises(ValueError, match=re.escape(message)):
                    fn()
        assert draws == []


    def test_a_direction_past_the_budget_is_refused_before_any_draw(self, monkeypatch, draws):
        # one direction's arrays at degree k take 16 (C(n,k) k + n)^2 bytes, 16 * 1024^2 at
        # n = 32 and k = 2: a budget of exactly that admits it, one byte less refuses it
        t, w = random_curvature(32, 2, seed=1), Kaehler11.euclidean(32)
        need = 16 * (math.comb(32, 2) * 2 + 32) ** 2
        monkeypatch.setattr(projective, "_DIRECTION_BYTES", need)
        assert projective._block_rows(32, [1, 2]) == 1
        monkeypatch.setattr(projective, "_DIRECTION_BYTES", need - 1)
        message = f"k=2 at n=32 needs {need} bytes per direction, more than {need - 1}"
        for fn in (lambda: pushforward_mc(t, [1, 2], 10, 1),
                   lambda: identity_max(t, w, [2, 1], 10, 1)):
            with pytest.raises(ValueError, match=re.escape(message)):
                fn()
        assert draws == []

    def test_an_exact_degree_past_its_largest_wedge_is_refused_before_any_wedge(self,
                                                                                monkeypatch):
        # at n = 8 and k = 4 the walk's (1,1) ^ (3,3) wedges take C(8, 4) 4 = 280 split pairs
        # per side, and the Segre inversion's (2,2) ^ (2,2) ones C(8, 4) 6 = 420: the bound is
        # the largest wedge of the three builds, so a budget of exactly its bytes admits the
        # degree and one byte less refuses it before a wedge
        t, sizes = random_curvature(8, 2, seed=1), []

        def sized(a, b):
            j = a.p + b.p
            sizes.append(16 * (math.comb(8, j) * math.comb(j, a.p)) ** 2)
            return wedge(a, b)
        for module in (projective, curvature):
            monkeypatch.setattr(module, "wedge", sized)
        need = 16 * 420 ** 2
        monkeypatch.setattr(projective, "_DIRECTION_BYTES", need)
        pushforward_exact(t, [2, 4])
        segre_forms(chern_forms(t, 4), 4)
        assert max(sizes) == need
        sizes.clear()
        monkeypatch.setattr(projective, "_DIRECTION_BYTES", need - 1)
        with pytest.raises(ValueError, match=re.escape(
                f"k=4 at n=8 needs {need} bytes for one wedge, more than {need - 1}")):
            pushforward_exact(t, [2, 4])
        assert sizes == []


class TestPushforwardProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.floats(-2.0, 2.0))
    def test_exact_path_is_homogeneous(self, n, r, seed, log_s):
        # s_k(s Theta) = s^k s_k(Theta), through the balanced moment walk
        s = 10.0**log_s
        t = random_curvature(n, r, seed)
        scaled = pushforward_exact(CurvatureTensor(n, r, s * t.c), range(n + 1))
        for k, (got, form) in enumerate(zip(scaled, pushforward_exact(t, range(n + 1)))):
            ref = s**k * form
            assert (got - ref).max_abs() <= 1e-12 * ref.max_abs()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_griffiths_positive_curvature_gives_positive_segre_forms(self, n, r, seed):
        # c[j,k,lam,mu] = sum_a A_a[j,k] H_a[mu,lam] makes theta_v = sum_a (v^H H_a v) A_a > 0,
        # so (-1)^k s_k, an average of theta_v^k, is positive against every i alpha ^ alpha-bar
        rng = np.random.default_rng(seed)
        c = sum(np.einsum("jk,ml->jklm", random_spd(n, rng), random_spd(r, rng))
                for _ in range(2))
        t = CurvatureTensor(n, r, c)
        vol = functools.reduce(wedge, [Form.one_one(np.diag(e)) for e in np.eye(n)])
        for k, form in enumerate(pushforward_exact(t, range(n + 1))):
            alphas = rng.standard_normal((n - k, n)) + 1j * rng.standard_normal((n - k, n))
            top = functools.reduce(wedge, [Form.one_one(np.outer(a, a.conj())) for a in alphas],
                                   (-1) ** k * form)
            ratio = complex(top.a[0, 0] / vol.a[0, 0])
            assert ratio.real > 0
            assert abs(ratio.imag) <= 1e-12 * ratio.real


def total_product(a, b, k):
    """The degree-k part of the product of the total forms [a_0, a_1, ...] and [b_0, b_1, ...]."""
    return functools.reduce(operator.add, [wedge(a[i], b[k - i]) for i in range(k + 1)])


def within(got, ref, rel=1e-12):
    return (got - ref).max_abs() <= rel * ref.max_abs()


class TestWhitneySumAndDual:
    """The curvature of an orthogonal direct sum is block diagonal, so c(E+F) = c(E) ^ c(F)
    and s(E+F) = s(E) ^ s(F) pointwise; the fiber integral over P(E+F) knows nothing of the
    split, so the walk at rank r1 + r2 meets the Segre forms built at r1 and r2.  The dual's
    curvature is minus the transpose in the fiber indices: c_k and s_k change by (-1)^k."""

    RANKS = [(r1, r2) for r1 in range(1, 5) for r2 in range(1, 5) if r1 + r2 <= 5]
    # Newton's identities cancel in the top degree: over 2,500 seeded draws c_4 at (4, 4+1)
    # reached 2.9e-13 relative, so the examples are fixed rather than drawn anew each run
    EXAMPLES = settings(max_examples=20, deadline=None, derandomize=True)

    @EXAMPLES
    @given(st.integers(1, 4), st.sampled_from(RANKS), st.integers(0, 2**32 - 1),
           st.integers(0, 2**32 - 1))
    def test_whitney_sum(self, n, ranks, seed_e, seed_f):
        e, f = random_curvature(n, ranks[0], seed_e), random_curvature(n, ranks[1], seed_f)
        s = direct_sum(e, f)
        ce, cf, cs = (chern_forms(t, n) for t in (e, f, s))
        se, sf, ss = (segre_forms(c, n) for c in (ce, cf, cs))
        pushed = pushforward_exact(s, range(n + 1))
        for k in range(n + 1):
            assert within(cs[k], total_product(ce, cf, k))
            assert within(ss[k], total_product(se, sf, k))
            assert within(pushed[k], total_product(se, sf, k))

    def test_whitney_sum_at_rank_8(self):
        e, f = random_curvature(8, 4, seed=1), random_curvature(8, 4, seed=2)
        ce, cf = chern_forms(e, 3), chern_forms(f, 3)
        se, sf = segre_forms(ce, 3), segre_forms(cf, 3)
        s = direct_sum(e, f)
        for k, (c, pushed) in enumerate(zip(chern_forms(s, 3), pushforward_exact(s, range(4)))):
            assert within(c, total_product(ce, cf, k))
            assert within(pushed, total_product(se, sf, k))

    def test_mc_pushforward_of_whitney_sum(self):
        e, f = random_curvature(3, 2, seed=3), random_curvature(3, 2, seed=4)
        se, sf = segre_forms(chern_forms(e, 3), 3), segre_forms(chern_forms(f, 3), 3)
        for k in (1, 2, 3):
            [(mean, err)] = pushforward_mc(direct_sum(e, f), [k], 20_000, 1)
            assert stderr_units(mean, err, total_product(se, sf, k)) <= MC_UNITS

    @EXAMPLES
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_dual(self, n, r, seed):
        t = random_curvature(n, r, seed)
        d = dual(t)
        for k, (c, c_dual) in enumerate(zip(chern_forms(t, n), chern_forms(d, n))):
            assert within(c_dual, (-1) ** k * c)
        for k, (s, s_dual) in enumerate(zip(pushforward_exact(t, range(n + 1)),
                                            pushforward_exact(d, range(n + 1)))):
            assert within(s_dual, (-1) ** k * s)


class TestSlopeIdentity:
    def test_strong_flat_closed_form(self, rng):
        w = Kaehler11(random_spd(2, rng))
        t = strong_flat_tensor(2, 3, w, 1.2)
        for _ in range(5):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert slope_residuals(t, w, [v]).max() <= 1e-12

    def test_random_he_instances(self, rng):
        for seed in range(4):
            n, r = 2, 3
            w = Kaehler11(random_spd(n, rng))
            t = project_to_he(random_curvature(n, r, seed), w, 0.6)
            assert slope_residuals(t, w, sample_directions(r, 20, seed)).max() <= 1e-10

    def test_zero_slope_lhs_vanishes(self):
        # lambda = 0 strong instance is the zero tensor: the left side has no keys
        w = Kaehler11.euclidean(2)
        t = strong_flat_tensor(2, 2, w, 0.0)
        xi = xi_at(t, [1, 0])
        lhs = wedge(factorial_power(xi, 2),
                    factorial_power(block_embed(Form.one_one(w.g), 0, 3), 1))
        assert lhs.coeffs == {}

    def test_general_form_reduces_on_he_input(self, rng):
        w = Kaehler11(random_spd(2, rng))
        t = project_to_he(random_curvature(2, 3, seed=18), w, 0.4)
        V = sample_directions(3, 5, seed=6)
        assert identity_residuals(t, w, V, [1])[1].max() <= 1e-12
        assert slope_residuals(t, w, V).max() <= 1e-12

    def test_non_he_directed_to_general(self, tmp_path, capsys):
        # identity (8) needs a constant slope: without one, verify identity8 is a precondition
        # error, and the general degree-1 identity is verify identity9 --k 1
        w = Kaehler11.euclidean(2)
        t = random_curvature(2, 2, seed=11)
        assert not is_hermite_einstein(t, w)[0]
        path = tmp_path / "t.json"
        path.write_text(canonical_json(tensor_to_dict(t)))
        assert main(["verify", "identity8", "--in", str(path), "--samples", "5"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "precondition"
        assert main(["verify", "identity9", "--in", str(path), "--samples", "5", "--k", "1"]) == 0
        [row] = json.loads(capsys.readouterr().out)["results"]
        # the value verify identity8 reported for this input as identity8_general_residual_max
        assert row["name"] == "identity9_residual_max_k1" and row["value"] == 5.3009244691058611e-17


class TestBatchedIdentities:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_xi_oracle_per_direction(self, rng, n, r):
        t = random_curvature(n, r, seed=30 + 4 * n + r)
        w = Kaehler11(random_spd(n, rng))
        V = sample_directions(r, 3, seed=n + r)
        # both sides carry the vertical factor of modulus (2pi)^(1-r) and omega^n/n!
        unit = np.linalg.det(w.g).real / (2 * math.pi) ** (r - 1)
        for k, ratios, residuals in zip(range(1, n + 1),
                                        *identity_residuals(t, w, V, range(1, n + 1))):
            for v, ratio, res in zip(V, ratios, residuals):
                ref_ratio, ref_res = top_form_residual(t, w, v, k)
                scale = 1.0 + abs(ref_ratio)
                assert abs(ratio - ref_ratio) <= 1e-12 * scale
                assert abs(res - ref_res) <= 1e-12 * scale * unit

    @pytest.mark.parametrize("n, r", [(2, 3), (3, 2), (4, 4)])
    def test_slope_form_matches_xi_oracle(self, rng, n, r):
        w = Kaehler11(random_spd(n, rng))
        t = project_to_he(random_curvature(n, r, seed=n * r), w, 0.7)
        V = sample_directions(r, 3, seed=1)
        [ratios], [residuals] = identity_residuals(t, w, V, [1], -0.7)
        unit = np.linalg.det(w.g).real / (2 * math.pi) ** (r - 1)
        for v, ratio, res in zip(V, ratios, residuals):
            ref_ratio, ref_res = top_form_residual(t, w, v, 1, -0.7)
            assert abs(ratio - ref_ratio) <= 1e-12 * (1.0 + abs(ref_ratio))
            assert abs(res - ref_res) <= 1e-12 * unit
            assert ratio == pytest.approx(-0.7, abs=1e-12)

    def test_blocks_do_not_change_values(self, monkeypatch):
        t = random_curvature(3, 2, seed=40)
        w = Kaehler11.euclidean(3)
        whole = identity_max(t, w, [2], 50, 2)
        monkeypatch.setattr(projective, "_BLOCK_BYTES", 1)
        assert np.array_equal(whole, identity_max(t, w, [2], 50, 2))

    def test_omega_minors_built_once_per_degree(self, monkeypatch):
        calls = []

        def counted(G, k):
            calls.append(k)
            return one_one_power(G, k)

        one_one_power = curvature.one_one_power
        monkeypatch.setattr(curvature, "one_one_power", counted)
        monkeypatch.setattr(projective, "_BLOCK_BYTES", 1)  # one direction per block
        identity_max(random_curvature(3, 2, seed=40), Kaehler11.euclidean(3), [2], 50, 2)
        assert calls == [2]  # the k x k minors of omega^-1, once

    @pytest.mark.parametrize("scalar", [None, -0.7])
    def test_degree_sequence_stacks_single_degrees(self, monkeypatch, scalar):
        t = random_curvature(4, 3, seed=42)
        w = Kaehler11.euclidean(4)
        V = sample_directions(3, 300, seed=5)
        ratios, residuals = identity_residuals(t, w, V, [1, 2, 3, 4], scalar)
        assert ratios.shape == residuals.shape == (4, 300)
        for k in range(1, 5):
            one = identity_residuals(t, w, V, [k], scalar)
            assert np.array_equal(ratios[k - 1], one[0][0])
            assert np.array_equal(residuals[k - 1], one[1][0])
        worst = identity_max(t, w, [1, 2, 3, 4], 300, 5, scalar)
        monkeypatch.setattr(projective, "_BLOCK_BYTES", 1 << 16)  # blocks differ by degree
        assert worst.shape == (4,)
        assert worst.tolist() == [identity_max(t, w, [k], 300, 5, scalar)[0] for k in range(1, 5)]

    def test_directions_built_once_for_all_degrees(self, monkeypatch):
        calls = {"direction_matrices": 0, "relative_eigenvalues": 0}

        def counted(name):
            original = getattr(projective, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(projective, name, counted(name))
        monkeypatch.setattr(projective, "_BLOCK_BYTES", 1)  # one direction per block
        identity_max(random_curvature(3, 3, seed=40), Kaehler11.euclidean(3), [1, 2, 3], 50, 2)
        assert calls == {"direction_matrices": 50, "relative_eigenvalues": 50}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_volume_is_det_of_omega(self, rng, n):
        # residuals are |ratio - scalar| |omega^n/n!| (2pi)^(1-r), with |omega^n/n!| = det g
        t = random_curvature(n, 2, seed=n)
        w = Kaehler11(random_spd(n, rng))
        ratios, residuals = identity_residuals(t, w, sample_directions(2, 4, seed=n), [1], 0.25)
        vol = np.linalg.det(w.g).real
        np.testing.assert_allclose(residuals, np.abs(ratios - 0.25) * vol / (2 * math.pi),
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n, r", [(2, 3), (3, 2), (3, 4)])
    def test_wrong_scalar_residual_matches_xi_oracle(self, rng, n, r):
        t = random_curvature(n, r, seed=41 + n + r)
        w = Kaehler11(random_spd(n, rng))
        for v in sample_directions(r, 3, seed=3):
            ratios, residuals = identity_residuals(t, w, [v], range(1, n + 1), scalar=0.25)
            for k, [ratio], [res] in zip(range(1, n + 1), ratios, residuals):
                _, ref_res = top_form_residual(t, w, v, k, scalar=0.25)
                assert res == pytest.approx(ref_res, rel=1e-12)
                assert res > 1e-6 * abs(ratio - 0.25)


class TestSampledIdentityMaxima:
    """verify identity8 and identity9 report the largest residual over the sampled directions:
    a maximum does not depend on the order of its terms, so it equals the largest of the
    per-direction residuals bit for bit."""

    @pytest.fixture(params=["euclidean", "random"])
    def omega(self, request, rng):
        if request.param == "euclidean":
            return "euclidean"
        return json.dumps([[[z.real, z.imag] for z in row] for row in random_spd(3, rng)])

    @staticmethod
    def run(tmp_path, capsys, t, omega, argv, code=0):
        """The output of `verify argv` on t, and the tensor, omega and directions it read."""
        path = tmp_path / "t.json"
        path.write_text(canonical_json(tensor_to_dict(t)))
        assert main(["verify", *argv, "--in", str(path), "--omega", omega,
                     "--samples", "25", "--seed", "6"]) == code
        t = curvature.load_tensor(path)
        return (json.loads(capsys.readouterr().out), t, parse_omega(omega, t.n),
                sample_directions(t.r, 25, 6))

    @pytest.mark.parametrize("he", [False, True])
    def test_identity8(self, tmp_path, capsys, omega, he):
        # identity (8) holds for Hermite-Einstein input; any other is a precondition error
        t = random_curvature(3, 2, seed=12)
        if he:
            t = project_to_he(t, parse_omega(omega, 3), 0.7)
        out, t, w, V = self.run(tmp_path, capsys, t, omega, ["identity8"], 0 if he else 2)
        is_he, lam = is_hermite_einstein(t, w)
        assert is_he == he
        if not he:
            assert out["error"]["type"] == "precondition"
            return
        worst = max(float(identity_residuals(t, w, [v], [1], -lam)[1][0, 0]) for v in V)
        [row] = out["results"]
        assert row["value"]["residual"] == worst

    def test_identity9(self, tmp_path, capsys, omega):
        out, t, w, V = self.run(tmp_path, capsys, random_curvature(3, 2, seed=13), omega,
                                ["identity9"])
        rows = out["results"]
        per_direction = np.array([identity_residuals(t, w, [v], [1, 2, 3])[1][:, 0] for v in V])
        assert [row["value"] for row in rows] == np.max(per_direction, axis=0).tolist()


class TestPowerIdentity:
    def test_strong_flat_gamma_closed_form(self, rng):
        n, r, lam = 3, 2, 0.8
        w = Kaehler11(random_spd(n, rng))
        t = strong_flat_tensor(n, r, w, lam)
        v = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        for k in range(1, n + 1):
            gam = gamma_rel(direction_form(t, v), w, k)
            assert gam == pytest.approx(math.comb(n, k) * (lam / n) ** k, abs=1e-10)
            assert identity_residuals(t, w, [v], [k])[1].max() <= 1e-12

    def test_random_tensors_all_degrees(self, rng):
        for (n, r, seed) in ((2, 2, 0), (2, 4, 1), (3, 3, 2)):
            t = random_curvature(n, r, seed)
            w = Kaehler11(random_spd(n, rng))
            V = sample_directions(r, 20, seed)
            assert identity_residuals(t, w, V, range(1, n + 1))[1].max() <= 1e-10

    def test_top_degrees_at_n32_agree_relative_to_the_ratio(self):
        # `gen 32 2 1` and the 4 directions of `verify identity9 --samples 4`: the top ratios
        # reach 6.5e18, so the CLI rows fail --tol 1e-9 on residuals of 1.0e4 and 7.3e3, while
        # the two sides agree within 1e-14 of max|ratio|
        t, w = random_curvature(32, 2, seed=1), Kaehler11.euclidean(32)
        ratios, residuals = identity_residuals(t, w, sample_directions(2, 4, seed=0), [31, 32])
        # residual = |ratio - (-1)^k gamma_k| / 2pi at r = 2, omega^n/n! of unit volume
        assert np.all(2 * math.pi * residuals.max(axis=1) <= 1e-12 * np.abs(ratios).max(axis=1))

    def test_rank_one_reduces_to_wedge_identity(self, rng):
        # no vertical part: the identity is the gamma_k statement downstairs
        t = random_curvature(3, 1, seed=13)
        w = Kaehler11(random_spd(3, rng))
        assert identity_residuals(t, w, [[1.0]], [1, 2, 3])[1].max() <= 1e-10

    def test_non_he_passes_general_identity(self, rng):
        t = random_curvature(2, 3, seed=14)
        w = Kaehler11.euclidean(2)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert identity_residuals(t, w, [v], [1])[1].max() <= 1e-10

    def test_k_out_of_range(self):
        t = random_curvature(2, 2, seed=15)
        w = Kaehler11.euclidean(2)
        with pytest.raises(ValueError):
            identity_residuals(t, w, [[1, 0]], [3])


class TestGammaProfile:
    def test_strong_flat_spread_zero(self, rng):
        w = Kaehler11(random_spd(2, rng))
        t = strong_flat_tensor(2, 3, w, 0.9)
        for prof in gamma_profile(t, w, 2, samples=100, seed=0):
            assert prof["spread"] <= 1e-12

    def test_he_first_degree_constant_second_spread(self):
        w = Kaehler11.euclidean(2)
        t = project_to_he(random_curvature(2, 3, seed=16), w, 0.5)
        p1, p2 = gamma_profile(t, w, 2, samples=200, seed=1)
        assert p1["spread"] <= 1e-10
        assert p1["mean"] == pytest.approx(0.5, abs=1e-10)
        assert p2["spread"] > 1e-3  # generic instance is not 2-HE

    @pytest.mark.parametrize("n, r", [(2, 3), (3, 2), (4, 3)])
    def test_matches_per_direction_gamma_rel(self, monkeypatch, rng, n, r):
        # min and max do not depend on the order of their terms: equal bit for bit
        t = random_curvature(n, r, seed=20 + n)
        w = Kaehler11(random_spd(n, rng))
        monkeypatch.setattr(projective, "_BLOCK_BYTES", 7 * 16 * (n + n) ** 2)  # 7 directions
        profiles = gamma_profile(t, w, n, samples=150, seed=9)
        for k, prof in enumerate(profiles, start=1):
            vals = gamma_profile_loop(t, w, k, 150, 9)
            scale = 1.0 + np.abs(vals).max()
            assert (prof["min"], prof["max"]) == (np.min(vals), np.max(vals))
            assert prof["mean"] == pytest.approx(vals.mean(), abs=1e-12 * scale)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_samples_below_one(self, samples):
        w = Kaehler11.euclidean(2)
        with pytest.raises(ValueError, match="samples must be >= 2"):
            gamma_profile(random_curvature(2, 2, seed=7), w, 1, samples=samples, seed=0)

    @pytest.mark.parametrize("ell", [0, 3])
    def test_rejects_ell_out_of_range(self, ell):
        w = Kaehler11.euclidean(2)
        with pytest.raises(ValueError, match=re.escape(f"ell={ell} out of range [1, 2]")):
            gamma_profile(random_curvature(2, 2, seed=7), w, ell, samples=10, seed=0)

    def test_chunked_reduction_matches_one_chunk(self, monkeypatch):
        t = random_curvature(2, 3, seed=19)
        w = Kaehler11.euclidean(2)
        samples = DIRECTION_CHUNK + 100
        monkeypatch.setattr(projective, "_BLOCK_BYTES", 97 * 16 * (2 + 2) ** 2)  # 97 directions
        profiles = gamma_profile(t, w, 2, samples=samples, seed=5)
        eigs = relative_eigenvalues(projective.direction_matrices(
            t, sample_directions(3, samples, seed=5)), w)
        for k, prof in enumerate(profiles, start=1):
            vals = elem_sym(eigs, k)
            assert (prof["min"], prof["max"]) == (vals.min(), vals.max())
            assert prof["mean"] == pytest.approx(vals.mean(), rel=1e-13)

    def test_memory_flat_in_samples(self):
        t = random_curvature(3, 3, seed=21)
        w = Kaehler11.euclidean(3)
        peak = traced_peak(gamma_profile, t, w, 3, samples=2 * DIRECTION_CHUNK, seed=0)
        later = traced_peak(gamma_profile, t, w, 3, samples=8 * DIRECTION_CHUNK, seed=0)
        assert later <= 1.5 * peak
        assert max(peak, later) <= one_block_bytes(3)

    def test_rank_one_trivially_constant(self):
        w = Kaehler11.euclidean(2)
        t = random_curvature(2, 1, seed=17)
        assert gamma_profile(t, w, 1, samples=50, seed=2)[0]["spread"] <= 1e-12
