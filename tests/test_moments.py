import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segreform import moments
from segreform.cli import MC_MOMENT_PAIRS
from segreform.curvature import (Kaehler11, _complex_normals, chern_forms, random_curvature,
                                 segre_forms)
from segreform.moments import (DIRECTION_CHUNK, _sample_stats, direction_chunks, moment_mc,
                               moment_wick)
from segreform.projective import gamma_profile, pushforward_exact, pushforward_mc
from segreform.symfun import elem_sym

from conftest import random_hermitian, traced_peak
from oracles import (forms_equal, is_real, moment_mc_loop, moment_permanent, permanent_int,
                     phi_k_scalar, phi_k_scalar_moments, phi_k_tensor_lex, phi_k_tensor_naive,
                     sample_directions)

ONE_DIRECTION = "samples must be >= 2: a standard error or spread needs two directions"


class TestMomentDiagonal:
    def test_closed_form_fixtures(self):
        assert moment_wick(2, (1,), (1,)) == Fraction(1, 2)
        assert moment_wick(2, (1, 1), (1, 1)) == Fraction(1, 3)
        assert moment_wick(2, (1, 2), (1, 2)) == Fraction(1, 6)

    def test_formula_shape(self):
        # m1!...mr!(r-1)!/(r-1+k)!
        assert moment_wick(3, (1, 1, 2), (1, 1, 2)) == Fraction(
            math.factorial(2) * math.factorial(1) * math.factorial(2),
            math.factorial(5))


class TestPermanent:
    def test_small_cases(self):
        assert permanent_int([]) == 1
        assert permanent_int([[3]]) == 3
        assert permanent_int([[1, 1], [1, 1]]) == 2
        assert permanent_int([[0, 1], [1, 0]]) == 1

    def test_against_definition(self, rng):
        M = rng.integers(0, 3, size=(4, 4)).tolist()
        brute = sum(math.prod(M[i][p[i]] for i in range(4))
                    for p in itertools.permutations(range(4)))
        assert permanent_int(M) == brute


class TestDirectionStream:
    SAMPLES = 3 * DIRECTION_CHUNK + 7

    def test_prefix_stable(self):
        full = sample_directions(3, self.SAMPLES, seed=17)
        assert full.shape == (self.SAMPLES, 3)
        for count in (1, 5, DIRECTION_CHUNK - 1, DIRECTION_CHUNK, DIRECTION_CHUNK + 1,
                      2 * DIRECTION_CHUNK + 3):
            assert np.array_equal(sample_directions(3, count, seed=17), full[:count])

    def test_blocks_split_the_chunks_only(self):
        full = sample_directions(2, self.SAMPLES, seed=4)
        blocks = list(direction_chunks(2, self.SAMPLES, seed=4, rows=1000))
        assert max(len(b) for b in blocks) == 1000
        assert np.array_equal(np.concatenate(blocks), full)

    @pytest.mark.parametrize("r", [1, 3, 8, 9, 32])
    def test_scaled_by_reciprocal_norm_as_if_divided(self, r):
        # numpy divides by d + 0j as a product with 1/d, so the stream keeps its bits
        z = _complex_normals((6, 0), DIRECTION_CHUNK * r).reshape(-1, r)
        divided = z / np.linalg.norm(z, axis=1, keepdims=True)
        (got,) = direction_chunks(r, DIRECTION_CHUNK, seed=6)
        assert got.tobytes() == divided.tobytes()

    def test_unit_vectors_fixed_per_seed(self):
        v = sample_directions(4, 100, seed=1)
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-14)
        assert np.array_equal(v, sample_directions(4, 100, seed=1))
        assert not np.array_equal(v, sample_directions(4, 100, seed=2))
        assert sample_directions(4, 0, seed=1).shape == (0, 4)


class TestSampleStats:
    """The one reduction every sampler reads the stream through, against numpy statistics
    taken all at once over the concatenated directions."""

    @staticmethod
    def real_values(V):  # a nonzero and a zero mean
        return np.stack([np.abs(V[:, 0]) ** 2, V[:, 1].real])

    @staticmethod
    def complex_values(V):
        return np.stack([[V[:, 0] * V[:, 1].conj(), V[:, 2] ** 2]] * 2)  # entries of shape (2, 2)

    @pytest.mark.parametrize("samples", [1, 2, DIRECTION_CHUNK - 1, DIRECTION_CHUNK,
                                         DIRECTION_CHUNK + 1, 3 * DIRECTION_CHUNK + 5])
    @pytest.mark.parametrize("rows", [1, 7, DIRECTION_CHUNK])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_all_at_once_statistics(self, kind, rows, samples):
        values = getattr(self, f"{kind}_values")
        if samples == 1:  # one direction has no standard error and no spread
            with pytest.raises(ValueError, match=re.escape(ONE_DIRECTION)):
                _sample_stats(values, 3, samples, seed=8, rows=rows)
            return
        mean, err, low, high = _sample_stats(values, 3, samples, seed=8, rows=rows)
        x = values(sample_directions(3, samples, seed=8))
        ref_err = np.std(x, axis=-1, ddof=1) / math.sqrt(samples)
        assert mean.shape == err.shape == x.shape[:-1]
        np.testing.assert_allclose(mean, x.mean(axis=-1), rtol=1e-12, atol=0)
        np.testing.assert_allclose(err, ref_err, rtol=1e-12, atol=0)
        if kind == "real":
            assert np.array_equal(low, x.min(axis=-1)) and np.array_equal(high, x.max(axis=-1))
        else:
            assert low is None and high is None

    def test_a_real_block_is_squared_with_one_temporary(self):
        # the reduction reads the block alone, so one fixed (3, 100000) block stands for a
        # block of 100,000 directions: its square is one temporary of the block's 2,344 KiB,
        # where squaring x.real and a new x.imag of zeros took three
        x = np.random.default_rng(3).standard_normal((3, 100_000))
        assert traced_peak(_sample_stats, lambda V: x, 3, 2, seed=0) <= 1.25 * x.nbytes

    @pytest.mark.parametrize("sampler", [
        lambda: moment_mc(3, [((1,), (1,))], 1, seed=0),
        lambda: pushforward_mc(random_curvature(2, 2, seed=7), [1], 1, 0),
        lambda: gamma_profile(random_curvature(2, 2, seed=7), Kaehler11.euclidean(2), 2, 1, 0)],
        ids=["moment_mc", "pushforward_mc", "gamma_profile"])
    def test_one_direction_raises_before_drawing(self, draws, sampler):
        with pytest.raises(ValueError, match=re.escape(ONE_DIRECTION)):
            sampler()
        assert draws == []


def index_pairs(r, max_k):
    """A strategy for (lambdas, mus): two index tuples in 1..r of one length k <= max_k."""
    return st.integers(0, max_k).flatmap(
        lambda k: st.tuples(*[st.tuples(*[st.integers(1, r)] * k)] * 2))


# (lambdas, mus) at r = 2 and the error either moment function raises on them
BAD_INDICES = [pytest.param((0,), (0,), "index 0 out of range [1, 2]", id="zero"),
               pytest.param((1, 3), (1, 2), "index 3 out of range [1, 2]", id="lambda-past-r"),
               pytest.param((1,), (3,), "index 3 out of range [1, 2]", id="mu-past-r"),
               pytest.param((1,), (1, 2), "lambdas and mus must have equal length", id="short"),
               pytest.param((), (1,), "lambdas and mus must have equal length", id="empty")]


class TestMomentWick:
    def test_off_diagonal_equals_diagonal_value(self):
        # |v1|^2 |v2|^2 written with crossed indices
        assert moment_wick(2, (1, 2), (2, 1)) == Fraction(1, 6)

    def test_unbalanced_vanishes(self):
        assert moment_wick(2, (1,), (2,)) == 0
        assert moment_wick(3, (1, 1), (1, 2)) == 0

    def test_degree_zero(self):
        assert moment_wick(3, (), ()) == 1

    @pytest.mark.parametrize("lambdas, mus, message", BAD_INDICES)
    def test_rejects_bad_indices(self, lambdas, mus, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            moment_wick(2, lambdas, mus)

    def test_reduces_to_diagonal(self, rng):
        for _ in range(20):
            r = int(rng.integers(1, 5))
            k = int(rng.integers(0, 4))
            idx = tuple(int(i) for i in rng.integers(1, r + 1, size=k))
            closed = Fraction(math.factorial(r - 1) * math.prod(
                math.factorial(idx.count(l)) for l in range(1, r + 1)), math.factorial(r - 1 + k))
            assert moment_wick(r, idx, idx) == closed

    def test_equal_multisets_any_order(self, rng):
        for _ in range(10):
            r, k = 3, 3
            idx = tuple(int(i) for i in rng.integers(1, r + 1, size=k))
            perm = tuple(int(i) for i in np.array(idx)[rng.permutation(k)])
            assert moment_wick(r, idx, perm) == moment_wick(r, idx, idx)

    def test_closed_form_matches_permanent_exhaustively(self):
        # every pair of index tuples, balanced or not, for r <= 3 and k <= 3
        for r in (1, 2, 3):
            for k in range(4):
                for lams in itertools.product(range(1, r + 1), repeat=k):
                    for mus in itertools.product(range(1, r + 1), repeat=k):
                        assert moment_wick(r, lams, mus) == moment_permanent(r, lams, mus)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda r: st.tuples(st.just(r), index_pairs(r, 4))))
    def test_matches_permanent_on_random_tuples(self, case):
        r, (lams, mus) = case
        assert moment_wick(r, lams, mus) == moment_permanent(r, lams, mus)


class TestMomentMC:
    # a mixed r = 3 batch: degree 0, balanced, crossed, unbalanced, a repeated index
    BATCH = [((1, 2), (2, 1)), ((), ()), ((1,), (2,)), ((1, 1, 3), (3, 1, 1)),
             ((2, 2), (2, 3)), ((3,), (3,))]

    def test_degree_zero_exact(self):
        [(est, err)] = moment_mc(3, [((), ())], 10, seed=0)
        assert est == 1 and err == 0

    def test_degree_zero_batch_draws_nothing(self, draws):
        assert moment_mc(3, [((), ())] * 3, 10, seed=0) == [(1, 0)] * 3
        assert draws == []
        moment_mc(3, [((), ()), ((1,), (1,))], 10, seed=0)  # the counter sees a draw
        assert len(draws) == 1

    @pytest.mark.parametrize("samples", [0, -1])
    @pytest.mark.parametrize("batch", [[((1,), (1,))], [((), ())], []])
    def test_rejects_samples_below_one(self, batch, samples):
        with pytest.raises(ValueError, match=re.escape(ONE_DIRECTION)):
            moment_mc(3, batch, samples, seed=0)

    @pytest.mark.parametrize("lambdas, mus, message", BAD_INDICES)
    def test_rejects_bad_indices_before_drawing(self, monkeypatch, lambdas, mus, message):
        monkeypatch.setattr(moments, "_complex_normals", None)  # a draw would be a TypeError
        with pytest.raises(ValueError, match=re.escape(message)):
            moment_mc(2, [((1,), (1,)), (lambdas, mus)], 10, seed=0)

    def test_matches_closed_form(self):
        [(est, err)] = moment_mc(2, [((1,), (1,))], 200_000, seed=3)
        assert abs(est - 0.5) <= 3 * err

    def test_wick_cross_check_off_diagonal(self):
        [(est, err)] = moment_mc(2, [((1, 2), (2, 1))], 200_000, seed=4)
        assert abs(est - 1 / 6) <= 3 * err

    def test_unbalanced_estimates_zero(self):
        [(est, err)] = moment_mc(2, [((1,), (2,))], 200_000, seed=5)
        assert abs(est) <= 4 * err

    def test_deterministic(self):
        pairs = [((1, 2), (1, 2))]
        assert moment_mc(3, pairs, 70_000, seed=9) == moment_mc(3, pairs, 70_000, seed=9)

    def test_chunk_boundary_consistency(self):
        # determinism must not depend on sample count crossing chunk edges
        [(e1, _)] = moment_mc(2, [((1,), (1,))], (1 << 16) + 17, seed=2)
        [(e2, _)] = moment_mc(2, [((1,), (1,))], (1 << 16) + 17, seed=2)
        assert e1 == e2

    # no chunk of exactly one direction: np.prod over a one-row array takes numpy's
    # reduce loop, whose product of two or more factors can differ in the last bit;
    # (1 << 16) + 17 ends in a chunk of 17
    @pytest.mark.parametrize("samples", [2, 1000, (1 << 16) + 17])
    def test_batch_matches_per_spec_loop_bitwise(self, samples):
        results = moment_mc(3, self.BATCH, samples, seed=13)
        assert results == [moment_mc_loop(3, lams, mus, samples, seed=13)
                           for lams, mus in self.BATCH]

    def test_estimate_independent_of_batch_company_and_order(self):
        samples = (1 << 16) + 17
        alone = [moment_mc(3, [pair], samples, seed=21)[0] for pair in self.BATCH]
        assert moment_mc(3, self.BATCH[::-1], samples, seed=21) == alone[::-1]
        assert moment_mc(3, self.BATCH[2:5], samples, seed=21) == alone[2:5]
        assert moment_mc(3, self.BATCH + self.BATCH[:2], samples, seed=21) == alone + alone[:2]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda r: st.tuples(
               st.just(r), st.lists(index_pairs(r, 3), min_size=1, max_size=5))),
           st.randoms(use_true_random=False), st.sampled_from([2, 777, DIRECTION_CHUNK + 5]))
    def test_estimate_of_a_pair_ignores_its_company(self, case, shuffle, samples):
        r, pairs = case
        alone = [moment_mc(r, [pair], samples, seed=5)[0] for pair in pairs]
        order = list(range(len(pairs)))
        shuffle.shuffle(order)
        assert moment_mc(r, [pairs[i] for i in order], samples, seed=5) == [alone[i] for i in order]

    def test_stderr_units_are_calibrated(self):
        # verify moments' five MC rows over 400 seeds: |estimate - exact| / stderr has mean
        # near E|N(0, 1)| = 0.80 (0.89 for a complex error), and 2,000 rows stay within 4
        pairs = list(MC_MOMENT_PAIRS)
        units = [abs(est - complex(moment_wick(3, lam, mu))) / err for seed in range(400)
                 for (lam, mu), (est, err) in zip(pairs, moment_mc(3, pairs, 20_000, seed))]
        assert 0.7 <= np.mean(units) <= 0.95 and max(units) <= 4

    @staticmethod
    def one_block_bytes(r, pairs):
        """A chunk of r-vectors and a values buffer of one entry per pair, each 16-byte complex."""
        return 16 * DIRECTION_CHUNK * (r + len(pairs))

    def test_memory_flat_in_samples(self):
        batch = [((1, 2), (2, 1)), ((3,), (3,))]
        peak = traced_peak(moment_mc, 3, batch, 2 * DIRECTION_CHUNK, seed=6)
        later = traced_peak(moment_mc, 3, batch, 8 * DIRECTION_CHUNK, seed=6)
        assert later <= 1.5 * peak
        # one block alive, its temporaries 1.25 times its size: a second chunk held while
        # the next is drawn, or a second copy of the values, passes that
        assert max(peak, later) <= 2.25 * self.one_block_bytes(3, batch)

    def test_memory_of_verify_moments_pairs(self):
        peak = traced_peak(moment_mc, 3, MC_MOMENT_PAIRS, 3 * DIRECTION_CHUNK, seed=6)
        assert peak <= 2.25 * self.one_block_bytes(3, MC_MOMENT_PAIRS)


class TestPhiScalar:
    def test_phi1_is_positive_trace_average(self, rng):
        # resolves the sign convention: sphere average of <Tv,v> is +tr(T)/r
        T = random_hermitian(3, rng)
        assert phi_k_scalar(T, 1) == pytest.approx(np.trace(T).real / 3, abs=1e-12)
        vs = sample_directions(3, 40_000, seed=8)
        mc = np.mean([np.vdot(v, T @ v).real for v in vs])
        assert abs(mc - np.trace(T).real / 3) < 0.02
        assert abs(mc + np.trace(T).real / 3) > 0.05  # the flipped sign is wrong

    def test_phi2_identity_matrix(self):
        # phi_2(Id_2) = (2/(r(r+1)))((tr)^2 - tr Lambda^2) = (2/6)(4-1) = 1
        assert phi_k_scalar(np.eye(2), 2) == pytest.approx(1.0)

    def test_phi2_display_formula(self, rng):
        for r in (2, 3, 4, 5):
            for _ in range(5):
                T = random_hermitian(r, rng)
                eigs = np.linalg.eigvalsh(T)
                disp = 2 / (r * (r + 1)) * (np.trace(T).real**2 - elem_sym(eigs, 2))
                assert phi_k_scalar(T, 2) == pytest.approx(disp, abs=1e-10)

    def test_vanishes_on_zero(self):
        for k in (1, 2, 3):
            assert phi_k_scalar(np.zeros((3, 3)), k) == 0

    def test_positive_for_positive_definite(self, rng):
        from conftest import random_spd

        T = random_spd(4, rng)
        for k in range(1, 5):
            assert phi_k_scalar(T, k) > 0

    def test_unitary_invariance(self, rng):
        T = random_hermitian(4, rng)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        U, _ = np.linalg.qr(z)
        for k in (1, 2, 3):
            assert phi_k_scalar(U.conj().T @ T @ U, k) == pytest.approx(
                phi_k_scalar(T, k), abs=1e-10)

    def test_closed_form_vs_moment_sums(self, rng):
        for r in (2, 3, 5):
            T = random_hermitian(r, rng)
            for k in range(1, 5):
                assert abs(phi_k_scalar(T, k) - phi_k_scalar_moments(T, k)) <= 1e-10

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError, match="Hermitian"):
            phi_k_scalar(rng.standard_normal((3, 3)) + np.diag([0, 1j, 0]), 2)


class TestPhiTensor:
    """phi_k, the sphere average of theta_v^k, is s_k / ((-1)^k binom(r-1+k, k)): the walk of
    pushforward_exact against the oracles' walks of phi_k."""

    def test_degree_zero_is_one(self):
        t = random_curvature(2, 2, seed=0)
        assert pushforward_exact(t, [0])[0].coeffs == {((), ()): 1}

    def test_degree_one_is_scaled_first_chern(self):
        t = random_curvature(2, 3, seed=1)
        c1 = chern_forms(t, 1)[1]
        assert (pushforward_exact(t, [1])[0] / -3 - c1 / 3).max_abs() <= 1e-12

    def test_headline_segre_identity(self):
        # (-1)^k C(r-1+k, k) phi_k = s_k
        for (n, r, seed) in ((2, 2, 3), (2, 3, 4), (3, 2, 5)):
            t = random_curvature(n, r, seed)
            ss = segre_forms(chern_forms(t, t.r), n)
            for k, got in enumerate(pushforward_exact(t, range(n + 1))):
                assert (got - ss[k]).max_abs() <= 1e-10

    @pytest.mark.parametrize("n, r", [(2, 3), (3, 2), (4, 2), (3, 3)])
    def test_balanced_walk_matches_naive_loop(self, n, r):
        # k > r has several distinct mu with the same pair multiset, e.g. lambda = (1,1,2,2)
        t = random_curvature(n, r, seed=6 + n + r)
        for k, got in enumerate(pushforward_exact(t, range(n + 1))):
            ref = (-1.0) ** k * math.comb(r - 1 + k, k) * phi_k_tensor_naive(t, k)
            assert (got - ref).max_abs() <= 1e-12 * (1.0 + ref.max_abs())

    @pytest.mark.parametrize("n, r, ks", [(4, 4, range(5)), (5, 5, range(6)), (8, 3, (3, 6))],
                             ids=["4-4", "5-5", "8-3"])
    def test_colex_walk_matches_lex_walk_bitwise(self, n, r, ks):
        # the sum of each lambda is unchanged and math.fsum is correctly rounded
        t = random_curvature(n, r, seed=10 * n + r)
        for k, got in zip(ks, pushforward_exact(t, ks)):
            assert forms_equal(got, (-1.0) ** k * math.comb(r - 1 + k, k) * phi_k_tensor_lex(t, k))

    def test_finished_suffix_sums_are_dropped(self):
        # keeping every suffix sum peaks at about 13 MB here for degree 6 alone
        t = random_curvature(8, 3, seed=83)
        for ks in ([6], range(7)):
            assert traced_peak(pushforward_exact, t, ks) < 8 * 2**20

    def test_result_is_real(self):
        t = random_curvature(3, 2, seed=7)
        for form in pushforward_exact(t, range(1, 4)):
            assert is_real(form, 1e-11)
