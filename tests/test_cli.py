import argparse
import copy
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segreform.cli import build_parser, main

from conftest import child_env, stderr_units, validate_report
from oracles import hermitian_deviation

SINGLE_SAMPLE = "argument --samples: must be an integer in [2, 100000000], got 1"

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def he_instance_path(tmp_path, capsys):
    path = tmp_path / "he.json"
    code, _ = run_cli(capsys, "gen", "2", "2", "42", "--he", "1.0", "--out", str(path))
    assert code == 0
    return str(path)


class TestGen:
    def test_deterministic_bytes(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "gen", "2", "2", "7", "--out", str(p1))
        run_cli(capsys, "gen", "2", "2", "7", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_strong_flat_instance(self, capsys):
        code, out = run_cli(capsys, "gen", "2", "2", "42", "--strong-flat", "--he", "1.0")
        assert code == 0
        data = json.loads(out)
        # Theta_hat = (1/2) omega tensor Id: diagonal entries 0.5
        entries = {(e["j"], e["k"], e["lambda"], e["mu"]): e["re"] for e in data["coeffs"]}
        assert entries[(1, 1, 1, 1)] == 0.5
        assert entries[(2, 2, 2, 2)] == 0.5
        assert (1, 2, 1, 1) not in entries

    def test_generated_instance_is_loadable_and_valid(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        code, _ = run_cli(capsys, "gen", "3", "3", "7", "--out", str(path))
        assert code == 0
        from segreform.curvature import load_tensor

        assert hermitian_deviation(load_tensor(str(path))) == 0

    def test_seeds_past_64_bits_name_distinct_instances(self, capsys):
        outs = []
        for seed in (2**64, 2**64 + 1):
            code, out = run_cli(capsys, "gen", "2", "2", str(seed))
            assert code == 0
            outs.append(out)
        assert outs[0] != outs[1]

    @pytest.mark.parametrize("spelling", [["--he", "-1.5e1"], ["--he=-1.5e1"], ["--he", "-15"]],
                             ids=["exponent", "joined", "integer"])
    def test_negative_slope_in_every_spelling(self, tmp_path, capsys, spelling):
        path = str(tmp_path / "t.json")
        assert run_cli(capsys, "gen", "2", "2", "1", *spelling, "--out", path)[0] == 0
        code, out = run_cli(capsys, "check", "he", "--in", path)
        assert code == 0
        assert json.loads(out)["results"][0]["value"]["slope"] == pytest.approx(-15, abs=1e-12)

    def test_conflicting_flags_exit_2(self, capsys):
        code, out = run_cli(capsys, "gen", "2", "2", "1", "--flat", "--strong-flat")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "usage", "message": "argument --strong-flat: not allowed with argument --flat"}

    @pytest.mark.parametrize("dims", [("33", "2"), ("2", "33"), ("0", "2")])
    def test_dimension_out_of_bound_is_validation_error(self, capsys, dims):
        code, out = run_cli(capsys, "gen", *dims, "1")
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "validation" and "must be an integer in [1, 32]" in err["message"]

    def test_strong_flat_needs_slope(self, capsys):
        code, out = run_cli(capsys, "gen", "2", "2", "1", "--strong-flat")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "usage"


class TestVerify:
    def test_pushforward_report_passes(self, he_instance_path, capsys):
        code, out = run_cli(capsys, "verify", "pushforward", "--in", he_instance_path,
                            "--tol", "1e-9")
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        assert all(r["pass"] for r in report["results"])
        names = {r["name"] for r in report["results"]}
        assert {"pushforward_vs_segre_k0", "pushforward_vs_segre_k1",
                "pushforward_vs_segre_k2"} <= names

    def test_identity8_and_9(self, he_instance_path, capsys):
        code, out = run_cli(capsys, "verify", "identity8", "--in", he_instance_path,
                            "--tol", "1e-10", "--samples", "5")
        assert code == 0
        validate_report(json.loads(out))
        code, out = run_cli(capsys, "verify", "identity9", "--in", he_instance_path,
                            "--tol", "1e-10", "--samples", "5")
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        assert len(report["results"]) == 2  # k = 1, 2

    @pytest.mark.parametrize("argv, inputs", [
        (["verify", "moments", "--samples", "10"], {"k": 3, "r": 3, "samples": 10, "seed": 0}),
        (["verify", "identity8"], {"omega": "euclidean", "samples": 20, "seed": 0, "tol": 1e-9}),
        (["check", "lhe", "--samples", "30", "--symmetrize"],
         {"ell": 1, "omega": "euclidean", "samples": 30, "seed": 0, "tol": 1e-9})],
        ids=["verify-moments", "identity8", "lhe"])
    def test_inputs_echo_the_values_the_run_used(self, he_instance_path, capsys, argv, inputs):
        if argv[1] != "moments":
            argv, inputs = argv + ["--in", he_instance_path], {**inputs, "in": he_instance_path}
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["inputs"] == inputs

    def test_identity9_builds_each_block_once(self, tmp_path, capsys, monkeypatch):
        import segreform.projective as projective

        calls = []

        def counted(name):
            original = getattr(projective, name)

            def wrapper(*args):
                result = original(*args)
                calls.append((name, len(result)))  # one entry per direction of the block
                return result
            return wrapper

        for name in ("direction_matrices", "relative_eigenvalues"):
            monkeypatch.setattr(projective, name, counted(name))
        path = tmp_path / "rand33.json"
        run_cli(capsys, "gen", "3", "3", "8", "--out", str(path))
        code, out = run_cli(capsys, "verify", "identity9", "--in", str(path), "--samples", "20")
        assert code == 0
        assert [r["name"] for r in json.loads(out)["results"]] == [
            f"identity9_residual_max_k{k}" for k in (1, 2, 3)]
        # 20 directions are one block: one build and one eigensolve for all three degrees
        assert calls == [("direction_matrices", 20), ("relative_eigenvalues", 20)]

    def test_moments_kind(self, capsys):
        code, out = run_cli(capsys, "verify", "moments", "--r", "2", "--k", "2",
                            "--samples", "40000")
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        assert any(r["name"].startswith("moment_mc") for r in report["results"])
        norm = [r for r in report["results"] if r["name"].startswith("moment_norm")]
        assert [r["name"] for r in norm] == ["moment_norm_k0", "moment_norm_k1", "moment_norm_k2"]
        assert all(r["value"] == 0 and r["pass"] for r in norm)

    def test_moments_rank_one_keeps_the_rows_that_fit(self, capsys):
        code, out = run_cli(capsys, "verify", "moments", "--r", "1", "--samples", "1000")
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        names = [r["name"] for r in report["results"] if r["name"].startswith("moment_mc")]
        assert names == ["moment_mc_l1_m1", "moment_mc_l11_m11"]

    def test_moments_norm_row_catches_a_wrong_diagonal_moment(self, capsys, monkeypatch):
        import segreform.moments as moments

        exact = moments.moment_wick
        # the closed form without the factorial of the last multiplicity
        monkeypatch.setattr(moments, "moment_wick", lambda r, lambdas, mus: exact(
            r, lambdas, mus) / math.factorial(lambdas.count(r)))
        code, out = run_cli(capsys, "verify", "moments", "--r", "3", "--k", "3",
                            "--samples", "1000")
        assert code == 1
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        # m_3 >= 2 first occurs at k = 2
        assert [rows[f"moment_norm_k{k}"]["pass"] for k in range(4)] == [True, True, False, False]
        assert rows["moment_norm_k2"]["value"] > 0

    def test_moments_draws_directions_once(self, capsys, draws):
        from segreform.moments import DIRECTION_CHUNK

        code, out = run_cli(capsys, "verify", "moments", "--r", "3", "--k", "2",
                            "--samples", "70000")
        names = [r["name"] for r in json.loads(out)["results"]]
        assert sum(name.startswith("moment_mc_") for name in names) == 5
        # one stream (seed, c) per chunk c of the direction stream, shared by all five rows
        assert draws == [(0, c) for c in range(math.ceil(70000 / DIRECTION_CHUNK))]

    def test_moment_mc_rows_are_stderr_units_of_moment_mc(self, capsys):
        from segreform.cli import MC_MOMENT_PAIRS
        from segreform.moments import moment_mc, moment_wick

        _, out = run_cli(capsys, "verify", "moments", "--r", "3", "--k", "1",
                         "--samples", "3000", "--seed", "4")
        rows = {r["name"]: r["value"] for r in json.loads(out)["results"]
                if r["name"].startswith("moment_mc_")}
        pairs = list(MC_MOMENT_PAIRS)
        assert rows == {
            f"moment_mc_l{''.join(map(str, lam))}_m{''.join(map(str, mu))}":
                stderr_units(est, err, complex(moment_wick(3, lam, mu)))
            for (lam, mu), (est, err) in zip(pairs, moment_mc(3, pairs, 3000, 4))}

    def test_missing_input_is_usage_error(self, capsys):
        code, out = run_cli(capsys, "verify", "pushforward")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "usage"

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "r": }')
        code, out = run_cli(capsys, "verify", "pushforward", "--in", str(bad))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "parse" and "line 1" in err["message"]

    def test_invalid_tensor_lists_symmetry(self, tmp_path, capsys):
        bad = tmp_path / "asym.json"
        bad.write_text(json.dumps({"n": 1, "r": 2, "coeffs": [
            {"j": 1, "k": 1, "lambda": 1, "mu": 2, "re": 1.0, "im": 0.0}]}))
        code, out = run_cli(capsys, "verify", "pushforward", "--in", str(bad))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "validation" and "hermitian" in err["message"]
        code, _ = run_cli(capsys, "verify", "pushforward", "--in", str(bad), "--symmetrize")
        assert code == 0

    @pytest.mark.parametrize("spelling", ["NaN", '"inf"', "-Infinity"])
    def test_non_finite_coefficient_is_validation_error(self, tmp_path, capsys, spelling):
        bad = tmp_path / "nonfinite.json"
        bad.write_text('{"n": 2, "r": 1, "coeffs": [{"j": 1, "k": 1, "lambda": 1, "mu": 1, '
                       f'"re": {spelling}, "im": 0.0}}]}}')
        for argv in (["verify", "pushforward"], ["check", "he"]):
            code, out = run_cli(capsys, *argv, "--in", str(bad))
            assert code == 2
            err = json.loads(out)["error"]
            assert err["type"] == "validation" and "finite" in err["message"]

    def test_oversized_coefficients_are_rejected_before_any_computation(self, tmp_path, capsys):
        path = tmp_path / "big32.json"
        run_cli(capsys, "gen", "3", "2", "7", "--out", str(path))
        data = json.loads(path.read_text())
        for e in data["coeffs"]:
            e["re"], e["im"] = e["re"] * 1e160, e["im"] * 1e160
        path.write_text(json.dumps(data))
        proc = subprocess.run([sys.executable, "-m", "segreform.cli", "verify", "identity9",
                               "--in", str(path), "--samples", "20000"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 2
        err = json.loads(proc.stdout)["error"]
        assert err["type"] == "validation" and "would overflow" in err["message"]
        assert proc.stderr == ""  # no RuntimeWarning: nothing was computed

    @pytest.mark.parametrize("shape", [
        ("4", "4", "--he", "1.0"), ("3", "3", "--he", "1.0"), ("3", "3", "--flat", "--he", "1.0"),
        ("2", "2"), ("2", "2", "--he", "1.0"), ("2", "2", "--flat", "--he", "1.0"),
        ("2", "2", "--strong-flat", "--he", "1.0")],
        ids=["he44", "he33", "flat33", "rand22", "he22", "flat22", "strong22"])
    @pytest.mark.parametrize("seed", ["11", "12"])
    def test_generated_instances_of_every_workload_shape_are_accepted(self, tmp_path, capsys,
                                                                      shape, seed):
        n, r, *flags = shape
        path = str(tmp_path / "inst.json")
        assert run_cli(capsys, "gen", n, r, seed, *flags, "--out", path)[0] == 0
        code, out = run_cli(capsys, "verify", "identity9", "--in", path, "--samples", "3")
        assert code == 0
        assert all(row["pass"] for row in json.loads(out)["results"])

    @pytest.mark.parametrize("field, value, quoted", [
        ("n", "NaN", "NaN"), ("n", "2.5", "2.5"), ("n", '"2"', '"2"'), ("n", "true", "true"),
        ("n", "1e400", "Infinity"), ("n", "1" + "0" * 400, "1" + "0" * 400), ("n", "33", "33"),
        ("n", "0", "0"), ("r", "NaN", "NaN"), ("r", "33", "33")],
        ids=["n-nan", "n-fraction", "n-string", "n-bool", "n-float-overflow",
             "n-huge-int", "n-over-bound", "n-zero", "r-nan", "r-over-bound"])
    def test_malformed_or_oversized_dimension_is_validation_error(self, tmp_path, capsys,
                                                                  field, value, quoted):
        # the message quotes the value as JSON text, as json.load read it
        dims = {"n": "2", "r": "2", field: value}
        bad = tmp_path / "dims.json"
        bad.write_text(f'{{"n": {dims["n"]}, "r": {dims["r"]}, "coeffs": []}}')
        code, out = run_cli(capsys, "check", "he", "--in", str(bad))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "validation" and f"{field} must be an integer" in err["message"]
        assert err["message"].endswith(f"got {quoted}")

    def test_pushforward_mc_draws_exactly_the_requested_samples(self, he_instance_path,
                                                                capsys):
        from segreform.curvature import chern_forms, load_tensor, segre_forms
        from segreform.projective import pushforward_mc

        code, out = run_cli(capsys, "verify", "pushforward", "--in", he_instance_path,
                            "--k", "1", "--samples", "3", "--seed", "5")
        report = json.loads(out)
        validate_report(report)
        row = {r["name"]: r for r in report["results"]}["pushforward_mc_k1_stderr_units"]
        t = load_tensor(he_instance_path)
        [(mean, err)] = pushforward_mc(t, [1], 3, 5)
        assert row["value"] == stderr_units(mean, err, segre_forms(chern_forms(t, t.r), 2)[1])
        assert code == (0 if row["pass"] else 1)

    def test_pushforward_draws_directions_once_for_every_degree(self, tmp_path, capsys, draws,
                                                                 monkeypatch):
        from segreform import projective
        from segreform.moments import DIRECTION_CHUNK

        path = str(tmp_path / "he33.json")
        assert run_cli(capsys, "gen", "3", "3", "5", "--he", "1.0", "--out", path)[0] == 0
        builds = []
        build = projective.direction_matrices
        monkeypatch.setattr(projective, "direction_matrices",
                            lambda t, V: builds.append(len(V)) or build(t, V))
        code, out = run_cli(capsys, "verify", "pushforward", "--in", path, "--samples", "10000",
                            "--seed", "3")
        names = [r["name"] for r in json.loads(out)["results"]]
        assert code in (0, 1)
        assert [name for name in names if name.startswith("pushforward_mc_")] == [
            f"pushforward_mc_k{k}_stderr_units" for k in (1, 2, 3)]
        # one stream (seed, c) per chunk c, and one build of G_v per block, for all three degrees
        assert draws == [(3, c) for c in range(math.ceil(10000 / DIRECTION_CHUNK))]
        rows = projective._block_rows(3, [1, 2, 3])
        chunks = [min(DIRECTION_CHUNK, 10000 - start) for start in range(0, 10000, DIRECTION_CHUNK)]
        assert builds == [min(rows, chunk - i) for chunk in chunks for i in range(0, chunk, rows)]
        # --k 0 leaves no Monte Carlo degree (degree 0 is the unit form): no draw, one row
        code, out = run_cli(capsys, "verify", "pushforward", "--in", path, "--k", "0",
                            "--samples", "2")
        assert code == 0 and len(draws) == len(chunks)
        assert [r["name"] for r in json.loads(out)["results"]] == ["pushforward_vs_segre_k0"]

    def test_pushforward_single_sample_is_usage_error(self, tmp_path, capsys):
        # the parser refuses the value before the (missing) input is read
        code, out = run_cli(capsys, "verify", "pushforward", "--in",
                            str(tmp_path / "missing.json"), "--samples", "1")
        assert code == 2
        assert json.loads(out) == {"error": {"type": "usage", "message": SINGLE_SAMPLE}}

    @pytest.mark.parametrize("argv", [["verify", "moments", "--r", "2", "--k", "1"],
                                      ["moments", "--r", "2", "--lambdas", "1"],
                                      ["check", "lhe"], ["verify", "identity8"],
                                      ["verify", "identity9"]],
                             ids=["verify-moments", "moments", "lhe", "identity8", "identity9"])
    def test_single_sample_is_usage_error(self, he_instance_path, capsys, argv):
        # one direction has no standard error and no spread, nor a maximum worth the name
        if argv[0] != "moments" and argv[1] != "moments":
            argv = argv + ["--in", he_instance_path]
        code, out = run_cli(capsys, *argv, "--samples", "1")
        assert code == 2
        assert json.loads(out) == {"error": {"type": "usage", "message": SINGLE_SAMPLE}}

    @pytest.mark.parametrize("argv", [["verify", "identity8"], ["verify", "moments"],
                                      ["check", "lhe"], ["moments", "--r", "2"]],
                             ids=["identity8", "verify-moments", "lhe", "moments"])
    def test_samples_below_one_is_usage_error(self, he_instance_path, capsys, argv):
        if argv[0] != "moments" and argv[1] != "moments":
            argv = argv + ["--in", he_instance_path]
        for samples in ("0", "-3"):
            code, out = run_cli(capsys, *argv, "--samples", samples)
            assert code == 2
            assert json.loads(out) == {"error": {"type": "usage", "message":
                                                 "argument --samples: must be an integer in "
                                                 f"[2, 100000000], got {samples}"}}

    @pytest.mark.parametrize("argv", [["check", "lhe", "--ell", "-2"],
                                      ["check", "lhe", "--ell", "0"],
                                      ["verify", "moments", "--r", "0"],
                                      ["verify", "moments", "--k", "-1"],
                                      ["verify", "moments", "--r", "33", "--k", "1",
                                       "--samples", "10"],
                                      ["moments", "--r", "33", "--lambdas", "1"],
                                      ["moments", "--r", "1000000", "--lambdas", "1"],
                                      ["verify", "moments", "--r", "32", "--k", "6"],
                                      ["verify", "moments", "--r", "2", "--k", "446"],
                                      ["verify", "moments", "--r", "1", "--k", "99999"]],
                             ids=["ell-negative", "ell-zero", "moments-r-zero",
                                  "moments-k-negative", "moments-r-above-max",
                                  "moment-r-above-max", "moment-r-huge",
                                  "moments-grid-r32-k6", "moments-grid-r2-k446",
                                  "moments-r1-k-huge"])
    def test_integer_option_out_of_range_is_usage_error(self, he_instance_path, capsys,
                                                        argv):
        # each of these used to run with a substituted value, no check at all,
        # or for minutes to hours (factorial(999999); 2.7 M or 100,128 diagonal moment
        # terms; norm rows whose big-integer factorials grow as k^3)
        if argv[0] == "check":
            argv = argv + ["--in", he_instance_path]
        start = time.perf_counter()
        code, out = run_cli(capsys, *argv)  # the parser, or the --r by --k bound after it
        assert time.perf_counter() - start < 1.0
        assert (code, out.count("\n")) == (2, 1)
        assert json.loads(out)["error"]["type"] == "usage"

    def test_pushforward_at_five_five(self, tmp_path, capsys):
        path = tmp_path / "he55.json"
        assert run_cli(capsys, "gen", "5", "5", "3", "--he", "1.0", "--out", str(path))[0] == 0
        code, out = run_cli(capsys, "verify", "pushforward", "--in", str(path))
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        assert [r["name"] for r in report["results"]] == [
            f"pushforward_vs_segre_k{k}" for k in range(6)]


class TestCheck:
    def test_thm12_on_strong_flat(self, tmp_path, capsys):
        path = tmp_path / "sf.json"
        run_cli(capsys, "gen", "2", "3", "0", "--strong-flat", "--he", "0.8",
                "--out", str(path))
        code, out = run_cli(capsys, "check", "thm12", "--in", str(path))
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        row = {r["name"]: r for r in report["results"]}["thm12_margin"]
        assert abs(row["value"]["margin"]) <= 1e-10
        assert row["value"]["equality"] is True

    def test_thm12_is_one_margin_row_at_large_slope(self, tmp_path, capsys):
        path = str(tmp_path / "he33.json")
        assert run_cli(capsys, "gen", "3", "3", "11", "--he", "1e4", "--out", path)[0] == 0
        code, out = run_cli(capsys, "check", "thm12", "--in", path)
        rows = json.loads(out)["results"]
        assert (code, [row["name"] for row in rows]) == (0, ["thm12_margin"])
        assert rows[0]["value"]["margin"] > 1

    def test_a_rounded_imaginary_part_is_not_an_error(self, tmp_path, capsys):
        # the ratio q of this flat instance has an imaginary part of 6.6e-6 next to a real
        # part of 2.2e-6: rounding of contractions of size 1e12, which the ratio drops
        omega = ("[[9.9,[0.07,2.35],[1.51,0.99]],[[0.07,-2.35],7.78,[2.92,-1.02]],"
                 "[[1.51,-0.99],[2.92,1.02],5.6]]")
        path = str(tmp_path / "flat33.json")
        assert run_cli(capsys, "gen", "3", "3", "1", "--flat", "--he", "1e6", "--omega", omega,
                       "--out", path)[0] == 0
        main(["check", "kl", "--in", path, "--omega", omega])
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.count("\n") == 1
        [row] = json.loads(captured.out)["results"]
        assert row["name"] == "kl_nonpositive" and row["value"]["equality"] is True

    def test_kl_on_non_he_is_precondition_error(self, tmp_path, capsys):
        path = tmp_path / "raw.json"
        run_cli(capsys, "gen", "2", "2", "3", "--out", str(path))
        code, out = run_cli(capsys, "check", "kl", "--in", str(path))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "precondition"

    def test_lhe_on_he_instance(self, he_instance_path, capsys):
        code, out = run_cli(capsys, "check", "lhe", "--in", he_instance_path,
                            "--tol", "1e-9", "--samples", "200")
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        row = {r["name"]: r for r in report["results"]}["gamma1_spread"]
        assert row["value"]["spread"] <= 1e-9

    def test_lhe_level_two_fails_generically(self, he_instance_path, capsys):
        code, out = run_cli(capsys, "check", "lhe", "--in", he_instance_path,
                            "--ell", "2", "--tol", "1e-9", "--samples", "100")
        assert code == 1  # mathematical failure: instance is 1-HE, not 2-HE
        report = json.loads(out)
        validate_report(report)

    def test_lhe_draws_directions_once(self, tmp_path, capsys, monkeypatch):
        import segreform.projective as projective

        calls = []

        def counted(t, V):
            calls.append(len(V))
            return direction_matrices(t, V)

        direction_matrices = projective.direction_matrices
        monkeypatch.setattr(projective, "direction_matrices", counted)
        path = tmp_path / "he33.json"
        run_cli(capsys, "gen", "3", "3", "4", "--he", "1.0", "--out", str(path))
        code, out = run_cli(capsys, "check", "lhe", "--in", str(path), "--ell", "3",
                            "--samples", "300")
        names = [r["name"] for r in json.loads(out)["results"]]
        assert names == ["gamma1_spread", "gamma2_spread", "gamma3_spread", "lhe_level"]
        assert calls == [300]

    @pytest.mark.parametrize("n, r, flags", [(3, 3, ["--flat"]), (3, 3, []), (4, 2, ["--flat"]),
                                             (4, 2, [])], ids=["flat33", "he33", "flat42", "he42"])
    def test_lhe_level_counts_the_leading_passing_degrees(self, tmp_path, capsys, n, r, flags):
        from segreform.curvature import Kaehler11, load_tensor
        from segreform.projective import gamma_profile

        path = str(tmp_path / "t.json")
        run_cli(capsys, "gen", str(n), str(r), "5", *flags, "--he", "1.0", "--out", path)
        profiles = gamma_profile(load_tensor(path), Kaehler11.euclidean(n), n, 40, 3)
        spreads = sorted(prof["spread"] for prof in profiles)
        # --tol below, between and above the spreads, which are not monotone in k
        tols = [spreads[0] / 2, *((a + b) / 2 for a, b in zip(spreads, spreads[1:])),
                2 * spreads[-1]]
        for ell, tol in itertools.product(range(1, n + 1), tols):
            code, out = run_cli(capsys, "check", "lhe", "--in", path, "--ell", str(ell),
                                "--tol", repr(tol), "--samples", "40", "--seed", "3")
            *gammas, level = json.loads(out)["results"]
            assert [row["name"] for row in gammas] == [f"gamma{k}_spread" for k in range(1, ell + 1)]
            assert [row["value"] for row in gammas] == profiles[:ell]
            assert level["name"] == "lhe_level" and level["value"]["requested"] == ell
            leading = [row["pass"] for row in gammas] + [False]
            assert level["value"]["level"] == leading.index(False)
            assert level["pass"] == (level["value"]["level"] == ell)
            assert code == (0 if level["pass"] else 1)

    def test_he_check_with_omega_matrix(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        omega = "[[2,0],[0,1]]"
        run_cli(capsys, "gen", "2", "2", "5", "--he", "0.5", "--omega", omega,
                "--out", str(path))
        code, out = run_cli(capsys, "check", "he", "--in", str(path),
                            "--omega", omega)
        assert code == 0
        report = json.loads(out)
        row = report["results"][0]
        assert row["value"]["slope"] == pytest.approx(0.5, abs=1e-9)

    # each message quotes the bad entry as JSON text, the way the user wrote it
    @pytest.mark.parametrize("omega, quoted", [
        ("5", "a list of rows"), ("[1, 2]", "a list of rows"),
        ('[[1, 0], [0, "x"]]', 'omega entry "x" is'), ("[[1, 0], [0, null]]", "omega entry null is"),
        ("[[1, [0, 0, 1]], [0, 1]]", "omega entry [0, 0, 1] is"),
        ("[[NaN, 0], [0, 1]]", "omega entry NaN is"),
        ("[[1" + "0" * 400 + ", 0], [0, 1]]", "omega entry 1" + "0" * 400 + " is"),
        ("[[2, 1.000001], [1, 2]]", "Hermitian")],
        ids=["scalar", "flat-list", "string-entry", "null-entry", "triple-entry", "nan-entry",
             "huge-int-entry", "relative-asymmetry"])
    def test_malformed_omega_is_usage_error(self, he_instance_path, capsys, omega, quoted):
        code, out = run_cli(capsys, "check", "he", "--in", he_instance_path,
                            "--omega", omega)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "usage" and quoted in err["message"]

    def test_omega_out_of_scale_is_rejected_before_computing(self, tmp_path):
        inst = str(tmp_path / "he22.json")
        cli = [sys.executable, "-m", "segreform.cli"]
        subprocess.run([*cli, "gen", "2", "2", "3", "--he", "1.0", "--out", inst],
                       check=True, env=child_env())
        for argv, omega, words in (
                (["verify", "identity9", "--samples", "3"], "[[1e200,0],[0,1]]", "overflow"),
                (["check", "he"], "[[1e-300,0],[0,1]]", "ratio"),
                (["check", "kl"], "[[1e-200,0],[0,1e-200]]", "underflow")):
            proc = subprocess.run([*cli, *argv, "--in", inst, "--omega", omega],
                                  capture_output=True, text=True, env=child_env())
            assert (proc.returncode, proc.stderr) == (2, "")
            err = json.loads(proc.stdout)["error"]
            assert err["type"] == "usage" and words in err["message"]

    def test_non_finite_result_has_its_own_error_type(self, he_instance_path, capsys,
                                                      monkeypatch):
        from segreform import cli

        monkeypatch.setattr(cli, "_he_deviation", lambda t, w: (math.nan, 1.0))
        code, out = run_cli(capsys, "check", "he", "--in", he_instance_path)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "non_finite" and "nan" in err["message"]

    @pytest.mark.parametrize("kind, flags", [
        ("remark41", ["--flat", "--he", "1.0"]),
        ("kl", ["--strong-flat", "--he", "0.7"]),
        ("thm12", ["--strong-flat", "--he", "0.7"]),
    ])
    def test_equality_cases_take_one_mean_curvature(self, tmp_path, capsys, monkeypatch,
                                                    kind, flags):
        import segreform.curvature as curvature

        path = tmp_path / "flat.json"
        run_cli(capsys, "gen", "3", "2", "11", *flags, "--out", str(path))
        calls = []

        def counted(t, w):
            calls.append(t.n)
            return mean_curvature(t, w)

        mean_curvature = curvature.mean_curvature
        monkeypatch.setattr(curvature, "mean_curvature", counted)
        code, out = run_cli(capsys, "check", kind, "--in", str(path))
        assert code == 0
        assert all(r["value"].get("equality", True) for r in json.loads(out)["results"]
                   if isinstance(r["value"], dict))
        assert len(calls) == 1

    def test_surface_and_remark41(self, tmp_path, capsys):
        flat = tmp_path / "flat.json"
        run_cli(capsys, "gen", "2", "2", "9", "--flat", "--he", "0.7",
                "--out", str(flat))
        code, out = run_cli(capsys, "check", "remark41", "--in", str(flat))
        assert code == 0
        validate_report(json.loads(out))
        code, out = run_cli(capsys, "check", "surface", "--in", str(flat))
        assert code == 0
        validate_report(json.loads(out))

    @pytest.mark.parametrize("eps, flat", [(0.9e-8, True), (1.1e-8, False)])
    def test_flatness_tolerance_boundary(self, tmp_path, capsys, eps, flat):
        # eps on an entry off the fiber diagonal, and on its Hermitian partner, moves the
        # flatness deviation by eps (DEFAULT_EQUALITY_TOL = 1e-8) and leaves T = 1.0 * Id
        from segreform.curvature import (CurvatureTensor, Kaehler11, project_to_he,
                                         projectively_flat_tensor, tensor_to_dict)

        base = project_to_he(projectively_flat_tensor(3, 3, 5), Kaehler11.euclidean(3), 1.0)
        c = base.c.copy()
        c[0, 1, 0, 1] += eps
        c[1, 0, 1, 0] += eps
        path = tmp_path / "t.json"
        path.write_text(json.dumps(tensor_to_dict(CurvatureTensor(3, 3, c))))
        code, out = run_cli(capsys, "check", "remark41", "--in", str(path))
        assert code == (0 if flat else 2)
        if not flat:
            assert json.loads(out)["error"] == {
                "message": "input is not projectively flat within tolerance", "type": "precondition"}
        code, out = run_cli(capsys, "check", "kl", "--in", str(path))
        assert code == 0
        assert json.loads(out)["results"][0]["value"]["equality"] is flat


def run_child(cwd, *argv):
    """(exit code, stdout, stderr) of one CLI child process run in cwd."""
    proc = subprocess.run([sys.executable, "-m", "segreform.cli", *argv], cwd=cwd,
                          capture_output=True, text=True, env=child_env())
    return proc.returncode, proc.stdout, proc.stderr


ASYMMETRIC = {"n": 2, "r": 2, "coeffs": [
    {"j": 1, "k": 1, "lambda": 1, "mu": 1, "re": 1.0},
    {"j": 2, "k": 2, "lambda": 2, "mu": 2, "re": 1.0},
    {"j": 1, "k": 2, "lambda": 1, "mu": 1, "re": 0.5}]}
ASYMMETRIC_ERROR = ('{"error":{"message":"hermitian symmetry conj(c[j,k,lam,mu]) = c[k,j,mu,lam] '
                    'violated at (j,k,lambda,mu)=(1,2,1,1), deviation 5.000e-01",'
                    '"type":"validation"}}\n')


class TestInvariantGuards:
    # omega and the tensor are checked where they are built; each command
    # still prints the same error, exit code 2 and nothing on stderr
    ON_TENSOR = [["check", "kl", "--in", "t.json"],
                 ["verify", "identity9", "--in", "t.json", "--samples", "3"],
                 ["check", "lhe", "--in", "t.json", "--samples", "3"]]

    @pytest.mark.parametrize("omega, message", [
        ("[[1,0],[0,-1]]", "omega must be positive definite"),
        ("[[1,0],[0,0]]", "omega must be positive definite"),
        ("[[1,0.5],[0,1]]", "coefficient matrix must be Hermitian")],
        ids=["indefinite", "singular", "non-hermitian"])
    def test_bad_omega_is_the_same_usage_error_everywhere(self, tmp_path, omega, message):
        gen = ["gen", "2", "2", "3", "--he", "1.0", "--out", "t.json"]
        assert run_child(tmp_path, *gen)[0] == 0
        for argv in [gen] + self.ON_TENSOR:
            assert run_child(tmp_path, *argv, "--omega", omega) == (
                2, '{"error":{"message":"%s","type":"usage"}}\n' % message, "")

    def test_asymmetric_tensor_is_rejected_or_symmetrized(self, tmp_path):
        # --symmetrize prints byte for byte the report on the Hermitian part
        # written out by hand, in a directory of its own under the same name
        sym = json.loads(json.dumps(ASYMMETRIC))
        sym["coeffs"][2]["re"] = 0.25
        sym["coeffs"].append({"j": 2, "k": 1, "lambda": 1, "mu": 1, "re": 0.25})
        (tmp_path / "t.json").write_text(json.dumps(ASYMMETRIC))
        (tmp_path / "sym").mkdir()
        (tmp_path / "sym" / "t.json").write_text(json.dumps(sym))
        outs = []
        for argv in self.ON_TENSOR:
            assert run_child(tmp_path, *argv) == (2, ASYMMETRIC_ERROR, "")
            code, out, err = run_child(tmp_path, *argv, "--symmetrize")
            assert (code, err) == (0, "")
            assert out == run_child(tmp_path / "sym", *argv)[1]
            outs.append(out)
        assert outs[0] == (
            '{"command":"check kl","inputs":{"in":"t.json","omega":"euclidean",'
            '"tol":1.0000000000000001e-09},"results":[{"name":'
            '"kl_nonpositive","pass":true,"tolerance":1.0000000000000001e-09,"value":'
            '{"equality":false,"q":-1.0625}}],"version":"0.1.0"}\n')

    @pytest.mark.parametrize("kind", ["thm12", "surface"])
    def test_admitted_asymmetry_is_one_report(self, tmp_path, kind):
        # imaginary diagonal parts of 4.9e-11 pass the 1e-10 hermitian check; the tensor is
        # read as its Hermitian part, so no imaginary ratio reaches the report
        coeffs = [{"j": j, "k": j, "lambda": l, "mu": l, "re": 0.001, "im": 4.9e-11}
                  for j in (1, 2) for l in range(1, 33)]
        (tmp_path / "t.json").write_text(json.dumps({"n": 2, "r": 32, "coeffs": coeffs}))
        code, out, err = run_child(tmp_path, "check", kind, "--in", "t.json")
        assert (code, err, out.count("\n")) == (0, "", 1)
        validate_report(json.loads(out))

    @pytest.mark.parametrize("payload, quoted", [
        ({"n": 2, "r": 2, "coeffs": 5}, "got 5"),
        ({"n": 2, "r": 2, "coeffs": None}, "got null"),
        ({"n": 2, "r": 1, "coeffs": [{"j": 1.5, "k": 1, "lambda": 1, "mu": 1, "re": 1.0}]},
         '{"j": 1.5, "k": 1, "lambda": 1, "mu": 1, "re": 1.0}'),
        ({"n": 2, "r": 1, "coeffs": [{"j": True, "k": 1, "lambda": 1, "mu": 1, "re": 1.0}]},
         '"j": true'),
        ({"n": 2, "r": 1, "coeffs": [{"j": "2", "k": 2, "lambda": 1, "mu": 1, "re": 1.0}]},
         '"j": "2"'),
        ({"n": 2, "r": 1, "coeffs": [{"j": 1, "k": 1, "lambda": 1, "mu": 1, "re": "0.5"}]},
         '"re": "0.5"'),
        ({"n": 2, "r": 1, "coeffs": [{"j": 1, "k": 1, "lambda": 1, "mu": 1, "re": 1.0,
                                      "im": 10 ** 400}]}, '"im": 1' + "0" * 400 + "}")],
        ids=["coeffs-int", "coeffs-null", "index-float", "index-bool", "index-string",
             "re-string", "im-huge-int"])
    def test_malformed_payload_is_validation_error(self, tmp_path, payload, quoted):
        # the message quotes the entry or the coeffs value as JSON text, as the user wrote it
        (tmp_path / "t.json").write_text(json.dumps(payload))
        code, out, err = run_child(tmp_path, "check", "he", "--in", "t.json")
        assert (code, err) == (2, "")
        error = json.loads(out)["error"]
        assert error["type"] == "validation" and quoted in error["message"]

    @pytest.mark.parametrize("argv, kind, words", [
        (["check", "he", "--in", "."], "usage", "Is a directory"),
        (["check", "he", "--in", "t.json", "--out", "."], "usage", "Is a directory"),
        (["check", "he", "--in", "t.json", "--omega", "@."], "usage", "Is a directory"),
        (["check", "he", "--in", "deep.json"], "parse", "nested too deeply"),
        (["check", "he", "--in", "t.json", "--omega", "@deep.json"], "parse", "nested too deeply"),
        (["gen", "2", "2", "1", "--he", "nan"], "usage", "--he: must be a finite number, got nan"),
        (["gen", "2", "2", "1", "--strong-flat", "--he", "inf"], "usage",
         "--he: must be a finite number, got inf"),
        (["gen", "2", "2", "1", "--he", "1e60"], "validation", "would overflow"),
        (["gen", "2", "2", "1", "--strong-flat", "--he", "1e200"], "validation", "would overflow"),
        (["gen", "3", "3", "1", "--flat", "--he", "1e300"], "validation", "would overflow"),
        (["gen", "2", "2", "1", "--strong-flat", "--he", "1e300", "--omega",
          "[[1e70,0],[0,1e70]]"], "validation", "would overflow"),
        (["gen", "2", "2", "1", "--flat", "--he", "1e300", "--omega", "[[1e70,0],[0,1e70]]"],
         "validation", "largest coefficient modulus inf exceeds 1e+150^(1/3)"),
        (["gen", "2", "2", "1", "--flat", "--he", "-inf"], "usage",
         "--he: must be a finite number, got -inf"),
        (["check", "he", "--in", "t.json", "--tol", "-1e-300"], "usage",
         "--tol: must be a finite number >= 0, got -1e-300"),
        (["gen", "2", "2", "--", "-1"], "usage", "seed: must be an integer >= 0, got -1"),
        (["gen", "2", "2", "-3", "--flat"], "usage", "seed: must be an integer >= 0, got -3"),
        (["gen", "2", "2", "--", "-1", "--strong-flat", "--he", "1"], "usage",
         "seed: must be an integer >= 0, got -1"),
        (["verify", "identity9", "--in", "t.json", "--seed", "-5"], "usage",
         "--seed: must be an integer >= 0, got -5"),
        (["verify", "pushforward", "--in", "t.json", "--seed", "-5"], "usage",
         "--seed: must be an integer >= 0, got -5"),
        (["verify", "moments", "--r", "2", "--k", "1", "--samples", "10", "--seed", "-5"],
         "usage", "--seed: must be an integer >= 0, got -5"),
        (["check", "lhe", "--in", "t.json", "--seed", "-5"], "usage",
         "--seed: must be an integer >= 0, got -5"),
        (["moments", "--r", "2", "--lambdas", "1", "--samples", "10", "--seed", "-5"], "usage",
         "--seed: must be an integer >= 0, got -5"),
        (["verify", "pushforward", "--in", "t.json", "--samples", "9" * 26], "usage",
         "--samples: must be an integer in [2, 100000000], got " + "9" * 26),
        (["check", "lhe", "--in", "t.json", "--samples", "0"], "usage",
         "--samples: must be an integer in [2, 100000000], got 0"),
        (["check", "he", "--in", "t.json", "--tol", "0x10"], "usage",
         "argument --tol: invalid float value: '0x10'"),
        (["check", "kl"], "usage", "the following arguments are required: --in"),
        (["gen", "2", "2", "1", "--flat", "--strong-flat"], "usage",
         "argument --strong-flat: not allowed with argument --flat"),
        (["check", "he", "--in", "t.json", "--omega", "[[1,0],[0,1e-320]]"], "usage",
         "omega eigenvalues 1.000e-320 to 1.000e+00 span a ratio of more than 1e+12"),
        (["gen", "2", "2", "1", "--omega", "[[1,0],[0,5e-324]]"], "usage",
         "omega eigenvalues 4.941e-324 to 1.000e+00 span a ratio of more than 1e+12"),
        (["gen", "2", "2", "1", "--omega", "[[1e308,0],[0,1]]"], "usage",
         "largest omega entry modulus 1.000e+308 exceeds 1e+150^(1/2)"),
        (["verify", "pushforward", "--in", "t.json", "--omega", "[[1,0],[0,-1]]", "--r", "7"],
         "usage", "unrecognized arguments: --omega [[1,0],[0,-1]] --r 7"),
        (["verify", "moments", "--tol", "5"], "usage", "unrecognized arguments: --tol 5"),
        (["verify", "identity8", "--in", "t.json", "--k", "2"], "usage",
         "unrecognized arguments: --k 2"),
        (["check", "he", "--in", "t.json", "--ell", "5", "--samples", "7"], "usage",
         "unrecognized arguments: --ell 5 --samples 7"),
        (["verify", "moments", "--in", "nonexistent.json", "--omega", "bogus"], "usage",
         "unrecognized arguments: --in nonexistent.json --omega bogus"),
        (["check", "lhe", "--in", "t.json", "--ell", "5", "--samples", "10"], "usage",
         "ell=5 out of range [1, 2]"),
        (["verify", "identity9", "--in", "t.json", "--k", "7"], "usage",
         "k=7 out of range [1, 2]"),
        (["verify", "pushforward", "--in", "t.json", "--k", "3"], "usage",
         "k=3 out of range [0, 2]"),
        (["verify", "identity8", "--in", "raw.json"], "precondition",
         "tensor is not Hermite-Einstein within 1e-09 (deviation 5.000e-01)"),
        (["check", "he", "--in", "t.json", "--omega", "[[1,0],[0]]"], "usage",
         "omega matrix must be square"),
        (["check", "he", "--in", "t.json", "--omega", "[[1]]"], "usage",
         "omega is 1x1, tensor needs 2x2"),
        (["check", "thm12", "--in", "raw.json"], "precondition", "Segre-form check needs n >= 2"),
        (["check", "remark41", "--in", "raw.json"], "precondition",
         "Remark 4.1 bound needs n >= 2")],
        ids=["in-dir", "out-dir", "omega-dir", "deep-tensor", "deep-omega", "gen-he-nan",
             "gen-strong-flat-he-inf", "gen-he-oversized", "gen-strong-flat-he-oversized",
             "gen-flat-he-oversized", "gen-strong-flat-omega-overflow",
             "gen-flat-omega-overflow", "gen-he-minus-inf",
             "check-tol-exponent", "gen-seed", "gen-flat-seed", "gen-strong-flat-seed",
             "verify-identity9-seed", "verify-pushforward-seed", "verify-moments-seed",
             "check-lhe-seed", "moments-seed", "samples-huge", "samples-zero", "tol-hex",
             "missing-in", "gen-conflicting-flags", "omega-subnormal", "gen-omega-subnormal",
             "gen-omega-near-float-max", "pushforward-omega-r", "moments-tol", "identity8-k",
             "he-ell-samples", "moments-in-omega", "lhe-ell-past-n", "identity9-k-past-n",
             "pushforward-k-past-n", "identity8-non-he", "omega-not-square", "omega-size-mismatch",
             "thm12-n1", "remark41-n1"])
    def test_bad_input_is_one_error_line(self, tmp_path, argv, kind, words):
        # in a child process, so that a traceback or a warning on stderr would show
        (tmp_path / "t.json").write_text('{"n": 2, "r": 1, "coeffs": []}')
        (tmp_path / "raw.json").write_text(  # mean curvature diag(1, 0): not Hermite-Einstein
            '{"n": 1, "r": 2, "coeffs": [{"j": 1, "k": 1, "lambda": 1, "mu": 1, "re": 1, "im": 0}]}')
        (tmp_path / "deep.json").write_text("[" * 100_000)
        code, out, err = run_child(tmp_path, *argv)
        assert (code, err, out.count("\n")) == (2, "", 1)
        error = json.loads(out)["error"]
        assert error["type"] == kind and words in error["message"]


def exact_walk_bytes(n, r, k):
    """What the exact walk of the one degree k at (n, r) is predicted to hold: its largest wedge,
    two arrays of 16 bytes a split pair squared, and of 16 C(n, j)^2 bytes each, up to
    C(r-1+j, j) sums at each length j <= k and the C(r-1+k, k) of degree k."""
    held = [16 * math.comb(r - 1 + j, j) * math.comb(n, j) ** 2 for j in range(k + 1)]
    pairs = max(math.comb(n, j) * math.comb(j, j // 2) for j in range(k + 1))
    return 32 * pairs ** 2 + sum(held) + held[k]


def run_limited(cwd, *argv, limit=2 << 30):
    """(exit code, stdout, stderr) of one CLI child run in cwd under an address-space limit,
    2 GiB by default, set on the child alone: an allocation past it fails at once."""
    import resource

    def set_limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, "-m", "segreform.cli", *argv], cwd=cwd,
                          capture_output=True, text=True, env=child_env(), preexec_fn=set_limit,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
class TestOutOfMemory:
    def test_an_allocation_failure_is_one_error_line(self, tmp_path):
        # at n = 22 and k = 3 the walk is admitted at 989,162,432 bytes: two wedge arrays of
        # C(22, 3) 3 = 4,620 split pairs a side, 342 MB each, and its sums; they pass a 768 MiB
        # address-space limit, below the prediction, before the walk ends
        assert run_child(tmp_path, "gen", "22", "2", "1", "--out", "t.json")[0] == 0
        assert exact_walk_bytes(22, 2, 3) == 989_162_432
        code, out, err = run_limited(tmp_path, "verify", "pushforward", "--in", "t.json",
                                     "--k", "3", limit=768 << 20)
        assert (code, err, out.count("\n")) == (2, "", 1)
        assert json.loads(out)["error"]["type"] == "memory"

    @pytest.mark.parametrize("n, r, argv, k", [
        (32, 2, ["--k", "16"], 16), (32, 2, ["--k", "3", "--samples", "2"], 3),
        (26, 2, ["--k", "3"], 3), (32, 32, ["--k", "2"], 2), (8, 32, ["--k", "4"], 4)],
        ids=["exact-k16", "mc-k3", "exact-n26-k3", "exact-r32-k2", "exact-n8-r32-k4"])
    def test_an_infeasible_exact_degree_is_refused_before_it_allocates(self, tmp_path, n, r,
                                                                       argv, k):
        # the exact walk runs first, and would hold 2.8e9 bytes at (26, 2) and k = 3, 1.0e10 at
        # (32, 2), 1.9e27 at k = 16, 4.2e9 at (32, 32) and k = 2, whose largest wedge alone
        # takes 31 MB, and 8.5e9 at (8, 32) and k = 4, 96% of it the C(35, 4) sums of degree 4,
        # 4.1e9, counted as kept suffix sums and as the degree's own; the zero tensor, written
        # by hand, is valid input of any shape
        (tmp_path / "t.json").write_text(json.dumps({"n": n, "r": r, "coeffs": []}))
        start = time.perf_counter()
        code, out, err = run_limited(tmp_path, "verify", "pushforward", "--in", "t.json", *argv)
        assert (code, err, out.count("\n")) == (2, "", 1)
        assert json.loads(out)["error"] == {"type": "usage", "message": (
            f"k={k} at n={n} needs {exact_walk_bytes(n, r, k)} bytes, more than {1 << 30}")}
        assert time.perf_counter() - start < 5

    def test_an_infeasible_sampled_degree_is_refused_before_it_allocates(self, tmp_path):
        # at n = 32 and k = 16 one direction's minors would take 1.5e21 bytes, and their
        # C(32, 16) = 601,080,390 subsets would be enumerated before any of them
        assert run_child(tmp_path, "gen", "32", "2", "1", "--out", "t.json")[0] == 0
        start = time.perf_counter()
        code, out, err = run_limited(tmp_path, "verify", "identity9", "--in", "t.json",
                                     "--k", "16", "--samples", "2")
        assert (code, err, out.count("\n")) == (2, "", 1)
        need = 16 * (math.comb(32, 16) * 16 + 32) ** 2
        assert json.loads(out)["error"] == {"type": "usage", "message": (
            f"k=16 at n=32 needs {need} bytes, more than {1 << 30}")}
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("argv", [["check", "thm12"], ["check", "kl"],
                                      ["verify", "identity9", "--k", "2", "--samples", "2"]],
                             ids=["thm12", "kl", "identity9-k2"])
    def test_degree_two_ratios_fit_at_n32(self, tmp_path, argv):
        # the ratios against omega^30 pair with the 2 x 2 minors of omega^-1, 496^2 of them;
        # the 496^2 complementary minors of omega, of size 30, would take 3.3 GiB
        assert run_child(tmp_path, "gen", "32", "2", "1", "--he", "1.0", "--out", "t.json")[0] == 0
        start = time.perf_counter()
        code, out, err = run_limited(tmp_path, *argv, "--in", "t.json")
        assert (code, err, out.count("\n")) == (0, "", 1)
        assert len(json.loads(out)["results"]) == 1
        assert time.perf_counter() - start < 30


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [["gen", "3", "3", "11"], ["gen", "6", "6", "11"],
                                      ["gen", "2", "2", "--", "-1"]],
                             ids=["report-in-buffer", "report-past-buffer", "error-line"])
    def test_reader_gone_is_a_quiet_exit_141(self, argv):
        # the read end closes before the child has imported numpy, so every write of the
        # child finds no reader: in print, or in the flush at exit
        read_end, write_end = os.pipe()
        proc = subprocess.Popen([sys.executable, "-m", "segreform.cli", *argv],
                                stdout=write_end, stderr=subprocess.PIPE, env=child_env())
        os.close(write_end)
        os.close(read_end)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")


class TestMomentsCommand:
    def test_exact_fraction(self, capsys):
        code, out = run_cli(capsys, "moments", "--r", "2", "--lambdas", "1", "2",
                            "--mus", "2", "1")
        assert code == 0
        report = json.loads(out)
        validate_report(report)
        assert report["results"][0]["value"]["fraction"] == "1/6"

    def test_mc_comparison(self, capsys):
        from segreform.moments import moment_mc, moment_wick

        code, out = run_cli(capsys, "moments", "--r", "3", "--lambdas", "1",
                            "--samples", "50000")
        assert code == 0
        report = json.loads(out)
        row = {r["name"]: r for r in report["results"]}["mc_gap_stderr_units"]
        assert row["value"]["units"] <= 4
        [(est, err)] = moment_mc(3, [([1], [1])], 50000, 0)
        assert row["value"]["units"] == stderr_units(est, err, complex(moment_wick(3, [1], [1])))

    @pytest.mark.parametrize("seed, code, units", [(33, 0, 3.975), (54, 1, 13.10)])
    def test_mc_units_boundary(self, capsys, seed, code, units):
        # three directions of the seeded stream read 3.975 and 13.10 standard errors off
        # E|v_1|^2 = 1/2: one just inside MC_UNITS = 4, one past it but inside 40
        got, out = run_cli(capsys, "moments", "--r", "2", "--lambdas", "1", "--mus", "1",
                           "--samples", "3", "--seed", str(seed))
        row = json.loads(out)["results"][1]
        assert (got, row["name"], row["pass"]) == (code, "mc_gap_stderr_units", code == 0)
        assert row["value"]["units"] == pytest.approx(units, abs=5e-3)


    @pytest.mark.parametrize("argv, message", [
        (["--lambdas", "1", "3"], "index 3 out of range [1, 2]"),
        (["--lambdas", "0"], "index 0 out of range [1, 2]"),
        (["--lambdas", "1", "2", "--mus", "1"], "lambdas and mus must have equal length"),
        (["--lambdas", "1", "--mus", "2", "3"], "lambdas and mus must have equal length"),
        (["--lambdas", "1", "--mus", "5"], "index 5 out of range [1, 2]"),
    ], ids=["lambda-high", "lambda-zero", "short-mus", "short-lambdas", "mu-high"])
    def test_bad_indices_are_usage_errors(self, capsys, argv, message):
        code, out = run_cli(capsys, "moments", "--r", "2", *argv)
        assert code == 2
        assert json.loads(out) == {"error": {"type": "usage", "message": message}}


# row name -> its measured number, read from its value (lhe_level: from the gamma rows)
MEASURED = {
    r"pushforward_vs_segre_k\d+|pushforward_mc_k\d+_stderr_units|identity9_residual_max_k\d+"
    r"|moment_norm_k\d+|moment_mc_l\d+_m\d+":
        lambda value, rows: value,
    "identity8_residual_max": lambda value, rows: value["residual"],
    "hermite_einstein": lambda value, rows: value["deviation"],
    "kl_nonpositive": lambda value, rows: value["q"],
    "thm12_margin": lambda value, rows: -value["margin"],
    "surface_eq4_margin": lambda value, rows: (value["c1_sq"] - value["c2"]) - value["eq4_rhs"],
    "remark41_bound": lambda value, rows: value["lhs"] - value["rhs"],
    r"gamma\d+_spread": lambda value, rows: value["spread"],
    "lhe_level": lambda value, rows: max(row["value"]["spread"] for row in rows
                                         if re.fullmatch(r"gamma\d+_spread", row["name"])),
    "exact": lambda value, rows: 0,
    "mc_gap_stderr_units": lambda value, rows: value["units"],
}


class TestOneRule:
    def test_every_row_passes_iff_measured_is_within_tolerance(self, tmp_path, capsys):
        paths = {}
        for name, gen in (("he22", ["2", "2", "42", "--he", "1.0"]), ("rand22", ["2", "2", "3"]),
                          ("flat22", ["2", "2", "9", "--flat", "--he", "0.7"]),
                          ("strong22", ["2", "2", "0", "--strong-flat", "--he", "0.8"])):
            paths[name] = str(tmp_path / f"{name}.json")
            assert run_cli(capsys, "gen", *gen, "--out", paths[name])[0] == 0
        runs = [["verify", "pushforward", "--in", "he22", "--samples", "500"],
                ["verify", "pushforward", "--in", "rand22", "--tol", "0", "--samples", "20"],
                ["verify", "identity8", "--in", "he22", "--samples", "5"],
                ["verify", "identity9", "--in", "he22", "--samples", "5"],
                ["verify", "identity9", "--in", "rand22", "--tol", "0", "--samples", "5"],
                ["verify", "moments", "--r", "2", "--k", "2", "--samples", "500"],
                ["verify", "moments", "--r", "1", "--k", "1", "--samples", "50"],
                ["check", "he", "--in", "he22"], ["check", "he", "--in", "rand22"],
                ["check", "kl", "--in", "he22"], ["check", "kl", "--in", "flat22", "--tol", "0"],
                ["check", "thm12", "--in", "he22"], ["check", "thm12", "--in", "strong22", "--tol", "0"],
                ["check", "surface", "--in", "strong22"], ["check", "surface", "--in", "he22", "--tol", "0"],
                ["check", "remark41", "--in", "flat22"], ["check", "remark41", "--in", "flat22", "--tol", "0"],
                ["check", "lhe", "--in", "he22", "--samples", "50"],
                ["check", "lhe", "--in", "he22", "--samples", "50", "--tol", "0"],
                ["check", "lhe", "--in", "he22", "--samples", "50", "--ell", "2"],
                ["moments", "--r", "2", "--lambdas", "1", "2", "--mus", "2", "1", "--samples", "500"],
                ["moments", "--r", "3", "--lambdas", "1", "3"]]
        verdicts = set()
        for argv in runs:
            code, out = run_cli(capsys, *[paths.get(arg, arg) for arg in argv])
            assert code in (0, 1), (argv, out)
            rows = json.loads(out)["results"]
            for row in rows:
                [read] = [read for pattern, read in MEASURED.items()
                          if re.fullmatch(pattern, row["name"])]
                assert row["pass"] == (read(row["value"], rows) <= row["tolerance"]), (argv, row)
                verdicts.add(row["pass"])
            assert code == (0 if all(row["pass"] for row in rows) else 1), argv
        assert verdicts == {True, False}
        # identity (8) needs Hermite-Einstein input: on any other there is no row to judge
        code, out = run_cli(capsys, "verify", "identity8", "--in", paths["rand22"], "--tol", "0",
                            "--samples", "5")
        assert (code, json.loads(out)["error"]["type"]) == (2, "precondition")

    def test_a_row_returns_its_flag_and_a_dict_value_needs_its_measured_number(self):
        from segreform.report import Report

        report = Report("check x")
        assert report.add("a", 1.0, 1.0) is True and report.add("b", 2.0, 1.0) is False
        assert report.add("c", {"q": 0.5}, 1.0, 2.0) is False
        with pytest.raises(TypeError, match="row d"):
            report.add("d", {"q": 0.5}, 1.0)
        assert [row["pass"] for row in report.results] == [True, False, False]


class TestToleranceEnvVar:
    def test_env_is_ignored(self, he_instance_path, capsys, monkeypatch):
        # --tol is the one tolerance knob; SEGREFORM_TOL is not read
        monkeypatch.setenv("SEGREFORM_TOL", "1e-25")
        code, out = run_cli(capsys, "verify", "identity9", "--in", he_instance_path,
                            "--samples", "3")
        assert code == 0
        assert json.loads(out)["inputs"]["tol"] == 1e-9

    @pytest.mark.parametrize("argv", [["verify", "identity9", "--samples", "3"],
                                      ["check", "he"]], ids=["verify", "check"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_flag_non_finite_is_usage_error(self, he_instance_path, capsys, argv, value):
        code, out = run_cli(capsys, *argv, "--in", he_instance_path, "--tol", value)
        assert code == 2
        assert json.loads(out) == {"error": {"type": "usage", "message":
                                             f"argument --tol: must be a finite number >= 0, "
                                             f"got {value}"}}


README = Path(__file__).parent.parent / "README.md"


def leaf_parsers(parser, path=()):
    """(command path, parser) of every parser below parser that has no subcommands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, path + (name,))


class TestFlagTable:
    def test_readme_lists_exactly_each_commands_flags_and_defaults(self):
        # a row: `command`, ... | `--flag`, `--flag default` or `--flag` (required), ...
        lines = README.read_text(encoding="utf-8").splitlines()
        start = lines.index("| command | flags |") + 2
        table = {}
        for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
            commands, flags = line.split("|")[1:3]
            for command in re.findall(r"`([^`]+)`", commands):
                table[tuple(word for word in command.split() if word.islower())] = {
                    flag: (default or None, bool(required)) for flag, default, required in
                    re.findall(r"`(--[\w-]+) ?([^`]*)`( \(required\))?", flags)}
        parsers = dict(leaf_parsers(build_parser()))
        assert sorted(table) == sorted(parsers)
        for path, parser in parsers.items():
            actions = {a.option_strings[0]: a for a in parser._actions
                       if a.option_strings and a.dest != "help"}
            assert sorted(table[path]) == sorted(actions), path
            for flag, (default, required) in table[path].items():
                action = actions[flag]
                assert required == action.required, (path, flag)
                if default is None:
                    assert action.default in (None, False), (path, flag)
                else:
                    assert (action.type or str)(default) == action.default, (path, flag)


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run([sys.executable, "-m", "segreform.cli", "--version"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0

    def test_round_trip_save_load_save(self, tmp_path):
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        subprocess.run([sys.executable, "-m", "segreform.cli", "gen", "2", "3", "11",
                        "--he", "0.3", "--out", str(p1)], check=True, env=child_env())
        from segreform.curvature import load_tensor, tensor_to_dict
        from segreform.report import canonical_json

        t = load_tensor(str(p1))
        p2.write_text(canonical_json(tensor_to_dict(t)) + "\n")
        assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# any argv: an exit code and one document on stdout, never an exception
# ---------------------------------------------------------------------------

ERROR_TYPES = {"parse", "validation", "precondition", "usage", "non_finite"}
TENSOR_FLAGS = {"--in", "--symmetrize", "--omega", "--tol", "--out"}
KIND_FLAGS = {  # (command, kind) -> every flag it takes
    ("verify", "pushforward"): {"--in", "--symmetrize", "--tol", "--k", "--samples", "--seed",
                                "--out"},
    ("verify", "identity8"): TENSOR_FLAGS | {"--samples", "--seed"},
    ("verify", "identity9"): TENSOR_FLAGS | {"--samples", "--seed", "--k"},
    ("verify", "moments"): {"--r", "--k", "--samples", "--seed", "--out"},
    **{("check", kind): TENSOR_FLAGS for kind in ("he", "kl", "thm12", "surface", "remark41")},
    ("check", "lhe"): TENSOR_FLAGS | {"--ell", "--samples", "--seed"}}
JUNK = [None, True, "1", "NaN", [], {}, [[[]]], 1.5, -1, 0, 2, 10 ** 400, 1e308, -1e308,
        5e-324, -0.0, math.nan, math.inf]
SCALES = [1e-320, 1e-160, 1e-40, 1e40, 1e150, 1e300]


def mostly(valid, bad, odds=8):
    """valid, else one time in `odds` bad."""
    return st.integers(1, odds).flatmap(lambda i: bad if i == odds else valid)


def required(flag, values):
    """[flag, value], left out one time in 20."""
    return mostly(st.tuples(st.just(flag), values).map(list), st.just([]), 20)


WORDS = st.sampled_from(["", "abc", "-", "-x", " 1", "1.0.0", "\udcff", "0x10", "-1e1", "-inf",
                         "nan", "1e400", "-1e-300", "9" * 30, "9" * 5000]) | st.text(max_size=4)
BAD_INTS = (WORDS | st.floats().map(repr) | st.integers(-2 ** 70, -1).map(str)
            | st.integers(10 ** 8 + 1, 2 ** 200).map(str))
SMALL = mostly(st.integers(1, 3).map(str), BAD_INTS)  # n, r, --ell, indices: <= 3 to run fast
SAMPLES = mostly(st.integers(1, 12).map(str), BAD_INTS)
SEEDS = mostly(st.integers(0, 2 ** 70).map(str), BAD_INTS)
SLOPES = mostly(st.floats(-2, 2).map(repr) | st.just("-1.5e1"), st.floats().map(repr) | WORDS)
TOLS = mostly(st.floats(0, 1).map(repr) | st.sampled_from(["1e-9", "-0", "1e-300"]),
              st.floats().map(repr) | WORDS)


def _instance(n, r, seed, kind):
    from segreform.curvature import (Kaehler11, project_to_he, projectively_flat_tensor,
                                     random_curvature, strong_flat_tensor, tensor_to_dict)
    w = Kaehler11.euclidean(n)
    t = {"random": lambda: random_curvature(n, r, seed),
         "he": lambda: project_to_he(random_curvature(n, r, seed), w, 0.5),
         "flat": lambda: project_to_he(projectively_flat_tensor(n, r, seed), w, 0.7),
         "strong-flat": lambda: strong_flat_tensor(n, r, w, 0.8)}[kind]()
    return tensor_to_dict(t)


def _omega(n, twisted):
    rows = [[float(j + 1) if j == k else 0.0 for k in range(n)] for j in range(n)]
    if twisted and n > 1:
        rows[0][1], rows[1][0] = [0.25, 0.5], [0.25, -0.5]
    return rows


def _children(node):
    """(key, child) of a JSON object or array, none of anything else."""
    return list(node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())


def _spots(node, path=()):
    """The path of every value in a JSON tree, the root first."""
    yield path
    for key, child in _children(node):
        yield from _spots(child, path + (key,))


def _scaled(node, factor):
    """node with every float in it multiplied by factor, in place."""
    for key, child in _children(node):
        node[key] = _scaled(child, factor)
    return node * factor if type(node) is float else node


@st.composite
def json_bytes(draw, payload):
    """payload, or one after a few mutations (wrong types, repeats, extreme or subnormal
    scales), written as JSON, perhaps nested deeply, cut short or not UTF-8."""
    root = [payload]
    for _ in range(draw(mostly(st.just(0), st.integers(1, 3), odds=3))):
        *path, key = draw(st.sampled_from(list(_spots(root))[1:]))
        parent = root
        for step in path:
            parent = parent[step]
        how = draw(st.sampled_from(["replace", "repeat", "scale"]))
        if how == "scale":
            parent[key] = _scaled(parent[key], draw(st.sampled_from(SCALES)))
        elif how == "repeat" and isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(parent[key])))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
    text = json.dumps(root[0])
    cut = draw(st.integers(0, len(text)))
    return draw(mostly(st.just(text.encode()), st.sampled_from([
        text.replace('"n": ', '"n": 1, "n": ', 1).encode(),  # a repeated key: the last wins
        ("[" * 100_000 + text + "]" * 100_000).encode(),
        text.encode()[:cut] + b"\xff" + text.encode()[cut:],
        text.encode("utf-16"),
        text.encode()[:cut]])))


@st.composite
def argvs(draw, tmp):
    """An argv of one of the four commands, each value valid or, less often, not, with
    --in and --omega @ files that hold mutated tensor and omega payloads."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "he", "flat", "strong-flat"]))
    (tmp / "t.json").write_bytes(draw(json_bytes(_instance(n, r, draw(st.integers(0, 3)), kind))))
    (tmp / "w.json").write_bytes(draw(json_bytes(_omega(n, draw(st.booleans())))))
    (tmp / "out.json").unlink(missing_ok=True)
    paths = st.sampled_from([str(tmp / name) for name in ("t.json", "w.json", "missing.json",
                                                          "dir", "dir/no/x.json", "\udcff")])
    omega = mostly(st.sampled_from(["euclidean", "@" + str(tmp / "w.json"),
                                    json.dumps(_omega(n, True))]),
                   st.sampled_from(["@" + str(tmp / "dir"), "@" + str(tmp / "missing.json")])
                   | json_bytes(_omega(n, True)).map(lambda b: b.decode("utf-8", "surrogateescape"))
                   | WORDS)
    infile = mostly(st.just(str(tmp / "t.json")), paths | WORDS)
    out = mostly(st.just(str(tmp / "out.json")), paths)
    command = draw(mostly(st.sampled_from(["gen", "verify", "check", "moments"]), st.just("x"), 20))
    if command == "gen":
        head = [draw(mostly(st.just(str(n)), SMALL)), draw(mostly(st.just(str(r)), SMALL)),
                draw(SEEDS)][:draw(mostly(st.just(3), st.integers(0, 2), 10))]
        flags = [("--he", SLOPES), ("--flat", None), ("--strong-flat", None), ("--omega", omega)]
    elif command in ("verify", "check"):
        kind = draw(mostly(st.sampled_from([k for c, k in KIND_FLAGS if c == command]),
                           st.just("x"), 20))
        # verify moments draws 10^6 directions unless --samples says fewer
        head = [kind, *(["--samples", draw(SAMPLES)] if kind == "moments" else
                         draw(required("--in", infile)))]
        values = {"--in": infile, "--k": mostly(st.just("0"), SMALL, 4), "--r": SMALL,
                  "--seed": SEEDS, "--tol": TOLS, "--omega": omega, "--symmetrize": None,
                  "--samples": SAMPLES, "--ell": SMALL}
        # head holds --in, or leaves it out on purpose, and moments' --samples; the kind's
        # other flags follow and, one time in three, one it does not take
        takes = KIND_FLAGS.get((command, kind), TENSOR_FLAGS)
        flags = [(flag, values[flag]) for flag in sorted(takes - {"--in", "--out"} - set(head))]
        flags += draw(mostly(st.just([]), st.sampled_from(sorted(set(values) - takes)).map(
            lambda flag: [(flag, values[flag])]), 3))
    else:
        head = draw(required("--r", SMALL))
        flags = [("--lambdas", st.lists(SMALL, max_size=3)),
                 ("--mus", st.lists(SMALL, max_size=3)), ("--samples", SAMPLES),
                 ("--seed", SEEDS)]
    flags += [("--out", out)]
    argv = [command, *head]
    for flag, values in draw(st.permutations(flags)):
        if draw(st.booleans()):
            value = [] if values is None else draw(values)
            argv += [flag, *value] if isinstance(value, list) else [flag, value]
    return argv + draw(mostly(st.just([]), st.sampled_from([["--bogus"], ["extra"]]), 20))


class TestAnyArgv:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_every_argv_ends_in_an_exit_code(self, tmp_path_factory, data):
        from segreform.curvature import tensor_from_dict

        tmp = tmp_path_factory.getbasetemp() / "any-argv"
        (tmp / "dir").mkdir(parents=True, exist_ok=True)
        argv = data.draw(argvs(tmp), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert err == ""
        takes = KIND_FLAGS.get(tuple(argv[:2]))
        if takes and {arg for arg in argv if arg.startswith("--")} - takes:
            assert code == 2  # a flag its kind does not read
        if code == 2:
            assert out.count("\n") == 1
            error = json.loads(out)
            assert list(error) == ["error"] and sorted(error["error"]) == ["message", "type"]
            assert error["error"]["type"] in ERROR_TYPES
            assert isinstance(error["error"]["message"], str)
            return
        assert code in (0, 1)
        if out == "":  # the report went to the last --out
            out = Path([v for f, v in zip(argv, argv[1:]) if f == "--out"][-1]).read_text()
        if argv[0] == "gen":
            tensor_from_dict(json.loads(out))
            assert code == 0
        else:
            report = json.loads(out)
            validate_report(report)
            assert code == (0 if all(row["pass"] for row in report["results"]) else 1)
            if takes:
                assert {"--" + key for key in report["inputs"]} == takes - {"--out", "--symmetrize"}
