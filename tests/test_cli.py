import json
import math
import os
import subprocess
import sys

import pytest

from segreform.cli import main

from conftest import child_env, stderr_units, validate_report
from oracles import hermitian_deviation


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

    def test_conflicting_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "2", "2", "1", "--flat", "--strong-flat"])
        assert exc.value.code == 2

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

    def test_moments_draws_directions_once(self, capsys, monkeypatch):
        import segreform.moments as moments

        keys = []

        def counted(key, count):
            keys.append(key)
            return complex_normals(key, count)

        complex_normals = moments._complex_normals
        monkeypatch.setattr(moments, "_complex_normals", counted)
        code, out = run_cli(capsys, "verify", "moments", "--r", "3", "--k", "2",
                            "--samples", "70000")
        names = [r["name"] for r in json.loads(out)["results"]]
        assert sum(name.startswith("moment_mc_") for name in names) == 5
        # one stream (seed, c) per chunk c of the direction stream, shared by all five rows
        assert keys == [(0, c) for c in range(math.ceil(70000 / moments.DIRECTION_CHUNK))]

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
        from segreform.projective import pushforward_segre

        code, out = run_cli(capsys, "verify", "pushforward", "--in", he_instance_path,
                            "--k", "1", "--samples", "3", "--seed", "5")
        report = json.loads(out)
        validate_report(report)
        row = {r["name"]: r for r in report["results"]}["pushforward_mc_k1_stderr_units"]
        t = load_tensor(he_instance_path)
        mean, err = pushforward_segre(t, 1, method="mc", samples=3, seed=5)
        assert row["value"] == stderr_units(mean, err, segre_forms(chern_forms(t), 2)[1])
        assert code == (0 if row["pass"] else 1)

    def test_pushforward_single_sample_is_usage_error(self, he_instance_path, capsys):
        code, out = run_cli(capsys, "verify", "pushforward", "--in", he_instance_path,
                            "--samples", "1")
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "usage" and "--samples" in err["message"]

    @pytest.mark.parametrize("argv", [["verify", "moments", "--r", "2", "--k", "1"],
                                      ["moments", "--r", "2", "--lambdas", "1"],
                                      ["check", "lhe"]],
                             ids=["verify-moments", "moments", "lhe"])
    def test_single_sample_is_usage_error(self, he_instance_path, capsys, argv):
        # one direction has no standard error and no spread
        if argv[0] == "check":
            argv = argv + ["--in", he_instance_path]
        code, out = run_cli(capsys, *argv, "--samples", "1")
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "usage" and "--samples" in err["message"]

    @pytest.mark.parametrize("argv", [["verify", "identity8"], ["verify", "moments"],
                                      ["check", "lhe"], ["moments", "--r", "2"]],
                             ids=["identity8", "verify-moments", "lhe", "moments"])
    def test_samples_below_one_is_usage_error(self, he_instance_path, argv):
        if argv[0] != "moments" and argv[1] != "moments":
            argv = argv + ["--in", he_instance_path]
        for samples in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--samples", samples])
            assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["check", "lhe", "--ell", "-2"],
                                      ["check", "lhe", "--ell", "0"],
                                      ["verify", "moments", "--r", "0"],
                                      ["verify", "moments", "--k", "-1"],
                                      ["verify", "moments", "--r", "33", "--k", "1",
                                       "--samples", "10"],
                                      ["moments", "--r", "33", "--lambdas", "1"],
                                      ["moments", "--r", "1000000", "--lambdas", "1"],
                                      ["verify", "moments", "--r", "32", "--k", "6"],
                                      ["verify", "moments", "--r", "2", "--k", "446"]],
                             ids=["ell-negative", "ell-zero", "moments-r-zero",
                                  "moments-k-negative", "moments-r-above-max",
                                  "moment-r-above-max", "moment-r-huge",
                                  "moments-grid-r32-k6", "moments-grid-r2-k446"])
    def test_integer_option_out_of_range_is_usage_error(self, he_instance_path, capsys,
                                                        argv):
        # each of these used to run with a substituted value, no check at all,
        # or for minutes (factorial(999999); 2.7 M or 100,128 diagonal moment terms)
        if argv[0] == "check":
            argv = argv + ["--in", he_instance_path]
        try:
            code = main(argv)  # a bound on --r and --k together is checked after parsing
        except SystemExit as exc:
            code = exc.code
        else:
            assert json.loads(capsys.readouterr().out)["error"]["type"] == "usage"
        assert code == 2

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
            '{"command":"check kl","inputs":{"ell":null,"in":"t.json","omega":"euclidean",'
            '"samples":null,"seed":0,"tol":1.0000000000000001e-09},"results":[{"name":'
            '"kl_nonpositive","pass":true,"tolerance":1.0000000000000001e-09,"value":'
            '{"equality":false,"q":-1.0625}}],"version":"0.1.0"}\n')

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
        (["gen", "2", "2", "1", "--he", "nan"], "usage", "--he must be a finite slope"),
        (["gen", "2", "2", "1", "--strong-flat", "--he", "inf"], "usage",
         "--he must be a finite slope"),
        (["gen", "2", "2", "1", "--he", "1e60"], "validation", "would overflow"),
        (["gen", "2", "2", "1", "--flat", "--he", "-inf"], "usage", "--he must be a finite slope"),
        (["check", "he", "--in", "t.json", "--tol", "-1e-300"], "usage",
         "tolerance must be a finite number >= 0, got -1e-300"),
        (["gen", "2", "2", "--", "-1"], "usage", "seed must be a non-negative integer, got -1"),
        (["gen", "2", "2", "-3", "--flat"], "usage", "seed must be a non-negative integer, got -3"),
        (["verify", "identity9", "--in", "t.json", "--seed", "-5"], "usage",
         "seed must be a non-negative integer, got -5"),
        (["verify", "moments", "--r", "2", "--k", "1", "--samples", "10", "--seed", "-5"],
         "usage", "seed must be a non-negative integer, got -5"),
        (["check", "lhe", "--in", "t.json", "--seed", "-5"], "usage",
         "seed must be a non-negative integer, got -5"),
        (["moments", "--r", "2", "--lambdas", "1", "--samples", "10", "--seed", "-5"], "usage",
         "seed must be a non-negative integer, got -5")],
        ids=["in-dir", "out-dir", "omega-dir", "deep-tensor", "deep-omega", "gen-he-nan",
             "gen-strong-flat-he-inf", "gen-he-oversized", "gen-he-minus-inf",
             "check-tol-exponent", "gen-seed", "gen-flat-seed", "verify-identity9-seed",
             "verify-moments-seed", "check-lhe-seed", "moments-seed"])
    def test_bad_input_is_one_error_line(self, tmp_path, argv, kind, words):
        # in a child process, so that a traceback or a warning on stderr would show
        (tmp_path / "t.json").write_text('{"n": 2, "r": 1, "coeffs": []}')
        (tmp_path / "deep.json").write_text("[" * 100_000)
        code, out, err = run_child(tmp_path, *argv)
        assert (code, err, out.count("\n")) == (2, "", 1)
        error = json.loads(out)["error"]
        assert error["type"] == kind and words in error["message"]


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
        code, out = run_cli(capsys, "moments", "--r", "3", "--lambdas", "1",
                            "--samples", "50000")
        assert code == 0
        report = json.loads(out)
        row = {r["name"]: r for r in report["results"]}["mc_gap_stderr_units"]
        assert row["value"]["units"] <= 4


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
        err = json.loads(out)["error"]
        assert err["type"] == "usage" and "finite" in err["message"]


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
