"""The lazy package namespace, and the CLI process's BLAS threads, imports and
garbage-collector freeze, checked in child processes; the one reader of the
direction stream, its callers, the one home of each input bound, of the
sample-count rule, of the block rule and of the byte refusal, and the use of
every imported name, checked in the sources; and the test suite's warning
filters, checked in a child pytest run."""

import ast
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import segreform
from segreform import (cli, curvature, exterior, inequalities, kahler, moments, projective, report,
                       symfun)

from conftest import child_env

HOMES = (curvature, exterior, inequalities, kahler, moments, projective, symfun)


def run_child(code, *argv, **env):
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=dict(child_env(), **env), check=True)
    return proc.stdout.split()


class TestLazyNamespace:
    def test_import_loads_no_numpy(self):
        assert run_child("import sys, segreform; print('numpy' in sys.modules)") == ["False"]

    def test_star_import_binds_home_objects(self):
        namespace = {}
        exec("from segreform import *", namespace)
        assert set(segreform.__all__) <= set(namespace)
        assert namespace["__version__"] == segreform.__version__
        for name in segreform.__all__:
            if name == "__version__":
                continue
            found = [vars(mod)[name] for mod in HOMES if name in vars(mod)]
            assert found and all(obj is namespace[name] for obj in found)
            assert getattr(segreform, name) is namespace[name]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            segreform.no_such_name  # noqa: B018
        assert not hasattr(segreform, "no_such_name")

    def test_dir_lists_all(self):
        assert set(segreform.__all__) <= set(dir(segreform))
        assert run_child("import segreform; print(set(segreform.__all__) <= set(dir(segreform)))") \
            == ["True"]


class TestBlasThreads:
    PROBE = ("import os, segreform.cli; "
             "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_cli_runs_one_thread_by_default(self):
        assert "OPENBLAS_NUM_THREADS" not in child_env()
        assert run_child(self.PROBE) == ["1", "1"]

    def test_user_setting_wins(self):
        probe = "import os, segreform.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert run_child(probe, OPENBLAS_NUM_THREADS="2") == ["2"]


class TestProcessEntry:
    """`python -m segreform.cli` and the `segreform` script run through one entry, which
    freezes the import heap; each subcommand imports only the layers it runs."""

    # runs the CLI as __main__ with argv, then prints the freeze count and the loaded
    # segreform modules at exit, after the entry's sys.exit
    PROBE = ("import atexit, gc, runpy, sys\n"
             "atexit.register(lambda: print(gc.get_freeze_count(), *sorted(\n"
             "    m for m in sys.modules if m.split('.')[0] == 'segreform')))\n"
             "sys.argv[0] = 'segreform'\n"
             "runpy.run_module('segreform.cli', run_name='__main__')\n")
    BASE = {"segreform", "segreform.curvature", "segreform.exterior", "segreform.report"}

    def run_cli_child(self, *argv):
        freeze_count, *loaded = run_child(self.PROBE, *argv)
        return int(freeze_count), set(loaded)

    def test_each_subcommand_loads_only_its_layers(self, tmp_path):
        inst, out = str(tmp_path / "he22.json"), str(tmp_path / "out.json")
        assert self.run_cli_child("gen", "2", "2", "1", "--he", "1.0", "--out", inst)[1] \
            == self.BASE
        assert self.run_cli_child("check", "he", "--in", inst, "--out", out)[1] == self.BASE
        assert self.run_cli_child("check", "kl", "--in", inst, "--out", out)[1] \
            == self.BASE | {"segreform.inequalities"}
        assert self.run_cli_child("moments", "--r", "2", "--lambdas", "1", "--samples", "100",
                                  "--out", out)[1] == self.BASE | {"segreform.moments"}
        # the fiber identities compare against gamma_k of eigenvalues
        assert "segreform.symfun" in self.run_cli_child("verify", "pushforward", "--in", inst,
                                                        "--out", out)[1]

    def test_a_report_loads_neither_dataclasses_nor_copy(self, tmp_path):
        probe = ("import atexit, runpy, sys\n"
                 "atexit.register(lambda: print(*(m in sys.modules\n"
                 "                                for m in ('dataclasses', 'copy'))))\n"
                 "sys.argv[0] = 'segreform'\n"
                 "runpy.run_module('segreform.cli', run_name='__main__')\n")
        assert run_child(probe, "moments", "--r", "2", "--lambdas", "1", "--samples", "100",
                         "--out", str(tmp_path / "out.json")) == ["False", "False"]

    def test_sampling_loads_no_numpy_random(self, tmp_path):
        # the one random stream is segreform's own: no numpy.random, nor its secrets and hashlib
        probe = ("import atexit, runpy, sys\n"
                 "atexit.register(lambda: print(*(m in sys.modules\n"
                 "                                for m in ('numpy.random', 'secrets', 'hashlib'))))\n"
                 "sys.argv[0] = 'segreform'\n"
                 "runpy.run_module('segreform.cli', run_name='__main__')\n")
        inst, out = str(tmp_path / "he33.json"), str(tmp_path / "out.json")
        for argv in (["gen", "3", "3", "1", "--he", "1.0", "--out", inst],
                     ["verify", "identity9", "--in", inst, "--samples", "30", "--out", out],
                     ["verify", "moments", "--samples", "20000", "--out", out],
                     ["check", "lhe", "--in", inst, "--samples", "100", "--out", out],
                     ["moments", "--r", "2", "--lambdas", "1", "--samples", "100", "--out", out]):
            assert run_child(probe, *argv) == ["False"] * 3, argv

    def test_sampling_loads_neither_fractions_nor_decimal(self, tmp_path):
        # only moment_wick's exact moments are fractions, which import decimal
        probe = ("import atexit, runpy, sys\n"
                 "atexit.register(lambda: print(*(m in sys.modules\n"
                 "                                for m in ('fractions', 'decimal'))))\n"
                 "sys.argv[0] = 'segreform'\n"
                 "runpy.run_module('segreform.cli', run_name='__main__')\n")
        inst, out = str(tmp_path / "he33.json"), str(tmp_path / "out.json")
        assert run_child(probe, "gen", "3", "3", "1", "--he", "1.0", "--out", inst) \
            == ["False"] * 2
        for argv in (["verify", "pushforward", "--in", inst, "--k", "2", "--samples", "30"],
                     ["verify", "identity8", "--in", inst, "--samples", "30"],
                     ["verify", "identity9", "--in", inst, "--samples", "30"],
                     ["check", "lhe", "--in", inst, "--samples", "100"]):
            assert run_child(probe, *argv, "--out", out) == ["False"] * 2, argv

    def test_entry_freezes_the_import_heap(self, tmp_path):
        freeze_count, _ = self.run_cli_child("gen", "2", "2", "1", "--out",
                                             str(tmp_path / "t.json"))
        assert freeze_count > 0

    def test_main_in_process_freezes_nothing(self, tmp_path, capsys):
        before = gc.get_freeze_count()
        inst = str(tmp_path / "t.json")
        assert cli.main(["gen", "2", "2", "1", "--he", "1.0", "--out", inst]) == 0
        assert cli.main(["check", "he", "--in", inst]) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    def test_console_script_and_main_block_share_the_entry(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        root = Path(cli.__file__).resolve().parents[2]
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["segreform"]
        module, _, name = target.partition(":")
        assert module == "segreform.cli" and getattr(cli, name) is cli.run
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        [block] = [node for node in tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert ast.unparse(block).splitlines()[1:] == [f"    {name}()"]


class TestOneReduction:
    def test_only_sample_stats_reads_the_direction_stream(self):
        # every sampler and sampled check averages through moments._sample_stats, so no
        # function of the package may name direction_chunks and fork the estimator again
        readers = set()
        for path in sorted(Path(moments.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                if any(getattr(node, "id", getattr(node, "attr", None)) == "direction_chunks"
                       for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))):
                    readers.add(f"{path.stem}.{getattr(top, 'name', type(top).__name__)}")
        assert readers == {"moments._sample_stats"}

    def test_only_the_library_samplers_call_sample_stats(self):
        # the samplers of moments and projective block their directions for _sample_stats:
        # any other caller, the CLI among them, calls a sampler
        callers = {path.stem for path in Path(moments.__file__).parent.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Call)
                   and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_sample_stats"}
        assert callers == {"moments", "projective"}


class TestRaisedTypes:
    def test_every_raise_is_a_type_the_cli_maps_or_library_misuse(self):
        # cli.main turns ValueError and its subclasses into one error line, and argparse its
        # own type errors; TypeError and AttributeError mark calls that argv cannot make.  Any
        # other class raised in the package would reach the user as a traceback
        allowed = {"ValueError", "UsageError", "PreconditionError", "TensorValidationError",
                   "NonFiniteError", "argparse.ArgumentTypeError", "TypeError", "AttributeError"}
        raised = {}
        for path in sorted(Path(moments.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised.setdefault(ast.unparse(exc), set()).add(path.name)
        assert {name: files for name, files in raised.items() if name not in allowed} == {}
        assert all(issubclass(cls, ValueError) for cls in (
            cli.UsageError, curvature.PreconditionError, curvature.TensorValidationError,
            report.NonFiniteError))


class TestImports:
    def test_every_imported_name_is_read(self):
        # no linter runs on the package: a name an import binds and the module never reads
        # is a dependency the code does not have
        for path in sorted(Path(moments.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            bound = {(alias.asname or alias.name).partition(".")[0]
                     for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                     and getattr(node, "module", None) != "__future__" for alias in node.names}
            assert bound <= read, (path.name, sorted(bound - read))


class TestOneHomePerBound:
    def test_only_the_checked_types_read_the_input_bounds(self):
        # a bound on the tensor or on omega is checked where the input is built, so no other
        # function may apply it again, differently, or in place of the type
        bounds = ("MAX_TOP_POWER", "MAX_OMEGA_CONDITION")
        readers = {bound: set() for bound in bounds}
        for path in sorted(Path(curvature.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                for node in ast.walk(top):
                    name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                            else node.attr if isinstance(node, ast.Attribute)
                            else node.name if isinstance(node, ast.alias) else None)
                    if name in bounds:
                        readers[name].add(f"{path.stem}.{getattr(top, 'name', type(top).__name__)}")
        assert readers == {"MAX_TOP_POWER": {"curvature.Kaehler11", "curvature.CurvatureTensor"},
                           "MAX_OMEGA_CONDITION": {"curvature.Kaehler11"}}
        assert not any(bound in Path(cli.__file__).read_text(encoding="utf-8") for bound in bounds)

    def test_only_sample_stats_refuses_a_sample_count(self):
        # every sampled statistic needs two directions, a rule that moments._sample_stats
        # alone raises on: the samplers inherit it, and the CLI's parser bounds --samples
        raisers = [f"{path.stem}.{getattr(top, 'name', type(top).__name__)}"
                   for path in sorted(Path(moments.__file__).parent.glob("*.py"))
                   for top in ast.parse(path.read_text(encoding="utf-8")).body
                   for node in ast.walk(top)
                   if isinstance(node, ast.Raise) and "samples" in ast.unparse(node)]
        assert raisers == ["moments._sample_stats"]

    def test_one_block_rule_sizes_every_projective_sampler(self):
        # _block_rows of a sampler's degrees is the one rule for its block size, and the one
        # reader of _BLOCK_BYTES: no sampler sizes its blocks by a rule of its own
        readers, sizes = set(), {}
        for path in sorted(Path(moments.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                where = f"{path.stem}.{getattr(top, 'name', type(top).__name__)}"
                for node in ast.walk(top):
                    if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                            and node.id == "_BLOCK_BYTES"
                            or isinstance(node, ast.Attribute) and node.attr == "_BLOCK_BYTES"):
                        readers.add(where)
                    if (path.stem == "projective" and isinstance(node, ast.Call)
                            and ast.unparse(node.func) == "_sample_stats"):
                        rows = node.args[4:] + [kw.value for kw in node.keywords
                                                if kw.arg == "rows"]
                        sizes[where] = [ast.unparse(size) for size in rows]
        assert readers == {"projective._block_rows"}
        assert sorted(sizes) == ["projective.gamma_profile", "projective.identity_max",
                                 "projective.pushforward_mc"]
        assert all(len(rows) == 1 and rows[0].startswith("_block_rows(") for rows in sizes.values())

    def test_one_admission_rule_refuses_a_degree_by_its_bytes(self):
        # projective._admit alone reads _DIRECTION_BYTES, and its raise is the only one that
        # names bytes: a sampler's direction and the exact walk are refused by one rule
        readers, raisers = set(), []
        for path in sorted(Path(moments.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                where = f"{path.stem}.{getattr(top, 'name', type(top).__name__)}"
                for node in ast.walk(top):
                    if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                            and node.id == "_DIRECTION_BYTES"
                            or isinstance(node, ast.Attribute) and node.attr == "_DIRECTION_BYTES"):
                        readers.add(where)
                    if isinstance(node, ast.Raise) and "bytes" in ast.unparse(node):
                        raisers.append(where)
        assert readers == {"projective._admit"}
        assert raisers == ["projective._admit"]


FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


class TestPytestSettings:
    def test_a_failing_property_test_does_not_end_the_run(self, tmp_path):
        # hypothesis imports libcst to write a patch for a failing @given test, and libcst warns
        # as it loads: under filterwarnings = error that ended the run as an INTERNALERROR
        (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY, encoding="utf-8")
        pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
        proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(pyproject),
                               "-p", "no:cacheprovider", "test_pair.py"], cwd=tmp_path,
                              capture_output=True, text=True, env=child_env(), timeout=300)
        assert "INTERNALERROR" not in proc.stdout + proc.stderr
        assert proc.returncode == 1 and "1 failed, 1 passed" in proc.stdout
