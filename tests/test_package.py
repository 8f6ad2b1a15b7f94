"""The lazy package namespace and the CLI's BLAS thread setting, checked in child processes."""

import os
import subprocess
import sys

import pytest

import segreform
from segreform import curvature, exterior, inequalities, kahler, moments, projective, symfun

from conftest import child_env

HOMES = (curvature, exterior, inequalities, kahler, moments, projective, symfun)


def run_child(code, **env):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
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
