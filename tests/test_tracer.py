"""The benchmark's span tracer (perfbench/tracer.py) still wraps the package."""

import importlib.util
import inspect
import sys
from pathlib import Path

from segreform import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_attributes():
    """Every attribute of the segreform modules and of their classes, by owner."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "segreform" or name.startswith("segreform.")):
            continue
        out[name] = dict(vars(mod))
        for attr, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == name:
                out[f"{name}.{attr}"] = dict(vars(obj))
    return out


def test_tracer_counts_a_pipeline_and_uninstalls(tmp_path, capsys):
    before = package_attributes()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        inst = str(tmp_path / "he22.json")
        assert cli.main(["gen", "2", "2", "0", "--he", "1.0", "--out", inst]) == 0
        assert cli.main(["check", "kl", "--in", inst]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    counts = tracer.counts()
    assert counts["exterior.wedge_calls"] > 0
    assert counts["curvature.chern_calls"] > 0
    after = package_attributes()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys()
        for attr, obj in attrs.items():
            assert after[owner][attr] is obj, f"{owner}.{attr} left patched"
